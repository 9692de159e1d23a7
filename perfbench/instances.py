"""Instance generators for the benchmark, written as plain JSON dicts.

Faces of the n-cube are words over {0, 1, *}: position i is 0 or 1 when
the face lies in the facet x_i = 0 or x_i = 1, and * when coordinate i
is free.  The top face is all stars, vertices have no star.  The facets
x_i = 0 and x_i = 1 both carry the label e_i (the "coordinate labels"),
which makes the model the real torus T^n.

A cube symmetry is a permutation of positions plus a flip per position.
The benchmark seed picks one; every face choice below is the image of a
fixed canonical face under it, so the work does not depend on the seed.
"""

from __future__ import annotations

import itertools
import random


def random_symmetry(n: int, rng: random.Random) -> tuple[list[int], list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    flips = [rng.randrange(2) for _ in range(n)]
    return perm, flips


def apply_symmetry(word: str, sym: tuple[list[int], list[int]]) -> str:
    perm, flips = sym
    out = ["*"] * len(word)
    for i, ch in enumerate(word):
        out[perm[i]] = ch if ch == "*" else str(int(ch) ^ flips[i])
    return "".join(out)


def cube_faces(n: int) -> list[str]:
    return ["".join(w) for w in itertools.product("01*", repeat=n)]


def ncube(n: int, basis: list[int] | None = None) -> dict:
    """The n-cube with coordinate labels; basis[i] is the GF(2)^n
    coordinate that the two facets of axis i are labelled with."""
    basis = list(range(n)) if basis is None else basis
    faces = cube_faces(n)
    inclusions = []
    for w in faces:
        for i, ch in enumerate(w):
            if ch == "*":
                for b in "01":
                    inclusions.append([w[:i] + b + w[i + 1 :], w])
    lam = {}
    for w in faces:
        fixed = [i for i, ch in enumerate(w) if ch != "*"]
        if len(fixed) == 1:
            lam[w] = [1 if j == basis[fixed[0]] else 0 for j in range(n)]
    return {
        "name": f"cube{n}",
        "dim": n,
        "faces": [{"id": w, "codim": n - w.count("*")} for w in faces],
        "inclusions": sorted(inclusions),
        "lambda": lam,
    }


def barycentric(data: dict) -> dict:
    """The same instance given with its barycentric triangulation: one
    point per face, one simplex per chain of faces, carried by the
    chain's largest face.  For a polytope this is a genuine
    triangulation of Q, so the CLI runs in mode B."""
    codim = {f["id"]: f["codim"] for f in data["faces"]}
    faces = sorted(codim, key=lambda f: (codim[f], f))
    index = {f: i for i, f in enumerate(faces)}
    children: dict[str, list[str]] = {f: [] for f in faces}
    for child, parent in data["inclusions"]:
        children[parent].append(child)
    below: dict[str, set[str]] = {}
    for f in sorted(faces, key=lambda f: -codim[f]):
        below[f] = {f}.union(*(below[c] for c in children[f]))
    simplices = []

    def grow(chain: list[str]) -> None:
        simplices.append(
            {"verts": sorted(index[g] for g in chain), "carrier": chain[0]}
        )
        for g in below[chain[-1]]:
            if g != chain[-1]:
                grow(chain + [g])

    for f in faces:
        grow([f])
    simplices.sort(key=lambda s: (len(s["verts"]), s["verts"]))
    out = dict(data)
    out["name"] = data["name"] + "_barycentric"
    out["triangulation"] = {"points": len(faces), "simplices": simplices}
    return out
