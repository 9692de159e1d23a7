"""Output checks derived from the mathematics, not from byte goldens.

Every expectation is computed here from the instance JSON (face counts,
containment, labels) or from a closed form, never by calling z2torus,
so a justified change in how the program prints or computes something
does not read as a failure, while a wrong number does.  Each checker
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from math import comb
from pathlib import Path


# -- facts read off an instance JSON ------------------------------------


class Facts:
    """Counts and containment of one instance, from its JSON dict."""

    def __init__(self, data: dict):
        self.n = data["dim"]
        self.codim = {f["id"]: f["codim"] for f in data["faces"]}
        self.lam = {F: tuple(bits) for F, bits in data.get("lambda", {}).items()}
        parents: dict[str, list[str]] = {f: [] for f in self.codim}
        children: dict[str, list[str]] = {f: [] for f in self.codim}
        for child, parent in data["inclusions"]:
            parents[child].append(parent)
            children[parent].append(child)
        self.above = _closure(self.codim, parents)
        self.below = _closure(self.codim, children)

    def of_codim(self, k: int) -> list[str]:
        return sorted(f for f, c in self.codim.items() if c == k)

    @property
    def facets(self) -> list[str]:
        return self.of_codim(1)

    @property
    def vertices(self) -> list[str]:
        return self.of_codim(self.n)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.of_codim(i + 1)) for i in range(self.n))

    def h_vector(self) -> tuple[int, ...]:
        """h_i from sum_i h_i t^(n-i) = sum_i f_(i-1) (t-1)^(n-i), f_(-1) = 1."""
        n, f = self.n, (1,) + self.f_vector()
        return tuple(
            sum((-1) ** (i - j) * comb(n - j, i - j) * f[j] for j in range(i + 1))
            for i in range(n + 1)
        )

    def facet_rows(self) -> list[str]:
        """Facet-vertex incidence rows, one per facet."""
        vs = self.vertices
        return [
            "".join("1" if F in self.above[v] else "0" for v in vs) for F in self.facets
        ]

    def label_basis(self) -> bool:
        """Do the distinct facet labels form a basis of GF(2)^n?"""
        distinct = {_bits_to_int(b) for b in self.lam.values()}
        return len(distinct) == self.n and gf2_rank(distinct) == self.n

    def label_sum(self) -> str:
        """Sum of the distinct facet labels, as printed (bit i at place i)."""
        total = 0
        for x in {_bits_to_int(b) for b in self.lam.values()}:
            total ^= x
        return _bit_string(total, self.n)


def _closure(faces: dict[str, int], adj: dict[str, list[str]]) -> dict[str, frozenset]:
    memo: dict[str, frozenset] = {}

    def reach(f: str) -> frozenset:
        if f not in memo:
            memo[f] = frozenset({f}).union(*(reach(g) for g in adj[f]))
        return memo[f]

    for f in faces:
        reach(f)
    return memo


def _bits_to_int(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def _bit_string(x: int, n: int) -> str:
    return "".join(str((x >> i) & 1) for i in range(n))


def load_facts(path: str | Path) -> Facts:
    return Facts(json.loads(Path(path).read_text()))


# -- small independent algebra ------------------------------------------


def gf2_rank(rows) -> int:
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def min_weight(rows: list[int]) -> int:
    """Minimum weight of a nonzero word in the span, by enumeration."""
    span = {0}
    for r in rows:
        span |= {w ^ r for w in span}
    return min(w.bit_count() for w in span if w)


def series(h: tuple[int, ...], n: int, max_deg: int) -> tuple[int, ...]:
    """Coefficients of h(t) / (1-t)^n up to t^max_deg."""
    coeffs = list(h[: max_deg + 1]) + [0] * max(0, max_deg + 1 - len(h))
    for _ in range(n):  # multiply by 1/(1-t): prefix sums
        for k in range(1, max_deg + 1):
            coeffs[k] += coeffs[k - 1]
    return tuple(coeffs)


def torus_gkm_dims(n: int, max_deg: int) -> tuple[int, ...]:
    """H_T of the real torus T^n: ((1+t)/(1-t))^n = sum_j C(n,j) (2t/(1-t))^j,
    so dims_k = sum_j C(n,j) 2^j C(k-1,j-1) for k >= 1."""
    return (1,) + tuple(
        sum(comb(n, j) * 2**j * comb(k - 1, j - 1) for j in range(1, n + 1))
        for k in range(1, max_deg + 1)
    )


# -- the report ------------------------------------------------------------


def _tuple(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.strip("()").split(",") if x.strip())


def parse_report(text: str) -> dict:
    """Key=value tokens of a `report`, keyed by the line they come from."""
    out: dict = {"code_rows": []}
    for line in text.splitlines():
        tokens = dict(re.findall(r"(\w+)=(\([^)]*\)|\S+)", line))
        if line.startswith("name="):
            out["header"] = tokens
        elif line.startswith("f="):
            out["f"], out["h"] = _tuple(tokens["f"]), _tuple(tokens["h"])
        elif line.startswith("mode="):
            out["betti_line"] = tokens
        elif line.startswith("fixed_points="):
            out["formality"] = tokens
        elif line.startswith("hsiang="):
            out["verdicts"] = tokens
        elif line.startswith("equivariant_dims="):
            out["gkm"] = tokens
        elif line.startswith("gkm: skipped"):
            out["gkm_skipped"] = True
        elif line.startswith("m_involution="):
            out["m_involution"] = tokens
        elif re.fullmatch(r"[01]+", line):
            out["code_rows"].append(line)
        elif m := re.fullmatch(r"\[(\d+),(\d+),(\d+)\] self_dual=(\w+)", line):
            out["code"] = tuple(int(x) for x in m.groups()[:3]) + (m.group(4) == "true",)
        elif line.startswith("code: skipped"):
            out["code_skipped"] = True
    return out


def expect_report(data: dict, betti: tuple[int, ...], torus: bool = False) -> dict:
    """Everything a correct `report` on this instance must say.

    betti is the known mod-2 Betti vector of the model's manifold;
    torus marks the coordinate-labelled n-cube, whose model is T^n.
    """
    facts = Facts(data)
    nv = len(facts.vertices)
    hsiang = sum(betti) == nv
    skip = nv == 0  # no vertices: no GKM graph, no code
    return {
        "name": data["name"],
        "n": facts.n,
        "faces": len(facts.codim),
        "facets": len(facts.facets),
        "vertices": nv,
        "f": facts.f_vector(),
        "h": facts.h_vector(),
        "betti": tuple(betti),
        "hsiang": hsiang,
        "mode": "B" if "triangulation" in data else "A",
        "gkm_skipped": skip,
        "code_rows": None if skip else facts.facet_rows(),
        # exists iff the label image is a basis and Q is face-acyclic,
        # which for these instances is exactly when Hsiang's bound holds;
        # then it is the sum of the image
        "m_involution": facts.label_basis() and hsiang,
        "involution_g": facts.label_sum(),
        "rc": 2 if skip else 0,
        "torus": torus,
    }


def check_report(text: str, rc: int, exp: dict) -> list[str]:
    bad: list[str] = []

    def want(what: str, got, wanted) -> None:
        if got != wanted:
            bad.append(f"{exp['name']}: {what} is {got!r}, expected {wanted!r}")

    want("exit code", rc, exp["rc"])
    r = parse_report(text)
    n, b = exp["n"], exp["betti"]
    hd = r.get("header", {})
    want("dim", hd.get("dim"), str(n))
    for key in ("faces", "facets", "vertices"):
        want(key, hd.get(key), str(exp[key]))
    want("f-vector", r.get("f"), exp["f"])
    want("h-vector", r.get("h"), exp["h"])
    bl, fm, vd = r.get("betti_line", {}), r.get("formality", {}), r.get("verdicts", {})
    want("mode", bl.get("mode"), exp["mode"])
    want("betti", _tuple(bl.get("betti", "()")), b)
    want("formality betti", _tuple(fm.get("betti", "()")), b)
    want("betti sum", bl.get("sum"), str(sum(b)))
    want("betti Poincare duality", b, b[::-1])
    want("fixed_points", fm.get("fixed_points"), str(exp["vertices"]))
    want("hsiang", vd.get("hsiang"), _b(exp["hsiang"]))
    want("agree", vd.get("agree"), "true")
    if exp["hsiang"]:
        want("h_identity", vd.get("h_identity"), "true")
        want("betti = h", b, exp["h"])

    max_deg = 2 * n
    if exp["gkm_skipped"]:
        want("gkm skipped", r.get("gkm_skipped"), True)
    else:
        gk = r.get("gkm", {})
        eq = _tuple(gk.get("equivariant_dims", "()"))
        want("gkm match", gk.get("match"), _b(exp["hsiang"]))
        if exp["hsiang"]:
            want("equivariant dims", eq, series(exp["h"], n, max_deg))
        if exp["torus"]:
            want("torus equivariant dims", eq, torus_gkm_dims(n, max_deg))

    mi = r.get("m_involution", {})
    want("m_involution", mi.get("m_involution"), _b(exp["m_involution"]))
    if exp["m_involution"]:
        want("involution g", mi.get("g"), exp["involution_g"])
    if exp["code_rows"] is None:
        want("code skipped", r.get("code_skipped"), True)
        return bad
    # row and column order are presentation: compare the weights, and
    # parameters that do not depend on either order
    rows = exp["code_rows"]
    want("code row weights", sorted(row.count("1") for row in r["code_rows"]),
         sorted(row.count("1") for row in rows))
    ints = [int(row[::-1], 2) for row in rows]
    length, dim = exp["vertices"], gf2_rank(ints)
    self_dual = 2 * dim == length and all(
        (a & c).bit_count() % 2 == 0 for a in ints for c in ints
    )
    want("code parameters", r.get("code"), (length, dim, min_weight(ints), self_dual))
    if exp["torus"]:
        # Reed-Muller RM(1, n); its dual RM(n-2, n) equals it only for n = 3
        want("torus code", r.get("code"), (2**n, n + 1, 2 ** (n - 1), n == 3))
    return bad


def _b(flag: bool) -> str:
    return "true" if flag else "false"


# -- blow-up ---------------------------------------------------------------


def check_blowup(text: str, rc: int, before: Facts, face: str, out: Path) -> list[str]:
    """Counting identities of a cut at `face`, checked against the
    printed line and the written file."""
    bad: list[str] = []
    k = before.codim[face]
    inside = before.below[face]
    nv_face = sum(1 for g in inside if before.codim[g] == before.n)
    vertices = len(before.vertices) + (k - 1) * nv_face
    # faces inside f are replaced by f' x (nonempty subsets of the k facets through f)
    faces = len(before.codim) + len(inside) * (2**k - 2)
    label = 0
    for F in before.above[face]:
        if before.codim[F] == 1:
            label ^= _bits_to_int(before.lam[F])
    label_str = _bit_string(label, before.n)
    tokens = dict(re.findall(r"(\w+)=(\S+)", text))
    expected = {"cut": face, "faces": str(faces), "vertices": str(vertices), "label": label_str}
    if rc != 0:
        bad.append(f"blowup {face}: exit code {rc}")
    for key, value in expected.items():
        if tokens.get(key) != value:
            bad.append(f"blowup {face}: {key} is {tokens.get(key)!r}, expected {value!r}")
    if f"wrote {out}" not in text:
        bad.append(f"blowup {face}: no 'wrote {out}' line")
        return bad
    after = load_facts(out)
    if (len(after.codim), len(after.vertices)) != (faces, vertices):
        bad.append(
            f"blowup {face}: file has {len(after.codim)} faces, {len(after.vertices)} "
            f"vertices, expected {faces}, {vertices}"
        )
    return bad


# -- GKM dimensions -------------------------------------------------------


def check_gkm(dims, edges: int, data: dict, max_deg: int, torus: bool) -> list[str]:
    facts = Facts(data)
    n, name = facts.n, data["name"]
    bad = []
    want_edges = n * len(facts.vertices) // 2
    if edges != want_edges:
        bad.append(f"{name}: GKM graph has {edges} edges, expected {want_edges}")
    wanted = series(facts.h_vector(), n, max_deg)
    if tuple(dims) != wanted:
        bad.append(f"{name}: equivariant dims {dims}, expected face ring {wanted}")
    if torus and tuple(dims) != torus_gkm_dims(n, max_deg):
        bad.append(f"{name}: equivariant dims {dims} break the T^{n} closed form")
    return bad
