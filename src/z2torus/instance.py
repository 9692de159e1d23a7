"""Instance files: the JSON schema the CLI speaks.

Keys: "name", "dim", "faces" [{"id","codim"}], "inclusions"
[[child,parent]] (child inside parent, codim difference one), optional
"lambda" {facet: [n bits]}, optional "triangulation" {"points": count,
"simplices": [{"verts": [...], "carrier": id}]} listing every simplex
of every dimension.  Parsing returns a fully validated Instance or
raises InputError carrying all witnesses found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .charfunc import CharFunction, validate_lambda
from .complexes import CarrierComplex, validate_carriers
from .errors import InputError
from .gf2 import Vec
from .poset import FacePoset, validate

TOP_KEYS = {"name", "dim", "faces", "inclusions", "lambda", "triangulation"}
MAX_DIM = 64  # poset.fh_vectors is super-quadratic in dim
MAX_DEG = 4 * MAX_DIM  # gkm --max-deg: twice its largest default, 2 * MAX_DIM


def _is_int(x: object) -> bool:
    """A JSON integer; bool is an int subclass in Python but not here."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class Instance:
    name: str
    poset: FacePoset
    lam: CharFunction | None
    triangulation: CarrierComplex | None


def parse_instance(data: object) -> Instance:
    errors: list[str] = []
    if not isinstance(data, dict):
        raise InputError("instance must be a JSON object")
    for key in data:
        if key not in TOP_KEYS:
            errors.append(f"unknown key {key!r}")
    for key in ("name", "dim", "faces", "inclusions"):
        if key not in data:
            errors.append(f"missing key {key!r}")
    if errors:
        raise InputError(errors)

    name = data["name"]
    n = data["dim"]
    if not isinstance(name, str):
        errors.append("name must be a string")
    if not _is_int(n) or n < 0:
        errors.append("dim must be a non-negative integer")
    elif n > MAX_DIM:
        errors.append(f"dim {n} exceeds the maximum {MAX_DIM}")
    for key in ("faces", "inclusions"):
        if not isinstance(data[key], list):
            errors.append(f"{key} must be a list")
    if errors:
        raise InputError(errors)
    codims: dict[str, int] = {}
    for entry in data["faces"]:
        if not isinstance(entry, dict) or set(entry) != {"id", "codim"}:
            errors.append(f"face entry {entry!r} must be {{id, codim}}")
            continue
        fid, k = entry["id"], entry["codim"]
        if not isinstance(fid, str) or not _is_int(k):
            errors.append(f"face entry {entry!r} has wrong types")
            continue
        if fid in codims:
            errors.append(f"duplicate face id {fid!r}")
        codims[fid] = k
    covers: set[tuple[str, str]] = set()
    for pair in data["inclusions"]:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, str) for x in pair)
        ):
            errors.append(f"inclusion {pair!r} must be [child, parent]")
            continue
        child, parent = pair
        for x in (child, parent):
            if x not in codims:
                errors.append(f"inclusion {pair!r} names unknown face {x!r}")
        covers.add((child, parent))
    if errors:
        raise InputError(errors)

    try:
        poset = FacePoset(n, codims, covers)
    except ValueError as exc:
        raise InputError(str(exc))
    rep = validate(poset)
    if not rep.sound:
        raise InputError(rep.structural + rep.simplicial + rep.nice)

    lam = None
    if "lambda" in data:
        raw = data["lambda"]
        if not isinstance(raw, dict):
            raise InputError("lambda must be an object mapping facet to bit list")
        values: dict[str, Vec] = {}
        for fid, bits in sorted(raw.items()):
            if not isinstance(bits, list) or len(bits) != n or any(
                not _is_int(b) or b not in (0, 1) for b in bits
            ):
                errors.append(f"lambda[{fid!r}] must be a list of {n} bits")
                continue
            values[fid] = Vec.from_bits(bits)
        if errors:
            raise InputError(errors)
        lam = CharFunction(n, values)
        lrep = validate_lambda(poset, lam)
        if not lrep.ok:
            raise InputError(lrep.witnesses())

    tri = None
    if "triangulation" in data:
        raw = data["triangulation"]
        if (
            not isinstance(raw, dict)
            or set(raw) != {"points", "simplices"}
            or not _is_int(raw["points"])
            or not isinstance(raw["simplices"], list)
        ):
            raise InputError("triangulation must be {points, simplices}")
        if raw["points"] > len(raw["simplices"]):
            # every point is its own 0-simplex (validate_carriers checks closure)
            raise InputError(
                f"triangulation points={raw['points']} exceeds the number of "
                f"listed simplices ({len(raw['simplices'])})"
            )
        simplices: dict[tuple[int, ...], str] = {}
        for entry in raw["simplices"]:
            if not isinstance(entry, dict) or set(entry) != {"verts", "carrier"}:
                errors.append(f"simplex entry {entry!r} must be {{verts, carrier}}")
                continue
            verts, carrier = entry["verts"], entry["carrier"]
            if (
                not isinstance(verts, list)
                or not verts
                or any(not _is_int(v) for v in verts)
                or sorted(set(verts)) != verts
            ):
                errors.append(f"simplex verts {verts!r} must be a sorted list of distinct ints")
                continue
            if any(v < 0 or v >= raw["points"] for v in verts):
                errors.append(f"simplex {verts!r} uses points outside 0..{raw['points'] - 1}")
                continue
            key = tuple(verts)
            if key in simplices:
                errors.append(f"simplex {verts!r} listed twice")
            if not isinstance(carrier, str) or carrier not in codims:
                errors.append(f"simplex {verts!r} carried by unknown face {carrier!r}")
                continue
            simplices[key] = carrier
        if errors:
            raise InputError(errors)
        tri = CarrierComplex(poset, raw["points"], simplices)
        crep = validate_carriers(tri, require_face_dims=True)
        if not crep.ok:
            raise InputError(crep.witnesses())
    return Instance(name, poset, lam, tri)


def load_instance(path: str | Path) -> Instance:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise InputError(f"{path} is nested too deeply")
    return parse_instance(data)


def serialize_instance(inst: Instance) -> dict:
    p = inst.poset
    out: dict = {
        "name": inst.name,
        "dim": p.n,
        "faces": [{"id": f, "codim": p.codim(f)} for f in p.faces()],
        "inclusions": sorted([c, q] for c, q in p.covers),
    }
    if inst.lam is not None:
        out["lambda"] = {F: inst.lam.vec(F).to_bits() for F in sorted(inst.lam.values)}
    if inst.triangulation is not None:
        tri = inst.triangulation
        out["triangulation"] = {
            "points": tri.n_points,
            "simplices": [
                {"verts": list(sx), "carrier": tri.simplices[sx]}
                for sx in sorted(tri.simplices, key=lambda s: (len(s), s))
            ],
        }
    return out


def save_instance(inst: Instance, path: str | Path) -> None:
    try:
        Path(path).write_text(json.dumps(serialize_instance(inst), indent=1) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")
