"""The instance parser's entry checks, one generator per vertex: the
oracle that the bulk type tests of `instance.parse_instance` are checked
against.  It shares the poset, lambda and carrier checks that follow."""

from __future__ import annotations

from z2torus.charfunc import CharFunction, validate_lambda
from z2torus.complexes import CarrierComplex, validate_carriers
from z2torus.errors import InputError
from z2torus.gf2 import Vec
from z2torus.instance import MAX_DIM, TOP_KEYS, Instance, _not_unicode
from z2torus.poset import FacePoset, validate


def _is_int(x: object) -> bool:
    """A JSON integer; bool is an int subclass in Python but not here."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_instance_oracle(data: object) -> Instance:
    """`parse_instance` with its entry checks written per entry and per
    vertex, by isinstance and Python generators."""
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
    covers: dict[tuple[str, str], None] = {}  # the file's order, duplicates collapsed
    unknown: list[str] = []  # the endpoints that are not face ids
    for pair in data["inclusions"]:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], str)
        ):
            errors.append(f"inclusion {pair!r} must be [child, parent]")
            continue
        child, parent = pair
        for x in (child, parent):
            if x not in codims:
                errors.append(f"inclusion {pair!r} names unknown face {x!r}")
                unknown.append(x)
        covers[(child, parent)] = None
    # the other endpoints, and the carriers, name face ids: checking these covers them
    errors.extend(_not_unicode([name, *codims, *unknown]))
    if errors:
        raise InputError(errors)

    try:
        poset = FacePoset(n, codims, covers)
    except ValueError as exc:
        raise InputError(str(exc))
    rep = validate(poset)
    if not rep.sound:
        raise InputError(rep.witnesses())

    lam = None
    if "lambda" in data:
        raw = data["lambda"]
        if not isinstance(raw, dict):
            raise InputError("lambda must be an object mapping facet to bit list")
        errors.extend(_not_unicode(raw))
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
        if raw["points"] < 0:
            raise InputError("triangulation points must be a non-negative integer")
        if raw["points"] == 0 and raw["simplices"]:
            raise InputError("triangulation has no points (points=0) for its simplices to use")
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
            if len(verts) > n + 1:  # _walk would list all its facets
                errors.append(
                    f"simplex {verts!r} has {len(verts)} points, more than dim + 1 = {n + 1}"
                )
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
        crep = validate_carriers(tri)
        if not crep.ok:
            raise InputError(crep.witnesses())
    return Instance(name, poset, lam, tri)
