"""Instance files: the JSON schema the CLI speaks.

Keys: "name", "dim", "faces" [{"id","codim"}], "inclusions"
[[child,parent]] (child inside parent, codim difference one), optional
"lambda" {facet: [n bits]}, optional "triangulation" {"points": count,
"simplices": [{"verts": [...], "carrier": id}]} listing every simplex
of every dimension.  Parsing returns a fully validated Instance or
raises InputError carrying all witnesses found.  Files are written in
the layout of json.dumps(indent=1), byte for byte, with keys in the
order above.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
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


def _not_unicode(strings: Iterable[str]) -> list[str]:
    """One witness per distinct string that UTF-8 cannot encode: JSON
    admits lone surrogates such as "\\ud800", Unicode text does not."""
    strings = list(strings)
    try:
        "".join(strings).encode("utf-8")  # joining never pairs surrogates
        return []
    except UnicodeEncodeError:
        pass
    found = []
    for s in dict.fromkeys(strings):
        try:
            s.encode("utf-8")
        except UnicodeEncodeError:
            found.append(f"string {s!r} is not valid Unicode: it holds a lone surrogate")
    return found


@dataclass
class Instance:
    name: str
    poset: FacePoset
    lam: CharFunction | None
    triangulation: CarrierComplex | None

    @property
    def base(self) -> CarrierComplex | FacePoset:
        """The cell complex the model is built on: the triangulation in
        mode B, else the poset."""
        return self.poset if self.triangulation is None else self.triangulation


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


_str = json.encoder.encode_basestring_ascii  # the C string encoder json.dumps uses


def _array(items: list[str], pad: int) -> str:
    """A JSON array of rendered items, laid out as json.dumps(indent=1)
    lays it out at nesting depth pad."""
    if not items:
        return "[]"
    sep = "\n" + " " * (pad + 1)
    return "[" + sep + ("," + sep).join(items) + "\n" + " " * pad + "]"


def _object(pairs: list[tuple[str, str]], pad: int) -> str:
    """A JSON object of keys and rendered values, as _array lays out arrays."""
    if not pairs:
        return "{}"
    sep = "\n" + " " * (pad + 1)
    body = ("," + sep).join(f"{_str(k)}: {v}" for k, v in pairs)
    return "{" + sep + body + "\n" + " " * pad + "}"


def instance_text(inst: Instance) -> str:
    """The instance file's text: byte for byte what json.dumps(indent=1)
    writes, plus a newline, with keys in a fixed order.  json.dumps with
    an indent runs CPython's pure-Python encoder, so this writes the
    layout itself and leaves only the strings to the C encoder."""
    p = inst.poset
    # a face and an inclusion have fixed layouts, each written by one format
    face, cover = '{\n   "id": %s,\n   "codim": %s\n  }', "[\n   %s,\n   %s\n  ]"
    faces = [face % (_str(f), p.codims[f]) for f in p.faces()]
    covers = [cover % (_str(c), _str(q)) for c, q in p.covers]
    top = [
        ("name", _str(inst.name)),
        ("dim", str(p.n)),
        ("faces", _array(faces, 1)),
        ("inclusions", _array(covers, 1)),
    ]
    if inst.lam is not None:
        lam = inst.lam
        bits = [(F, _array([str(b) for b in lam.vec(F).to_bits()], 2)) for F in sorted(lam.values)]
        top.append(("lambda", _object(bits, 1)))
    if inst.triangulation is not None:
        tri = inst.triangulation
        simplices = []
        for sx in sorted(tri.simplices, key=lambda s: (len(s), s)):
            verts = _array([str(v) for v in sx], 4)
            simplices.append(_object([("verts", verts), ("carrier", _str(tri.simplices[sx]))], 3))
        fields = [("points", str(tri.n_points)), ("simplices", _array(simplices, 2))]
        top.append(("triangulation", _object(fields, 1)))
    return _object(top, 0) + "\n"


def serialize_instance(inst: Instance) -> dict:
    """The instance as the JSON value its file holds."""
    return json.loads(instance_text(inst))


def save_instance(inst: Instance, path: str | Path) -> None:
    try:
        Path(path).write_text(instance_text(inst))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")
