"""Instance files: the JSON schema the CLI speaks.

Keys: "name", "dim", "faces" [{"id","codim"}], "inclusions"
[[child,parent]] (child inside parent, codim difference one), optional
"lambda" {facet: [n bits]}, optional "triangulation" {"points": count,
"simplices": [{"verts": [...], "carrier": id}]} listing every simplex
of every dimension.  Parsing returns a fully validated Instance or
raises InputError carrying all witnesses found.  Each entry is checked
once, by exact JSON type (`type(x) is int`, so true is not an int) and
by whole-list tests run in C, such as a simplex's verts being strictly
increasing; the poset, lambda and carrier checks then trust those
types.  Files are written in the layout of json.dumps(indent=1), byte
for byte, with keys in the order above.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from operator import lt
from pathlib import Path

from .charfunc import CharFunction, validate_lambda
from .complexes import CarrierComplex, validate_carriers
from .errors import InputError
from .gf2 import Vec
from .poset import FacePoset, validate

TOP_KEYS = {"name", "dim", "faces", "inclusions", "lambda", "triangulation"}
FACE_KEYS = {"id", "codim"}
TRIANGULATION_KEYS = {"points", "simplices"}
SIMPLEX_KEYS = {"verts", "carrier"}
INT = {int}  # a list holds only JSON integers when its set of types is inside this
BITS = {0, 1}
MAX_DIM = 64  # poset.fh_vectors is super-quadratic in dim
MAX_DEG = 4 * MAX_DIM  # gkm --max-deg: twice its largest default, 2 * MAX_DIM


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
    if type(data) is not dict:
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
    if type(name) is not str:
        errors.append("name must be a string")
    if type(n) is not int or n < 0:
        errors.append("dim must be a non-negative integer")
    elif n > MAX_DIM:
        errors.append(f"dim {n} exceeds the maximum {MAX_DIM}")
    for key in ("faces", "inclusions"):
        if type(data[key]) is not list:
            errors.append(f"{key} must be a list")
    if errors:
        raise InputError(errors)
    codims: dict[str, int] = {}
    for entry in data["faces"]:
        if type(entry) is not dict or entry.keys() != FACE_KEYS:
            errors.append(f"face entry {entry!r} must be {{id, codim}}")
            continue
        fid, k = entry["id"], entry["codim"]
        if type(fid) is not str or type(k) is not int:
            errors.append(f"face entry {entry!r} has wrong types")
            continue
        if fid in codims:
            errors.append(f"duplicate face id {fid!r}")
        codims[fid] = k
    covers: dict[tuple[str, str], None] = {}  # the file's order, duplicates collapsed
    unknown: list[str] = []  # the endpoints that are not face ids
    for pair in data["inclusions"]:
        if (
            type(pair) is not list
            or len(pair) != 2
            or type(pair[0]) is not str
            or type(pair[1]) is not str
        ):
            errors.append(f"inclusion {pair!r} must be [child, parent]")
            continue
        child, parent = pair
        if child not in codims or parent not in codims:
            for x in pair:
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
    found = validate(poset)
    if found:
        raise InputError(found)

    lam = None
    if "lambda" in data:
        raw = data["lambda"]
        if type(raw) is not dict:
            raise InputError("lambda must be an object mapping facet to bit list")
        errors.extend(_not_unicode(raw))
        values: dict[str, Vec] = {}
        for fid, bits in sorted(raw.items()):
            if (
                type(bits) is not list
                or len(bits) != n
                or not INT >= set(map(type, bits))
                or not BITS >= set(bits)
            ):
                errors.append(f"lambda[{fid!r}] must be a list of {n} bits")
                continue
            values[fid] = Vec.from_bits(bits)
        if errors:
            raise InputError(errors)
        lam = CharFunction(n, values)
        found = validate_lambda(poset, lam)
        if found:
            raise InputError(found)

    tri = None
    if "triangulation" in data:
        raw = data["triangulation"]
        if (
            type(raw) is not dict
            or raw.keys() != TRIANGULATION_KEYS
            or type(raw["points"]) is not int
            or type(raw["simplices"]) is not list
        ):
            raise InputError("triangulation must be {points, simplices}")
        points, entries = raw["points"], raw["simplices"]
        if points < 0:
            raise InputError("triangulation points must be a non-negative integer")
        if points == 0 and entries:
            raise InputError("triangulation has no points (points=0) for its simplices to use")
        if points > len(entries):
            # every point is its own 0-simplex (validate_carriers checks closure)
            raise InputError(
                f"triangulation points={points} exceeds the number of "
                f"listed simplices ({len(entries)})"
            )
        simplices: dict[tuple[int, ...], str] = {}
        for entry in entries:
            if type(entry) is not dict or entry.keys() != SIMPLEX_KEYS:
                errors.append(f"simplex entry {entry!r} must be {{verts, carrier}}")
                continue
            verts, carrier = entry["verts"], entry["carrier"]
            # ints, then strictly increasing: sorted and distinct
            if (
                type(verts) is not list
                or not verts
                or not INT >= set(map(type, verts))
                or not all(map(lt, verts, verts[1:]))
            ):
                errors.append(f"simplex verts {verts!r} must be a sorted list of distinct ints")
                continue
            if len(verts) > n + 1:  # _walk would list all its facets
                errors.append(
                    f"simplex {verts!r} has {len(verts)} points, more than dim + 1 = {n + 1}"
                )
                continue
            if verts[0] < 0 or verts[-1] >= points:
                errors.append(f"simplex {verts!r} uses points outside 0..{points - 1}")
                continue
            key = tuple(verts)
            if key in simplices:
                errors.append(f"simplex {verts!r} listed twice")
            if type(carrier) is not str or carrier not in codims:
                errors.append(f"simplex {verts!r} carried by unknown face {carrier!r}")
                continue
            simplices[key] = carrier
        if errors:
            raise InputError(errors)
        tri = CarrierComplex(poset, points, simplices)
        found = validate_carriers(tri)
        if found:
            raise InputError(found)
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
    ids = {f: _str(f) for f in p.faces()}  # each id rendered once, in face order
    # a face and an inclusion have fixed layouts, each written by one format
    face, cover = '{\n   "id": %s,\n   "codim": %s\n  }', "[\n   %s,\n   %s\n  ]"
    faces = [face % (i, p.codims[f]) for f, i in ids.items()]
    covers = [cover % (ids[c], ids[q]) for c, q in p.covers]
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
            simplices.append(_object([("verts", verts), ("carrier", ids[tri.simplices[sx]])], 3))
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
