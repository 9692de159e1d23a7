"""Command-line interface.

Every subcommand loads one instance file, prints a report fragment on
standard output, and exits 0 on success, 1 on a validation failure or
when memory runs out, 2 when a computation's precondition fails.
`report` is exactly the concatenation of the fragments of the other
read-only subcommands.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable

from .blowup import cut_face
from .charfunc import axial_function, m_involution_check
from .codes import facet_code, is_self_dual, min_distance
from .complexes import face_acyclicity
from .errors import InputError, PreconditionError
from .gf2 import Vec
from .gkm import equivariant_hilbert, face_ring_hilbert
from .instance import MAX_DEG, Instance, load_instance, save_instance
from .model import fixed_locus, formality_verdict
from .poset import fh_vectors, gorenstein_quick_checks, vertex_findings

Fragment = tuple[list[str], int]


def _b(flag: bool) -> str:
    return "true" if flag else "false"


def _need_lambda(inst: Instance) -> None:
    if inst.lam is None:
        raise InputError("instance has no lambda; this subcommand needs one")


def frag_validate(inst: Instance) -> Fragment:
    p = inst.poset
    has_vertex, skeleton_connected = vertex_findings(p)
    lines = [
        f"name={inst.name} dim={p.n} faces={len(p.codims)} "
        f"facets={len(p.facets())} vertices={len(p.vertices())}",
        "poset: simplicial=ok nice=ok "
        f"has_vertex={'ok' if not has_vertex else 'fail'} "
        f"skeleton_connected={'ok' if not skeleton_connected else 'fail'}",
    ]
    for w in has_vertex + skeleton_connected:
        lines.append(f"  - {w}")
    g = gorenstein_quick_checks(p)
    lines.append(
        f"gorenstein_quick: pseudo_manifold={_b(g.pseudo_manifold)} euler_ok={_b(g.euler_ok)}"
    )
    lines.append("lambda: ok" if inst.lam is not None else "lambda: absent")
    if inst.triangulation is not None:
        tri = inst.triangulation
        lines.append(f"mode: B points={tri.n_points} simplices={len(tri.simplices)} carriers=ok")
    else:
        lines.append("mode: A (face-coset cell model)")
    return lines, (1 if has_vertex or skeleton_connected else 0)


def frag_hvector(inst: Instance) -> Fragment:
    fh = fh_vectors(inst.poset)
    return [f"f={fh.f} h={fh.h}"], 0


def frag_betti(inst: Instance) -> Fragment:
    _need_lambda(inst)
    v = formality_verdict(inst.base, inst.lam)
    return [f"mode={v.mode} betti={v.betti} sum={v.sum_betti}"], 0


def frag_formality(inst: Instance) -> Fragment:
    _need_lambda(inst)
    v = formality_verdict(inst.base, inst.lam)
    crit = ("" if v.mode == "B" else "surrogate-") + _b(v.criterion)
    lines = [
        f"fixed_points={v.n_vertices} betti={v.betti} h={v.h} "
        f"sum_betti={v.sum_betti} mode={v.mode}",
        f"hsiang={_b(v.hsiang)} criterion={crit} "
        f"h_identity={_b(v.h_identity)} agree={_b(v.agree)}",
    ]
    for w in v.acyclicity_witnesses:
        lines.append(f"  - {w}")
    return lines, 0


def frag_gkm(inst: Instance, max_deg: int | None = None) -> Fragment:
    _need_lambda(inst)
    p = inst.poset
    if max_deg is None:
        max_deg = 2 * p.n
    if max_deg < 0:
        raise InputError(f"--max-deg must be at least 0, got {max_deg}")
    if max_deg > MAX_DEG:
        raise InputError(f"--max-deg must be at most {MAX_DEG}, got {max_deg}")
    try:
        graph = axial_function(p, inst.lam)
    except PreconditionError as exc:
        return [f"gkm: skipped ({exc})"], 2
    eq = equivariant_hilbert(graph, max_deg)
    fr = face_ring_hilbert(fh_vectors(p).h, max_deg)
    lines = [
        f"equivariant_dims={eq} face_ring_dims={fr} max_deg={max_deg} match={_b(eq == fr)}"
    ]
    v = formality_verdict(inst.base, inst.lam)
    if not v.hsiang:
        lines.append(
            "warning: model not formal; equivariant dims are the restriction image only"
        )
    return lines, 0


def frag_code(inst: Instance) -> Fragment:
    _need_lambda(inst)
    p = inst.poset
    acyclic = face_acyclicity(inst.base).verdict
    inv = m_involution_check(p, inst.lam, acyclic)
    if inv.exists:
        lines = [f"m_involution=true g={inv.g}"]
    else:
        lines = [f"m_involution=false ({'; '.join(inv.reasons)})"]
    try:
        code = facet_code(p)
    except PreconditionError as exc:
        lines.append(f"code: skipped ({exc})")
        return lines, 2
    lines.extend(code.rows())
    sd = _b(is_self_dual(code))
    try:
        d = min_distance(code)
    except PreconditionError as exc:
        lines.append(f"[{code.length},{code.dim},?] self_dual={sd} (min distance skipped: {exc})")
        return lines, 2
    lines.append(f"[{code.length},{code.dim},{d}] self_dual={sd}")
    return lines, 0


def frag_fixed_locus(inst: Instance, bits: str) -> Fragment:
    _need_lambda(inst)
    try:
        g = Vec.from_string(bits)
    except ValueError as exc:
        raise InputError(f"bad --g value {bits!r}: {exc}")
    loc = fixed_locus(inst.poset, inst.lam, g)
    faces = ",".join(loc.faces) if loc.faces else "(none)"
    count = str(loc.size) if loc.size is not None else "none"
    return [f"g={g} faces={faces} discrete={_b(loc.discrete)} count={count}"], 0


def frag_blowup(inst: Instance, face: str, out: str) -> Fragment:
    _need_lambda(inst)
    cut = cut_face(inst.poset, inst.lam, face)
    result = Instance(f"{inst.name} cut {face}", cut.poset, cut.lam, None)
    save_instance(result, out)
    lines = [
        f"cut={face} new_facet={cut.new_facet} label={cut.lam.vec(cut.new_facet)} "
        f"faces={len(cut.poset.codims)} vertices={len(cut.poset.vertices())}",
        f"wrote {out}",
    ]
    return lines, 0


def frag_report(inst: Instance) -> Fragment:
    lines: list[str] = []
    rc = 0
    for frag in (frag_validate, frag_hvector, frag_betti, frag_formality, frag_gkm, frag_code):
        part, part_rc = frag(inst)
        lines.extend(part)
        rc = max(rc, part_rc)
    return lines, rc


COMMANDS: dict[str, Callable[[Instance, argparse.Namespace], Fragment]] = {
    "validate": lambda inst, args: frag_validate(inst),
    "hvector": lambda inst, args: frag_hvector(inst),
    "betti": lambda inst, args: frag_betti(inst),
    "formality": lambda inst, args: frag_formality(inst),
    "gkm": lambda inst, args: frag_gkm(inst, args.max_deg),
    "blowup": lambda inst, args: frag_blowup(inst, args.face, args.out),
    "fixed-locus": lambda inst, args: frag_fixed_locus(inst, args.g),
    "code": lambda inst, args: frag_code(inst),
    "report": lambda inst, args: frag_report(inst),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.

    `parse_args` returns a fresh namespace each time and argparse looks up
    the output streams only when it prints, so `main` reuses it; callers
    must not add to it.  `build_parser.__wrapped__()` builds a new one.
    """
    ap = argparse.ArgumentParser(
        prog="z2torus",
        description="Formality, cohomology, blow-ups, and codes for "
        "mod-2 torus manifolds given by combinatorial data.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("instance", help="instance JSON file")
        return sp

    add("validate", "check the poset, labels, and triangulation")
    add("hvector", "f- and h-vectors")
    add("betti", "mod-2 Betti numbers of the model")
    add("formality", "the three formality verdicts and their coherence")
    sp = add("gkm", "graded dimensions: GKM sheaf vs face ring")
    sp.add_argument("--max-deg", type=int, default=None, metavar="D")
    sp = add("blowup", "cut a face, write the result instance")
    sp.add_argument("--face", required=True, metavar="ID")
    sp.add_argument("--out", required=True, metavar="FILE")
    sp = add("fixed-locus", "maximal faces fixed by a subgroup element")
    sp.add_argument("--g", required=True, metavar="BITS", dest="g")
    add("code", "facet-vertex incidence code and its parameters")
    add("report", "all read-only fragments in order")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inst = load_instance(args.instance)
        lines, rc = COMMANDS[args.cmd](inst, args)
    except InputError as exc:
        for msg in exc.messages:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in {args.cmd} {args.instance}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
