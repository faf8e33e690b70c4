"""Command-line surface: inspect, realize, check-flat, verify-identities,
jacobian, move, invariant, compare.

Every command prints one JSON report to stdout and exits 0 when all
requested checks pass, 1 on a failed check or input error (a file that
cannot be read or written included), 2 on usage errors.  Reports echo the
effective tolerances and seeds; apart from the timing field they are
byte-identical across runs with equal inputs.  A command that needs a
placement draws a fresh one from --seed when a seed is given and otherwise
uses the document's coords.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import identities, invariants
from .complexes import pachner_33
from .errors import Pachner33Error
from .flatmetric import FLATNESS_TOL, check_flat, metric_from_lengths, random_realization, realize
from .io import ComplexDocument, dumps, load_document, save_document, serialize_complex
from .jacobians import PIVOT_TOL, build_jacobians, rank_and_submatrix


def _report(command, args, **fields):
    rep = {
        "command": command,
        "inputs": {"file": getattr(args, "file", None)},
        "seed": getattr(args, "seed", None),
        "tolerances": fields.pop("tolerances", {}),
    }
    rep.update(fields)
    return rep


def _emit(rep, t0):
    rep["timing_s"] = time.perf_counter() - t0
    sys.stdout.write(dumps(rep) + "\n")


def _placement(args):
    """(complex, coords) of a closed document: coords drawn from --seed if given, else its own."""
    doc = load_document(args.file)
    c = doc.to_complex()
    if args.seed is not None:
        return c, random_realization(c, seed=args.seed)
    coords = doc.realization()
    if coords is None:
        raise Pachner33Error("document has no coords; pass --seed to realize")
    return c, coords


def _selection_fields(sel, c):
    """The selection as report fields; det(B) as sign and log, which cannot overflow.

    Rows and columns are written as the keys of c's triangles and edges,
    the rows of its vertex-id arrays.
    """
    det_sign, log_abs_det = sel.slogdet()
    faces, edges = c.face_ids(2), c.face_ids(1)
    return {
        "rank": sel.rank,
        "det_sign": det_sign,
        "log_abs_det": log_abs_det,
        "rows": faces[list(sel.rows)].tolist(),
        "cols": edges[list(sel.cols)].tolist(),
        "rows_complement": faces[list(sel.rows_comp)].tolist(),
        "cols_complement": edges[list(sel.cols_comp)].tolist(),
    }


def _triplets(matrix):
    """A matrix as {shape, rows, cols, values}: its nonzero entries in row-major order."""
    rows, cols = np.nonzero(matrix)
    return {"shape": list(matrix.shape), "rows": rows, "cols": cols, "values": matrix[rows, cols]}


def _value_field(sign, log_abs):
    """sign * exp(log_abs) as a report value; None when that is no finite nonzero double."""
    try:
        value = sign * math.exp(log_abs)
    except OverflowError:
        return None
    return value if value != 0.0 and math.isfinite(value) else None


def cmd_inspect(args, t0):
    doc = load_document(args.file)
    c = doc.to_complex(allow_boundary=True)
    fv = c.f_vector()
    rep = _report(
        "inspect",
        args,
        counts={
            "vertices": fv[0],
            "edges": fv[1],
            "triangles": fv[2],
            "tetrahedra": fv[3],
            "simplices": fv[4],
        },
        euler_characteristic=c.euler_characteristic(),
        closed=c.is_closed,
        orientation_consistent=c.orientation_consistent,
        has_coords=doc.coords is not None,
    )
    _emit(rep, t0)
    return 0 if (c.is_closed and c.orientation_consistent) else 1


def cmd_realize(args, t0):
    doc = load_document(args.file)
    c = doc.to_complex()
    out_doc = doc.with_coords(random_realization(c, seed=args.seed))
    if args.output:
        save_document(out_doc, args.output)
        _emit(_report("realize", args, output=args.output), t0)
    else:
        sys.stdout.write(serialize_complex(out_doc))
    return 0


def cmd_check_flat(args, t0):
    c, coords = _placement(args)
    m = realize(c, coords)
    if args.perturb:
        u, v, amount = args.perturb
        key = tuple(sorted((u, v)))
        if key not in c.face_index[1]:
            raise Pachner33Error(f"{key} is not an edge of the complex")
        L = m.L.copy()
        L[c.face_index[1][key]] += amount
        m = metric_from_lengths(c, L, m.eps)
    flat = check_flat(c, m, tol=args.tol)
    rep = _report(
        "check-flat",
        args,
        tolerances={"flatness": args.tol},
        passed=flat.passed,
        max_omega=flat.max_omega,
        max_Omega=flat.max_Omega,
        bad_faces=[list(f) for f in flat.bad_faces],
        bad_edges=[list(e) for e in flat.bad_edges],
        perturb=args.perturb and list(args.perturb),
    )
    _emit(rep, t0)
    return 0 if flat.passed else 1


def cmd_verify_identities(args, t0):
    results = identities.run_all_batteries(trials=args.trials, seed=args.seed, tol=args.tol)
    rep = _report(
        "verify-identities",
        args,
        tolerances={"identity": args.tol},
        trials=args.trials,
        checks=[
            {
                "name": r.name,
                "passed": r.passed,
                "max_residual": r.max_residual,
                "failures": r.failures,
                "extras": r.extras,
            }
            for r in results
        ],
    )
    _emit(rep, t0)
    return 0 if all(r.passed for r in results) else 1


def cmd_jacobian(args, t0):
    c, coords = _placement(args)
    m = realize(c, coords)
    jac = build_jacobians(c, m)
    sym = jac.symmetry_residual()
    conj = jac.conjugacy_residual()
    matrices = {
        "face_keys": c.face_ids(2).tolist(),
        "edge_keys": c.face_ids(1).tolist(),
        "dOmega_dL": _triplets(jac.dOmega_dL),
        "dOmega_dS": _triplets(jac.dOmega_dS),
        "dBigOmega_dS": _triplets(jac.dBigOmega_dS),
    }
    # the selection eliminates in dOmega_dL; no dense matrix outlives it
    dOmega_dL = jac.dOmega_dL
    del jac
    sel = rank_and_submatrix(dOmega_dL)
    del dOmega_dL
    rep = _report(
        "jacobian",
        args,
        tolerances={"residual": args.tol, "pivot": PIVOT_TOL},
        rank=sel.rank,
        symmetry_residual=sym,
        conjugacy_residual=conj,
        selection=_selection_fields(sel, c),
        matrices=matrices,
    )
    _emit(rep, t0)
    return 0 if (sym <= args.tol and conj <= args.tol) else 1


def cmd_move(args, t0):
    doc = load_document(args.file)
    c = doc.to_complex()
    moved, record = pachner_33(c, args.face)
    out_doc = ComplexDocument(
        simplices=moved.vertex_ids[moved.simplex_vertices].tolist(),
        metadata=dict(doc.metadata),
    )
    if doc.coords is not None:
        out_doc = out_doc.with_coords(doc.realization())
    if args.output:
        save_document(out_doc, args.output)
    rep = _report(
        "move",
        args,
        face=list(record.old_face),
        new_face=list(record.new_face),
        removed=list(record.removed),
        added=list(record.added),
        six_vertices=list(record.six_vertices),
        output=args.output,
        moved=None if args.output else serialize_complex(out_doc).strip(),
    )
    _emit(rep, t0)
    return 0


def cmd_invariant(args, t0):
    c, coords = _placement(args)
    report = invariants.full_invariant(c, realize(c, coords))
    rep = _report(
        "invariant",
        args,
        tolerances={"pivot": PIVOT_TOL},
        value=_value_field(report.sign, report.log_abs_value),
        log_abs_value=report.log_abs_value,
        sign=report.sign,
        log_abs_prod_S=report.log_abs_prod_S,
        log_abs_prod_V=report.log_abs_prod_V,
        sign_prod_V=report.sign_prod_V,
        selection=_selection_fields(report.selection, c),
    )
    _emit(rep, t0)
    return 0


def cmd_compare(args, t0):
    c, coords = _placement(args)
    mc = invariants.compare_under_move(c, coords, args.face)
    passed = mc.deviation <= args.tol
    rep = _report(
        "compare",
        args,
        tolerances={"ratio": args.tol, "pivot": PIVOT_TOL},
        face=list(mc.old_face),
        new_face=list(mc.new_face),
        sign_before=mc.sign_before,
        sign_after=mc.sign_after,
        log_abs_value_before=mc.log_abs_before,
        log_abs_value_after=mc.log_abs_after,
        ratio=mc.ratio,
        deviation=mc.deviation,
        passed=passed,
        selection=_selection_fields(mc.selection, c),
    )
    _emit(rep, t0)
    return 0 if passed else 1


def _checked(convert, accept, expected):
    """An argparse type: convert(text) if accept() takes it, else a usage error."""

    def parse(text):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


# a count of trials; a seed of numpy's default_rng; a tolerance (nan, inf and 0 refused)
positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
seed_int = _checked(int, lambda n: n >= 0, "an integer of at least 0")
positive_float = _checked(float, lambda x: math.isfinite(x) and x > 0.0, "a finite number above 0")


def _face_arg(text):
    """'A,B,C' as a tuple of three integer vertex ids."""
    try:
        a, b, c = text.split(",")
        return int(a), int(b), int(c)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A,B,C with three integer vertex ids, got {text!r}"
        ) from None


def _perturb_arg(text):
    """'U,V,AMOUNT' as (U, V, AMOUNT): two integer vertex ids and a finite float."""
    try:
        u, v, amount = text.split(",")
        if math.isfinite(float(amount)):
            return int(u), int(v), float(amount)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected U,V,AMOUNT with integer vertex ids and a finite amount, got {text!r}"
    )


@functools.cache
def build_parser():
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="pachner33",
        description="Geometric invariants of 3->3 moves on triangulated 4-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True):
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file", help="complex document (JSON)")
        p.set_defaults(fn=fn)
        return p

    add("inspect", cmd_inspect)

    p = add("realize", cmd_realize)
    p.add_argument("--seed", type=seed_int, required=True)
    p.add_argument("--output", "-o", default=None)

    p = add("check-flat", cmd_check_flat)
    p.add_argument("--tol", type=positive_float, default=FLATNESS_TOL)
    p.add_argument("--seed", type=seed_int, default=None)
    p.add_argument("--perturb", type=_perturb_arg, default=None, metavar="U,V,AMOUNT",
                   help="add AMOUNT to the squared length of edge (U, V) first")

    p = add("verify-identities", cmd_verify_identities, needs_file=False)
    p.add_argument("--trials", type=positive_int, default=100)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--tol", type=positive_float, default=identities.DEFAULT_TOL)

    p = add("jacobian", cmd_jacobian)
    p.add_argument("--seed", type=seed_int, default=None)
    p.add_argument("--tol", type=positive_float, default=identities.DEFAULT_TOL)

    p = add("move", cmd_move)
    p.add_argument("--face", type=_face_arg, required=True, metavar="A,B,C")
    p.add_argument("--output", "-o", default=None)

    p = add("invariant", cmd_invariant)
    p.add_argument("--seed", type=seed_int, default=None)

    p = add("compare", cmd_compare)
    p.add_argument("--face", type=_face_arg, required=True, metavar="A,B,C")
    p.add_argument("--seed", type=seed_int, default=None)
    p.add_argument("--tol", type=positive_float, default=identities.DEFAULT_TOL)

    return parser


def main(argv=None):
    t0 = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, t0)
    except (Pachner33Error, OSError, UnicodeDecodeError) as exc:
        rep = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(dumps(rep) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
