"""Command-line interface: classification, monopole operators, Hilbert
series, and the theorem-verification sweeps, with deterministic JSON output.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input, an
unsatisfied precondition or an enumeration over its point budget, 3 internal
inconsistency (a theorem-level check the library itself guarantees came out
false), 141 standard output was closed before the report was written (the
code a shell gives a process that SIGPIPE ends, as in ``... | head``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .multipoly import (
    MPoly,
    ParseError,
    PartialSymPoly,
    RatFunc,
    SymmetryError,
    poly_text,
    parse_poly,
    ratfunc_text,
)
from .quiver import (
    DimData,
    EnumerationBudgetError,
    Quiver,
    a1_quiver,
    a2_quiver,
    affine_sl2_quiver,
    affine_classify,
    box_scan,
    cartan_matrix,
    mu_pairing,
    theorem_prediction,
)
from .gklo import (
    GKLOContext,
    InternalError,
    d_identity_check,
    dressing_basis,
    fmo,
    involution_fmo_report,
    make_context,
    orientation_flip_sign,
)
from .defect_embed import (
    DefectSplit,
    slice_target_context,
    verify_adding_defect_theorem,
    verify_restriction,
)
from .km_embedding import ConicityError, compose_embedding
from .monopole_hilbert import (
    BadTheoryError,
    classify_theory,
    hilbert_series,
)

BUILTIN_QUIVERS = {
    "a1": a1_quiver,
    "a2": a2_quiver,
    "affine_sl2": affine_sl2_quiver,
}


EXIT_CLOSED_STDOUT = 141


class InputError(ValueError):
    pass


def _load_quiver(spec: str) -> Quiver:
    if spec in BUILTIN_QUIVERS:
        return BUILTIN_QUIVERS[spec]()
    try:
        return Quiver.load(spec)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise InputError("cannot load quiver from %r: %s" % (spec, exc)) from None


def _csv_ints(text: str, n: int, name: str):
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("--%s must be a comma-separated integer list" % name)
    if len(vals) != n:
        raise InputError("--%s needs %d entries for this quiver" % (name, n))
    return vals


def _ratfunc_json(value: RatFunc):
    return {"num": poly_text(value.num), "den": poly_text(value.den)}


def _emit(report, as_json: bool):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _emit_human(report)


def _emit_human(report, indent=""):
    if isinstance(report, dict):
        for k in sorted(report):
            val = report[k]
            if isinstance(val, (dict, list)):
                print("%s%s:" % (indent, k))
                _emit_human(val, indent + "  ")
            else:
                print("%s%s: %s" % (indent, k, val))
    elif isinstance(report, list):
        for item in report:
            _emit_human(item, indent)
            if isinstance(item, (dict, list)):
                print("%s--" % indent)
    else:
        print("%s%s" % (indent, report))


def _context(args) -> GKLOContext:
    q = _load_quiver(args.quiver)
    w = _csv_ints(args.w, q.n, "w")
    v = _csv_ints(args.v, q.n, "v")
    try:
        return make_context(q, w, v)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _dressing(args, ctx, m) -> PartialSymPoly:
    if args.f is None:
        try:
            return PartialSymPoly.make(MPoly.one(), m, ctx.v)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    try:
        poly = parse_poly(args.f, n_vertices=ctx.quiver.n)
    except ParseError as exc:
        raise InputError(str(exc)) from None
    try:
        return PartialSymPoly.make(poly, m, ctx.v)
    except SymmetryError as exc:
        raise InputError("dressing is not partially symmetric: %s" % exc) from None
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    q = _load_quiver(args.quiver)
    C = cartan_matrix(q)
    w = _csv_ints(args.w, q.n, "w")
    v = _csv_ints(args.v, q.n, "v")
    try:
        d = DimData.make(w, v)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    scan = box_scan(d, C)
    info = affine_classify(C)
    mp = mu_pairing(d, C)
    report = {
        "conical": scan.conical,
        "good": scan.good,
        "min_value": scan.min_value,
        "witness": list(scan.witness) if scan.witness is not None else None,
        "kind": info.kind,
        "mu_pairing": list(mp.vector),
        "mu_dominant": mp.dominant,
    }
    prediction = theorem_prediction(C, d)
    if info.kind == "affine":
        report["marks"] = list(info.marks)
        report["level"] = info.level(d, C)
    report["theorem_prediction"] = prediction
    exit_code = 0
    if prediction is not None:
        direct = ("good" if scan.good
                  else "conical-not-good" if scan.conical else "not-conical")
        report["direct"] = direct
        if direct != prediction:
            report["internal_error"] = "level prediction disagrees with the direct check"
            exit_code = 3
    _emit(report, args.json)
    return exit_code


def cmd_fmo(args) -> int:
    ctx = _context(args)
    if args.m is None:
        raise InputError("fmo needs --m")
    m = _csv_ints(args.m, ctx.quiver.n, "m")
    f = _dressing(args, ctx, m)
    sign = args.sign or "+"
    try:
        element = fmo(ctx, m, f, sign)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    report = {
        "m": list(m),
        "sign": sign,
        "dressing": poly_text(f.value),
        "ring": element.ring_tag,
        "result": _ratfunc_json(element.value),
    }
    _emit(report, args.json)
    return 0


def cmd_hilbert(args) -> int:
    ctx = _context(args)
    cls = classify_theory(ctx)
    report = {
        "classification": cls.kind,
        "min_degree": cls.min_degree,
        "witness": list(cls.witness) if cls.witness is not None else None,
        "order": args.order,
        "poisson_cone_point": cls.kind == "good",
    }
    if cls.kind == "bad":
        report["error"] = "bad theory: the grading is unbounded below, no series"
        _emit(report, args.json)
        return 2
    series = hilbert_series(ctx, args.order)
    report["coeffs"] = list(series.coeffs)
    _emit(report, args.json)
    return 0


def _cases(args, ctx, signed: bool):
    """The (m, f, sign) sweep of a verify subject: --m or every 0 <= m <= v,
    --f (parsed once per m) or the dressing basis up to --max-degree, and
    --sign or both signs; sign is None for an unsigned subject."""
    if args.m is None:
        charges = itertools.product(*(range(vi + 1) for vi in ctx.v))
    else:
        m = _csv_ints(args.m, ctx.quiver.n, "m")
        if any(not 0 <= mi <= vi for mi, vi in zip(m, ctx.v)):
            raise InputError("need 0 <= m <= v componentwise")
        charges = [m]
    signs = [args.sign] if args.sign else ["+", "-"] if signed else [None]
    for m in charges:
        if args.f is not None:
            dressings = [_dressing(args, ctx, m)]
        else:
            dressings = dressing_basis(ctx.v, m, args.max_degree)
        for f in dressings:
            for sign in signs:
                yield m, f, sign


def _case(m, f, sign, **fields):
    """One case row: the charge, the dressing, the sign when there is one,
    and the given fields with every RatFunc rendered."""
    row = {"m": list(m), "f": poly_text(f.value)}
    if sign is not None:
        row["sign"] = sign
    for key, val in fields.items():
        row[key] = _ratfunc_json(val) if isinstance(val, RatFunc) else val
    return row


def _defect_split(args, ctx, to_slice: bool) -> DefectSplit:
    """--vprime as a split of v; to_slice also requires the framing of the
    target slice to be dominant."""
    if args.vprime is None:
        raise InputError("verify %s needs --vprime" % args.subject)
    v_prime = _csv_ints(args.vprime, ctx.quiver.n, "vprime")
    try:
        split = DefectSplit.make(ctx.v, v_prime)
        if to_slice:
            slice_target_context(ctx, v_prime)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return split


def _verify_restriction(args, ctx):
    v_prime = _defect_split(args, ctx, to_slice=True).v_prime
    for m, f, sign in _cases(args, ctx, True):
        rep = verify_restriction(ctx, v_prime, m, f, sign)
        yield _case(m, f, sign, holds=rep.holds, lhs=rep.lhs, rhs=rep.rhs)


def _verify_adding_defect(args, ctx):
    split = _defect_split(args, ctx, to_slice=False)
    for m, f, sign in _cases(args, ctx, False):
        rep = verify_adding_defect_theorem(ctx, split, m, f)
        yield _case(m, f, sign, holds=rep.holds, lhs=rep.lhs, rhs=rep.rhs)


def _verify_involution(args, ctx):
    for m, f, sign in _cases(args, ctx, False):
        rep = involution_fmo_report(ctx, m, f)
        yield _case(m, f, sign, holds=rep.swaps and rep.involutive,
                    lhs=rep.image, rhs=rep.minus)


def _verify_d_identity(args, ctx):
    for i in range(ctx.quiver.n):
        rep = d_identity_check(ctx, i)
        yield {"vertex": ctx.quiver.vertices[i], "holds": rep.holds,
               "d": _ratfunc_json(rep.d)}


def _verify_km(args, ctx):
    split = _defect_split(args, ctx, to_slice=True)
    for m, f, sign in _cases(args, ctx, True):
        try:
            rep = compose_embedding(ctx, split, m, f, sign)
        except ConicityError as exc:
            yield _case(m, f, sign, skipped="conicity fails: %s" % exc)
            continue
        stages = [{"stage": st.stage,
                   "gamma": [list(t) for t in st.mmo.gamma] if st.mmo else None,
                   "dressing": ratfunc_text(st.mmo.dressing) if st.mmo else "0",
                   "factor": st.factor}
                  for st in rep.states]
        yield _case(m, f, sign, holds=rep.matches_theorem, stages=stages,
                    lhs=rep.result.value, rhs=rep.expected.value)


def _verify_orientation(args, ctx):
    for k, (s, t) in enumerate(ctx.quiver.edges):
        edge = {"source": ctx.quiver.vertices[s], "target": ctx.quiver.vertices[t]}
        for m, f, sign in _cases(args, ctx, False):
            rep = orientation_flip_sign(ctx, k, m, f)
            yield _case(m, f, sign, edge=edge, predicted_sign=rep.sign, holds=rep.matches)


VERIFY_SUBJECTS = {
    "restriction": _verify_restriction,
    "adding-defect": _verify_adding_defect,
    "involution": _verify_involution,
    "d-identity": _verify_d_identity,
    "km-embedding": _verify_km,
    "orientation": _verify_orientation,
}


def cmd_verify(args) -> int:
    ctx = _context(args)
    cases = list(VERIFY_SUBJECTS[args.subject](args, ctx))
    checked = [c for c in cases if "holds" in c]
    all_hold = all(c["holds"] for c in checked)
    report = {
        "subject": args.subject,
        "cases": cases,
        "checked": len(checked),
        "skipped": len(cases) - len(checked),
        "all_hold": all_hold,
    }
    _emit(report, args.json)
    return 0 if all_hold else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiver-fmo",
        description="Exact monopole-operator computations for quiver gauge theories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quiver", required=True,
                       help="path to a quiver JSON file, or one of: %s"
                       % ", ".join(sorted(BUILTIN_QUIVERS)))
        p.add_argument("--w", required=True, help="framing vector, comma-separated")
        p.add_argument("--v", required=True, help="gauge vector, comma-separated")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("classify", help="conicity / goodness / affine level")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fmo", help="one dressed monopole operator in coordinates")
    common(p)
    p.add_argument("--m", help="monopole charge, comma-separated")
    p.add_argument("--f", help="dressing polynomial, e.g. 'w[1,1]^2 + w[1,2]'")
    p.add_argument("--sign", choices=["+", "-"])
    p.set_defaults(func=cmd_fmo)

    p = sub.add_parser("hilbert", help="truncated monopole-formula Hilbert series")
    common(p)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("verify", help="symbolic verification sweeps")
    p.add_argument("subject", choices=sorted(VERIFY_SUBJECTS))
    common(p)
    p.add_argument("--vprime", help="target gauge vector, comma-separated")
    p.add_argument("--m", help="restrict the sweep to one monopole charge")
    p.add_argument("--f", help="restrict the sweep to one dressing")
    p.add_argument("--sign", choices=["+", "-"])
    p.add_argument("--max-degree", type=int, default=2,
                   help="dressing-basis degree bound for sweeps (default 2)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in ("order", "max_degree"):
            if getattr(args, name, 0) < 0:
                raise InputError("--%s must be non-negative" % name.replace("_", "-"))
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is still buffered goes to /dev/null, so the flush at exit
        # cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (BadTheoryError, EnumerationBudgetError) as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
