"""Command-line interface: classification, monopole operators, Hilbert
series, and the theorem-verification sweeps, with deterministic JSON output.

The grammar is written once, in GRAMMAR.  A well-formed command line is read
from it directly; the argparse tree built from it is used only for help,
the other accepted spellings (abbreviations, ``--x=y``, repeats) and usage
errors, whose text and exit codes are argparse's.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input, an
unsatisfied precondition or an enumeration over its point budget, 3 internal
inconsistency (a theorem-level check the library itself guarantees came out
false), 141 standard output was closed before the report was written (the
code a shell gives a process that SIGPIPE ends, as in ``... | head``).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from json.encoder import encode_basestring_ascii

from .multipoly import (
    MPoly,
    ParseError,
    PartialSymPoly,
    RatFunc,
    SymmetryError,
    den_text,
    poly_text,
    parse_poly,
    ratfunc_text,
)
from .quiver import (
    EnumerationBudgetError,
    Quiver,
    a1_quiver,
    a2_quiver,
    affine_sl2_quiver,
    affine_classify,
    box_scan,
    check_charge,
    level_check,
    mu_pairing,
)
from .gklo import (
    FMO_RING,
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
    except (OSError, ValueError, RecursionError) as exc:
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
    return {"num": poly_text(value.num), "den": den_text(value.dfac)}


def _json_text(report) -> str:
    """json.dumps(report, sort_keys=True, indent=2), written directly for a
    report of dicts with str keys, lists, tuples, str, int, bool, None and
    RatFunc values, a RatFunc written as _ratfunc_json's object.

    Each RatFunc and each tuple is written once per indent in one report.
    A RatFunc is keyed by value, since equal ones print alike; a tuple by
    identity, since (1,) == (True,) print apart, and its key puts the
    indent first, so it never compares equal to a RatFunc's key."""
    out = []
    _json_into(out, report, "\n", {})
    return "".join(out)


def _json_into(out, value, newline, memo):
    """Append the text of value to out; newline is the line break and the
    indent in front of value's closing bracket, and memo holds the texts of
    the report's RatFuncs and tuples written so far."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
        return
    if kind is RatFunc or kind is tuple:
        key = (value, newline) if kind is RatFunc else (newline, id(value))
        text = memo.get(key)
        if text is None:
            piece = []
            _json_into(piece, _ratfunc_json(value) if kind is RatFunc else list(value),
                       newline, memo)
            text = memo[key] = "".join(piece)
        out.append(text)
        return
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, val in sorted(value.items()):
            head = sep + encode_basestring_ascii(key) + ": "
            if type(val) is str:
                out.append(head + encode_basestring_ascii(val))
            else:
                out.append(head)
                _json_into(out, val, inner, memo)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        sep = "[" + inner
        for val in value:
            out.append(sep)
            _json_into(out, val, inner, memo)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)


def _emit(report, as_json: bool):
    if as_json:
        print(_json_text(report))
    else:
        _emit_human(report)


def _emit_human(report, indent=""):
    if isinstance(report, dict):
        for k in sorted(report):
            val = report[k]
            if isinstance(val, RatFunc):
                val = _ratfunc_json(val)
            if isinstance(val, (dict, list, tuple)):
                print("%s%s:" % (indent, k))
                _emit_human(val, indent + "  ")
            else:
                print("%s%s: %s" % (indent, k, val))
    elif isinstance(report, (list, tuple)):
        for item in report:
            _emit_human(item, indent)
            if isinstance(item, (dict, list, tuple)):
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
    ctx = _context(args)
    d, C = ctx.dims, ctx.cartan
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
    prediction, direct = level_check(d, C)
    if info.kind == "affine":
        report["marks"] = list(info.marks)
        report["level"] = info.level(d, C)
    report["theorem_prediction"] = prediction
    if prediction is not None:
        report["direct"] = direct
    if direct != prediction:
        report["internal_error"] = "level prediction disagrees with the direct check"
    _emit(report, args.json)
    return 3 if direct != prediction else 0


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
        "ring": FMO_RING[sign],
        "result": _ratfunc_json(element),
    }
    _emit(report, args.json)
    return 0


def cmd_hilbert(args) -> int:
    ctx = _context(args)
    cls = classify_theory(ctx)
    report = {
        "classification": cls.kind,
        "min_degree": cls.min_value,
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
        try:
            charges = [check_charge(m, ctx.v)]
        except ValueError as exc:
            raise InputError(str(exc)) from None
    signs = [args.sign] if args.sign else ["+", "-"] if signed else [None]
    for m in charges:
        if args.f is not None:
            dressings = [_dressing(args, ctx, m)]
        else:
            max_degree = 2 if args.max_degree is None else args.max_degree
            dressings = dressing_basis(ctx.v, m, max_degree)
        for f in dressings:
            for sign in signs:
                yield m, f, sign


def _case(m, f, sign, **fields):
    """One case row: the charge, the dressing, the sign when there is one,
    and the given fields; _json_text renders the RatFunc values."""
    row = {"m": m, "f": poly_text(f.value), **fields}
    if sign is not None:
        row["sign"] = sign
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
                   "gamma": st.mmo.gamma if st.mmo else None,
                   "dressing": ratfunc_text(st.mmo.dressing) if st.mmo else "0",
                   "factor": st.factor}
                  for st in rep.states]
        yield _case(m, f, sign, holds=rep.matches_theorem, stages=stages,
                    lhs=rep.result, rhs=rep.expected)


def _verify_orientation(args, ctx):
    cases = list(_cases(args, ctx, False))
    for k, (s, t) in enumerate(ctx.quiver.edges):
        edge = {"source": ctx.quiver.vertices[s], "target": ctx.quiver.vertices[t]}
        for m, f, sign in cases:
            rep = orientation_flip_sign(ctx, k, m, f)
            yield _case(m, f, sign, edge=edge, predicted_sign=rep.sign, holds=rep.matches)


# Each subject's case rows and the options it reads; cmd_verify refuses the rest
VERIFY_SUBJECTS = {
    "restriction": (_verify_restriction, ("vprime", "m", "f", "sign", "max_degree")),
    "adding-defect": (_verify_adding_defect, ("vprime", "m", "f", "max_degree")),
    "involution": (_verify_involution, ("m", "f", "max_degree")),
    "d-identity": (_verify_d_identity, ()),
    "km-embedding": (_verify_km, ("vprime", "m", "f", "sign", "max_degree")),
    "orientation": (_verify_orientation, ("m", "f", "max_degree")),
}


def cmd_verify(args) -> int:
    subject_cases, reads = VERIFY_SUBJECTS[args.subject]
    for name in ("vprime", "m", "f", "sign", "max_degree"):
        if name not in reads and getattr(args, name) is not None:
            raise InputError("verify %s does not read --%s"
                             % (args.subject, name.replace("_", "-")))
    ctx = _context(args)
    cases = list(subject_cases(args, ctx))
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


# The command-line grammar, read by build_parser and by _read_argv: for each
# command the function it runs, its help, the choices of its subject (None
# for no subject) and its long options as (flag, required, kind, help), where
# kind is str, int, bool for a flag, or a tuple of choices.
COMMON_OPTIONS = (
    ("--quiver", True, str, "path to a quiver JSON file, or one of: %s"
     % ", ".join(sorted(BUILTIN_QUIVERS))),
    ("--w", True, str, "framing vector, comma-separated"),
    ("--v", True, str, "gauge vector, comma-separated"),
    ("--json", False, bool, "emit JSON"),
)
GRAMMAR = {
    "classify": (cmd_classify, "conicity / goodness / affine level", None,
                 COMMON_OPTIONS),
    "fmo": (cmd_fmo, "one dressed monopole operator in coordinates", None,
            COMMON_OPTIONS + (
                ("--m", False, str, "monopole charge, comma-separated"),
                ("--f", False, str, "dressing polynomial, e.g. 'w[1,1]^2 + w[1,2]'"),
                ("--sign", False, ("+", "-"), None))),
    "hilbert": (cmd_hilbert, "truncated monopole-formula Hilbert series", None,
                COMMON_OPTIONS + (("--order", True, int, None),)),
    "verify": (cmd_verify, "symbolic verification sweeps", tuple(sorted(VERIFY_SUBJECTS)),
               COMMON_OPTIONS + (
                   ("--vprime", False, str, "target gauge vector, comma-separated"),
                   ("--m", False, str, "restrict the sweep to one monopole charge"),
                   ("--f", False, str, "restrict the sweep to one dressing"),
                   ("--sign", False, ("+", "-"), None),
                   ("--max-degree", False, int,
                    "dressing-basis degree bound for sweeps (default 2)"))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiver-fmo",
        description="Exact monopole-operator computations for quiver gauge theories.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, subjects, options) in GRAMMAR.items():
        p = sub.add_parser(command, help=summary)
        if subjects is not None:
            p.add_argument("subject", choices=subjects)
        for flag, required, kind, text in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, required=required, help=text,
                               type=int if kind is int else None,
                               choices=kind if isinstance(kind, tuple) else None)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv):
    """The namespace build_parser().parse_args(argv) gives, read directly
    from a line of the form ``command [subject] (--option value | --json)*``
    with each option by its exact long name and at most once, and each value
    either ``-`` or not starting with ``-``; None for any other line, which
    argparse then reads (help, abbreviations, ``--x=y``, usage errors)."""
    if not argv or argv[0] not in GRAMMAR:
        return None
    func, _, subjects, options = GRAMMAR[argv[0]]
    values = {"command": argv[0], "func": func}
    k = 1
    if subjects is not None:
        if len(argv) < 2 or argv[1] not in subjects:
            return None
        values["subject"] = argv[1]
        k = 2
    kinds = {}
    for flag, _, kind, _ in options:
        dest = flag[2:].replace("-", "_")
        kinds[flag] = dest, kind
        values[dest] = False if kind is bool else None
    seen = set()
    while k < len(argv):
        flag = argv[k]
        if flag not in kinds or flag in seen:
            return None
        seen.add(flag)
        dest, kind = kinds[flag]
        if kind is bool:
            values[dest] = True
            k += 1
            continue
        if k + 1 == len(argv):
            return None
        value = argv[k + 1]
        if value.startswith("-") and value != "-":
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and value not in kind:
            return None
        values[dest] = value
        k += 2
    if any(required and flag not in seen for flag, required, _, _ in options):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return its
    exit code.  A well-formed line is read from GRAMMAR by _read_argv; the
    argparse tree is built only for the rest, so help, abbreviations and
    usage errors keep argparse's text and exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        for name in ("order", "max_degree"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
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
