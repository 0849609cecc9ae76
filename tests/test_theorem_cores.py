"""The f = 1 theorem cores: the involution swap, the adding-defect comparison
and the tail-at-zero restriction route are checked once per charge and that
verdict is used for every dressing.  Each report is compared with the
per-dressing oracles of ``identity_oracle`` on random nonzero dressings."""

import hashlib
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import identity_oracle
from identity_oracle import (
    adding_defect_report_per_f,
    involution_report_per_f,
    restriction_report_per_f,
    sweedler,
)
from quiver_fmo import cli, defect_embed, gklo
from quiver_fmo.cli import build_parser, main
from quiver_fmo.defect_embed import (
    DefectSplit,
    slice_target_context,
    verify_adding_defect_theorem,
    verify_restriction,
)
from quiver_fmo.gklo import dressing_basis, involution_fmo_report, make_context
from quiver_fmo.multipoly import MPoly, PartialSymPoly, W_KIND, restrict_to_gamma, tilde
from quiver_fmo.quiver import Quiver, a1_quiver, a2_quiver, affine_sl2_quiver

THREE_CYCLE = Quiver.from_json({
    "vertices": ["a", "b", "c"],
    "edges": [{"source": "a", "target": "b"}, {"source": "b", "target": "c"},
              {"source": "c", "target": "a"}],
})

# (quiver, w, v); affine_sl2 w=(1,0) v=(1,1) is conical but not good
THEORIES = [
    (a1_quiver(), (3,), (3,)),
    (a2_quiver(), (2, 2), (2, 2)),
    (affine_sl2_quiver(), (2, 2), (2, 2)),
    (affine_sl2_quiver(), (1, 0), (1, 1)),
    (THREE_CYCLE, (2, 0, 1), (2, 1, 2)),
]


def splits(v):
    return list(itertools.product(*(range(vi + 1) for vi in v)))


def slice_splits(ctx):
    """The v' <= v whose target slice has a dominant framing."""
    out = []
    for v_prime in splits(ctx.v):
        try:
            slice_target_context(ctx, v_prime)
        except ValueError:
            continue
        out.append(v_prime)
    return out


@st.composite
def dressed_charges(draw):
    """(ctx, m, f): a theory, a charge 0 <= m <= v and a nonzero dressing,
    a random combination of the degree <= 2 basis with Fraction coefficients."""
    quiver, w, v = draw(st.sampled_from(THEORIES))
    m = tuple(draw(st.integers(0, vi)) for vi in v)
    basis = dressing_basis(v, m, 2)
    coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                           min_size=len(basis), max_size=len(basis)))
    value = MPoly.zero()
    for b, c in zip(basis, coeffs):
        if c:
            value = value + b.value * MPoly.const(c)
    assume(not value.is_zero())
    return make_context(quiver, w, v), m, PartialSymPoly.make(value, m, v)


@settings(max_examples=40, deadline=None)
@given(dressed_charges())
def test_involution_core_matches_the_per_f_oracle(case):
    ctx, m, f = case
    assert involution_fmo_report(ctx, m, f) == involution_report_per_f(ctx, m, f)


@settings(max_examples=40, deadline=None)
@given(dressed_charges(), st.data())
def test_adding_defect_core_matches_the_per_f_oracle(case, data):
    ctx, m, f = case
    split = DefectSplit.make(ctx.v, data.draw(st.sampled_from(splits(ctx.v))))
    assert verify_adding_defect_theorem(ctx, split, m, f) == \
        adding_defect_report_per_f(ctx, split, m, f)


@settings(max_examples=40, deadline=None)
@given(dressed_charges(), st.data())
def test_restriction_core_matches_the_per_f_oracle(case, data):
    ctx, m, f = case
    v_prime = data.draw(st.sampled_from(slice_splits(ctx)))
    for sign in "+-":
        assert verify_restriction(ctx, v_prime, m, f, sign) == \
            restriction_report_per_f(ctx, v_prime, m, f, sign), sign


def test_sweedler_pieces_restrict_like_the_dressing():
    # sum f^(1)|_Gamma * f^(2) == f|_Gamma for every Gamma inside [v']: the
    # permutation behind restrict_to_gamma fixes the tail slots
    checked = 0
    for quiver, w, v in THEORIES:
        for v_prime in splits(v):
            for m in itertools.product(*(range(vp + 1) for vp in v_prime)):
                basis = dressing_basis(v, m, 2)
                dressings = list(basis) + [PartialSymPoly.make(a.value * b.value, m, v)
                                           for a, b in zip(basis, basis[1:])]
                for f in dressings:
                    pieces = sweedler(f, v_prime)
                    for gamma in gklo._gamma_tuples(v_prime, m):
                        total = MPoly.zero()
                        for f1, f2 in pieces:
                            total = total + restrict_to_gamma(f1, gamma) * f2
                        assert total == restrict_to_gamma(f, gamma), (v, v_prime, m, gamma)
                        checked += 1
    assert checked > 1000


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# stdout sha256 of each run with --f 0, recorded before the cores existed
ZERO_DRESSING_RUNS = {
    "verify adding-defect --quiver a2 --w 2,2 --v 2,2 --vprime 1,1":
        "b8c7b912e5277456b8098ce26eca3163d5faf0d0f69008a8f5536577c800ba30",
    "verify adding-defect --quiver a2 --w 2,2 --v 3,3 --vprime 2,1":
        "1ba417873edb866ef4667788f9e9b376e8a240fb908ad0dd9d4bf6fab9014a7f",
    "verify restriction --quiver a2 --w 2,2 --v 2,2 --vprime 1,1":
        "780424acd88be50c6a96d51aefa91c79757e10e2497aac14283069063b527792",
    "verify restriction --quiver affine_sl2 --w 2,2 --v 2,2 --vprime 1,1":
        "780424acd88be50c6a96d51aefa91c79757e10e2497aac14283069063b527792",
    "verify involution --quiver a2 --w 2,2 --v 2,2":
        "8d13a349a1e7a0eb252b0d60ff198168e5bcb21c4d36f00a039d23619607f249",
    "verify involution --quiver affine_sl2 --w 1,0 --v 1,1":
        "ba1cd4a6366f5f27259c52d1a65c72694de0ac14b391575db13bc1bf39a0e36c",
    "verify km-embedding --quiver a2 --w 2,2 --v 2,2 --vprime 1,1":
        "30f4d9a892f84861c09e6f36caad9504883ae97db0fbac3cac08d85989919fc4",
    "verify orientation --quiver a2 --w 1,1 --v 2,2":
        "6384b69022768c36f68f941420a8a2b58175e6c4dd85333cdc26b3249ff0ab4c",
}


@pytest.mark.parametrize("argv", sorted(ZERO_DRESSING_RUNS))
def test_zero_dressing_holds_without_a_core(capsys, argv):
    code, out, err = run(capsys, *argv.split(), "--f", "0", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ZERO_DRESSING_RUNS[argv]
    assert defect_embed._defect_core.cache_info().misses == 0


def test_zero_dressing_holds_when_every_core_fails(monkeypatch):
    # both sides of every identity vanish at f = 0, so no core is read
    for module in (gklo, defect_embed):
        monkeypatch.setattr(module, "identity_holds", lambda keyed: False)
    for quiver, w, v in THEORIES:
        ctx = make_context(quiver, w, v)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            assert involution_fmo_report(ctx, m, 0).swaps, (w, v, m)
            for v_prime in splits(v):
                rep = verify_adding_defect_theorem(ctx, DefectSplit.make(v, v_prime), m, 0)
                assert rep.holds and rep.lhs.is_zero(), (w, v, v_prime, m)
            for v_prime in slice_splits(ctx):
                for sign in "+-":
                    assert verify_restriction(ctx, v_prime, m, 0, sign).holds, (v_prime, m)


def table_ops(prefix, max_cost):
    """The argv of each bench table op with the prefix and cost <= max_cost."""
    path = Path(__file__).resolve().parent.parent / "bench" / "table.json"
    ops = json.loads(path.read_text())["ops"]
    return [key.split() for key, row in sorted(ops.items())
            if key.startswith(prefix) and row["cost_s"] <= max_cost]


def test_failing_tail_zero_identity_matches_the_per_f_oracle(monkeypatch):
    # the sign step of the tail-zero specialization is taken on the wrong end
    # of x_a - x_b (when b is the tail slot), in the library and in the
    # oracle alike, so the tail-zero identity genuinely fails for some
    # charges; every restriction report of the cheap table grid still equals
    # the per-dressing oracle's, and where tilde(f) = 0 the route holds with
    # both sides zero
    real = defect_embed._tail_zero_term

    def missigned(num, dfac, split):
        t = real(num, dfac, split)
        flips = sum(mult for cand, mult in dfac.items() if cand[0] != "var"
                    and cand[2][0] == W_KIND and cand[2][2] > split.v_prime[cand[2][1]])
        return t if t is None or flips % 2 == 0 else (-t[0], t[1])

    for module in (defect_embed, identity_oracle):
        monkeypatch.setattr(module, "_tail_zero_term", missigned)
    seen = Counter()
    for argv in table_ops("verify restriction", 0.1):
        args = build_parser().parse_args(argv)
        ctx = cli._context(args)
        v_prime = cli._defect_split(args, ctx, to_slice=True).v_prime
        for m, f, sign in cli._cases(args, ctx, True):
            rep = verify_restriction(ctx, v_prime, m, f, sign)
            assert rep == restriction_report_per_f(ctx, v_prime, m, f, sign), (argv, m, sign)
            if any(mi > vp for mi, vp in zip(m, v_prime)):
                continue
            if tilde(f, v_prime).is_zero():
                assert rep.holds and rep.lhs.is_zero() and rep.rhs.is_zero(), (argv, m)
                seen["vanishing"] += 1
            else:
                seen[rep.holds] += 1
    assert seen[False] > 20 and seen[True] > 20 and seen["vanishing"] > 20, seen


@pytest.mark.parametrize("argv,routes", [
    ("verify adding-defect --quiver a2 --w 2,2 --v 3,3 --vprime 3,2",
     {"_defect_core": 16}),
    ("verify involution --quiver a2 --w 2,2 --v 2,2",
     {"involution_fmo_report": 9, "involution_on_generators": 1}),
    ("verify restriction --quiver a2 --w 2,2 --v 3,3 --vprime 2,2",
     {"_plus_restriction_route": 9, "involution_fmo_report": 9,
      "involution_on_generators": 1}),
])
def test_identities_run_once_per_charge_and_route(capsys, monkeypatch, argv, routes):
    calls = Counter()
    real = gklo.identity_holds

    def counted(keyed):
        calls[sys._getframe(1).f_code.co_name] += 1
        return real(keyed)

    for module in (gklo, defect_embed):
        monkeypatch.setattr(module, "identity_holds", counted)
    code, out, err = run(capsys, *argv.split(), "--json")
    assert (code, err) == (0, "")
    assert dict(calls) == routes
    assert json.loads(out)["checked"] > 4 * sum(routes.values())
