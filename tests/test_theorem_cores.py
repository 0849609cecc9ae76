"""The f = 1 theorem cores: the involution swap, the adding-defect comparison
and the tail-at-zero restriction route are checked once per charge, and the
orientation change once per (edge, charge), and that verdict is used for every
dressing.  Each report is compared with the
per-dressing oracles of ``identity_oracle`` on random nonzero dressings."""

import hashlib
import itertools
import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import identity_oracle
from identity_oracle import (
    adding_defect_report_per_f,
    fmo_value_per_f,
    involution_report_per_f,
    orientation_report_per_f,
    restriction_report_per_f,
    sweedler,
)
from quiver_fmo import cli, defect_embed, gklo, multipoly
from quiver_fmo.cli import build_parser, main
from quiver_fmo.defect_embed import (
    DefectSplit,
    slice_target_context,
    verify_adding_defect_theorem,
    verify_restriction,
)
from quiver_fmo.gklo import (
    dressing_basis,
    fmo,
    fmo_minus_terms,
    fmo_plus_terms,
    involution_fmo_report,
    make_context,
    orientation_flip_sign,
)
from quiver_fmo.multipoly import (
    MPoly,
    PartialSymPoly,
    W_KIND,
    _difference_divides,
    head_tail_divides,
    parse_poly,
    restrict_to_gamma,
    tilde,
    wv,
)
from quiver_fmo.quiver import (
    EnumerationBudgetError,
    Quiver,
    a1_quiver,
    a2_quiver,
    affine_sl2_quiver,
)

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
@given(dressed_charges())
def test_orientation_core_matches_the_per_f_oracle(case):
    ctx, m, f = case
    for k in range(len(ctx.quiver.edges)):
        assert orientation_flip_sign(ctx, k, m, f) == orientation_report_per_f(ctx, k, m, f), k


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


@settings(max_examples=60, deadline=None)
@given(dressed_charges(), st.sampled_from("+-"))
def test_fmo_core_matches_the_per_f_oracle(case, sign):
    ctx, m, f = case
    assert fmo(ctx, m, f, sign) == fmo_value_per_f(ctx, m, f, sign)
    # one form per vertex decides whether any head-tail form divides f
    assert head_tail_divides(f, ctx.v) == any(
        _difference_divides(f.value, wv(i, a), wv(i, b))
        for i, (mi, vi) in enumerate(zip(m, ctx.v))
        for a in range(1, mi + 1) for b in range(mi + 1, vi + 1))


def test_fmo_core_expands_the_f1_terms_as_over_lcm_does():
    # the core expands the plan that _unit_plan made for its bound; a fresh
    # plan of the u-keyed f = 1 terms gives the same numerators and lcm
    checked = 0
    for quiver, w, v in THEORIES:
        ctx = make_context(quiver, w, v)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            one = PartialSymPoly.make(1, m, v)
            for sign, terms, exp in (("+", fmo_plus_terms(ctx, m, one), 1),
                                     ("-", fmo_minus_terms(ctx, m, one), -1)):
                terms = list(terms)
                nums, lcm = multipoly.over_lcm(multipoly.lcm_plan(
                    (gklo._u_gamma(gamma, exp) * num, dfac) for gamma, num, dfac in terms))
                want = tuple(zip([gamma for gamma, _, _ in terms], nums))
                assert gklo._fmo_core(ctx, m, sign) == (want, lcm), (w, v, m, sign)
                checked += 1
    assert checked == 2 * sum(math.prod(vi + 1 for vi in v) for _, _, v in THEORIES)


# (quiver, w, v, m, dressing) with a head-tail form dividing the dressing
HEAD_TAIL_DRESSINGS = [
    (a1_quiver(), (3,), (3,), (1,), "(w[1,1]-w[1,2])*(w[1,1]-w[1,3])"),
    (a2_quiver(), (2, 2), (2, 2), (1, 1), "w[2,1]-w[2,2]"),
    (affine_sl2_quiver(), (2, 2), (2, 2), (1, 0), "w[1,1]^2-w[1,2]^2"),
    (THREE_CYCLE, (2, 0, 1), (2, 1, 2), (1, 0, 1), "(w[1,1]-w[1,2])*w[3,1]"),
]


@pytest.mark.parametrize("quiver,w,v,m,text", HEAD_TAIL_DRESSINGS)
def test_zero_and_head_tail_dressings_sum_their_own_terms(monkeypatch, quiver, w, v, m, text):
    def no_core(*args):
        raise AssertionError("the f = 1 core was read")

    monkeypatch.setattr(gklo, "_fmo_core", no_core)
    ctx = make_context(quiver, w, v)
    for f in (PartialSymPoly.make(parse_poly(text), m, v), PartialSymPoly.make(0, m, v)):
        assert f.is_zero() or head_tail_divides(f, v)
        for sign in "+-":
            assert fmo(ctx, m, f, sign) == fmo_value_per_f(ctx, m, f, sign), (text, sign)


@pytest.mark.parametrize("sign", "+-")
def test_dressing_over_the_core_budget_sums_its_own_terms(monkeypatch, sign):
    # len(f) times the f = 1 bound is 4 * 12 = 48, but f's own keyed sum
    # expands to at most 40 terms: under a budget between the two the value
    # is summed from f's own subset terms, and under 40 that sum refuses it
    ctx = make_context(affine_sl2_quiver(), (2, 2), (2, 2))
    m = (1, 1)
    f = PartialSymPoly.make(parse_poly("w[1,1]+w[1,2]+w[2,1]+w[2,2]"), m, ctx.v)
    expected = fmo_value_per_f(ctx, m, f, sign)
    assert len(f.value.terms) * gklo._unit_plan(ctx, m, sign).bound == 48

    def no_core(*args):
        raise AssertionError("the f = 1 core was read")

    monkeypatch.setattr(gklo, "_fmo_core", no_core)
    monkeypatch.setattr(multipoly, "EXPANSION_BUDGET", 47)
    assert fmo(ctx, m, f, sign) == expected
    gklo._fmo_cached.cache_clear()
    monkeypatch.setattr(multipoly, "EXPANSION_BUDGET", 39)
    with pytest.raises(EnumerationBudgetError, match="expand to 40 terms"):
        fmo(ctx, m, f, sign)


# stdout sha256 of runs whose dressing has a head-tail factor, recorded
# before M^sign_m(f) was read from the f = 1 cores
HEAD_TAIL = "(w[1,1]-w[1,2])*(w[1,1]-w[1,3])"
HEAD_TAIL_RUNS = {
    ("fmo --quiver a2 --w 2,2 --v 3,2 --m 1,1", HEAD_TAIL):
        "ccf478d8457a0b401fa842c7ac081ea888f56a243975557e32054c482f43819e",
    ("fmo --quiver a2 --w 2,2 --v 3,2 --m 1,1 --sign -", HEAD_TAIL):
        "502943a2ec3041f775e4e9f321587e9fbef97ac27477cafce98d29873451eb30",
    ("fmo --quiver affine_sl2 --w 1,1 --v 2,2 --m 1,1 --sign -", "w[2,1]-w[2,2]"):
        "e850cabcc3fec22d82c8e4cc653180e8ba87e03ee466c2d8f2945fbed9cfb793",
    ("verify involution --quiver a2 --w 2,2 --v 2,2 --m 1,0", "w[1,1]-w[1,2]"):
        "b5f7e6ab9b90a4c13f965976b5c04b5134f0af5d2654ab7e2332c6e04742955d",
    ("verify adding-defect --quiver a2 --w 2,2 --v 3,3 --vprime 2,2 --m 1,0", HEAD_TAIL):
        "3d7574312ff66e054709b15bd7bf093e83eaf49141e478a32a5f6f9339f7fd0f",
    ("verify restriction --quiver a2 --w 2,2 --v 3,3 --vprime 2,2 --m 1,1", HEAD_TAIL):
        "547142a033dda15c516ccbefed0a778f83301c55da2d538f45c9eb025b254d7b",
    ("verify km-embedding --quiver a2 --w 2,2 --v 3,3 --vprime 2,2 --m 1,0", HEAD_TAIL):
        "4aa936ad3b808eb577bb6410e5baed998e8e878485e73ea5ac5b410d34bed121",
}


@pytest.mark.parametrize("argv,dressing", sorted(HEAD_TAIL_RUNS))
def test_head_tail_dressing_runs_print_the_recorded_bytes(capsys, argv, dressing):
    code, out, err = run(capsys, *argv.split(), "--f", dressing, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HEAD_TAIL_RUNS[argv, dressing]


def test_derived_dressings_pass_the_symmetry_checks(capsys, monkeypatch):
    # the library builds the dressing basis, tilde(f) and the f = 1 units
    # unchecked; each dressing built on the verify table ops passes every
    # check of make.  Every op is read, whatever its recorded cost: each
    # replays in well under 0.1 s, and one tilde(f) per case leaves the
    # cheap ops alone too few dressings to count on
    real = PartialSymPoly.__init__
    built = []

    def recorded(self, value, m, v):
        real(self, value, m, v)
        built.append(self)

    monkeypatch.setattr(PartialSymPoly, "__init__", recorded)
    for argv in table_ops("verify", float("inf")):
        assert main(argv) in (0, 1), argv
    monkeypatch.undo()
    for f in built:
        assert PartialSymPoly.make(f.value, f.m, f.v) == f
    assert sum(len(f.value.terms) > 1 for f in built) > 500, len(built)


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
        monkeypatch.setattr(module, "identity_holds", lambda lhs, rhs=(): False)
    for quiver, w, v in THEORIES:
        ctx = make_context(quiver, w, v)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            assert involution_fmo_report(ctx, m, 0).swaps, (w, v, m)
            for k in range(len(quiver.edges)):
                assert orientation_flip_sign(ctx, k, m, 0).matches, (w, v, k, m)
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


def test_orientation_verdicts_build_no_lcm_plan(capsys, monkeypatch):
    # the orientation verdicts read the f = 1 subset terms, never the plan
    # that only the printed values' bound and core expansion need
    def planned(terms):
        raise AssertionError("an lcm plan was built")

    monkeypatch.setattr(gklo, "lcm_plan", planned)
    code, out, err = run(capsys, "verify", "orientation", "--quiver", "a2", "--w", "2,2",
                         "--v", "3,3", "--json")
    assert (code, err) == (0, "") and json.loads(out)["all_hold"] is True
    assert gklo._unit_terms.cache_info().misses > 0


@pytest.mark.parametrize("argv,routes", [
    ("verify adding-defect --quiver a2 --w 2,2 --v 3,3 --vprime 3,2",
     {"_defect_comparison": 16}),
    ("verify involution --quiver a2 --w 2,2 --v 2,2",
     {"_swap_core": 9, "involution_on_generators": 1}),
    ("verify orientation --quiver a2 --w 2,2 --v 2,2", {"_orientation_core": 9}),
    ("verify orientation --quiver affine_sl2 --w 2,2 --v 2,2", {"_orientation_core": 18}),
    ("verify restriction --quiver a2 --w 2,2 --v 3,3 --vprime 2,2",
     {"_defect_comparison": 9, "_swap_core": 9, "involution_on_generators": 1}),
])
def test_identities_run_once_per_charge_and_route(capsys, monkeypatch, argv, routes):
    calls = Counter()
    real = gklo.identity_holds

    def counted(lhs, rhs=()):
        calls[sys._getframe(1).f_code.co_name] += 1
        return real(lhs, rhs)

    for module in (gklo, defect_embed):
        monkeypatch.setattr(module, "identity_holds", counted)
    code, out, err = run(capsys, *argv.split(), "--json")
    assert (code, err) == (0, "")
    assert dict(calls) == routes
    assert json.loads(out)["checked"] > 4 * sum(routes.values())
