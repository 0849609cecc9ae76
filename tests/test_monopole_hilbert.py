"""Monopole degrees, stabilizer factors, truncated Hilbert series with the
certified enumerator against a naive brute-force oracle and against the
per-point sum, closed forms, and classification."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiver_fmo.quiver import (
    DimData,
    Quiver,
    a1_quiver,
    a2_quiver,
    affine_sl2_quiver,
    box_scan,
    check_conicity,
    check_good,
    cartan_matrix,
    two_delta_minuscule,
)
from quiver_fmo.gklo import make_context
from quiver_fmo.km_embedding import omega
from quiver_fmo.monopole_hilbert import (
    BadTheoryError,
    EnumerationBudgetError,
    TruncSeries,
    block_type,
    classify_theory,
    degree_lower_bound,
    dominant_shell,
    fmo_degree,
    geometric,
    hilbert_series,
    stabilizer_poincare,
    two_delta_general,
)


# ---------------------------------------------------------------------------
# independent oracle: naive degree + box enumeration, coded separately


def naive_two_delta(quiver, w, gamma):
    total = 0
    for i, tup in enumerate(gamma):
        for a in range(len(tup)):
            for b in range(a + 1, len(tup)):
                total -= 2 * abs(tup[a] - tup[b])
        total += w[i] * sum(abs(x) for x in tup)
    for (s, t) in quiver.edges:
        for a in gamma[s]:
            for b in gamma[t]:
                total += abs(b - a)
    return total


def brute_force_series(quiver, w, v, order, box):
    def dec_tuples(n):
        return [t for t in itertools.product(range(-box, box + 1), repeat=n)
                if list(t) == sorted(t, reverse=True)]

    coeffs = [0] * (order + 1)
    for gamma in itertools.product(*(dec_tuples(vi) for vi in v)):
        d = naive_two_delta(quiver, w, gamma)
        if 0 <= d <= order:
            ps = stabilizer_poincare(gamma, order - d)
            for j, c in enumerate(ps.coeffs):
                coeffs[d + j] += c
    return tuple(coeffs)


def hilbert_series_by_points(ctx, order):
    """Oracle: the per-point sum, one stabilizer factor per kept coweight,
    over the same certified shells as hilbert_series."""
    scan = box_scan(ctx.dims, ctx.cartan)
    if not scan.conical:
        raise BadTheoryError("not conical")
    if not any(ctx.v):
        return TruncSeries.one(order)
    max_norm = int(Fraction(order) / scan.min_ratio)
    total = TruncSeries.zero(order)
    for norm in range(max_norm + 1):
        for gamma in dominant_shell(ctx.v, norm):
            deg = two_delta_general(ctx, gamma)
            if deg > order:
                continue
            total = total + stabilizer_poincare(gamma, order).shift(deg)
    return total


def cyclic_quotient_series(n, order):
    """(1 - t^{2n}) / ((1 - t^2)(1 - t^n)^2) to order, by counting exponents."""
    def f(k):  # coefficient of t^k in 1/((1 - t^2)(1 - t^n)^2)
        return sum(b + 1 for b in range(k // n + 1) if (k - n * b) % 2 == 0) if k >= 0 else 0
    return tuple(f(k) - f(k - 2 * n) for k in range(order + 1))


# ---------------------------------------------------------------------------
# truncated series arithmetic


def test_series_ops():
    a = TruncSeries.make([1, 1], 4)
    b = TruncSeries.make([1, -1], 4)
    assert (a * b).coeffs == (1, 0, -1, 0, 0)
    assert (a + b).coeffs == (2, 0, 0, 0, 0)
    assert a.shift(3).coeffs == (0, 0, 0, 1, 1)
    assert geometric(2, 6).coeffs == (1, 0, 1, 0, 1, 0, 1)


def test_shift_refuses_negative_exponent():
    a = TruncSeries.make([1, 2, 3], 4)
    assert a.shift(0) == a
    with pytest.raises(ValueError):
        a.shift(-1)


@pytest.mark.parametrize("k", [0, -1, -3])
def test_geometric_refuses_non_positive_exponent(k):
    with pytest.raises(ValueError):
        geometric(k, 3)


def test_stabilizer_poincare_examples():
    assert stabilizer_poincare(((1, 0),), 6).coeffs == (1, 0, 2, 0, 3, 0, 4)
    assert stabilizer_poincare(((1, 1),), 6).coeffs == (1, 0, 1, 0, 2, 0, 2)
    # all-distinct entries: maximal torus, 1/(1-t^2)^{sum v_i}
    assert stabilizer_poincare(((2, 1), (3,)), 4).coeffs == \
        (geometric(2, 4) * geometric(2, 4) * geometric(2, 4)).coeffs
    with pytest.raises(ValueError):
        stabilizer_poincare(((0, 1),), 4)


# ---------------------------------------------------------------------------
# degrees


def test_two_delta_general_examples():
    ctx = make_context(a1_quiver(), (2,), (1,))
    assert two_delta_general(ctx, ((0,),)) == 0
    for k in range(-3, 4):
        assert two_delta_general(ctx, ((k,),)) == 2 * abs(k)


def test_two_delta_matches_minuscule_lemma():
    cases = [(a1_quiver(), (2,), (2,)), (a1_quiver(), (0,), (3,)),
             (a2_quiver(), (1, 2), (2, 2)), (affine_sl2_quiver(), (1, 0), (3, 3)),
             (affine_sl2_quiver(), (2, 1), (2, 3))]
    for quiver, w, v in cases:
        ctx = make_context(quiver, w, v)
        C = cartan_matrix(quiver)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            lemma = two_delta_minuscule(DimData.make(w, v), C, m)
            assert two_delta_general(ctx, omega(m, v, 1)) == lemma
            gm = tuple(tuple(sorted(t, reverse=True)) for t in omega(m, v, -1))
            assert two_delta_general(ctx, gm) == lemma


def test_fmo_degree():
    ctx = make_context(a1_quiver(), (2,), (1,))
    assert fmo_degree(ctx, (0,), 0) == 0
    assert fmo_degree(ctx, (1,), 0) == 2
    assert fmo_degree(ctx, (1,), 4) == 6
    with pytest.raises(ValueError):
        fmo_degree(ctx, (1,), -2)


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify_theory(make_context(a1_quiver(), (2,), (1,))).kind == "good"
    cls = classify_theory(make_context(affine_sl2_quiver(), (1, 0), (1, 1)))
    assert cls.kind == "ugly" and cls.min_degree == 1 and cls.witness == (1, 1)
    cls = classify_theory(make_context(a1_quiver(), (2,), (2,)))
    assert cls.kind == "bad" and cls.min_degree == 0


def brute_force_box(quiver, w, v):
    """(least degree, lex-least minimizer, least degree/|m|) over 0 < m <= v,
    with the degree 2*Delta(omega_m) from two_delta_general at both signs,
    so the box quantity itself is never evaluated."""
    ctx = make_context(quiver, w, v)
    best = witness = ratio = None
    for m in itertools.product(*(range(vi + 1) for vi in v)):
        if not any(m):
            continue
        plus = two_delta_general(ctx, omega(m, v, 1))
        minus = two_delta_general(
            ctx, tuple(tuple(sorted(t, reverse=True)) for t in omega(m, v, -1)))
        assert plus == minus
        if best is None or plus < best:
            best, witness = plus, m
        if ratio is None or Fraction(plus, sum(m)) < ratio:
            ratio = Fraction(plus, sum(m))
    return best, witness, ratio


def test_classify_agrees_with_box_checks():
    # every (quiver, w, v, m) with w, v <= 3 on the three quivers
    for quiver in (a1_quiver(), a2_quiver(), affine_sl2_quiver()):
        C = cartan_matrix(quiver)
        for w in itertools.product(range(4), repeat=quiver.n):
            for v in itertools.product(range(4), repeat=quiver.n):
                best, witness, ratio = brute_force_box(quiver, w, v)
                d = DimData.make(w, v)
                ctx = make_context(quiver, w, v)
                cls = classify_theory(ctx)
                assert (cls.min_degree, cls.witness) == (best, witness), (w, v)
                assert cls.kind == ("good" if best is None or best >= 2
                                    else "ugly" if best == 1 else "bad")
                assert check_good(d, C) == (cls.kind == "good", best, witness)
                assert check_conicity(d, C) == (cls.conical, best, witness)
                assert degree_lower_bound(ctx) == (1 if ratio is None else ratio)


# ---------------------------------------------------------------------------
# the certified lower bound


def test_degree_lower_bound_tight():
    ctx = make_context(affine_sl2_quiver(), (1, 0), (2, 2))
    c = degree_lower_bound(ctx)
    assert c == Fraction(1, 2)  # attained at m = (2,2): degree 2, norm 4


dominant_entries = st.integers(min_value=-5, max_value=5)


@settings(max_examples=120, deadline=None)
@given(st.lists(dominant_entries, min_size=2, max_size=2),
       st.lists(dominant_entries, min_size=2, max_size=2))
def test_degree_bounded_below_by_certificate(t0, t1):
    ctx = make_context(affine_sl2_quiver(), (1, 0), (2, 2))
    c = degree_lower_bound(ctx)
    gamma = (tuple(sorted(t0, reverse=True)), tuple(sorted(t1, reverse=True)))
    norm = sum(abs(x) for t in gamma for x in t)
    assert two_delta_general(ctx, gamma) >= c * norm


def test_block_type():
    assert block_type(((3, 3, 1), (0,), (2, 2))) == (1, 1, 2, 2)
    assert block_type(((),)) == ()
    assert block_type(((0, 0, 0),)) == (3,)


def test_dominant_shell_enumeration():
    shells = dominant_shell((2,), 2)
    assert set(shells) == {((2, 0),), ((1, 1),), ((0, -2),), ((-1, -1),), ((1, -1),)}
    assert dominant_shell((1, 1), 0) == [((0,), (0,))]


# ---------------------------------------------------------------------------
# Hilbert series


def test_a1_nilpotent_cone_closed_form():
    ctx = make_context(a1_quiver(), (2,), (1,))
    hs = hilbert_series(ctx, 20)
    expected = [0] * 21
    for j in range(11):
        expected[2 * j] = 2 * j + 1
    assert hs.coeffs == tuple(expected)


def test_hilbert_v_zero():
    ctx = make_context(a1_quiver(), (3,), (0,))
    assert hilbert_series(ctx, 6).coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_hilbert_refuses_bad():
    # a bad theory is reported as bad before the order budget is read
    for order in (6, 10 ** 6):
        with pytest.raises(BadTheoryError):
            hilbert_series(make_context(a1_quiver(), (2,), (2,)), order)


def test_hilbert_budget(monkeypatch):
    import quiver_fmo.monopole_hilbert as mh

    monkeypatch.setattr(mh, "POINT_BUDGET", 3)
    ctx = make_context(affine_sl2_quiver(), (1, 0), (2, 2))
    with pytest.raises(EnumerationBudgetError):
        hilbert_series(ctx, 10)


def test_hilbert_budget_checked_before_any_point(monkeypatch):
    import quiver_fmo.monopole_hilbert as mh

    def evaluated(*args):
        raise AssertionError("a shell point was evaluated")

    monkeypatch.setattr(mh, "two_delta_general", evaluated)
    monkeypatch.setattr(mh, "POINT_BUDGET", 3)
    ctx = make_context(affine_sl2_quiver(), (1, 0), (2, 2))
    with pytest.raises(EnumerationBudgetError, match="more than 3 shell points"):
        hilbert_series(ctx, 10)


@pytest.mark.parametrize("v", [(1,), (0,)])
def test_hilbert_order_budget_checked_before_any_shell_or_series(monkeypatch, v):
    import quiver_fmo.monopole_hilbert as mh

    def counted(*args):
        raise AssertionError("a shell was counted or a series allocated")

    monkeypatch.setattr(mh, "compositions", counted)
    monkeypatch.setattr(mh.TruncSeries, "one", staticmethod(counted))
    ctx = make_context(a1_quiver(), (4,), v)
    with pytest.raises(EnumerationBudgetError, match="above the budget of 1000"):
        hilbert_series(ctx, mh.ORDER_BUDGET + 1)
    monkeypatch.setattr(mh, "ORDER_BUDGET", 5)
    with pytest.raises(EnumerationBudgetError, match="order 6 is above the budget of 5"):
        hilbert_series(ctx, 6)


def test_budget_error_is_shared():
    from quiver_fmo import quiver
    assert EnumerationBudgetError is quiver.EnumerationBudgetError


def test_good_series_shape():
    # c0 = 1 and c1 = 0 for good theories; all coefficients non-negative
    for quiver, w, v in [(a1_quiver(), (2,), (1,)), (a2_quiver(), (1, 1), (1, 1)),
                         (affine_sl2_quiver(), (2, 0), (1, 1))]:
        ctx = make_context(quiver, w, v)
        assert classify_theory(ctx).kind == "good"
        hs = hilbert_series(ctx, 8)
        assert hs.coeffs[0] == 1 and hs.coeffs[1] == 0
        assert all(c >= 0 for c in hs.coeffs)


def test_ugly_series_has_degree_one():
    ctx = make_context(affine_sl2_quiver(), (1, 0), (1, 1))
    hs = hilbert_series(ctx, 8)
    assert hs.coeffs[0] == 1 and hs.coeffs[1] > 0


@pytest.mark.parametrize("quiver,w,v", [
    (a1_quiver(), (2,), (1,)),
    (a1_quiver(), (4,), (2,)),
    (a2_quiver(), (1, 1), (1, 1)),
    (a2_quiver(), (2, 1), (2, 1)),
    (affine_sl2_quiver(), (1, 0), (1, 1)),
    (affine_sl2_quiver(), (2, 0), (1, 1)),
    (affine_sl2_quiver(), (1, 1), (2, 2)),
])
def test_series_against_brute_force(quiver, w, v):
    ctx = make_context(quiver, w, v)
    order = 10
    hs = hilbert_series(ctx, order)
    assert hs.coeffs == brute_force_series(quiver, w, v, order, box=order)


def test_a1_cyclic_quotient_closed_form():
    # a1 with w = n, v = 1 is C^2/Z_n: H = (1 - t^{2n}) / ((1 - t^2)(1 - t^n)^2)
    order = 16
    for n in range(2, 6):
        ctx = make_context(a1_quiver(), (n,), (1,))
        assert hilbert_series(ctx, order).coeffs == cyclic_quotient_series(n, order), n


def _file_quiver(tmp_path, name, vertices, edges):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps({
        "vertices": vertices,
        "edges": [{"source": s, "target": t} for s, t in edges]}))
    return Quiver.load(path)


GROUPED_CASES = [
    ("a1", (2,), (1,)),
    ("a1", (4,), (2,)),
    ("a1", (5,), (3,)),
    ("a2", (1, 1), (1, 1)),
    ("a2", (2, 2), (2, 2)),
    ("a2", (2, 1), (2, 1)),
    ("affine_sl2", (2, 0), (1, 1)),
    ("affine_sl2", (1, 0), (1, 1)),
    ("affine_sl2", (1, 1), (2, 2)),
    ("hyperbolic3", (3, 3), (2, 1)),
    ("cycle3", (1, 1, 1), (1, 1, 1)),
]


def _grouped_case_quiver(name, tmp_path):
    if name == "hyperbolic3":
        # rank 2 with three parallel edges: indefinite Kac-Moody type
        return _file_quiver(tmp_path, name, ["0", "1"], [("0", "1")] * 3)
    if name == "cycle3":
        # oriented 3-cycle: affine A2
        return _file_quiver(tmp_path, name, ["0", "1", "2"],
                            [("0", "1"), ("1", "2"), ("2", "0")])
    return {"a1": a1_quiver, "a2": a2_quiver, "affine_sl2": affine_sl2_quiver}[name]()


@pytest.mark.parametrize("name,w,v", GROUPED_CASES)
def test_grouped_sum_matches_per_point_sum(tmp_path, name, w, v):
    ctx = make_context(_grouped_case_quiver(name, tmp_path), w, v)
    for order in range(13):
        assert hilbert_series(ctx, order) == hilbert_series_by_points(ctx, order), order


def test_grouped_cases_cover_good_and_ugly(tmp_path):
    kinds = {classify_theory(make_context(_grouped_case_quiver(name, tmp_path), w, v)).kind
             for name, w, v in GROUPED_CASES}
    assert kinds == {"good", "ugly"}


def test_one_stabilizer_factor_per_block_type(monkeypatch):
    import quiver_fmo.monopole_hilbert as mh

    ctx = make_context(a2_quiver(), (2, 2), (2, 2))
    order = 12
    expected = hilbert_series_by_points(ctx, order)
    kept_types = set()
    max_norm = int(Fraction(order) / degree_lower_bound(ctx))
    for norm in range(max_norm + 1):
        for gamma in dominant_shell(ctx.v, norm):
            if two_delta_general(ctx, gamma) <= order:
                kept_types.add(block_type(gamma))
    assert len(kept_types) > 1

    seen = []
    original = mh.stabilizer_poincare

    def counting(gamma, order):
        seen.append(block_type(gamma))
        return original(gamma, order)

    monkeypatch.setattr(mh, "stabilizer_poincare", counting)
    assert hilbert_series(ctx, order) == expected
    assert len(seen) == len(set(seen)) and set(seen) == kept_types
