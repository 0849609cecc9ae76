"""Cartan matrices, dominance bookkeeping, conicity/goodness classifiers, and
the finite/affine trichotomy."""

import itertools
import json
from fractions import Fraction

import pytest

from quiver_fmo.quiver import (
    BOX_POINT_BUDGET,
    DimData,
    EnumerationBudgetError,
    Quiver,
    a1_quiver,
    a2_quiver,
    affine_classify,
    affine_sl2_quiver,
    box_scan,
    cartan_matrix,
    check_conicity,
    check_good,
    mat_vec,
    mu_pairing,
    theorem_prediction,
    two_delta_minuscule,
)

A1, A2, AFF = a1_quiver(), a2_quiver(), affine_sl2_quiver()


def test_cartan_examples():
    assert cartan_matrix(A1) == ((2,),)
    assert cartan_matrix(A2) == ((2, -1), (-1, 2))
    assert cartan_matrix(AFF) == ((2, -2), (-2, 2))


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(("0",), ((0, 0),))
    with pytest.raises(ValueError):
        Quiver(("0", "0"), ())
    with pytest.raises(ValueError):
        Quiver(("0",), ((0, 1),))


def test_quiver_json_roundtrip(tmp_path):
    data = {"vertices": ["0", "1"],
            "edges": [{"source": "0", "target": "1"},
                      {"source": "0", "target": "1"}]}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    q = Quiver.load(path)
    assert q == AFF


def test_mu_pairing_examples():
    assert mu_pairing(DimData.make((2,), (1,)), cartan_matrix(A1)) == ((0,), True)
    C = cartan_matrix(AFF)
    assert mu_pairing(DimData.make((1, 0), (1, 1)), C) == ((1, 0), True)
    assert mu_pairing(DimData.make((0, 0), (1, 1)), C) == ((0, 0), True)
    assert mu_pairing(DimData.make((0, 1), (1, 0)), C).dominant is False


def test_dimdata_validation():
    with pytest.raises(ValueError):
        DimData.make((1,), (-1,))
    with pytest.raises(ValueError):
        DimData.make((-1,), (0,))
    with pytest.raises(ValueError):
        DimData.make((1, 1), (1,))


def test_two_delta_minuscule_examples():
    assert two_delta_minuscule(DimData.make((2,), (1,)), cartan_matrix(A1), (1,)) == 2
    assert two_delta_minuscule(DimData.make((2,), (1,)), cartan_matrix(A1), (0,)) == 0
    C = cartan_matrix(AFF)
    assert two_delta_minuscule(DimData.make((1, 0), (1, 1)), C, (1, 1)) == 1
    with pytest.raises(ValueError):
        two_delta_minuscule(DimData.make((2,), (1,)), cartan_matrix(A1), (2,))


def test_conicity_examples():
    CA1, CAFF = cartan_matrix(A1), cartan_matrix(AFF)
    rep = check_conicity(DimData.make((2,), (1,)), CA1)
    assert rep.holds and rep.min_value == 2 and rep.witness == (1,)
    rep = check_conicity(DimData.make((1, 0), (1, 1)), CAFF)
    assert rep.holds and rep.min_value == 1 and rep.witness == (1, 1)
    rep = check_conicity(DimData.make((0, 0), (1, 1)), CAFF)
    assert not rep.holds and rep.min_value == 0 and rep.witness == (1, 1)


def test_good_examples():
    CA1, CAFF = cartan_matrix(A1), cartan_matrix(AFF)
    assert check_good(DimData.make((2,), (1,)), CA1).holds
    rep = check_good(DimData.make((1, 0), (1, 1)), CAFF)
    assert not rep.holds and rep.witness == (1, 1)
    rep = check_good(DimData.make((2, 0), (1, 1)), CAFF)
    assert rep.holds and rep.min_value == 2


def test_empty_box_vacuous():
    rep = check_conicity(DimData.make((1, 1), (0, 0)), cartan_matrix(A2))
    assert rep.holds and rep.witness is None
    assert check_good(DimData.make((0,), (0,)), cartan_matrix(A1)).holds


def test_box_scan_examples():
    CAFF = cartan_matrix(AFF)
    scan = box_scan(DimData.make((1, 0), (2, 2)), CAFF)
    assert scan.min_value == 1 and scan.witness == (1, 1)
    assert scan.conical and not scan.good
    assert scan.min_ratio == Fraction(1, 2)  # u = (2,2): value 2 over |u| = 4
    empty = box_scan(DimData.make((1, 1), (0, 0)), cartan_matrix(A2))
    assert empty == (None, None, None) and empty.conical and empty.good
    # a ratio of 0 is a valid minimum, not a missing one
    assert box_scan(DimData.make((0, 0), (1, 1)), CAFF).min_ratio == 0


def test_box_scan_budget_refuses_before_scanning():
    side = int(BOX_POINT_BUDGET ** 0.5)
    with pytest.raises(EnumerationBudgetError, match="more than %d" % BOX_POINT_BUDGET):
        box_scan(DimData.make((1, 1), (side, side)), cartan_matrix(A2))
    with pytest.raises(EnumerationBudgetError):
        check_conicity(DimData.make((1, 1), (4000, 4000)), cartan_matrix(A2))


def test_good_implies_conical():
    # over all small dimension data on three quivers
    for q in (A1, A2, AFF):
        C = cartan_matrix(q)
        for w in itertools.product(range(3), repeat=q.n):
            for v in itertools.product(range(3), repeat=q.n):
                d = DimData.make(w, v)
                if check_good(d, C).holds:
                    assert check_conicity(d, C).holds


def test_witness_is_lex_least_minimizer():
    # affine sl2, w=(0,0), v=(2,2): every multiple of (1,1) scores 0
    C = cartan_matrix(AFF)
    rep = check_conicity(DimData.make((0, 0), (2, 2)), C)
    assert rep.min_value == 0 and rep.witness == (1, 1)


def test_affine_classify_examples():
    assert affine_classify(cartan_matrix(A2)).kind == "finite"
    info = affine_classify(cartan_matrix(AFF))
    assert info.kind == "affine" and info.marks == (1, 1)
    three = Quiver(("0", "1"), ((0, 1),) * 3)
    assert affine_classify(cartan_matrix(three)).kind == "indefinite"


def test_affine_marks_scaled_primitive():
    # affine A_2^(1): triangle quiver, marks (1,1,1)
    tri = Quiver(("0", "1", "2"), ((0, 1), (1, 2), (2, 0)))
    info = affine_classify(cartan_matrix(tri))
    assert info.kind == "affine" and info.marks == (1, 1, 1)


def _tree(path, extra=()):
    """Quiver with the path 0 - 1 - ... - (path - 1) and the extra edges, on
    the vertices 0 up to the largest endpoint."""
    n = max([path] + [max(e) + 1 for e in extra])
    return Quiver(tuple(str(i) for i in range(n)),
                  tuple((i, i + 1) for i in range(path - 1)) + tuple(extra))


def _e(n):
    """E_n = T(2, 3, n - 3): a path of n - 1 vertices and one more vertex
    joined to the third."""
    return _tree(n - 1, [(2, n - 1)])


# Kac, Infinite-dimensional Lie algebras, Tables Fin and Aff 1 (simply laced),
# with the marks listed in vertex order
KAC_TABLE = [
    ("A6", _tree(6), "finite", None),
    ("D5", _tree(4, [(2, 4)]), "finite", None),
    ("E6", _e(6), "finite", None),
    ("E7", _e(7), "finite", None),
    ("E8", _e(8), "finite", None),
    ("A1 + A2", Quiver(("0", "1", "2"), ((1, 2),)), "finite", None),
    ("affine A1", AFF, "affine", (1, 1)),
    ("affine A3", _tree(4, [(3, 0)]), "affine", (1, 1, 1, 1)),
    ("affine D4", _tree(1, [(0, i) for i in range(1, 5)]), "affine", (2, 1, 1, 1, 1)),
    ("affine D6", _tree(5, [(5, 1), (6, 3)]), "affine", (1, 2, 2, 2, 1, 1, 1)),
    ("affine E6", _tree(5, [(2, 5), (5, 6)]), "affine", (1, 2, 3, 2, 1, 2, 1)),
    ("affine E7", _tree(7, [(3, 7)]), "affine", (1, 2, 3, 4, 3, 2, 1, 2)),
    ("affine E8", _tree(8, [(5, 8)]), "affine", (1, 2, 3, 4, 5, 6, 4, 2, 3)),
    ("E10 = T(2,3,7)", _e(10), "indefinite", None),
    ("3 edges, rank 2", Quiver(("0", "1"), ((0, 1),) * 3), "indefinite", None),
    ("affine A1 + A1", Quiver(("0", "1", "2"), ((0, 1),) * 2), "indefinite", None),
    ("affine A1 + affine A1", Quiver(("0", "1", "2", "3"), ((0, 1),) * 2 + ((2, 3),) * 2),
     "indefinite", None),
]


@pytest.mark.parametrize("name,q,kind,marks", KAC_TABLE, ids=[row[0] for row in KAC_TABLE])
def test_affine_classify_matches_kac_tables(name, q, kind, marks):
    info = affine_classify(cartan_matrix(q))
    assert (info.kind, info.marks) == (kind, marks)


def _det(M):
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


def test_affine_classify_exhaustive_small_ranks():
    """Finite exactly when every leading principal minor is positive
    (Sylvester's criterion), and affine marks span the kernel of C, over every
    symmetric C of rank <= 3 with off-diagonal entries in {0, -1, -2}."""
    for n in (1, 2, 3):
        pairs = list(itertools.combinations(range(n), 2))
        for off in itertools.product((0, -1, -2), repeat=len(pairs)):
            C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), x in zip(pairs, off):
                C[i][j] = C[j][i] = x
            info = affine_classify(tuple(map(tuple, C)))
            sylvester = all(_det([row[:k] for row in C[:k]]) > 0 for k in range(1, n + 1))
            assert (info.kind == "finite") == sylvester, C
            if info.kind == "affine":
                assert all(x > 0 for x in info.marks)
                assert mat_vec(C, info.marks) == (0,) * n, C


def test_level():
    C = cartan_matrix(AFF)
    info = affine_classify(C)
    assert info.level(DimData.make((1, 0), (1, 1)), C) == 1
    assert info.level(DimData.make((2, 0), (1, 1)), C) == 2
    assert info.level(DimData.make((0, 0), (1, 1)), C) == 0


def test_affine_trichotomy_exhaustive():
    """Exhaustive agreement between the direct box check and the level-based
    prediction over affine-sl2 dominant pairs with entries <= 3."""
    C = cartan_matrix(AFF)
    seen_levels = set()
    for w in itertools.product(range(4), repeat=2):
        for v in itertools.product(range(4), repeat=2):
            d = DimData.make(w, v)
            pred = theorem_prediction(C, d)
            if pred is None:
                continue
            seen_levels.add(affine_classify(C).level(d, C))
            con, good = check_conicity(d, C), check_good(d, C)
            direct = ("good" if good.holds
                      else "conical-not-good" if con.holds else "not-conical")
            assert direct == pred, (w, v, direct, pred)
    assert {0, 1}.issubset(seen_levels) and any(l >= 2 for l in seen_levels)


def test_finite_type_always_good():
    for q in (A1, A2):
        C = cartan_matrix(q)
        for w in itertools.product(range(4), repeat=q.n):
            for v in itertools.product(range(4), repeat=q.n):
                d = DimData.make(w, v)
                if mu_pairing(d, C).dominant and any(v):
                    assert check_good(d, C).holds, (w, v)
