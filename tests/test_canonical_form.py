"""Every rational function the theorem routes return carries its factored
denominator: dfac is a dict, den is the product of its linear forms, and no
factor of dfac divides the numerator."""

import itertools

import pytest

from quiver_fmo import defect_embed, gklo
from quiver_fmo.quiver import a1_quiver, a2_quiver, affine_sl2_quiver
from quiver_fmo.gklo import (
    d_identity_check,
    dressing_basis,
    fmo,
    involution_fmo_report,
    make_context,
)
from quiver_fmo.defect_embed import (
    DefectSplit,
    verify_adding_defect_theorem,
    verify_restriction,
)
from quiver_fmo.km_embedding import ConicityError, compose_embedding
from ratfunc_oracle import factored_form_violations

GRID = [(a1_quiver(), (2,), (2,)), (a2_quiver(), (2, 1), (2, 1)),
        (affine_sl2_quiver(), (1, 1), (1, 2))]


def returned_values(quiver, w, v):
    """(label, RatFunc) for every value the routes return on one context."""
    ctx = make_context(quiver, w, v)
    for i in range(quiver.n):
        yield "d-identity", d_identity_check(ctx, i).d
    boxes = list(itertools.product(*(range(vi + 1) for vi in v)))
    for m in boxes:
        for f in dressing_basis(v, m, 1):
            yield "fmo+", fmo(ctx, m, f, "+")
            yield "fmo-", fmo(ctx, m, f, "-")
            rep = involution_fmo_report(ctx, m, f)
            yield "involution image", rep.image
            yield "involution minus", rep.minus
            for v_prime in boxes:
                split = DefectSplit.make(v, v_prime)
                rep = verify_adding_defect_theorem(ctx, split, m, f)
                yield "adding-defect lhs", rep.lhs
                yield "adding-defect rhs", rep.rhs
                for sign in "+-":
                    try:
                        rep = verify_restriction(ctx, v_prime, m, f, sign)
                    except ValueError:  # the target framing is not dominant
                        continue
                    yield "restriction lhs", rep.lhs
                    yield "restriction rhs", rep.rhs
                    try:
                        chain = compose_embedding(ctx, split, m, f, sign)
                    except ConicityError:
                        continue
                    yield "chain result", chain.result
                    yield "chain expected", chain.expected
                    for state in chain.states:
                        if state.mmo is not None:
                            yield "chain " + state.stage, state.mmo.dressing


def check_grid():
    seen = 0
    for quiver, w, v in GRID:
        for label, value in returned_values(quiver, w, v):
            assert not factored_form_violations(value), (label, w, v, value)
            seen += not value.is_poly()
    return seen


def test_returned_values_carry_the_factored_form():
    assert check_grid() > 100


@pytest.fixture
def failing_identities(monkeypatch):
    for module in (gklo, defect_embed):
        monkeypatch.setattr(module, "identity_holds", lambda lhs, rhs=(): False)


def test_failing_sides_carry_the_factored_form(failing_identities):
    # a failing case materializes its side from the subset terms
    assert check_grid() > 100
