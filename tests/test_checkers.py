"""Tests for the finitized weight-condition checkers."""

import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hyperlab.checkers import (
    CheckGrid,
    Verdict,
    VerdictStatus,
    Witness,
    _LogTable,
    check_bilateral_growth_decay,
    check_diagonal_forward_summability,
    check_schatten_summability,
    check_unilateral_growth,
)
from hyperlab.seqspace import Domain, WeightSeq


def literal_log_product(w: WeightSeq, start: int, stop: int) -> float:
    """log of the product of w_t over (start, stop], multiplied one factor
    at a time.  Independent of the prefix-table machinery."""
    acc = 0.0
    for t in range(start + 1, stop + 1):
        acc += math.log(abs(w.weight(t)))
    return acc


RATIO = WeightSeq.ratio((1.0, 1.0), (0.0, 1.0))          # w_n = (n + 1) / n
STEP = WeightSeq.step(0.5, 2.0, split=1)                 # 1/2 below 1, 2 from 1 on


# -- grid and verdict plumbing ---------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        CheckGrid((0,), (0,), n_max=4)
    with pytest.raises(ValueError):
        CheckGrid((), (0,))
    with pytest.raises(ValueError):
        CheckGrid((0,), (0,), r_max=-1)
    g = CheckGrid.unilateral_default(q=2)
    assert g.q == 2 and g.i_range == (0, 1, 2, 3, 4)
    g2 = g.refined(r_max=8, n_max=128)
    assert (g2.r_max, g2.n_max, g2.q) == (8, 128, 2)
    assert CheckGrid.bilateral_default().i_range[0] == -4


def test_verdict_requires_payload():
    with pytest.raises(ValueError):
        Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, "x")
    with pytest.raises(ValueError):
        Verdict(VerdictStatus.SATISFIED_ON_GRID, "x")
    v = Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, "x",
                witness=Witness(0, 0, 0, 1, 2.0))
    assert not v.satisfied
    assert v.as_json_dict()["witness"]["value"] == 2.0


@seed(61207)
@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=9, max_size=9),
    m1=st.integers(min_value=-4, max_value=3),
    span=st.integers(min_value=1, max_value=4),
)
def test_log_table_matches_literal_products(vals, m1, span):
    w = WeightSeq.table(vals, start=-4, domain=Domain.INTEGERS)
    m2 = min(m1 + span, 4)
    tab = _LogTable(w, -4, 4)
    got = float(tab.prefix(m2) - tab.prefix(m1))
    want = literal_log_product(w, m1, m2)
    assert abs(got - want) < 1e-9


# -- unilateral growth ------------------------------------------------------

def test_growth_satisfied_ratio_weights():
    grid = CheckGrid((0, 1, 2), (0, 1, 2), r_max=8, n_max=64,
                     growth_threshold=math.log(100.0))
    v = check_unilateral_growth(RATIO, RATIO, grid)
    assert v.satisfied
    # extremal slice is i = j = 0 at any r: the product telescopes to
    # (M + 1)^2 with M = 64, checked against a literal multiplication
    want = 2.0 * literal_log_product(RATIO, 0, 64) - math.log(100.0)
    assert abs(v.margin - want) < 1e-9
    assert abs(v.margin - (2.0 * math.log(65.0) - math.log(100.0))) < 1e-12


def test_growth_violation_flat_weights():
    grid = CheckGrid((0, 1), (0, 1), r_max=4, n_max=64)
    one = WeightSeq.constant(1.0)
    v = check_unilateral_growth(one, one, grid)
    assert v.status is VerdictStatus.VIOLATED_WITH_WITNESS
    assert (v.witness.i, v.witness.j, v.witness.r, v.witness.n) == (0, 0, 0, 64)
    assert v.witness.value == 0.0


def test_growth_violation_late_decay():
    # products climb early, then the second factor turns to 1/4 and the
    # top-quartile monotonicity check catches the slide
    grid = CheckGrid((0,), (0,), r_max=0, n_max=64,
                     growth_threshold=math.log(100.0))
    two = WeightSeq.constant(2.0)
    fade = WeightSeq.table((2.0,) * 56, start=1, default=0.25)
    v = check_unilateral_growth(two, fade, grid)
    assert v.status is VerdictStatus.VIOLATED_WITH_WITNESS
    assert v.witness.n == 57
    assert abs(v.witness.value - 111.0 * math.log(2.0)) < 1e-9


def test_growth_monotone_across_the_prefix_table_edge():
    # w_t = 1 + 1e10 / t^4: log-products near 1e3 whose clock steps past
    # n = 725, where (n + r)^2 - r^2 first exceeds the table's 2^19, grow by
    # about 1e-9, less than the table's rounding there.  Far prefixes
    # continue the table's own last entry, so the top quartile stays
    # nondecreasing across the edge, as it was on a table alone.
    w = WeightSeq.ratio((1e10, 0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 1.0))
    grid = CheckGrid(tuple(range(5)), tuple(range(5)), r_max=4, n_max=800, q=2)
    assert 3 * grid.n_max // 4 < 725
    v = check_unilateral_growth(w, w, grid)
    assert v.satisfied
    assert v.margin == pytest.approx(2765.73302263, rel=1e-10)


def test_growth_rejects_negative_shifts():
    grid = CheckGrid((-1, 0), (0,), n_max=8)
    with pytest.raises(ValueError):
        check_unilateral_growth(RATIO, RATIO, grid)


# -- bilateral growth and decay --------------------------------------------

def test_bilateral_satisfied_step_weights():
    grid = CheckGrid(tuple(range(-4, 5)), tuple(range(-4, 5)), r_max=32,
                     n_max=64, growth_threshold=math.log(100.0))
    v = check_bilateral_growth_decay(STEP, STEP, grid)
    assert v.satisfied
    # the decay side is the binding one: the largest backward product sits
    # at i = j = 4 with displacement 16, giving 2^4 / 2^12 per factor pair
    want = math.log(grid.tail_tolerance) + 16.0 * math.log(2.0)
    assert abs(v.margin - want) < 1e-9
    lit = literal_log_product(STEP, 4 - 16, 4)
    assert abs(2.0 * lit - (-16.0 * math.log(2.0))) < 1e-12


def test_bilateral_violation_no_decay():
    grid = CheckGrid(tuple(range(-4, 5)), tuple(range(-4, 5)), r_max=32,
                     n_max=64, growth_threshold=math.log(100.0))
    two = WeightSeq.constant(2.0, domain=Domain.INTEGERS)
    v = check_bilateral_growth_decay(two, two, grid)
    assert v.status is VerdictStatus.VIOLATED_WITH_WITNESS
    assert (v.witness.i, v.witness.j, v.witness.r, v.witness.n) == (-4, -4, 16, 16)
    assert abs(v.witness.value - 2.0 ** 32) < 1e-3


def test_bilateral_violation_no_growth():
    grid = CheckGrid((-1, 0, 1), (-1, 0, 1), r_max=4, n_max=64)
    one = WeightSeq.constant(1.0, domain=Domain.INTEGERS)
    v = check_bilateral_growth_decay(one, one, grid)
    assert v.status is VerdictStatus.VIOLATED_WITH_WITNESS
    assert v.witness.n == 64 and v.witness.value == 0.0


# -- Schatten-class summability --------------------------------------------

def test_schatten_satisfied_harmonic_tail():
    grid = CheckGrid((0, 1, 2), (0, 1, 2), r_max=8, n_max=512)
    v = check_schatten_summability(RATIO, RATIO, 1.0, grid)
    assert v.satisfied
    # binding slice i = j = 0: the tail is sum over n = 256..512 of
    # (n + 1)^(-2), about 0.00195, well under the 0.01 tolerance
    oracle = sum((n + 1) ** -2 for n in range(256, 513))
    assert 0.0019 < oracle < 0.0020
    assert abs((grid.tail_tolerance - v.margin) - oracle) < 1e-12


def test_schatten_violation_flat_weights():
    grid = CheckGrid((0,), (0,), r_max=2, n_max=512)
    one = WeightSeq.constant(1.0)
    v = check_schatten_summability(one, one, 2.0, grid)
    assert v.status is VerdictStatus.VIOLATED_WITH_WITNESS
    assert v.witness.n == 256
    assert v.witness.value == pytest.approx(257.0)


def test_schatten_bilateral_two_sided():
    grid = CheckGrid(tuple(range(-4, 5)), tuple(range(-4, 5)), r_max=32, n_max=64)
    assert check_schatten_summability(STEP, STEP, 1.0, grid).satisfied
    # constant 4 on the integers: forward inverse-products vanish fast, but
    # the backward products explode, so the two-sided clause must object
    four = WeightSeq.constant(4.0, domain=Domain.INTEGERS)
    v = check_schatten_summability(four, four, 1.0, grid)
    assert v.status is VerdictStatus.VIOLATED_WITH_WITNESS
    assert (v.witness.r, v.witness.n) == (16, 16)
    assert v.witness.value == pytest.approx(4.0 ** 32, rel=1e-12)


def test_schatten_rejects_bad_exponent():
    grid = CheckGrid((0,), (0,), n_max=8)
    with pytest.raises(ValueError):
        check_schatten_summability(RATIO, RATIO, 0.5, grid)


# -- diagonal modulus plus forward summability ------------------------------

def test_diagonal_satisfied():
    lam = WeightSeq.table((1.0, 1.25, 2.0, 1.0 + 1.0j), start=0, default=1.5)
    grid = CheckGrid((0, 1, 2), (0,), r_max=8, n_max=512)
    v = check_diagonal_forward_summability(lam, RATIO, 2.0, grid)
    assert v.satisfied
    oracle = sum((n + 1) ** -2 for n in range(256, 513))
    assert abs((grid.tail_tolerance - v.margin) - oracle) < 1e-12


def test_diagonal_violation_small_modulus():
    lam = WeightSeq.table((1.0, 2.0, 1.5, 0.8), start=0, default=2.0)
    grid = CheckGrid((0,), (0,), r_max=4, n_max=64)
    v = check_diagonal_forward_summability(lam, RATIO, 2.0, grid)
    assert v.status is VerdictStatus.VIOLATED_WITH_WITNESS
    assert v.witness.j == 3
    assert v.witness.value == pytest.approx(0.8)


# -- refinement behaviour ---------------------------------------------------

@pytest.mark.parametrize("checker,args", [
    (check_unilateral_growth, (RATIO, RATIO)),
    (check_schatten_summability, (RATIO, RATIO, 1.0)),
])
def test_refining_r_never_raises_margin(checker, args):
    margins = []
    for r_max in (8, 16, 32, 64):
        grid = CheckGrid((0, 1), (0, 1), r_max=r_max, n_max=128,
                         growth_threshold=math.log(10.0))
        v = checker(*args, grid)
        assert v.satisfied
        margins.append(v.margin)
    assert all(a >= b - 1e-12 for a, b in zip(margins, margins[1:]))


def test_deeper_tail_windows_strictly_help_schatten():
    margins = []
    for n_max in (128, 256, 512):
        grid = CheckGrid((0,), (0,), r_max=4, n_max=n_max)
        v = check_schatten_summability(RATIO, RATIO, 1.0, grid)
        assert v.satisfied
        margins.append(v.margin)
    assert margins[0] < margins[1] < margins[2]
