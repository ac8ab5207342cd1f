"""Tests for the finitized weight-condition checkers."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hyperlab.checkers import (
    CheckGrid,
    Verdict,
    VerdictStatus,
    Witness,
    _exp_sums,
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


def test_log_table_refuses_an_index_outside_its_range():
    tab = _LogTable(WeightSeq.constant(2.0, Domain.INTEGERS), -4, 4)
    assert tab.prefix(np.array([[-5, 4], [0, 1]])).shape == (2, 2)
    for m in ([-6], [5], [[0, 1], [2, 5]], [-6, 0, 5]):
        with pytest.raises(ValueError, match="escapes the prepared table"):
            tab.prefix(np.array(m))


# -- literal per-slice oracle -------------------------------------------------
#
# The oracle walks the grid one (r, i, j) slice at a time, with one prefix
# read per slice, and decides slice by slice; the checkers read each rule's
# prefix once per offset r and decide from masks over blocks of cells.
# These loops are the checkers' former code, verbatim but for an errstate
# that lets an overflowing tail sum be inf without a warning.  Verdicts,
# witnesses and margins must agree exactly.

def oracle_clock_indices(grid, r):
    n = np.arange(1, grid.n_max + 1, dtype=np.int64)
    return (n + r) ** grid.q - r ** grid.q


def oracle_clock_slices(grid, Lw, Lmu, anchored, first=1):
    for r in range(0, grid.r_max + 1):
        M = oracle_clock_indices(grid, r)[first - 1:]
        lj = [(Lmu.prefix(M + j), Lmu.prefix(j) if anchored else 0.0) for j in grid.j_range]
        for i in grid.i_range:
            li = Lw.prefix(M + i) - (Lw.prefix(i) if anchored else 0.0)
            for j, (lmj, lj0) in zip(grid.j_range, lj):
                yield r, i, j, li + lmj - lj0


def oracle_tail_slices(grid, Lw, Lmu):
    n_tail = max(1, (grid.r_max + 1) // 2)
    for r in range(n_tail, grid.r_max + 1):
        n = np.arange(n_tail, r + 1, dtype=np.int64)
        e = r ** grid.q - (r - n) ** grid.q
        lj = [(Lmu.prefix(np.full_like(e, j)), Lmu.prefix(j - e)) for j in grid.j_range]
        for i in grid.i_range:
            li = Lw.prefix(np.full_like(e, i)) - Lw.prefix(i - e)
            for j, (lj0, lje) in zip(grid.j_range, lj):
                yield r, n, i, j, li + lj0 - lje


def oracle_growth_verdict(condition, grid, slices):
    margin = math.inf
    quart = 3 * grid.n_max // 4
    for r, i, j, vals in slices:
        end = float(vals[-1])
        if end <= grid.growth_threshold:
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(i, j, r, grid.n_max, end))
        diffs = np.diff(vals[quart:])
        bad = np.nonzero(diffs < -1e-12)[0]
        if bad.size:
            n_bad = quart + int(bad[0]) + 2   # 1-based n of the decrease
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(i, j, r, n_bad, float(vals[n_bad - 1])))
        margin = min(margin, end - grid.growth_threshold)
    return Verdict(VerdictStatus.SATISFIED_ON_GRID, condition, margin=margin)


def oracle_tables(w, mu, grid, two_sided):
    span = (grid.n_max + grid.r_max) ** grid.q
    pad = max(map(abs, grid.i_range)) + max(map(abs, grid.j_range))
    lo = -span - pad if two_sided else 0
    return _LogTable(w, lo, span + pad), _LogTable(mu, lo, span + pad)


def oracle_unilateral_growth(w, mu, grid):
    top = (grid.n_max + grid.r_max) ** grid.q + max(max(grid.i_range), max(grid.j_range), 0)
    slices = oracle_clock_slices(grid, _LogTable(w, 0, top), _LogTable(mu, 0, top), False)
    return oracle_growth_verdict("unilateral_growth", grid, slices)


def oracle_bilateral_growth_decay(a, b, grid):
    condition = "bilateral_growth_and_decay"
    La, Lb = oracle_tables(a, b, grid, True)
    growth = oracle_growth_verdict(condition, grid, oracle_clock_slices(grid, La, Lb, True))
    if not growth.satisfied:
        return growth
    log_tol = math.log(grid.tail_tolerance)
    margin_decay = math.inf
    for r, n, i, j, vals in oracle_tail_slices(grid, La, Lb):
        worst = int(np.argmax(vals))
        if float(vals[worst]) >= log_tol:
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(i, j, r, int(n[worst]),
                                   math.exp(min(float(vals[worst]), 700.0))))
        margin_decay = min(margin_decay, log_tol - float(vals[worst]))
    return Verdict(VerdictStatus.SATISFIED_ON_GRID, condition,
                   margin=min(growth.margin, margin_decay))


def oracle_schatten_summability(w, mu, p, grid):
    condition = f"schatten_{p}_summability"
    bilateral = w.domain is Domain.INTEGERS
    Lw, Lmu = oracle_tables(w, mu, grid, bilateral)
    N = grid.n_max // 2
    margin = math.inf
    with np.errstate(over="ignore"):
        for r, i, j, vals in oracle_clock_slices(grid, Lw, Lmu, bilateral, first=N):
            tail = float(np.exp(-p * vals).sum())
            if tail >= grid.tail_tolerance:
                return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                               Witness(i, j, r, N, tail))
            margin = min(margin, grid.tail_tolerance - tail)
        for r, n, i, j, vals in oracle_tail_slices(grid, Lw, Lmu) if bilateral else ():
            tail = float(np.exp(p * vals).sum())
            if tail >= grid.tail_tolerance:
                return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                               Witness(i, j, r, int(n[0]), tail))
            margin = min(margin, grid.tail_tolerance - tail)
    return Verdict(VerdictStatus.SATISFIED_ON_GRID, condition, margin=margin)


def oracle_diagonal_forward_summability(lam, mu, p, grid):
    condition = f"diagonal_modulus_and_forward_{p}_summability"
    scan_hi = grid.n_max
    scan_lo = -grid.n_max if lam.domain is Domain.INTEGERS else 0
    # a table rule without a default: a closed rule with no levels
    if lam.rational is None and lam.low is None and lam.high is None:
        scan_lo = max(scan_lo, lam.a + 1)
        scan_hi = min(scan_hi, lam.a + len(lam.values))
    for jdx in range(scan_lo, scan_hi + 1):
        v = abs(lam.weight(jdx))
        if v < 1.0 - 1e-12:
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(None, jdx, None, None, v))
    span = (grid.n_max + grid.r_max) ** grid.q + max(grid.i_range)
    Lmu = _LogTable(mu, 0, span)
    N = grid.n_max // 2
    margin = math.inf
    with np.errstate(over="ignore"):
        for r in range(0, grid.r_max + 1):
            M = oracle_clock_indices(grid, r)[N - 1:]
            for i in grid.i_range:
                vals = Lmu.prefix(M + i)
                tail = float(np.exp(-p * vals).sum())
                if tail >= grid.tail_tolerance:
                    return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                                   Witness(i, None, r, N, tail))
                margin = min(margin, grid.tail_tolerance - tail)
    return Verdict(VerdictStatus.SATISFIED_ON_GRID, condition, margin=margin)



def seeded_rule(rng, two_sided):
    """A table rule of random weights near 1 on a stretch by the origin,
    with a random default past it."""
    start = int(rng.integers(-6, 1)) if two_sided else int(rng.integers(0, 2))
    values = np.exp(rng.normal(0.3, 0.6, int(rng.integers(4, 80))))
    default = float(np.exp(rng.normal(0.3, 0.4)))
    return WeightSeq.table(tuple(values.tolist()), start=start, default=default,
                           domain=Domain.INTEGERS if two_sided else Domain.NATURALS)


def seeded_case(checker, seed):
    """(w, mu, p, grid) drawn from `seed`; Schatten draws its domain."""
    rng = np.random.default_rng(seed)
    two_sided = checker == "bilateral" or (checker == "schatten" and rng.random() < 0.5)
    w, mu = seeded_rule(rng, two_sided), seeded_rule(rng, two_sided)
    lo = int(rng.integers(-3, 1)) if two_sided else 0
    grid = CheckGrid(tuple(range(lo, lo + int(rng.integers(1, 5)))),
                     tuple(range(lo, lo + int(rng.integers(1, 5)))),
                     r_max=int(rng.integers(0, 11)), n_max=int(rng.integers(8, 41)),
                     q=int(rng.integers(1, 4)), growth_threshold=float(rng.uniform(0, 8)),
                     tail_tolerance=float(10 ** rng.uniform(-3, 1)))
    return w, mu, float(rng.choice([1.0, 1.5, 2.0, 3.0])), grid


CHECKERS = {
    "growth": (check_unilateral_growth, oracle_unilateral_growth),
    "bilateral": (check_bilateral_growth_decay, oracle_bilateral_growth_decay),
    "schatten": (check_schatten_summability, oracle_schatten_summability),
    "diagonal": (check_diagonal_forward_summability, oracle_diagonal_forward_summability),
}


def assert_matches_oracle(checker, w, mu, p, grid):
    """The checker's verdict equals the slice oracle's, witness value and
    margin included; returns it."""
    fast, slow = CHECKERS[checker]
    args = (w, mu, grid) if checker in ("growth", "bilateral") else (w, mu, p, grid)
    got, want = fast(*args), slow(*args)
    assert got.as_json_dict() == want.as_json_dict()
    assert repr(got) == repr(want)
    return got


# (checker, seed, witness (i, j, r, n), or None for a satisfied grid)
SEEDED = [
    ("growth", 187, (1, 0, 0, 12)),        # drop inside a 3 x 4 grid
    ("growth", 813, (1, 0, 0, 15)),        # drop at the last i
    ("growth", 3477, (2, 3, 0, 14)),       # low end at the last i and j; the cell drops too
    ("growth", 5531, (0, 0, 1, 9)),        # low end at r = 1; the cell drops too
    ("growth", 1, None),
    ("growth", 3, None),
    ("bilateral", 2961, (1, -1, 0, 17)),   # drop at the last i
    ("bilateral", 3450, (0, 0, 1, 9)),     # low end at r = 1
    ("bilateral", 121, (-2, -3, 1, 1)),    # backward decay at the last i
    ("bilateral", 10, (1, -1, 1, 1)),      # backward decay inside a 4 x 4 grid
    ("bilateral", 301, (-2, -2, 4, 4)),    # backward decay, largest past the first n
    ("bilateral", 0, None),
    ("bilateral", 4, None),
    ("schatten", 515, (2, 0, 0, 14)),      # clock part on N, inside the grid
    ("schatten", 3043, (-3, -1, 7, 19)),   # clock part on Z at r = 7
    ("schatten", 509, (1, 1, 1, 1)),       # deep-tail part at the last i and j
    ("schatten", 1324, (0, -1, 2, 2)),     # deep-tail part inside the grid
    ("schatten", 139, (-2, -2, 4, 3)),     # deep-tail part over n = 3, 4
    ("schatten", 0, None),
    ("schatten", 1, None),
    ("schatten", 783, None),               # two-sided: both parts summed
    ("schatten", 3277, None),
    ("diagonal", 0, (None, 4, None, None)),  # modulus scan
    ("diagonal", 706, (0, None, 0, 10)),     # tail sum
    ("diagonal", 29, None),
    ("diagonal", 90, None),
]


@pytest.mark.parametrize("checker,seed,where", SEEDED,
                         ids=[f"{c}-{s}" for c, s, _ in SEEDED])
def test_verdicts_match_the_slice_oracle_on_seeded_grids(checker, seed, where):
    v = assert_matches_oracle(checker, *seeded_case(checker, seed))
    if where is None:
        assert v.satisfied
    else:
        assert (v.witness.i, v.witness.j, v.witness.r, v.witness.n) == where


def test_only_the_last_cell_of_an_offset_drops():
    # weights 1.5 with one factor e^-20 in each rule at 322 = M + 2 for
    # M = (16 + 2)^2 - 2^2: cell (2, 2) at r = 2 is the first whose clock
    # reaches it, in its last step of 35 factors a rule, which one such
    # factor leaves rising and two turn into a drop
    vals = [1.5] * 340
    vals[322 - 1] = math.exp(-20.0)
    dip = WeightSeq.table(tuple(vals), start=1, default=1.5)
    grid = CheckGrid((0, 1, 2), (0, 1, 2), r_max=4, n_max=16, q=2)
    v = assert_matches_oracle("growth", dip, dip, None, grid)
    assert (v.witness.i, v.witness.j, v.witness.r, v.witness.n) == (2, 2, 2, 16)


def test_a_low_end_outranks_a_drop_in_the_same_cell():
    # w_14 = e^-3 makes cell (0, 0) drop at n = 14, and its end,
    # 31 log 1.5 - 3 = 9.57, is below the threshold 9.8: the witness is
    # the end, at n = n_max
    vals = [1.5] * 20
    vals[14 - 1] = math.exp(-3.0)
    w = WeightSeq.table(tuple(vals), start=1, default=1.5)
    mu = WeightSeq.constant(1.5)
    grid = CheckGrid((0, 1), (0,), r_max=1, n_max=16, growth_threshold=9.8)
    v = assert_matches_oracle("growth", w, mu, None, grid)
    assert (v.witness.n, v.witness.value) == (16, pytest.approx(31 * math.log(1.5) - 3))
    # with the end above the threshold the drop is the witness
    grid = CheckGrid((0, 1), (0,), r_max=1, n_max=16, growth_threshold=9.0)
    assert assert_matches_oracle("growth", w, mu, None, grid).witness.n == 14


def test_diagonal_tail_sum_fails_first_at_a_later_offset_and_shift():
    # mu = 2 up to 8 and 0.99 past it: the tails grow with r and with i,
    # and the first to reach 0.0094 is i = 2 at r = 1 (0.00955)
    mu = WeightSeq.table((2.0,) * 8, start=1, default=0.99)
    lam = WeightSeq.constant(2.0)
    grid = CheckGrid((0, 1, 2), (0,), r_max=3, n_max=16, q=2, tail_tolerance=0.0094)
    v = assert_matches_oracle("diagonal", lam, mu, 2.0, grid)
    assert (v.witness.i, v.witness.r, v.witness.n) == (2, 1, 8)


Z = Domain.INTEGERS

# (lam, the modulus scan's witness j, or None when the scan passes)
DIAGONAL_SCANS = {
    "low-level": (WeightSeq.step(0.5 + 0.5j, 2.0, split=3), -8),
    "table": (WeightSeq.table((1.5, 2.0, 0.99, 3.0), start=-2, default=1.25, domain=Z), 0),
    "high-level-Z": (WeightSeq.step(1.5, 0.999, split=5), 5),
    "high-level-N": (WeightSeq.step(1.5, 0.9, split=3, domain=Domain.NATURALS), 3),
    "table-without-default-N": (WeightSeq.table((1.5, 2.0, 0.5), start=2), 4),
    "table-without-default-N-past-n-max": (WeightSeq.table((1.5,) * 7 + (0.5,), start=2), None),
    "table-without-default-Z": (WeightSeq.table((1.5, 0.9, 2.0), start=-1, domain=Z), 0),
    "table-without-default-Z-wide": (
        WeightSeq.table((1.5,) * 6 + (0.7,) + (1.5,) * 8, start=-9, domain=Z), -3),
    "table-without-default-N-short": (WeightSeq.table((1.5, 2.0), start=1), None),
    "table-without-default-Z-short": (WeightSeq.table((1.5, 2.0, 1.25), start=-1, domain=Z), None),
    # a table wholly below 0: the scan must reach below -last
    "table-without-default-Z-below-zero": (WeightSeq.table((2.0, 0.5, 2.0), start=-3, domain=Z), -2),
    "just-below-one": (WeightSeq.table((2.0, 1.0 - 1e-10), start=0, default=2.0), 1),
    "within-the-tolerance": (WeightSeq.constant(1.0 - 1e-13, Z), None),
    "small-before-zero": (WeightSeq.table((2.0, 0.5, 0.0), start=0, default=2.0), 1),
    "ratio": (WeightSeq.ratio((1.0, 1.0), (2.0, 1.0)), 0),
    "satisfied-Z": (WeightSeq.table((1.0, 1.5j, -2.0), start=-1, default=1.25, domain=Z), None),
}


@pytest.mark.parametrize("case", DIAGONAL_SCANS)
def test_diagonal_modulus_scan_matches_the_oracle(case):
    lam, j = DIAGONAL_SCANS[case]
    grid = CheckGrid((0, 1), (0,), r_max=2, n_max=8)
    v = assert_matches_oracle("diagonal", lam, WeightSeq.constant(2.0), 2.0, grid)
    assert (v.witness.j if v.witness else None) == j
    assert v.satisfied == (j is None)


@pytest.mark.parametrize("lam,message", [
    (WeightSeq.table((2.0, 0.0, 0.5), start=0, default=2.0), "zero weight encountered at index 1"),
    (WeightSeq.ratio((1.0,), (0.0, 1.0)), "zero denominator at n=0"),
])
def test_diagonal_scan_raises_where_the_oracle_does(lam, message):
    grid = CheckGrid((0,), (0,), r_max=1, n_max=8)
    for checker in CHECKERS["diagonal"]:
        with pytest.raises(ValueError, match=message):
            checker(lam, WeightSeq.constant(2.0), 2.0, grid)


def test_row_sums_match_per_slice_sums_bit_for_bit():
    """The checkers sum each cell's row of a (rows, j, n) block over the
    contiguous last axis, where the slice loop called .sum() on one row at
    a time.  numpy's pairwise sum gives both the same bits; this fails
    first if a numpy upgrade breaks that.  `_exp_sums` must agree with the
    slice loop's np.exp(p * vals).sum() the same way."""
    rng = np.random.default_rng(2025)
    for shape in [(1, 9, 512), (3, 5, 257), (7, 4, 8), (2, 3, 1000), (1, 1, 17)]:
        # ones, tiny and huge terms and subnormals, where the order of the
        # additions shows in the last bits
        x = rng.choice([1.0, 1e-17, 3e-300, 5e-324, 1e300, 0.0], shape) \
            * rng.uniform(0.5, 1.5, shape)
        want = np.array([[row.sum() for row in rows] for rows in x])
        assert np.array_equal(x.sum(axis=-1).view(np.int64), want.view(np.int64))
        logs = rng.uniform(-30.0, 30.0, shape)
        for p in (-2.0, 1.5):
            want = np.array([[np.exp(p * row).sum() for row in rows] for rows in logs])
            assert np.array_equal(_exp_sums(logs, p).view(np.int64), want.view(np.int64))


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
    # w_t = 1 + 1e10 / t^4: log-products near 1e3 whose clock steps grow by
    # about 1e-9, less than the table's rounding.  Its roots reach 447, so
    # its table stops at 2^15, which (n + r)^2 - r^2 first exceeds at some
    # n in [178, 182].  Far prefixes continue the table's own last entry, so
    # the top quartile stays nondecreasing across the edge (n_max = 236), as
    # it was on a table alone, and past it (n_max = 800).
    w = WeightSeq.ratio((1e10, 0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 1.0))
    assert w.prefix._gamma.edge == 2 ** 15
    grid = CheckGrid(tuple(range(5)), tuple(range(5)), r_max=4, n_max=236, q=2)
    assert 3 * grid.n_max // 4 < 178 and (182 + 4) ** 2 - 4 ** 2 > 2 ** 15
    assert check_unilateral_growth(w, w, grid).satisfied
    grid = CheckGrid(tuple(range(5)), tuple(range(5)), r_max=4, n_max=800, q=2)
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
