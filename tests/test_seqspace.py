"""Core sparse-vector and shift-operator tests.

Oracles here are written from the textbook definitions (dense matrices built
entry by entry, brute-force subset enumeration), never through the code under
test, and expected values are frozen literals.
"""

import builtins
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hyperlab.seqspace import (
    Domain,
    SeqVector,
    ShiftOp,
    SubsetSumReport,
    WeightOverflowError,
    WeightSeq,
    adjoint,
    apply,
    apply_right_inverse,
    bilinear_pair,
    lp_norm,
    orbit_norms,
    _p_sums,
    p_sum,
    shift_power_apply,
    subset_sum_bound_check,
    weight_product,
)

W2 = WeightSeq.constant(2.0)
W2_Z = WeightSeq.constant(2.0, Domain.INTEGERS)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_dense_matrix(kind: str, w: WeightSeq, lo: int, hi: int) -> np.ndarray:
    """Dense matrix on span{e_lo..e_hi} of the shift `ShiftOp.<kind>(w)`,
    from the defining formulas."""
    dim = hi - lo + 1
    M = np.zeros((dim, dim), dtype=complex)
    w = w.weight
    for j in range(lo, hi + 1):
        if kind == "backward":
            if j >= 1 and j - 1 >= lo:
                M[j - 1 - lo, j - lo] = w(j)
        elif kind == "forward":
            if j + 1 <= hi:
                M[j + 1 - lo, j - lo] = w(j + 1)
        elif kind == "bilateral_backward":
            if j - 1 >= lo:
                M[j - 1 - lo, j - lo] = w(j)
        elif kind == "bilateral_forward":
            if j + 1 <= hi:
                M[j + 1 - lo, j - lo] = w(j)
        else:
            M[j - lo, j - lo] = w(j)
    return M


def to_dense(v: SeqVector, lo: int, hi: int) -> np.ndarray:
    out = np.zeros(hi - lo + 1, dtype=complex)
    for n, c in v.entries.items():
        assert lo <= n <= hi
        out[n - lo] = c
    return out


def oracle_subset_sup(xs, F, p):
    best = 0.0
    for r in range(len(F) + 1):
        for G in itertools.combinations(F, r):
            acc = {}
            for n in G:
                for idx, c in xs[n].entries.items():
                    acc[idx] = acc.get(idx, 0.0) + c
            best = max(best, sum(abs(c) ** p for c in acc.values()) ** (1.0 / p))
    return best


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def test_canonical_form_drops_subnormal_noise():
    v = SeqVector({0: 1.0, 3: 1e-320, 5: 0.0})
    assert v.support() == (0,)
    assert v.coeff(3) == 0


def test_naturals_domain_rejects_negative_indices():
    with pytest.raises(ValueError):
        SeqVector({-1: 1.0})
    SeqVector({-1: 1.0}, Domain.INTEGERS)  # fine on the integers


def test_geometric_truncation_norm_frozen():
    # sum_{n=0}^{20} (1/2)^(2n) = (1 - 4**-21)/(1 - 1/4); sqrt is 2/sqrt(3)
    # up to 4e-13, so the frozen value is 1.1547005383792515.
    v = SeqVector({n: 0.5 ** n for n in range(21)})
    assert lp_norm(v, 2.0) == pytest.approx(1.1547005383792515, abs=1e-5)


def test_lp_norm_scaling_survives_extreme_magnitudes():
    v = SeqVector({0: 1e200, 1: 1e200})
    assert lp_norm(v, 2.0) == pytest.approx(1e200 * math.sqrt(2.0), rel=1e-12)


def test_float_sums_add_left_to_right_whatever_builtin_sum_does(monkeypatch):
    # Python 3.12 compensates the builtin sum over floats; the report sums
    # fold left from 0, as it did before, on every interpreter
    from hyperlab.fhc import EpsSchedule
    from hyperlab.hardy import AnalyticSymbol

    monkeypatch.setattr(builtins, "sum", lambda values, start=0: math.fsum([start, *values]))
    assert p_sum([1.0, 1e-16, 1e-16], 1.0) == 1.0
    assert AnalyticSymbol((1.0, 1e-16, 1e-16)).coeff_abs_sum() == 1.0
    assert EpsSchedule(1.0, 0.9).bound(1, 8) == 5.12579511    # 5.125795110000001 compensated


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.5, 7.0])
def test_a_p_sum_is_never_below_its_largest_value(p):
    # the visit verifier decides d < radius from the largest term alone
    # wherever that term reaches the radius: the term adds exactly 1.0 to a
    # sum of nonnegative terms, so the sum is at least 1.0 and top times its
    # 1/p-th power at least top.  An inf makes the sum NaN, which compares
    # below nothing either.
    rng = np.random.default_rng(19)
    rows, cols = 12, 3000
    kinds = rng.integers(0, 6, cols)
    mag = np.choose(kinds, [
        10.0 ** rng.uniform(-20.0, 20.0, (rows, cols)),                 # ordinary
        5e-324 * rng.integers(0, 2 ** 40, (rows, cols)),                 # subnormal
        1.7976931348623157e308 * rng.uniform(0.5, 1.0, (rows, cols)),   # near overflow
        10.0 ** rng.uniform(-323.0, 308.0, (rows, cols)),               # the whole range
        np.zeros((rows, cols)),                                          # all zero
        np.where(rng.random((rows, cols)) < 0.2, math.inf, 1.0),         # with inf
    ])
    mag[rng.random((rows, cols)) < 0.3] = 0.0
    top = mag.max(axis=0)
    got = _p_sums(mag.copy(), p)
    assert not (got < top).any()
    assert np.array_equal(np.isnan(got), np.isinf(top))
    assert (got[~np.isnan(got)] >= top[~np.isnan(got)]).all()
    # p_sum takes the same float steps, value for value
    want = np.array([p_sum(col, p) for col in mag.T.tolist()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_inner_products():
    u = SeqVector({0: 1 + 1j, 2: 2.0})
    v = SeqVector({0: 1j, 2: 3.0})
    assert bilinear_pair(u, v) == pytest.approx((1 + 1j) * 1j + 6.0)


# ---------------------------------------------------------------------------
# single applications against the dense oracle
# ---------------------------------------------------------------------------

def test_backward_shift_drops_bottom_index():
    B = ShiftOp.backward(W2)
    assert len(apply(B, SeqVector.basis(0))) == 0
    assert apply(B, SeqVector.basis(2)) == SeqVector({1: 2.0})


def test_forward_shift_weight_indexing():
    F = ShiftOp.forward(WeightSeq.table([10.0, 20.0, 30.0], start=1))
    # F e_0 = w_1 e_1, F e_1 = w_2 e_2
    assert apply(F, SeqVector.basis(0)) == SeqVector({1: 10.0})
    assert apply(F, SeqVector.basis(1)) == SeqVector({2: 20.0})


def test_bilateral_conventions():
    a = WeightSeq.table([5.0], start=0, default=1.0, domain=Domain.INTEGERS)
    T = ShiftOp.bilateral_backward(a)
    S = ShiftOp.bilateral_forward(a)
    e0 = SeqVector.basis(0, Domain.INTEGERS)
    # T e_0 = a_0 e_{-1} and S e_0 = a_0 e_{+1}: both read the weight at the
    # source index.
    assert apply(T, e0) == SeqVector({-1: 5.0}, Domain.INTEGERS)
    assert apply(S, e0) == SeqVector({1: 5.0}, Domain.INTEGERS)


def test_diagonal_rotation_by_i():
    D = ShiftOp.diagonal(WeightSeq.constant(1j))
    e3 = SeqVector.basis(3)
    assert apply(D, e3) == SeqVector({3: 1j})
    assert shift_power_apply(D, e3, 4) == e3


def test_diagonal_powers_guard_overflow_and_flush_underflow():
    e1 = SeqVector.basis(1)
    for lam, m in ((2.0, 2000), (0.5, -2000)):
        D = ShiftOp.diagonal(WeightSeq.constant(lam))
        with pytest.raises(WeightOverflowError) as exc:
            shift_power_apply(D, e1, m) if m > 0 else apply_right_inverse(D, e1, -m)
        assert (exc.value.start, exc.value.stop) == (1, 1)
        # the reverse direction flushes below the coefficient guard
        flushed = apply_right_inverse(D, e1, m) if m > 0 else shift_power_apply(D, e1, -m)
        assert flushed == SeqVector.zero()
    # 0.5^1013 = 1.1e-305 is flushed even where its coefficient would lift it
    D = ShiftOp.diagonal(WeightSeq.constant(0.5))
    assert shift_power_apply(D, SeqVector({1: 1e10}), 1013) == SeqVector.zero()
    assert apply_right_inverse(ShiftOp.diagonal(W2), SeqVector({1: 1e10}), 1013) == SeqVector.zero()
    # in range the powers are CPython's own, bit for bit
    lam = 1.1 - 0.3j
    D = ShiftOp.diagonal(WeightSeq.constant(lam))
    x = SeqVector({0: 0.7 + 0.2j, 4: -1.5})
    assert shift_power_apply(D, x, 300).entries == {n: lam ** 300 * c for n, c in x.entries.items()}
    assert apply_right_inverse(D, x, 300).entries == {n: c * lam ** -300
                                                      for n, c in x.entries.items()}


@pytest.mark.parametrize("make,domain,lo,hi", [
    (lambda: ("backward", WeightSeq.ratio([1.0, 1.0], [0.0, 1.0])), Domain.NATURALS, 0, 9),
    (lambda: ("forward", W2), Domain.NATURALS, 0, 9),
    (lambda: ("bilateral_backward", WeightSeq.step(0.5, 2.0)), Domain.INTEGERS, -5, 5),
    (lambda: ("bilateral_forward", WeightSeq.step(0.5, 2.0)), Domain.INTEGERS, -5, 5),
    (lambda: ("diagonal", WeightSeq.table([1.0, -1.0, 1j], start=0, default=1.0)),
     Domain.NATURALS, 0, 9),
    (lambda: ("forward", WeightSeq.table([3.0, -1j, 0.5], start=1, default=2.0)),
     Domain.NATURALS, 0, 9),
])
def test_apply_matches_dense_oracle(make, domain, lo, hi):
    kind, w = make()
    op = getattr(ShiftOp, kind)(w)
    M = oracle_dense_matrix(kind, w, lo, hi)
    rng = np.random.default_rng(7)
    dense = rng.standard_normal(hi - lo + 1) + 1j * rng.standard_normal(hi - lo + 1)
    # zero the edge entries whose images would leave the window, so the
    # windowed oracle and the exact sparse result agree everywhere
    dense[0] = dense[-1] = 0.0
    v = SeqVector({lo + i: dense[i] for i in range(len(dense))}, domain)
    got = to_dense(apply(op, v), lo, hi)
    assert np.allclose(got, M @ dense, atol=1e-12)


# ---------------------------------------------------------------------------
# right inverses and closed-form powers
# ---------------------------------------------------------------------------

def test_right_inverse_frozen_example():
    B = ShiftOp.backward(W2)
    out = apply_right_inverse(B, SeqVector.basis(0), 3)
    assert out == SeqVector({3: 0.125})


def test_right_inverse_exactness_backward():
    B = ShiftOp.backward(WeightSeq.ratio([2.0, 1.0], [1.0, 1.0]))
    x = SeqVector({0: 1.0, 2: -1j, 5: 0.5})
    y = apply_right_inverse(B, x, 7)
    for _ in range(7):
        y = apply(B, y)
    assert all(abs(y.coeff(n) - x.coeff(n)) < 1e-12 for n in set(y.support()) | set(x.support()))


def test_right_inverse_of_forward_pairs_with_its_adjoint():
    F = ShiftOp.forward(WeightSeq.table([3.0, 4.0, 5.0], start=1, default=2.0))
    x = SeqVector({0: 1.0, 1: 2.0})
    y = apply_right_inverse(F, x, 2)
    z = y
    for _ in range(2):
        z = apply(adjoint(F), z)
    assert all(abs(z.coeff(n) - x.coeff(n)) < 1e-12 for n in set(z.support()) | set(x.support()))


def test_right_inverse_underflow_flushes_to_zero():
    # 2^-2000 is far below the coefficient guard, so the image is empty
    B = ShiftOp.backward(W2)
    out = apply_right_inverse(B, SeqVector.basis(0), 2000)
    assert len(out) == 0


def test_weight_prefix_matches_direct_products(monkeypatch):
    from hyperlab.seqspace import WeightPrefix

    def literal(w, s, e):
        prod = 1.0 + 0.0j
        for t in range(s, e + 1):
            prod *= w.weight(t)
        return prod

    def agree(pre, ranges):
        # ranges of 128 factors or more take the log-sum path
        for s, e in ranges:
            want = literal(pre.w, s, e)
            assert pre.product(s, e) == pytest.approx(want, rel=1e-12)
            assert pre.inverse_product(s, e) == pytest.approx(1.0 / want, rel=1e-12)

    Z = Domain.INTEGERS
    agree(WeightPrefix(WeightSeq.ratio([1.0, 1.0], [2.0, 1.0])),      # (n+1)/(n+2)
          [(1, 1), (2, 7), (5, 40), (3, 2), (1, 300), (250, 900)])
    agree(WeightPrefix(WeightSeq.constant(1.5)), [(1, 1), (3, 200), (100, 1500)])
    agree(WeightPrefix(WeightSeq.constant(0.9 + 0.3j, Z)), [(-700, -400), (-300, 500)])
    # step rules across the split and across 0
    for z in (WeightSeq.step(0.5, 2.0, split=3), WeightSeq.step(0.8j, 1.25, split=-2)):
        agree(WeightPrefix(z), [(-200, -5), (-10, 10), (-150, 150), (1, 2), (4, 300),
                                (-2, -2), (-3, -3)])
    prez = WeightPrefix(WeightSeq.step(0.5, 2.0, split=0))
    # bilateral lookups cross zero: product over [-3, 2] = 0.5^3 * 2^3
    assert prez.product(-3, 2) == pytest.approx(1.0, rel=1e-12)
    assert prez.product(-2, -1) == pytest.approx(0.25, rel=1e-12)
    # a table with a default, read past its end and before its start
    tab = WeightSeq.table([3.0, 0.5, 2.0, -1.5], start=2, default=1.1)
    agree(WeightPrefix(tab), [(0, 3), (1, 10), (3, 400), (0, 300), (6, 500)])
    tab_z = WeightSeq.table([0.5j, 2.0, -3.0], start=-1, default=0.99, domain=Z)
    agree(WeightPrefix(tab_z), [(-400, -2), (-300, 300), (-1, 1), (2, 600)])
    # a table without a default, read up to its edges and never past them
    vals = [1.0 + 0.5 * math.sin(t) for t in range(200)]
    edge = WeightSeq.table(vals, start=5)
    read = []
    weight = WeightSeq.weight
    monkeypatch.setattr(WeightSeq, "weight", lambda w, n: read.append(n) or weight(w, n))
    pre = WeightPrefix(edge)
    agree(pre, [(5, 204), (6, 203), (204, 204), (5, 5), (50, 150)])
    assert read and min(read) >= 5 and max(read) <= 204
    monkeypatch.undo()
    # short ranges multiply directly, long ones (128 factors or more) take
    # the log-sums; both refuse an index past either edge
    for s, e in [(4, 10), (200, 205), (1, 150), (100, 250)]:
        with pytest.raises(ValueError, match="outside the table"):
            pre.product(s, e)
    # a zero denominator at n = 50 and a zero weight at n = -3 raise only
    # when a product reaches them
    pole = WeightPrefix(WeightSeq.ratio([1.0], [-50.0, 1.0]))
    agree(pole, [(1, 49), (2, 40)])
    with pytest.raises(ValueError, match="zero denominator"):
        pole.product(45, 55)
    agree(pole, [(1, 49)])
    root = WeightPrefix(WeightSeq.ratio([3.0, 1.0], [10.0, 1.0], Z))
    agree(root, [(-1, 5), (-2, 50), (-2, 200)])
    with pytest.raises(ValueError, match="zero weight"):
        root.product(-4, 2)
    # indices past exact float arithmetic, and negative ones on naturals rules
    with pytest.raises(ValueError, match="beyond 2"):
        WeightPrefix(W2).inverse_product(5, 2 ** 60)
    for w in (W2, WeightSeq.ratio([1.0, 1.0], [2.0, 1.0]), tab):
        with pytest.raises(ValueError):
            WeightPrefix(w).log_abs_many([-2])
        with pytest.raises(ValueError):
            WeightPrefix(w).product(-3, 4)


def test_weight_product_log_space_region():
    # 2^500 passes through the log-space path and must still be accurate
    val = weight_product(W2, 1, 500)
    assert math.log(abs(val)) == pytest.approx(500 * math.log(2.0), rel=1e-12)
    with pytest.raises(WeightOverflowError) as exc:
        weight_product(W2, 1, 2000)
    assert exc.value.stop == 2000


def mp_log_product(w, s, e):
    """(log|w_s ... w_e|, sign) factor by factor at 50 digits, from the exact
    binary coefficients of a rational rule."""
    num, den = w.rational
    total, negative = mpmath.mpf(0), False
    with mpmath.workdps(50):
        for t in range(s, e + 1):
            p = mpmath.polyval([mpmath.mpf(c) for c in num[::-1]], t)
            q = mpmath.polyval([mpmath.mpf(c) for c in den[::-1]], t)
            total += mpmath.log(abs(p / q))
            negative ^= (p < 0) != (q < 0)
        return total, -1.0 if negative else 1.0


FAR_RULES = [
    # (t + 1) / t telescopes
    (WeightSeq.ratio([1.0, 1.0], [0.0, 1.0]), [(10 ** 6 - 150, 10 ** 6 + 150)]),
    # repeated roots: (t + 1)^2 / t^2 and (t + 1)^3 / t^3
    (WeightSeq.ratio([1.0, 2.0, 1.0], [0.0, 0.0, 1.0]), [(10 ** 6 - 150, 10 ** 6 + 150)]),
    (WeightSeq.ratio([1.0, 3.0, 3.0, 1.0], [0.0, 0.0, 0.0, 1.0]),
     [(10 ** 6 - 150, 10 ** 6 + 150), (10 ** 6, 10 ** 6 + 400)]),
    # complex roots +-i sqrt(3) and +-i
    (WeightSeq.ratio([3.0, 0.0, 1.0], [1.0, 0.0, 1.0]), [(10 ** 6, 10 ** 6 + 400)]),
    # real roots at 1e6 + 0.5 and 1e6 - 2.5: w_t < 0 for the three t between
    # them, so the sign flips inside the ranges
    (WeightSeq.ratio([-1000000.5, 1.0], [-999997.5, 1.0]),
     [(10 ** 6 - 200, 10 ** 6 + 100), (10 ** 6 - 1, 10 ** 6 + 300),
      (10 ** 6 - 300, 10 ** 6 - 2), (10 ** 6 + 1, 10 ** 6 + 300)]),
    # a real root 2^-21 above the integer 700001, past the table
    (WeightSeq.ratio([-(700001 + 2.0 ** -21), 1.0], [-700000.5, 1.0]),
     [(700001 - 150, 700001 + 150), (700002, 700300), (699800, 700001)]),
    # unequal degrees, and leading coefficients of opposite signs: w_t is
    # about -t / 5e5, so the sign follows the count of factors
    (WeightSeq.ratio([1.0, 0.0, 1.0], [2.0, -5e5]),
     [(10 ** 6, 10 ** 6 + 400), (10 ** 6, 10 ** 6 + 401)]),
    # an integer-domain rule on negative ranges: w_t < 0 for the ten t in
    # [-600000, -599991]
    (WeightSeq.ratio([599990.25, 1.0], [600000.5, 1.0], Domain.INTEGERS),
     [(-10 ** 6 - 150, -10 ** 6 + 150), (-600000 - 150, -599995),
      (-600000 - 150, -599994), (-600000 - 150, -600000 + 150)]),
    # degree 2 over degree 1 on Z, complex roots -1 +- 2i over -1/4: w_t is
    # about t / 1e6, negative below 0, so a range there has the sign of its
    # count; near the edge its products leave float range
    (WeightSeq.ratio([5.0, 2.0, 1.0], [2.5e5, 1e6], Domain.INTEGERS),
     [(10 ** 6, 10 ** 6 + 400), (-10 ** 6 - 400, -10 ** 6), (-10 ** 6 - 401, -10 ** 6),
      (-300, 300)]),
    # roots -15.5 +- 0.5i over 15.75 and 0.25, as far out as the least edge
    # 1024 lets the series reach (|Re r| + |Im r| = 16): w_t < 0 for the 15 t
    # in [1, 15], ranges on both sides
    (WeightSeq.ratio([240.5, 31.0, 1.0], [3.9375, -16.0, 1.0], Domain.INTEGERS),
     [(10 ** 6 - 150, 10 ** 6 + 150), (-10 ** 6 - 150, -10 ** 6 + 150), (-15, 1100),
      (-1100, -17), (-1100, 1100), (3, 3 + 128), (17, 2000)]),
    # roots near -1e600 and -6.7e599, past float range: w_t is 1 to within
    # 1e-590, and the mpmath form serves it at the digits it needs
    (WeightSeq.ratio([1e300, 1e-300], [1e300, 1.5e-300]), [(10 ** 6, 10 ** 6 + 200)]),
]


@pytest.mark.parametrize("w, ranges", FAR_RULES)
def test_far_rational_products_match_factor_by_factor_log_sums(w, ranges):
    from hyperlab.seqspace import COEFF_GUARD, WeightPrefix

    dps = mpmath.mp.dps
    pre = WeightPrefix(w)
    E = pre._gamma.edge
    # ranges with an end just past the table, and ranges across its edge,
    # on each side of 0 the rule has
    edge = [(E - 100, E + 100), (E - 300, E + 1), (E + 1, E + 200)]
    if w.domain is Domain.INTEGERS:
        edge += [(-e, -s) for s, e in edge]
    for s, e in ranges + edge:
        log_want, sign = mp_log_product(w, s, e)
        assert abs(log_want) >= 300 or e - s >= 128   # not the direct product
        for got, log in ((lambda: pre.product(s, e), log_want),
                         (lambda: pre.inverse_product(s, e), -log_want)):
            # inside float range within 2e-14 plus twice the rounding of a
            # log-sum of its size; past it an error, below the guard 0
            if log > math.log(1e308):
                with pytest.raises(WeightOverflowError):
                    got()
            elif log < math.log(COEFF_GUARD):
                assert got() == 0.0
            else:
                want = sign * mpmath.exp(log)
                assert got().imag == 0.0
                assert math.copysign(1.0, got().real) == sign
                assert abs(got().real - want) <= (2e-14 + abs(log) * 2.0 ** -51) * abs(want)
    # far prefixes L(m): differences against the same oracle, to the
    # rounding of L(m) itself
    lo, hi = ranges[0]
    L = pre.log_abs_many(np.array([lo - 1, hi]))
    log_want = mp_log_product(w, lo, hi)[0]
    assert abs((L[1] - L[0]) - float(log_want)) <= 1e-15 * (1.0 + np.abs(L).max())
    assert len(pre._pos_log) <= E + 1 and len(pre._neg_log) <= E + 1
    assert mpmath.mp.dps == dps


def test_far_rational_prefix_telescopes_and_keeps_the_table_small():
    w = WeightSeq.ratio([1.0, 1.0], [0.0, 1.0])
    out = shift_power_apply(ShiftOp.forward(w), SeqVector({5000: 1.0}), 10 ** 6)
    assert out.entries[10 ** 6 + 5000] == pytest.approx((10 ** 6 + 5001) / 5001, rel=1e-15)
    E = w.prefix._gamma.edge
    assert E == 1024 and len(w.prefix._pos_log) <= E + 1
    # L(m) = log(m + 1): far entries are the table's last entry plus the
    # closed-form sum past it, log(m + 1) - log(E + 1), so they carry the
    # table's rounding at its edge and little more; near ones come from the
    # table, which mixing leaves as they are
    m = np.array([3, E, E + 1, 10 ** 6, 2 ** 40, 10 ** 6, 70000])
    got = w.prefix.log_abs_many(m)
    far = m > E
    edge = w.prefix._pos_log[E]
    want = np.log1p(m[far].astype(float)) - math.log1p(E)
    assert np.abs(got[far] - edge - want).max() <= 4e-16 * np.log1p(2.0 ** 40)
    assert abs(edge - math.log1p(E)) <= 1e-14
    assert np.array_equal(got[~far], w.prefix.log_abs_many(m[~far]))
    # products telescope to (e + 1) / s, whether they lie inside the table,
    # across its edge or past it, read from their own start
    rng = np.random.default_rng(2601)
    s = np.concatenate([rng.integers(1, 900, 300), rng.integers(1, 4 * 10 ** 5, 300)])
    e = s + np.concatenate([rng.integers(128, 124 + E - s[:300].max(), 300),
                            rng.integers(200, 120000, 300)])
    vals, errors = w.prefix.products(s, e, 1)
    want = (e + 1) / s
    assert not errors and (vals.imag == 0.0).all()
    assert (np.abs(vals.real - want) <= 2e-14 * want).all()
    assert len(w.prefix._pos_log) <= E + 1


def test_rational_tables_do_not_depend_on_the_read_order():
    # roots near 8000 put the edge at 2^19, so the tables grow over several
    # 2^16-entry chunks; one engine first reads twelve short products that
    # leave chunks part built, the other does not
    def rule():
        return WeightSeq.ratio([-8000.5, 1.0], [-8000.25, 1.0], Domain.INTEGERS)

    rng = np.random.default_rng(27)
    first = np.sort(rng.integers(-300000, 300000, 12))
    s = np.sort(rng.integers(-500000, 500000, (3000, 2)), axis=1)
    engines = []
    for w in (rule(), rule()):
        if not engines:
            for v in first.tolist():
                w.prefix.products(np.array([v]), np.array([v + 100]), 1)
        w.prefix.products(np.array([-600000]), np.array([600000]), 1)
        engines.append((w.prefix, w.prefix.products(s[:, 0], s[:, 1], 1)[0]))
    (a, pa), (b, pb) = engines
    assert len(a._pos_log) == len(b._pos_log) == 2 ** 19 + 1
    assert bytes(a._pos_log) == bytes(b._pos_log) and bytes(a._neg_log) == bytes(b._neg_log)
    assert pa.tobytes() == pb.tobytes()


def test_rational_phase_tables_start_at_the_first_negative_weight():
    def literal(w, s, e):
        prod = 1.0 + 0.0j
        for t in range(s, e + 1):
            prod *= w.weight(t)
        return prod

    # (t + 1) / t > 0: a far prefix grows the log table to its edge and
    # builds no phase table
    pos = WeightSeq.ratio([1.0, 1.0], [0.0, 1.0]).prefix
    pos.log_abs_many(np.array([10 ** 6, 3]))
    assert len(pos._pos_log) > 1 and len(pos._pos_ph) <= 1 and len(pos._neg_ph) <= 1
    # one negative weight each: w_70000 = -2 on N and w_-300 = -2 on Z; the
    # first range stays short of it, the others grow the table across it
    # (the long ones take the log and phase sums, with error C * m * eps)
    Z = Domain.INTEGERS
    for w, side, ranges in (
            (WeightSeq.ratio([70000.5, -1.0], [69999.75, -1.0]), "_pos",
             [(1, 500), (69900, 70100), (70001, 70300), (1, 500), (2, 69999), (69999, 70001)]),
            (WeightSeq.ratio([300.5, 1.0], [299.75, 1.0], Z), "_neg",
             [(-200, 200), (-400, -100), (-300, -300), (-200, 200), (-250, -10)])):
        pre = w.prefix
        for k, (s, e) in enumerate(ranges):
            want = literal(w, s, e)
            assert pre.product(s, e) == pytest.approx(want, rel=1e-9)
            assert pre.inverse_product(s, e) == pytest.approx(1.0 / want, rel=1e-9)
            built = len(getattr(pre, side + "_ph")) == len(getattr(pre, side + "_log"))
            assert built == (k > 0)
        assert len(pre._pos_ph) + len(pre._neg_ph) == len(getattr(pre, side + "_log")) + 1
        assert pre.product(*ranges[1]).real < 0


def test_far_rational_zeros_and_domain_raise_only_when_reached():
    from hyperlab.seqspace import WeightPrefix

    # (t - 800000.5) / (t - 800000): a zero denominator at t = 800000
    pole = WeightPrefix(WeightSeq.ratio([-800000.5, 1.0], [-800000.0, 1.0]))
    for s, e in [(799000, 799999), (800001, 800500), (799000, 799100)]:
        log_want, sign = mp_log_product(pole.w, s, e)
        assert pole.product(s, e).real == pytest.approx(sign * float(mpmath.exp(log_want)),
                                                        rel=1e-13)
    assert pole.product(1, 799999) != 0
    for s, e in [(799500, 800100), (800000, 800000), (1, 900000)]:
        with pytest.raises(ValueError, match="zero denominator"):
            pole.product(s, e)
    with pytest.raises(ValueError, match="zero denominator"):
        pole.log_abs_many([10, 900000])
    assert np.isfinite(pole.log_abs_many([10, 799999])).all()
    # 0.1 t - 80000 is 0.0 in floats at t = 800000, where the table would
    # raise, although the root of its binary coefficients lies 4e-11 below
    rounded = WeightPrefix(WeightSeq.ratio([-80001.05, 0.1], [-80000.0, 0.1]))
    assert rounded.product(799000, 799999) != 0
    with pytest.raises(ValueError, match="zero denominator"):
        rounded.product(799500, 800100)
    # (t - 2^20 - 3) / (t - 2^20 - 3.5): a zero weight at t = 2^20 + 3
    root = WeightPrefix(WeightSeq.ratio([-(2.0 ** 20) - 3, 1.0], [-(2.0 ** 20) - 3.5, 1.0],
                                        Domain.INTEGERS))
    assert root.product(2 ** 20 - 200, 2 ** 20 + 2) != 0
    with pytest.raises(ValueError, match="zero weight"):
        root.product(2 ** 20, 2 ** 20 + 3)
    with pytest.raises(ValueError, match="zero weight"):
        root.log_abs_many([-5, 2 ** 21])
    # a pole inside the table: ranges past it read the table across it
    inside = WeightPrefix(WeightSeq.ratio([1.0], [-50.0, 1.0]))
    assert inside.product(60, 700) == pytest.approx(
        float(mpmath.exp(mp_log_product(inside.w, 60, 700)[0])), rel=1e-13)
    with pytest.raises(ValueError, match="zero denominator at n=50"):
        inside.product(40, 700)
    # negative indices on a naturals rule, past the table
    nat = WeightPrefix(WeightSeq.ratio([1.0, 1.0], [2.0, 1.0]))
    E = nat._gamma.edge
    for call in (lambda: nat.product(-E - 5, 3), lambda: nat.log_abs_many([-E - 5])):
        with pytest.raises(ValueError, match="naturals"):
            call()
    # P or Q vanishing everywhere leaves no index with a weight
    with pytest.raises(ValueError, match="zero denominator"):
        WeightPrefix(WeightSeq.ratio([1.0], [0.0])).product(1, 10 ** 6)


# (P coefficients, Q coefficients, roots of P, roots of Q, domain), roots
# repeated by multiplicity
PREFIX_RULES = [
    ([1.0, 3.0, 3.0, 1.0], [0.0, 0.0, 0.0, 1.0], [-1] * 3, [0] * 3, Domain.NATURALS),
    ([1.0, 0.0, 2.0, 0.0, 1.0], [3.0, 0.0, 1.0], [1j, 1j, -1j, -1j],
     [3 ** 0.5 * 1j, -(3 ** 0.5) * 1j], Domain.NATURALS),
    # unequal degrees, leading coefficients 1 and -5e5
    ([1.0, 0.0, 1.0], [2.0, -5e5], [1j, -1j], [4e-6], Domain.NATURALS),
    # (t - 3.5)(t + 2.5) / ((t + 0.5)^2 (t - 7.5)) on both sides of 0
    ([-8.75, -1.0, 1.0], [-1.875, -7.25, -6.5, 1.0], [3.5, -2.5], [-0.5, -0.5, 7.5],
     Domain.INTEGERS),
    # degree 2 over degree 1 on Z, complex roots over a real one
    ([5.0, 2.0, 1.0], [2.5e5, 1e6], [-1 + 2j, -1 - 2j], [-0.25], Domain.INTEGERS),
    # roots as far out as the least edge lets the series reach, 1024 / 64
    ([240.5, 31.0, 1.0], [3.9375, -16.0, 1.0], [-15.5 + 0.5j, -15.5 - 0.5j], [15.75, 0.25],
     Domain.INTEGERS),
    # roots just inside the reach of Stirling's series at the largest edge,
    # 2^19 / 64 = 8192
    ([-8000.5, 1.0], [7000.25, 1.0], [8000.5], [-7000.25], Domain.INTEGERS),
    # roots too far out for Stirling's series, which the mpmath form serves
    ([-9000.5, 1.0], [9000.25, 1.0], [9000.5], [-9000.25], Domain.INTEGERS),
]


@pytest.mark.parametrize("num, den, p_roots, q_roots, domain", PREFIX_RULES)
def test_far_rational_prefixes_match_a_log_gamma_oracle(num, den, p_roots, q_roots, domain):
    w = WeightSeq.ratio(num, den, domain)
    E = w.prefix._gamma.edge
    sides = (1, -1) if domain is Domain.INTEGERS else (1,)
    for side in sides:
        # L(m) - L(E) is the sum of log|w_t| over E < t <= m, and L(-m) - L(-E)
        # minus that of log|w_-t| over E <= t < m: logGamma differences over
        # the (mirrored) roots, valid as they lie below E / 2
        m = np.array([E // 2, E + 1, E + 2, E + 1449, 10 ** 6, 10 ** 6 + 1,
                      3 * 10 ** 7, 2 ** 40])
        got = w.prefix.log_abs_many(np.append(side * m, side * E))
        with mpmath.workdps(60):
            def g(x):
                x += side > 0
                return mpmath.re(sum(mpmath.loggamma(x - side * mpmath.mpc(r)) for r in p_roots)
                                 - sum(mpmath.loggamma(x - side * mpmath.mpc(r))
                                       for r in q_roots))
            lead = mpmath.log(abs(mpmath.mpf(num[-1]) / den[-1]))
            want = [side * float(g(x) - g(E) + (x - E) * lead) for x in m]
        # the differences, to the rounding of L(m) itself
        err = np.abs(got[:-1] - got[-1] - want)
        assert (err <= 1e-14 * np.abs(want) + 2.0 * np.spacing(np.abs(got[:-1]))).all()
        assert len(w.prefix._pos_log) <= E + 1 and len(w.prefix._neg_log) <= E + 1


def test_short_far_products_multiply_directly(monkeypatch):
    from hyperlab.seqspace import WeightPrefix, WeightOverflowError

    def unused(*args):
        raise AssertionError("a product of a rule within the series' reach took mpmath")

    # the log-sum comes first, from the series; a short product inside
    # (e^-300, e^300) is then the running product of its weights from 1
    w = WeightSeq.ratio([1.0, 1.0], [0.0, 1.0])
    pre = WeightPrefix(w)
    with monkeypatch.context() as mp:
        mp.setattr(mpmath, "loggamma", unused)
        for s, e, sign in [(10 ** 6, 10 ** 6 + 99, 1), (-1 + 10 ** 6, 10 ** 6 + 126, -1)]:
            run = math.prod(map(w.weight, range(s, e + 1)), start=1.0 + 0.0j)
            got = pre.product(s, e) if sign > 0 else pre.inverse_product(s, e)
            assert got == (run if sign > 0 else 1.0 / run)
        assert pre.product(10 ** 6, 10 ** 6 + 99) == pytest.approx(
            (10 ** 6 + 100) / 10 ** 6, rel=1e-14)
    # t^3 over 100 far indices leaves float range: the closed form decides
    cube = WeightPrefix(WeightSeq.ratio([0.0, 0.0, 0.0, 1.0], [1.0]))
    with pytest.raises(WeightOverflowError):
        cube.product(10 ** 6, 10 ** 6 + 99)
    assert cube.inverse_product(10 ** 6, 10 ** 6 + 99) == 0.0


def test_far_rational_roots_that_do_not_converge_raise(monkeypatch):
    from mpmath.libmp import NoConvergence

    from hyperlab.seqspace import WeightPrefix

    def stuck(*args, **kwargs):
        raise NoConvergence("no convergence")

    # (t^2 + 1) / t^2: mpmath finds the roots of t^2 + 1 (a root of degree 1
    # is exact, and needs no mpmath)
    monkeypatch.setattr(mpmath, "polyroots", stuck)
    pre = WeightPrefix(WeightSeq.ratio([1.0, 0.0, 1.0], [0.0, 0.0, 1.0]))
    assert pre.product(1, 300) == pytest.approx(
        math.prod(1.0 + 1.0 / t ** 2 for t in range(1, 301)), rel=1e-12)   # the table
    with pytest.raises(ValueError, match="did not converge"):
        pre.product(1, 10 ** 6)


def test_shift_power_closed_form_matches_iteration():
    ops = [
        ShiftOp.backward(WeightSeq.ratio([1.0, 1.0], [0.0, 1.0])),
        ShiftOp.forward(W2),
        ShiftOp.bilateral_backward(W2_Z),
        ShiftOp.bilateral_forward(WeightSeq.step(0.5, 3.0)),
    ]
    for op in ops:
        dom = op.domain
        x = SeqVector({2: 1.0 + 0.5j, 6: -2.0}, dom)
        stepped = x
        for m in range(1, 9):
            stepped = apply(op, stepped)
            jumped = shift_power_apply(op, x, m)
            for n in set(stepped.support()) | set(jumped.support()):
                assert abs(stepped.coeff(n) - jumped.coeff(n)) < 1e-10


def test_orbit_frozen_example_and_subsampling():
    B = ShiftOp.backward(W2)
    assert orbit_norms(B, SeqVector.basis(2), 3) == [(1, 2.0, 1), (2, 4.0, 1), (3, 0.0, 0)]

    # quadratic clock: only n = 1, 4, 9 are recorded
    F = ShiftOp.forward(W2)
    assert orbit_norms(F, SeqVector.basis(0), 10, stride_exponent=2) == [
        (1, 2.0, 1), (4, 16.0, 1), (9, 512.0, 1)]  # 2^9 e_9


# ---------------------------------------------------------------------------
# adjoints
# ---------------------------------------------------------------------------

def test_adjoint_kinds_swap_and_keep_weights():
    B = ShiftOp.backward(W2)
    assert adjoint(B) == ShiftOp.forward(W2)
    assert adjoint(adjoint(B)) == B
    # the transpose of S e_n = w_n e_{n+1} sends e_n to w_{n-1} e_{n-1}:
    # the row (-1, -1), not the bilateral backward shift's (-1, 0)
    S = ShiftOp.bilateral_forward(W2_Z)
    assert adjoint(S) == ShiftOp(W2_Z, -1, -1)
    assert adjoint(adjoint(S)) == S
    D = ShiftOp.diagonal(WeightSeq.constant(1j))
    assert adjoint(D) == D


@pytest.mark.parametrize("op", [
    ShiftOp.backward(WeightSeq.ratio([3.0, 1.0], [1.0, 1.0])),
    ShiftOp.forward(W2),
    ShiftOp.bilateral_backward(WeightSeq.step(0.5, 2.0)),
    ShiftOp.bilateral_forward(W2_Z),
    ShiftOp.diagonal(WeightSeq.table([1.0, -1.0, 1j], start=0, default=2.0)),
])
def test_adjoint_duality_identity(op):
    # <op x, y> = <x, adjoint(op) y> for the bilinear pairing
    rng = np.random.default_rng(11)
    dom = op.domain
    lo = 0 if dom is Domain.NATURALS else -6
    x = SeqVector({lo + i: rng.standard_normal() + 1j * rng.standard_normal()
                   for i in range(0, 12, 2)}, dom)
    y = SeqVector({lo + i: rng.standard_normal() + 1j * rng.standard_normal()
                   for i in range(1, 13, 3)}, dom)
    lhs = bilinear_pair(apply(op, x), y)
    rhs = bilinear_pair(x, apply(adjoint(op), y))
    assert lhs == pytest.approx(rhs, abs=1e-10)


STEP_N = WeightSeq.step(0.5, 2.0, split=3, domain=Domain.NATURALS)
STEP_Z = WeightSeq.step(0.5, 2.0, split=0)


@pytest.mark.parametrize("op,lo,hi", [
    (ShiftOp.backward(STEP_N), 0, 7),
    (ShiftOp.forward(STEP_N), 0, 7),
    (ShiftOp.bilateral_backward(STEP_Z), -4, 4),
    (ShiftOp.bilateral_forward(STEP_Z), -4, 4),
], ids=["backward", "forward", "bilateral-backward", "bilateral-forward"])
def test_adjoint_is_the_transpose_on_every_basis_pair(op, lo, hi):
    # <op e_n, e_k> = <e_n, adjoint(op) e_k> for every n, k of a window in
    # which the weights step from 0.5 to 2, so an adjoint that reads the
    # weight one index off fails at the step
    dom = op.domain
    for n in range(lo, hi + 1):
        for k in range(lo, hi + 1):
            e_n, e_k = SeqVector.basis(n, dom), SeqVector.basis(k, dom)
            assert (bilinear_pair(apply(op, e_n), e_k)
                    == bilinear_pair(e_n, apply(adjoint(op), e_k))), (n, k)


# ---------------------------------------------------------------------------
# the factor-4 subset bound
# ---------------------------------------------------------------------------

def test_subset_bound_refuses_oversized_index_sets():
    xs = [SeqVector.basis(n) for n in range(25)]
    with pytest.raises(ValueError):
        subset_sum_bound_check(xs, [1.0] * 25, list(range(21)))


def test_subset_bound_frozen_disjoint_humps():
    # disjoint supports: lhs = sqrt(sum |lambda|^2), sup over subsets is
    # sqrt(|G|) maximised at the full set
    xs = [SeqVector.basis(n) for n in range(4)]
    lam = [1.0, -1.0, 1j, 0.5]
    rep = subset_sum_bound_check(xs, lam, [0, 1, 2, 3])
    assert rep.holds
    assert rep.lhs == pytest.approx(math.sqrt(3.25), rel=1e-12)
    assert rep.sup_subset_norm == pytest.approx(2.0, rel=1e-12)
    assert rep.rhs == pytest.approx(8.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@seed(20230817)
@given(st.data())
def test_subset_bound_gray_walk_matches_bruteforce_and_holds(data):
    m = data.draw(st.integers(2, 6), label="family size")
    p = data.draw(st.sampled_from([1.0, 2.0, 3.5]), label="p")
    xs = []
    for i in range(m):
        support = data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=4,
                                     unique=True), label=f"supp{i}")
        coeffs = data.draw(st.lists(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=len(support), max_size=len(support)), label=f"coef{i}")
        xs.append(SeqVector(dict(zip(support, coeffs)), Domain.NATURALS, p))
    lam = data.draw(st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=m, max_size=m), label="lambda")
    F = list(range(m))
    rep = subset_sum_bound_check(xs, lam, F)
    assert rep.sup_subset_norm == pytest.approx(oracle_subset_sup(xs, F, p), abs=1e-9)
    assert rep.holds


def test_subset_bound_scales_exactly_by_powers_of_two():
    # coefficients near 1e200 overflowed the walk's power sum |c|^2; the
    # walk now runs on coefficients scaled by an exact power of two
    xs = [SeqVector({0: 1.0, 1: 0.5j}), SeqVector({1: -2.0, 2: 1.5}),
          SeqVector({0: 0.25 - 1j, 2: 3.0})]
    lam = [1.0, -0.5j, 2.0]
    F = [0, 1, 2]
    small = subset_sum_bound_check(xs, lam, F)
    big = subset_sum_bound_check([x.scale(2.0 ** 600) for x in xs], lam, F)
    for attr in ("lhs", "rhs", "sup_subset_norm"):
        assert getattr(big, attr) == 2.0 ** 600 * getattr(small, attr), attr
    assert big.sup_abs_lambda == small.sup_abs_lambda
    assert big.holds and small.holds


# ---------------------------------------------------------------------------
# validation and error paths
# ---------------------------------------------------------------------------

def test_weight_validation():
    with pytest.raises(ValueError):
        WeightSeq.constant(0.0).weight(1)
    with pytest.raises(ValueError):
        W2.weight(-1)  # naturals rule rejects negative indices
    with pytest.raises(ValueError):
        WeightSeq.table([1.0, 2.0], start=1).weight(5)
    with pytest.raises(ValueError):
        WeightSeq.ratio([1.0], [0.0, 1.0]).weight(0)  # P/Q with Q(0) = 0
    with pytest.raises(ValueError):
        WeightSeq.ratio([1.0], [-2.0, 1.0]).weight(2)  # zero denominator at n=2


def test_domain_mismatch_rejected():
    with pytest.raises(ValueError):
        apply(ShiftOp.bilateral_backward(W2_Z), SeqVector.basis(0))
    with pytest.raises(ValueError):
        ShiftOp.backward(W2_Z)  # unilateral shift over integer weights


