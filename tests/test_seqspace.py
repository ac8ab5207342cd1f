"""Core sparse-vector and shift-operator tests.

Oracles here are written from the textbook definitions (dense matrices built
entry by entry, brute-force subset enumeration), never through the code under
test, and expected values are frozen literals.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hyperlab.seqspace import (
    Domain,
    SeqVector,
    ShiftKind,
    ShiftOp,
    SubsetSumReport,
    TaylorPoly,
    WeightOverflowError,
    WeightSeq,
    adjoint,
    apply,
    apply_right_inverse,
    bilinear_pair,
    hermitian_inner,
    iterate_orbit,
    lp_norm,
    shift_power_apply,
    subset_sum_bound_check,
    vector_from_json,
    vector_to_json,
    weight_product,
)

W2 = WeightSeq.constant(2.0)
W2_Z = WeightSeq.constant(2.0, Domain.INTEGERS)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_dense_matrix(op: ShiftOp, lo: int, hi: int) -> np.ndarray:
    """Dense matrix of op on span{e_lo..e_hi}, from the defining formulas."""
    dim = hi - lo + 1
    M = np.zeros((dim, dim), dtype=complex)
    k = op.kind
    if k is ShiftKind.POLY_OF_SHIFT:
        B = oracle_dense_matrix(op.base, lo, hi)
        acc = np.zeros_like(M)
        P = np.eye(dim, dtype=complex)
        for c in op.poly.coeffs:
            acc += c * P
            P = B @ P
        return acc
    w = op.weights.weight
    for j in range(lo, hi + 1):
        if k is ShiftKind.BACKWARD:
            if j >= 1 and j - 1 >= lo:
                M[j - 1 - lo, j - lo] = w(j)
        elif k is ShiftKind.FORWARD:
            if j + 1 <= hi:
                M[j + 1 - lo, j - lo] = w(j + 1)
        elif k is ShiftKind.BACKWARD_BILATERAL:
            if j - 1 >= lo:
                M[j - 1 - lo, j - lo] = w(j)
        elif k is ShiftKind.FORWARD_BILATERAL:
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
    v = SeqVector.geometric(0.5, 20)
    assert lp_norm(v, 2.0) == pytest.approx(1.1547005383792515, abs=1e-5)


def test_lp_norm_scaling_survives_extreme_magnitudes():
    v = SeqVector({0: 1e200, 1: 1e200})
    assert lp_norm(v, 2.0) == pytest.approx(1e200 * math.sqrt(2.0), rel=1e-12)


def test_inner_products():
    u = SeqVector({0: 1 + 1j, 2: 2.0})
    v = SeqVector({0: 1j, 2: 3.0})
    assert hermitian_inner(u, v) == pytest.approx((1 + 1j) * (-1j) + 6.0)
    assert bilinear_pair(u, v) == pytest.approx((1 + 1j) * 1j + 6.0)


def test_vector_json_round_trip():
    v = SeqVector({3: 1.5 - 2.0j, 0: 0.25j}, Domain.NATURALS, 3.5)
    items = vector_to_json(v)
    assert items[0]["index"] == 0  # sorted for deterministic artifacts
    back = vector_from_json(items, Domain.NATURALS, 3.5)
    assert back == v


# ---------------------------------------------------------------------------
# single applications against the dense oracle
# ---------------------------------------------------------------------------

def test_backward_shift_drops_bottom_index():
    B = ShiftOp.backward(W2)
    assert apply(B, SeqVector.basis(0)).is_zero()
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


def test_poly_of_shift_frozen_example():
    # phi(z) = z^2 + 1 applied to the unweighted backward shift:
    # phi(B) e_2 = e_2 + e_0.
    B = ShiftOp.backward(WeightSeq.constant(1.0))
    phi = TaylorPoly((1.0, 0.0, 1.0))
    out = apply(ShiftOp.polynomial(phi, B), SeqVector.basis(2))
    assert out == SeqVector({2: 1.0, 0: 1.0})


@pytest.mark.parametrize("make_op,domain,lo,hi", [
    (lambda: ShiftOp.backward(WeightSeq.ratio([1.0, 1.0], [0.0, 1.0])), Domain.NATURALS, 0, 9),
    (lambda: ShiftOp.forward(W2), Domain.NATURALS, 0, 9),
    (lambda: ShiftOp.bilateral_backward(WeightSeq.step(0.5, 2.0)), Domain.INTEGERS, -5, 5),
    (lambda: ShiftOp.bilateral_forward(WeightSeq.step(0.5, 2.0)), Domain.INTEGERS, -5, 5),
    (lambda: ShiftOp.diagonal(WeightSeq.table([1.0, -1.0, 1j], start=0, default=1.0)),
     Domain.NATURALS, 0, 9),
    (lambda: ShiftOp.polynomial(TaylorPoly((0.5, 2.0, 1.0)), ShiftOp.backward(W2)),
     Domain.NATURALS, 0, 9),
])
def test_apply_matches_dense_oracle(make_op, domain, lo, hi):
    op = make_op()
    M = oracle_dense_matrix(op, lo, hi)
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
    assert out.is_zero()


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
            WeightPrefix(w).log_abs(-2)
        with pytest.raises(ValueError):
            WeightPrefix(w).product(-3, 4)


def test_weight_product_log_space_region():
    # 2^500 passes through the log-space path and must still be accurate
    val = weight_product(W2, 1, 500)
    assert math.log(abs(val)) == pytest.approx(500 * math.log(2.0), rel=1e-12)
    with pytest.raises(WeightOverflowError) as exc:
        weight_product(W2, 1, 2000)
    assert exc.value.stop == 2000


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
    pts = list(iterate_orbit(B, SeqVector.basis(2), 3))
    assert pts[0] == SeqVector({1: 2.0})
    assert pts[1] == SeqVector({0: 4.0})
    assert pts[2].is_zero()

    # quadratic clock: only n = 1, 4, 9 are emitted
    F = ShiftOp.forward(W2)
    pts = list(iterate_orbit(F, SeqVector.basis(0), 10, stride_exponent=2))
    assert len(pts) == 3
    assert pts[2] == SeqVector({9: 512.0})  # 2^9 e_9


# ---------------------------------------------------------------------------
# adjoints
# ---------------------------------------------------------------------------

def test_adjoint_kinds_swap_and_keep_weights():
    B = ShiftOp.backward(W2)
    assert adjoint(B).kind is ShiftKind.FORWARD
    assert adjoint(adjoint(B)) == B
    S = ShiftOp.bilateral_forward(W2_Z)
    assert adjoint(S).kind is ShiftKind.BACKWARD_BILATERAL


@pytest.mark.parametrize("op", [
    ShiftOp.backward(WeightSeq.ratio([3.0, 1.0], [1.0, 1.0])),
    ShiftOp.forward(W2),
    ShiftOp.bilateral_backward(WeightSeq.step(0.5, 2.0)),
    ShiftOp.bilateral_forward(W2_Z),
    ShiftOp.polynomial(TaylorPoly((1.0, 2.0, 0.5)), ShiftOp.backward(W2)),
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


def test_weight_json_round_trip_all_kinds():
    seqs = [
        W2,
        WeightSeq.ratio([1.0, 1.0], [0.0, 1.0]),
        WeightSeq.table([1.0, 2.0 + 1j], start=1, default=3.0),
        WeightSeq.step(0.5, 2.0, split=4),
    ]
    for w in seqs:
        assert WeightSeq.from_json_dict(w.to_json_dict()) == w


def test_domain_mismatch_rejected():
    with pytest.raises(ValueError):
        apply(ShiftOp.bilateral_backward(W2_Z), SeqVector.basis(0))
    with pytest.raises(ValueError):
        ShiftOp.backward(W2_Z)  # unilateral shift over integer weights


def test_taylor_poly_canonical_and_radius():
    phi = TaylorPoly((1.0, 2.0, 0.0, 0.0))
    assert phi.degree == 1
    assert phi(2.0) == pytest.approx(5.0)
    bounded = TaylorPoly((1.0, 1.0), radius=1.0)
    with pytest.raises(ValueError):
        bounded(1.5)
