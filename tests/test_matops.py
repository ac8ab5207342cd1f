"""Matrix-window and Schatten-norm tests.

numpy.linalg.svd serves as the independent oracle for the hand-rolled
Jacobi singular values; it is never called inside the library itself.
"""

import io
import math

import numpy as np
import pytest

from hyperlab import matops
from hyperlab.matops import (
    MatOp,
    Pairing,
    RankOne,
    conjugate_by,
    conjugate_rank_one,
    conjugation,
    embed_window,
    frobenius_norm,
    mat_from_json,
    mat_to_csv,
    mat_to_json,
    orthogonal_sum_additivity,
    rank_one_to_mat,
    schatten_norm,
    schatten_norm_below,
    shift_matrix,
    singular_values,
    spectrum_to_csv,
    trace_of,
)
from hyperlab.seqspace import Domain, SeqVector, ShiftOp, WeightSeq

W2 = WeightSeq.constant(2.0)


def random_mat(rng, rows, cols, offset=0):
    data = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return MatOp(data, offset)


# ---------------------------------------------------------------------------
# singular values against the LAPACK oracle
# ---------------------------------------------------------------------------

def test_jacobi_matches_lapack_on_random_shapes():
    rng = np.random.default_rng(42)
    shapes = [(1, 1), (1, 5), (5, 1), (4, 4), (7, 3), (3, 7), (16, 16), (25, 40)]
    for rows, cols in shapes:
        A = random_mat(rng, rows, cols)
        got = np.array(singular_values(A).values)
        want = np.linalg.svd(A.data, compute_uv=False)
        assert got.shape == want.shape
        scale = max(1.0, float(want[0]))
        assert np.max(np.abs(got - want)) <= 1e-9 * scale


def test_jacobi_rank_deficient_and_zero():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    A = MatOp(np.outer(u, u.conj()))
    spec = singular_values(A)
    want = np.linalg.svd(A.data, compute_uv=False)
    assert np.allclose(spec.values, want, atol=1e-10 * want[0])
    assert spec.converged
    Z = MatOp.zeros(6)
    assert singular_values(Z).values == (0.0,) * 6


def test_jacobi_converges_within_sweep_budget():
    rng = np.random.default_rng(99)
    A = random_mat(rng, 60, 60)
    spec = singular_values(A)
    assert spec.converged
    assert spec.sweeps <= 60


def test_singular_values_unitarily_invariant():
    rng = np.random.default_rng(5)
    A = random_mat(rng, 12, 12)
    U, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    V, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    B = MatOp(U @ A.data @ V)
    a = np.array(singular_values(A).values)
    b = np.array(singular_values(B).values)
    assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, a[0])


def assert_matches_lapack(data, rtol=1e-12):
    spec = singular_values(MatOp(data))
    want = np.linalg.svd(data, compute_uv=False)
    got = np.array(spec.values)
    assert spec.converged
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * want[0]
    return spec


@pytest.mark.parametrize("scale", [1e-160, 1e155])
def test_jacobi_tiny_and_huge_entries(scale):
    # unscaled, the squared column norms underflow (1e-160) or overflow
    # (1e155) although every entry is finite
    rng = np.random.default_rng(12)
    A = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
    spec = singular_values(MatOp(A * scale))
    want = np.linalg.svd(A * scale, compute_uv=False)
    assert spec.converged
    assert np.all(np.abs(np.array(spec.values) - want) <= 1e-12 * want)


@pytest.mark.parametrize("shape", [(150, 100), (100, 150)])
def test_jacobi_multi_group_tall_and_wide(shape):
    rng = np.random.default_rng(7)
    assert_matches_lapack(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_jacobi_real_input_takes_the_real_path(monkeypatch):
    from hyperlab import matops
    rng = np.random.default_rng(19)
    A = rng.standard_normal((90, 70))
    dtypes = []
    real_sweep = matops._gram_sweep
    monkeypatch.setattr(matops, "_gram_sweep",
                        lambda G, tol: dtypes.append(G.dtype) or real_sweep(G, tol))
    real = assert_matches_lapack(A)
    assert set(dtypes) == {np.dtype(float)}
    dtypes.clear()
    # the same matrix times a unit phase: same spectrum, complex arithmetic
    rotated = assert_matches_lapack(A * np.exp(0.7j))
    assert set(dtypes) == {np.dtype(complex)}
    assert np.max(np.abs(np.subtract(real.values, rotated.values))) <= 1e-12 * real.values[0]


def test_jacobi_zero_columns_among_dense_ones():
    rng = np.random.default_rng(29)
    A = rng.standard_normal((80, 75)) + 1j * rng.standard_normal((80, 75))
    zero = [0, 5, 6, 7, 33, 64, 74]
    A[:, zero] = 0.0
    spec = assert_matches_lapack(A)
    assert spec.values[-len(zero):] == (0.0,) * len(zero)
    assert min(spec.values[:-len(zero)]) > 0.0


def test_jacobi_column_whose_square_underflows():
    # the column's squared norm underflows to zero although the column is
    # not zero: like a zero column it never rotates, and the sweeps converge
    rng = np.random.default_rng(43)
    A = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
    A[:, 4] *= 1e-170
    assert_matches_lapack(A)


@pytest.mark.parametrize("cols", [56, 100])
def test_jacobi_column_graded_relative_accuracy(cols):
    # A = B diag(10^-k) with B well conditioned: one-sided Jacobi on the
    # columns keeps every singular value to high relative accuracy, down to
    # the 1e-14 column, in any column order.  The oracle is LAPACK on the
    # columns sorted by norm; on the shuffled columns LAPACK itself is off
    # by up to 3e-5 relative and eigenvalues of A^H A by a factor 1e6.
    rng = np.random.default_rng(cols)
    B = rng.standard_normal((cols + 20, cols)) + 1j * rng.standard_normal((cols + 20, cols))
    A = B * 10.0 ** -np.linspace(0.0, 14.0, cols)
    want = np.linalg.svd(A, compute_uv=False)
    for data in (A, A[:, rng.permutation(cols)]):
        spec = singular_values(MatOp(data))
        assert spec.converged
        assert np.all(np.abs(np.array(spec.values) - want) <= 1e-12 * want)


def test_jacobi_reports_an_exhausted_sweep_budget():
    rng = np.random.default_rng(37)
    A = random_mat(rng, 40, 40)
    spec = singular_values(A, max_sweeps=1)
    assert spec.sweeps == 1 and not spec.converged


def bracket_cases():
    rng = np.random.default_rng(2024)
    graded = random_mat(rng, 50, 40).data * 10.0 ** -np.linspace(0.0, 14.0, 40)
    low_rank = random_mat(rng, 30, 5).data @ random_mat(rng, 5, 24).data
    return {
        "complex": random_mat(rng, 40, 40).data,
        "real": rng.standard_normal((36, 30)),
        "wide-multi-group": random_mat(rng, 70, 90).data,
        "rank-deficient": low_rank,
        "rank-deficient-real": np.outer(rng.standard_normal(20), rng.standard_normal(20)),
        "column-graded": graded[:, rng.permutation(40)],
        "huge": random_mat(rng, 30, 30).data * 1e150,
        "tiny": random_mat(rng, 30, 30).data * 1e-150,
    }


def oracle_norm(data, p):
    sv = np.linalg.svd(data, compute_uv=False)
    return float(sv[0]) if p == math.inf else float(np.sum(sv ** p) ** (1.0 / p))


@pytest.mark.parametrize("case", list(bracket_cases()))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.5, math.inf])
def test_schatten_bracket_holds_at_every_sweep(case, p):
    # the bracket is taken on the scaled columns before each sweep, and must
    # hold the oracle norm of the scaled matrix every time, not only at the
    # first sweep; at convergence it has closed to the rounding level
    data = bracket_cases()[case]
    U, exponent, _ = matops._scaled_columns(MatOp(data))
    scaled = data if data.shape[0] >= data.shape[1] else data.conj().T
    want = oracle_norm(scaled * 2.0 ** -exponent, p)
    jacobi = matops._Sweeps(U, matops._JACOBI_TOL, matops._JACOBI_MAX_SWEEPS)
    brackets = []
    for _ in jacobi:
        brackets.append(matops._schatten_bracket(U.conj().T @ U, p, U.shape[0]))
    assert jacobi.converged and len(brackets) >= 2
    for lower, upper in brackets:
        assert lower <= want * (1.0 + 1e-9) and upper >= want * (1.0 - 1e-9)
    lower, upper = brackets[-1]
    assert upper - lower <= 1e-9 * want


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
def test_schatten_compare_sits_on_the_exact_norm(p):
    rng = np.random.default_rng(7)
    for A in (random_mat(rng, 30, 20), MatOp.zeros(4, 6), MatOp.zeros(0, 3)):
        exact = (max(singular_values(A).values, default=0.0) if p == math.inf
                 else schatten_norm(A, p))
        for radius in (exact * 0.5, exact * (1 - 1e-12), exact, exact * (1 + 1e-12), 1.0):
            assert schatten_norm_below(A, p, radius) == (exact < radius)


@pytest.mark.parametrize("p", [0.5, math.nan])
def test_schatten_compare_rejects_bad_exponents(p):
    with pytest.raises(ValueError, match="p must lie"):
        schatten_norm_below(MatOp.identity(2), p, 1.0)


def test_undecided_schatten_compare_raises_on_an_exhausted_budget():
    # a radius within 1e-9 of the norm cannot be cleared by any bracket, and
    # one sweep does not converge: the compare must not fall back on the
    # unconverged column norms
    rng = np.random.default_rng(37)
    A = random_mat(rng, 40, 40)
    radius = schatten_norm(A, 1.0) * (1.0 + 1e-10)
    with pytest.raises(ValueError, match="sweep budget"):
        schatten_norm_below(A, 1.0, radius, max_sweeps=1)
    assert schatten_norm_below(A, 1.0, radius) is True


@pytest.mark.parametrize("k", [2, 4, 6, 64])
def test_round_robin_meets_every_pair_once(k):
    from hyperlab.matops import _circle_step
    src = _circle_step(k)
    h = k // 2
    layout = np.arange(k)
    met = []
    for _ in range(k - 1):
        met += [frozenset((int(layout[i]), int(layout[i + h]))) for i in range(h)]
        layout = layout[src]
    assert len(met) == len(set(met)) == k * (k - 1) // 2
    assert list(layout) == list(range(k))


# ---------------------------------------------------------------------------
# Schatten norms
# ---------------------------------------------------------------------------

def test_schatten_frozen_diagonal_example():
    A = MatOp(np.diag([3.0, 4.0]).astype(complex))
    assert schatten_norm(A, 1.0) == pytest.approx(7.0, rel=1e-12)
    assert schatten_norm(A, 2.0) == pytest.approx(5.0, rel=1e-12)
    assert singular_values(A).values[0] == pytest.approx(4.0, rel=1e-12)
    assert frobenius_norm(A) == pytest.approx(5.0, rel=1e-12)


def test_schatten_rank_one_is_product_of_leg_norms():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    r = RankOne(SeqVector(dict(enumerate(u))), SeqVector(dict(enumerate(v))))
    A = rank_one_to_mat(r, 9)
    want = float(np.linalg.norm(u) * np.linalg.norm(v))
    for p in (1.0, 2.0, 3.5):
        assert schatten_norm(A, p) == pytest.approx(want, rel=1e-9)


def test_schatten_triangle_and_scaling():
    rng = np.random.default_rng(13)
    A = random_mat(rng, 10, 10)
    B = random_mat(rng, 10, 10)
    for p in (1.0, 2.0, 3.5):
        na, nb = schatten_norm(A, p), schatten_norm(B, p)
        assert schatten_norm(A + B, p) <= na + nb + 1e-9
        assert schatten_norm(A.scale(-2.5j), p) == pytest.approx(2.5 * na, rel=1e-9)


def test_schatten_p2_equals_frobenius():
    rng = np.random.default_rng(21)
    A = random_mat(rng, 11, 7)
    assert schatten_norm(A, 2.0) == pytest.approx(frobenius_norm(A), rel=1e-10)


# ---------------------------------------------------------------------------
# rank-one materialization and conjugation
# ---------------------------------------------------------------------------

def test_rank_one_pairing_conventions():
    u = SeqVector({0: 2.0})
    v = SeqVector({1: 1j})
    H = rank_one_to_mat(RankOne(u, v, Pairing.HILBERT), 2)
    B = rank_one_to_mat(RankOne(u, v, Pairing.BILINEAR), 2)
    assert H.data[0, 1] == pytest.approx(2.0 * (-1j))   # u_0 conj(v_1)
    assert B.data[0, 1] == pytest.approx(2.0 * 1j)      # u_0 v_1


def test_rank_one_window_guard():
    u = SeqVector({5: 1.0})
    with pytest.raises(ValueError):
        rank_one_to_mat(RankOne(u, u), 4)
    assert rank_one_to_mat(RankOne(u, u), 4, truncate=True).data.sum() == 0


def test_conjugation_shift_factors_frozen_example():
    # backward on the left, forward on the right, both weights constant 2:
    # e_3 (x) e_3* picks up the factor w_3 mu_3 = 4 and moves to (2, 2)
    S = rank_one_to_mat(RankOne(SeqVector.basis(3), SeqVector.basis(3)), 6)
    out = conjugation(ShiftOp.backward(W2), S, ShiftOp.forward(W2))
    assert out.basis_offset == 0
    idx = 2 - out.basis_offset
    expect = np.zeros((out.rows, out.cols), dtype=complex)
    expect[idx, idx] = 4.0
    assert np.allclose(out.data, expect, atol=1e-12)


def test_conjugation_window_growth_bilateral():
    a = WeightSeq.constant(2.0, Domain.INTEGERS)
    S = MatOp(np.eye(3, dtype=complex), basis_offset=-1)  # window [-1, 1]
    out = conjugation(ShiftOp.bilateral_backward(a), S, None)
    assert out.basis_offset == -2  # grew downward by the displacement band
    M = shift_matrix(ShiftOp.bilateral_backward(a), -2, 1)
    emb = np.zeros((4, 4), dtype=complex)
    emb[1:4, 1:4] = S.data
    assert np.allclose(out.data, M @ emb, atol=1e-12)


def test_conjugation_matrix_factors_plain_product():
    rng = np.random.default_rng(31)
    R, S, T = (random_mat(rng, 6, 6) for _ in range(3))
    out = conjugation(R, S, T)
    assert np.allclose(out.data, R.data @ S.data @ T.data, atol=1e-12)
    with pytest.raises(ValueError):
        conjugation(random_mat(rng, 6, 6, offset=1), S, None)


def test_conjugate_by_matches_explicit_adjoint():
    rng = np.random.default_rng(17)
    S = random_mat(rng, 5, 5)
    R = random_mat(rng, 5, 5)
    out = conjugate_by(R, S)
    assert np.allclose(out.data, R.data @ S.data @ R.data.conj().T, atol=1e-12)


@pytest.mark.parametrize("pairing", [Pairing.HILBERT, Pairing.BILINEAR])
def test_conjugate_rank_one_commutes_with_materialization(pairing):
    rng = np.random.default_rng(23)
    u = SeqVector({2: 1.0 + 0.5j, 4: -1.0})
    v = SeqVector({3: 2.0, 5: 1j})
    r = RankOne(u, v, pairing)
    R = ShiftOp.backward(WeightSeq.ratio([1.0, 2.0], [1.0, 1.0]))
    T = ShiftOp.forward(WeightSeq.table([3.0], start=1, default=1.5))
    evolved = conjugate_rank_one(R, r, T)
    direct = rank_one_to_mat(evolved, 8, truncate=False)
    via_matrix = conjugation(R, rank_one_to_mat(r, 8), T)
    lo = via_matrix.basis_offset
    sub = via_matrix.data[0 - lo:8 - lo, 0 - lo:8 - lo] if lo <= 0 else None
    assert sub is not None
    assert np.allclose(direct.data, sub, atol=1e-12)


# ---------------------------------------------------------------------------
# orthogonal families
# ---------------------------------------------------------------------------

def test_orthogonal_sum_additive_for_disjoint_blocks():
    rng = np.random.default_rng(41)
    Ts = []
    for k in range(3):
        block = np.zeros((12, 12), dtype=complex)
        block[4 * k:4 * k + 4, 4 * k:4 * k + 4] = (
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        Ts.append(MatOp(block))
    for p in (1.0, 2.0, 3.5):
        rep = orthogonal_sum_additivity(Ts, p)
        assert rep.mutual_orthogonality_ok
        assert rep.additivity_gap <= 1e-9 * max(1.0, rep.rhs)


def test_orthogonal_sum_takes_one_spectrum_per_block(monkeypatch):
    from hyperlab import matops
    Ts = [MatOp(np.diag([0.0] * k + [float(k + 1), 0.5] + [0.0] * (4 - k)))
          for k in (0, 2, 4)]
    calls = []
    monkeypatch.setattr(matops, "singular_values",
                        lambda A, *a, **kw: calls.append(A) or singular_values(A, *a, **kw))
    rep = orthogonal_sum_additivity(Ts, 1.5)
    assert len(calls) == 4          # one per block, one for their sum
    parts = [schatten_norm(T, 1.5) for T in Ts]
    top = max(parts)
    assert rep.rhs == top * sum((v / top) ** 1.5 for v in parts) ** (1.0 / 1.5)


def test_orthogonal_sum_detects_shared_row_space():
    # e_0 (x) e_0* and e_0 (x) e_1* share their range: T_1 T_2* != 0
    T1 = rank_one_to_mat(RankOne(SeqVector.basis(0), SeqVector.basis(0)), 3)
    T2 = rank_one_to_mat(RankOne(SeqVector.basis(0), SeqVector.basis(1)), 3)
    rep = orthogonal_sum_additivity([T1, T2], 1.0)
    assert not rep.mutual_orthogonality_ok
    assert rep.first_bad_pair == (0, 1)
    # and trace-norm additivity genuinely fails: ||T1 + T2||_1 = sqrt(2) < 2
    assert rep.lhs == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert rep.rhs == pytest.approx(2.0, rel=1e-12)


def test_orthogonality_verdict_scale_invariant():
    T1 = rank_one_to_mat(RankOne(SeqVector.basis(0), SeqVector.basis(0)), 3)
    T2 = rank_one_to_mat(RankOne(SeqVector.basis(1), SeqVector.basis(1)), 3)
    rep_small = orthogonal_sum_additivity([T1.scale(1e-8), T2.scale(1e-8)], 2.0)
    rep_big = orthogonal_sum_additivity([T1.scale(1e8), T2.scale(1e8)], 2.0)
    assert rep_small.mutual_orthogonality_ok and rep_big.mutual_orthogonality_ok


# ---------------------------------------------------------------------------
# windows, traces, serialization
# ---------------------------------------------------------------------------

def test_embed_window_and_alignment_guard():
    A = MatOp(np.array([[1.0 + 2j]]), basis_offset=3)
    big = embed_window(A, 0, 5)
    assert big.rows == 6 and big.data[3, 3] == 1.0 + 2j
    with pytest.raises(ValueError):
        embed_window(A, 4, 9)
    with pytest.raises(ValueError):
        A + MatOp(np.array([[1.0]]), basis_offset=0)


def test_trace_requires_square():
    assert trace_of(MatOp(np.diag([1.0, 2j]).astype(complex))) == pytest.approx(1.0 + 2j)
    with pytest.raises(ValueError):
        trace_of(MatOp.zeros(2, 3))


def test_matop_rejects_nonfinite():
    with pytest.raises(ValueError):
        MatOp(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_mat_json_round_trip():
    rng = np.random.default_rng(61)
    A = random_mat(rng, 3, 4, offset=-2)
    B = mat_from_json(mat_to_json(A))
    assert B.allclose(A, tol=0.0)


def test_mat_and_spectrum_csv_shapes():
    A = MatOp(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex), basis_offset=1)
    buf = io.StringIO()
    mat_to_csv(A, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "re_1,im_1,re_2,im_2"
    assert lines[1].startswith("1.0,0.0")
    buf2 = io.StringIO()
    spectrum_to_csv(singular_values(A), buf2)
    assert buf2.getvalue().splitlines()[0] == "index,singular_value"
