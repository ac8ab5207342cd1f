"""Matrix-window and Schatten-norm tests.

numpy.linalg.svd serves as the independent oracle for the hand-rolled
Jacobi singular values; it is never called inside the library itself.
"""

import io
import math

import numpy as np
import pytest

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
    operator_norm,
    orthogonal_sum_additivity,
    rank_one_to_mat,
    schatten_norm,
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


# ---------------------------------------------------------------------------
# Schatten norms
# ---------------------------------------------------------------------------

def test_schatten_frozen_diagonal_example():
    A = MatOp(np.diag([3.0, 4.0]).astype(complex))
    assert schatten_norm(A, 1.0) == pytest.approx(7.0, rel=1e-12)
    assert schatten_norm(A, 2.0) == pytest.approx(5.0, rel=1e-12)
    assert operator_norm(A) == pytest.approx(4.0, rel=1e-12)
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
