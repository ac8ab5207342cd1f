"""Matrix-window and Schatten-norm tests.

numpy.linalg.svd serves as the independent oracle for the hand-rolled
Jacobi singular values; it is never called inside the library itself.
"""

import functools
import io
import math

import numpy as np
import pytest

from hyperlab import matops
from hyperlab.matops import (
    MatOp,
    Pairing,
    RankOne,
    conjugation,
    embed_window,
    orthogonal_sum_additivity,
    rank_one_to_mat,
    schatten_norm,
    schatten_norm_below,
    shift_matrix,
    singular_values,
    spectrum_to_csv,
)
from hyperlab.seqspace import Domain, SeqVector, ShiftOp, WeightSeq, adjoint, apply, p_sum
from serial_jacobi import (
    OracleSweeps,
    oracle_scaled_columns,
    oracle_schatten_norm_below,
    oracle_singular_values,
)

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


@pytest.mark.parametrize("diagonal", [[1.0, 1e-200], [1.0, 2.0 ** -600], [1e200, 1.0, 1e-120]])
def test_jacobi_keeps_each_component_at_its_own_scale(diagonal):
    # every column is a component of its own, scaled by its own power of
    # two: no square underflows, and each value is exact
    spec = singular_values(MatOp(np.diag(diagonal)))
    assert spec.values == tuple(diagonal) and spec.converged


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


def test_jacobi_reports_an_exhausted_sweep_budget(monkeypatch):
    rng = np.random.default_rng(37)
    A = random_mat(rng, 40, 40)
    monkeypatch.setattr(matops, "_JACOBI_MAX_SWEEPS", 1)
    spec = singular_values(A)
    assert spec.sweeps == 1 and not spec.converged


# ---------------------------------------------------------------------------
# column components and the sweep groups built inside them
# ---------------------------------------------------------------------------

def union_find_labels(U):
    """Plain union-find over each row's nonzero columns: per column, the
    smallest column index of its component."""
    parent = list(range(U.shape[1]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for row in U:
        cols = np.flatnonzero(row).tolist()
        for c in cols[1:]:
            a, b = find(cols[0]), find(c)
            parent[max(a, b)] = min(a, b)
    return [find(c) for c in range(U.shape[1])]


def random_patterns(count=200):
    rng = np.random.default_rng(1000)
    for _ in range(count):
        rows, cols = int(rng.integers(1, 60)), int(rng.integers(1, 90))
        density = float(rng.choice([0.002, 0.01, 0.03, 0.1, 0.3]))
        U = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < density)
        if rng.random() < 0.5:
            U = U + 1j * rng.standard_normal((rows, cols)) * (U != 0)
        yield U


def diagonal_blocks(blocks):
    out = np.zeros(tuple(map(sum, zip(*(b.shape for b in blocks)))),
                   dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def block_diagonal(rng, sizes, complex_=True, extra_rows=2):
    """Gaussian blocks of shape (s + extra_rows, s) down the diagonal."""
    blocks = []
    for s in sizes:
        block = rng.standard_normal((s + extra_rows, s))
        if complex_:
            block = block + 1j * rng.standard_normal(block.shape)
        blocks.append(block)
    return diagonal_blocks(blocks)


def permuted_bidiagonal(n, seed):
    B = np.eye(n) + np.eye(n, k=1)
    return B[:, np.random.default_rng(seed).permutation(n)]


def shift_window_columns(hi):
    op = ShiftOp.backward(W2)
    return matops._scaled_columns(MatOp(shift_matrix(op, 0, hi)))[0]


def label_cases():
    """name -> (U, number of components)."""
    rng = np.random.default_rng(77)
    with_zero_columns = np.zeros((30, 20))
    with_zero_columns[:10, 1:7] = rng.standard_normal((10, 6))    # one component
    with_zero_columns[20, 8:19] = rng.standard_normal(11)         # one more
    return {
        "permuted-bidiagonal-384": (permuted_bidiagonal(384, 5), 1),
        "shift-window-384": (shift_window_columns(383), 383),
        "dense": (random_mat(rng, 70, 66).data, 1),
        "zero-columns": (with_zero_columns, 2 + 3),                 # columns 0, 7 and 19
        "all-zero": (np.zeros((6, 4)), 4),
        "no-columns": (np.zeros((6, 0)), 0),
        "no-rows": (np.zeros((0, 3)), 3),
    }


def test_components_match_union_find_on_random_patterns():
    sizes = set()
    for U in random_patterns():
        labels = matops._column_components(U)
        assert labels.tolist() == union_find_labels(U)
        sizes.add(len(set(labels.tolist())))
    assert min(sizes) == 1 and max(sizes) >= 50


@pytest.mark.parametrize("case", list(label_cases()))
def test_components_match_union_find(case):
    U, components = label_cases()[case]
    labels = matops._column_components(U).tolist()
    assert labels == union_find_labels(U)
    assert len(set(labels)) == components


def position_groups(n):
    """The sweep groups from column positions alone: every pair of 32-column
    blocks, or all n columns when they fit in two blocks."""
    if n <= 64:
        return [np.arange(n)]
    blocks = [np.arange(lo, min(lo + 32, n)) for lo in range(0, n, 32)]
    return [np.concatenate((blocks[i], blocks[j]))
            for i in range(len(blocks)) for j in range(i + 1, len(blocks))]


@pytest.mark.parametrize("n", [2, 3, 40, 64, 65, 96, 100, 130, 384])
def test_one_component_keeps_the_position_groups(n):
    rng = np.random.default_rng(n)
    for U in (rng.standard_normal((n + 3, n)), permuted_bidiagonal(n, n)):
        [groups] = matops._column_groups(U, matops._column_components(U))
        want = position_groups(n)
        assert len(groups) == len(want)
        for got, expect in zip(groups, want):
            assert got.dtype == expect.dtype and np.array_equal(got, expect)


def test_groups_stay_inside_components_and_meet_every_pair():
    rng = np.random.default_rng(88)
    for U in [block_diagonal(rng, [90, 3, 1, 5, 20, 2]),
              block_diagonal(rng, [2] * 40)[:, rng.permutation(80)],
              *random_patterns(40)]:
        labels = matops._column_components(U)
        met = set()
        roots = []
        for groups in matops._column_groups(U, labels):
            roots.append(labels[groups[0][0]])
            for idx in groups:
                assert len(idx) > 1 and set(labels[idx].tolist()) == {roots[-1]}
                assert np.all(np.diff(idx) > 0)
                met.update((min(a, b), max(a, b)) for a in idx.tolist() for b in idx.tolist()
                           if a != b)
        assert len(set(roots)) == len(roots)      # one sequence per component
        want = {(a, b) for b in range(U.shape[1]) for a in range(b)
                if labels[a] == labels[b]}
        assert met == want


def block_matrices():
    rng = np.random.default_rng(314)
    mixed = block_diagonal(rng, [90, 3, 1, 5, 20, 2])
    mixed_real = block_diagonal(rng, [90, 3, 1, 5, 20, 2], complex_=False)
    rows, cols = rng.permutation(mixed.shape[0]), rng.permutation(mixed.shape[1])
    return {
        "complex": mixed,
        "real": mixed_real,
        "rows-permuted": mixed[rows],
        "columns-permuted": mixed_real[:, cols],
        "both-permuted": mixed[rows][:, cols],
        "wide": mixed[:, cols].T,
        "2x2-blocks-384": block_diagonal(rng, [2] * 192, extra_rows=0),
    }


@pytest.mark.parametrize("case", list(block_matrices()))
def test_jacobi_on_block_matrices_matches_lapack(case):
    assert_matches_lapack(block_matrices()[case])


def test_block_matrices_have_many_components():
    for case, data in block_matrices().items():
        U = matops._scaled_columns(MatOp(data))[0]
        components = len(set(matops._column_components(U).tolist()))
        assert components == (192 if case == "2x2-blocks-384" else 6), case


def staggered_blocks():
    """Blocks whose Jacobi sweeps converge at different sweeps: Gaussian,
    nearly orthogonal columns, 2 x 2, one column and column-graded."""
    rng = np.random.default_rng(2025)
    near_orthogonal = np.linalg.qr(random_mat(rng, 6, 3).data)[0] * [3.0, 2.0, 1.0]
    return [random_mat(rng, 30, 24).data,
            near_orthogonal + 1e-3 * random_mat(rng, 6, 3).data,
            random_mat(rng, 2, 2).data,
            random_mat(rng, 4, 1).data,
            random_mat(rng, 14, 10).data * 10.0 ** -np.linspace(0.0, 10.0, 10)]


def test_staggered_blocks_converge_at_different_sweeps():
    blocks = staggered_blocks()
    sweeps = [singular_values(MatOp(b)).sweeps for b in blocks]
    assert len(set(sweeps)) == len(sweeps)
    # together, the sweeps run until the slowest block has converged
    assert singular_values(MatOp(diagonal_blocks(blocks))).sweeps == max(sweeps)


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
        "block-diagonal": diagonal_blocks(staggered_blocks()),
        # two components 2^-600 apart, each scaled by its own power of two
        "components-apart": diagonal_blocks([random_mat(rng, 12, 10).data,
                                             random_mat(rng, 8, 6).data * 2.0 ** -600]),
    }


def oracle_norm(data, p):
    sv = np.linalg.svd(data, compute_uv=False)
    return float(sv[0]) if p == math.inf else float(np.sum(sv ** p) ** (1.0 / p))


@pytest.mark.parametrize("case", list(bracket_cases()))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.5, math.inf])
def test_schatten_bracket_holds_at_every_sweep(case, p):
    # the bracket is taken before each sweep on the scaled columns brought
    # to the largest exponent E, and must hold the oracle norm of the matrix
    # times 2^-E every time, not only at the first sweep; at convergence it
    # has closed to the rounding level
    data = bracket_cases()[case]
    U, exponents, _, _ = matops._scaled_columns(MatOp(data))
    top = int(exponents.max())
    scaled = data if data.shape[0] >= data.shape[1] else data.conj().T
    want = oracle_norm(scaled * 2.0 ** -top, p)
    jacobi = matops._Sweeps([U], [matops._column_components(U)])
    brackets = []
    for _ in jacobi:
        W = U * np.ldexp(1.0, exponents - top)
        brackets.append(matops._schatten_bracket(W.conj().T @ W, p, U.shape[0]))
    assert jacobi.converged == [True] and len(brackets) >= 2
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
        schatten_norm_below(MatOp(np.eye(2)), p, 1.0)


def test_undecided_schatten_compare_raises_on_an_exhausted_budget(monkeypatch):
    # a radius within 1e-9 of the norm cannot be cleared by any bracket, and
    # one sweep does not converge: the compare must not fall back on the
    # unconverged column norms
    rng = np.random.default_rng(37)
    A = random_mat(rng, 40, 40)
    radius = schatten_norm(A, 1.0) * (1.0 + 1e-10)
    with monkeypatch.context() as patch:
        patch.setattr(matops, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ValueError, match="sweep budget"):
            schatten_norm_below(A, 1.0, radius)
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
# stacked sweeps against the group-at-a-time oracle (tests/serial_jacobi.py)
# ---------------------------------------------------------------------------

def stack_cases():
    """name -> the matrices of one `_spectra` call."""
    rng = np.random.default_rng(4242)
    large = block_diagonal(rng, [100, 2, 2, 2])          # 100 columns: 6 block pairs
    with_zeros = random_mat(rng, 50, 45).data.copy()
    with_zeros[:, [0, 9, 44]] = 0.0
    # the first block pair of a 100-column component is already orthogonal,
    # so its group comes back unrotated while the later pairs rotate
    first_pair_done = np.zeros((140, 100), dtype=complex)
    first_pair_done[:64, :64] = np.diag(np.arange(1.0, 65.0))
    first_pair_done[:, 64:] = random_mat(rng, 140, 36).data
    scaled = bracket_cases()
    return {
        "block-matrices-together": list(block_matrices().values()),
        "staggered": [diagonal_blocks(staggered_blocks())],
        "staggered-together": staggered_blocks(),
        "real-and-complex": [rng.standard_normal((36, 30)), random_mat(rng, 30, 28).data],
        "large-beside-2-column": [large],
        "large-first-pair-orthogonal": [first_pair_done],
        "large-and-2-column-matrices": [large[:102, :100],
                                        *(random_mat(rng, 3, 2).data for _ in range(3))],
        "zero-columns": [with_zeros, np.zeros((5, 4)), np.zeros((0, 3)), np.zeros((3, 1))],
        "huge-and-tiny": [scaled["huge"], scaled["tiny"]],
        "bracket-cases-together": list(scaled.values()),
    }


def assert_spectra_equal_the_oracle(datas):
    As = [MatOp(data) for data in datas]
    got = matops._spectra(As)
    want = [oracle_singular_values(A, max_sweeps=matops._JACOBI_MAX_SWEEPS) for A in As]
    assert got == want
    assert [repr(spec) for spec in got] == [repr(spec) for spec in want]   # zero signs too
    return got


@pytest.mark.parametrize("case", list(stack_cases()))
def test_stacked_sweeps_equal_the_serial_oracle(case):
    assert_spectra_equal_the_oracle(stack_cases()[case])


@pytest.mark.parametrize("max_sweeps", [1, 3])
def test_stacked_sweeps_equal_the_oracle_on_an_exhausted_budget(max_sweeps, monkeypatch):
    rng = np.random.default_rng(61)
    datas = [random_mat(rng, 40, 40).data, rng.standard_normal((150, 100)),
             random_mat(rng, 3, 2).data, np.diag([1.0, 2.0, 3.0])]
    monkeypatch.setattr(matops, "_JACOBI_MAX_SWEEPS", max_sweeps)
    got = assert_spectra_equal_the_oracle(datas)
    assert [spec.converged for spec in got[:2]] == [False, False]
    assert got[3].sweeps == 1 and got[3].converged


@pytest.mark.parametrize("case", ["real-and-complex", "large-and-2-column-matrices",
                                  "staggered-together"])
def test_stacked_sweeps_rotate_every_column_as_the_oracle(case):
    As = [MatOp(data) for data in stack_cases()[case]]
    Us = [matops._scaled_columns(A)[0] for A in As]
    jacobi = matops._Sweeps(Us, [matops._column_components(U) for U in Us])
    for _ in jacobi:
        pass
    for A, U, sweeps, converged in zip(As, Us, jacobi.sweeps, jacobi.converged):
        want = oracle_scaled_columns(A)[0]
        oracle = OracleSweeps(want, matops._JACOBI_TOL, matops._JACOBI_MAX_SWEEPS)
        for _ in oracle:
            pass
        assert (sweeps, converged) == (oracle.sweeps, oracle.converged)
        assert U.strides == want.strides and U.tobytes() == want.tobytes()   # bit for bit


@pytest.mark.parametrize("case", list(label_cases()) + list(block_matrices()))
def test_scaled_columns_equal_the_two_copy_selection(case):
    # one Fortran-ordered copy holds the same values in the same layout, so
    # every BLAS product on it rounds as before
    data = label_cases()[case][0] if case in label_cases() else block_matrices()[case]
    for A in (MatOp(data), MatOp(data.conj().T), MatOp(1j * data)):
        U, exponents, n, labels = matops._scaled_columns(A)
        want, want_exponents, want_n = oracle_scaled_columns(A)
        assert (n, U.dtype) == (want_n, want.dtype)
        assert exponents.tolist() == want_exponents.tolist()
        assert labels.tolist() == matops._column_components(U).tolist()
        assert U.strides == want.strides and np.array_equal(U, want)
        assert U.flags.f_contiguous and not np.shares_memory(U, A.data)


@pytest.mark.parametrize("case", ["complex", "real", "wide-multi-group", "rank-deficient",
                                  "huge", "tiny", "block-diagonal", "components-apart"])
def test_schatten_compare_equals_the_serial_oracle(case, monkeypatch):
    A = MatOp(bracket_cases()[case])
    values = oracle_singular_values(A).values
    for p in (1.0, 3.5, math.inf):
        norm = values[0] if p == math.inf else p_sum(values, p)
        for radius in (0.5 * norm, norm, norm * (1.0 + 1e-12), 2.0 * norm):
            for max_sweeps in (1, matops._JACOBI_MAX_SWEEPS):
                outcome = []
                with monkeypatch.context() as patch:
                    patch.setattr(matops, "_JACOBI_MAX_SWEEPS", max_sweeps)
                    for compare in (schatten_norm_below, functools.partial(
                            oracle_schatten_norm_below, max_sweeps=max_sweeps)):
                        try:
                            outcome.append(compare(A, p, radius))
                        except ValueError as exc:
                            outcome.append(str(exc))
                assert outcome[0] == outcome[1], (p, radius, max_sweeps)


def orthogonal_families():
    rng = np.random.default_rng(73)
    disjoint = []
    for i in range(3):
        data = np.zeros((120, 120), dtype=complex)
        data[40 * i:40 * i + 40, 40 * i:40 * i + 40] = random_mat(rng, 40, 40).data
        disjoint.append(MatOp(data))
    T1 = rank_one_to_mat(RankOne(SeqVector.basis(0), SeqVector.basis(0)), 3)
    T2 = rank_one_to_mat(RankOne(SeqVector.basis(0), SeqVector.basis(1)), 3)
    real = [MatOp(np.diag([0.0] * k + [float(k + 1), 0.5] + [0.0] * (4 - k))) for k in (0, 2, 4)]
    overlapping = [random_mat(rng, 40, 40), random_mat(rng, 40, 40)]
    one_zero = [MatOp.zeros(5), random_mat(rng, 5, 5)]
    # one unitary turns every block onto every coordinate: nothing is read
    # off the sum, and its spectrum comes from another sweep than the parts'
    Q = np.linalg.qr(random_mat(np.random.default_rng(74), 120, 120).data)[0]
    shared = [MatOp(Q @ T.data @ Q.conj().T) for T in disjoint]
    wide_range = [disjoint[0], disjoint[1].scale(2.0 ** -500), disjoint[2].scale(2.0 ** -1000)]
    mixed = [MatOp(disjoint[0].data.real), disjoint[1]]
    # more columns than rows: the parts are read off the sum's transpose
    wide = []
    for i in range(3):
        data = np.zeros((60, 120), dtype=complex)
        data[20 * i:20 * i + 20, 40 * i:40 * i + 40] = random_mat(rng, 20, 40).data
        wide.append(MatOp(data))
    return {"disjoint-40-blocks": disjoint, "shared-range": [T1, T2], "real-diagonal": real,
            "overlapping": overlapping, "one-zero-part": one_zero,
            "shared-coordinates": shared, "wide-range": wide_range,
            "real-and-complex": mixed, "wide-disjoint-blocks": wide}


def oracle_part_and_sum_values(Ts, total):
    """Every part and the sum swept apart by the group-at-a-time oracle."""
    return [oracle_singular_values(A).values for A in [*Ts, total]]


@pytest.mark.parametrize("case", list(orthogonal_families()))
def test_orthogonal_sum_report_equals_the_serial_oracle(case, monkeypatch):
    Ts = orthogonal_families()[case]
    total = sum(Ts[1:], Ts[0])
    got_values = matops._part_and_sum_values(Ts, total)
    want_values = oracle_part_and_sum_values(Ts, total)
    assert got_values == want_values
    assert repr(got_values) == repr(want_values)   # zero signs too
    for p in (1.0, 2.0, 3.5):
        got = orthogonal_sum_additivity(Ts, p)
        with monkeypatch.context() as patch:
            patch.setattr(matops, "_part_and_sum_values", oracle_part_and_sum_values)
            want = orthogonal_sum_additivity(Ts, p)
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("case, swept_apart", [
    ("disjoint-40-blocks", []), ("real-diagonal", []), ("one-zero-part", [0]),
    ("wide-disjoint-blocks", []), ("real-and-complex", [0]),
    ("shared-coordinates", [0, 1, 2]), ("overlapping", [0, 1]), ("shared-range", [0, 1]),
    # each block keeps its own scale in the sum, 2^-1000 apart or not
    ("wide-range", [])])
def test_which_parts_are_swept_beside_the_sum(case, swept_apart, monkeypatch):
    # a part on whole components of the sum, with the sum's entries and
    # arithmetic, takes its values from the sum's sweep; every other part is
    # swept beside the sum in the same call
    Ts = orthogonal_families()[case]
    calls, swept = [], []
    spectra, Sweeps = matops._spectra, matops._Sweeps
    monkeypatch.setattr(matops, "_spectra",
                        lambda As, *a, **kw: calls.append(len(As)) or spectra(As, *a, **kw))
    monkeypatch.setattr(matops, "_Sweeps",
                        lambda Us, *a, **kw: swept.append(len(Us)) or Sweeps(Us, *a, **kw))
    matops._part_and_sum_values(Ts, sum(Ts[1:], Ts[0]))
    assert calls == [] and swept == [1 + len(swept_apart)]


def two_blocks(exponent):
    """Two complex 12-blocks on disjoint coordinates, the second scaled by
    2^-exponent."""
    rng = np.random.default_rng(exponent)
    Ts = []
    for i, scale in enumerate((1.0, 2.0 ** -exponent)):
        data = np.zeros((24, 24), dtype=complex)
        data[12 * i:12 * i + 12, 12 * i:12 * i + 12] = random_mat(rng, 12, 12).data * scale
        Ts.append(MatOp(data))
    return Ts


@pytest.mark.parametrize("exponent", [400, 490, 520, 1000])
def test_scaled_blocks_equal_their_own_sweeps_near_the_underflow_range(exponent):
    # read off the sum, each block at its own scale, and equal to the
    # separate sweeps however far apart the blocks are
    Ts = two_blocks(exponent)
    total = Ts[0] + Ts[1]
    assert matops._part_and_sum_values(Ts, total) == oracle_part_and_sum_values(Ts, total)


@pytest.mark.parametrize("case", ["disjoint-40-blocks", "real-diagonal", "wide-range",
                                  "wide-disjoint-blocks"])
def test_orthogonal_sum_keeps_every_block_at_its_own_scale(case):
    # the sum's values are every block's, each within 1e-10 of LAPACK on
    # that block relative to the block's largest value, 2^-1000 apart or not
    Ts = orthogonal_families()[case]
    total = sum(Ts[1:], Ts[0])
    *_, whole = matops._part_and_sum_values(Ts, total)
    want = []
    for T in Ts:
        block = T.data[np.ix_(T.data.any(axis=1), T.data.any(axis=0))]
        values = np.linalg.svd(block, compute_uv=False)
        want += [(float(v), float(values[0])) for v in values]
    want.sort(reverse=True)
    assert len(whole) == min(total.rows, total.cols) >= len(want)
    assert whole[len(want):] == (0.0,) * (len(whole) - len(want))
    for got, (value, top) in zip(whole, want):
        assert abs(got - value) <= 1e-10 * top


def test_orthogonal_sum_sweeps_its_six_groups_as_one_stack(monkeypatch):
    # three 40-column parts and the three components of their sum: every
    # sweep is one `_gram_sweep` call, holding every group still rotating
    Ts = orthogonal_families()["disjoint-40-blocks"]
    stacks = []
    gram_sweep = matops._gram_sweep
    monkeypatch.setattr(matops, "_gram_sweep",
                        lambda G, tol: stacks.append(G.shape) or gram_sweep(G, tol))
    spectra = matops._spectra([*Ts, sum(Ts[1:], Ts[0])])
    assert len(stacks) == max(spec.sweeps for spec in spectra)
    assert stacks[0] == (6, 40, 40)
    assert all(b <= 6 and (k, n) == (40, 40) for b, k, n in stacks)


def test_orthogonal_sum_sweeps_each_disjoint_block_once(monkeypatch):
    # the parts are read off the sum, so a stack holds the sum's three
    # components, not them and the three parts
    Ts = orthogonal_families()["disjoint-40-blocks"]
    stacks = []
    gram_sweep = matops._gram_sweep
    monkeypatch.setattr(matops, "_gram_sweep",
                        lambda G, tol: stacks.append(G.shape) or gram_sweep(G, tol))
    orthogonal_sum_additivity(Ts, 1.0)
    assert stacks[0] == (3, 40, 40)
    assert all(b <= 3 and (k, n) == (40, 40) for b, k, n in stacks)


# ---------------------------------------------------------------------------
# Schatten norms
# ---------------------------------------------------------------------------

def test_schatten_frozen_diagonal_example():
    A = MatOp(np.diag([3.0, 4.0]).astype(complex))
    assert schatten_norm(A, 1.0) == pytest.approx(7.0, rel=1e-12)
    assert schatten_norm(A, 2.0) == pytest.approx(5.0, rel=1e-12)
    assert singular_values(A).values[0] == pytest.approx(4.0, rel=1e-12)


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
    assert schatten_norm(A, 2.0) == pytest.approx(float(np.linalg.norm(A.data)), rel=1e-10)


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


def conj_vector(v: SeqVector) -> SeqVector:
    return SeqVector({n: c.conjugate() for n, c in v.entries.items()},
                     v.domain, v.p_exponent)


def conjugate_rank_one(R: ShiftOp, r: RankOne, T: ShiftOp) -> RankOne:
    """Exact rank-one image of u (x) v under S -> R S T, the oracle for the
    windowed `conjugation`: the left leg moves by R, the right leg by the
    transpose of T (bilinear flavour) or by its conjugate transpose
    (Hilbert flavour)."""
    right = r.right
    if r.pairing is Pairing.BILINEAR:
        right = apply(adjoint(T), right)
    else:
        right = conj_vector(apply(adjoint(T), conj_vector(right)))
    return RankOne(apply(R, r.left), right, r.pairing)


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
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * max(1.0, rep.rhs)
    # empty windows: an empty cross product violates nothing
    for shape in ((0, 0), (0, 3)):
        rep = orthogonal_sum_additivity([MatOp(np.zeros(shape, complex))] * 2, 2.0)
        assert (rep.lhs, rep.rhs, rep.mutual_orthogonality_ok, rep.max_violation) == \
            (0.0, 0.0, True, 0.0)


def test_orthogonal_sum_reads_each_block_off_the_sum(monkeypatch):
    from hyperlab import matops
    Ts = [MatOp(np.diag([0.0] * k + [float(k + 1), 0.5] + [0.0] * (4 - k)))
          for k in (0, 2, 4)]
    calls = []
    Sweeps = matops._Sweeps
    monkeypatch.setattr(matops, "_Sweeps",
                        lambda Us, *a, **kw: calls.append(Us) or Sweeps(Us, *a, **kw))
    rep = orthogonal_sum_additivity(Ts, 1.5)
    # one sweep of the sum's columns; each block is one of its components
    assert len(calls) == 1 and len(calls[0]) == 1
    # every column is a component of its own, scaled into [1/2, 1)
    assert np.array_equal(calls[0][0], np.diag([0.5, 0.5, 0.75, 0.5, 0.625, 0.5]))
    parts = [schatten_norm(T, 1.5) for T in Ts]
    top = max(parts)
    assert rep.rhs == top * sum((v / top) ** 1.5 for v in parts) ** (1.0 / 1.5)


def test_orthogonal_sum_detects_shared_row_space():
    # e_0 (x) e_0* and e_0 (x) e_1* share their range: T_1 T_2* != 0; at
    # scale 1e-170 that product underflows, at 1e160 it overflows, unless
    # each part is scaled first
    T1 = rank_one_to_mat(RankOne(SeqVector.basis(0), SeqVector.basis(0)), 3)
    T2 = rank_one_to_mat(RankOne(SeqVector.basis(0), SeqVector.basis(1)), 3)
    for scale in (1.0, 1e-170, 1e160):
        rep = orthogonal_sum_additivity([T1.scale(scale), T2.scale(scale)], 1.0)
        assert not rep.mutual_orthogonality_ok, scale
        assert rep.first_bad_pair == (0, 1) and rep.max_violation == 1.0
        # and trace-norm additivity genuinely fails: ||T1 + T2||_1 = sqrt(2) < 2
        assert rep.lhs == pytest.approx(math.sqrt(2.0) * scale, rel=1e-9)
        assert rep.rhs == pytest.approx(2.0 * scale, rel=1e-12)


def test_orthogonality_verdict_scale_invariant():
    T1 = rank_one_to_mat(RankOne(SeqVector.basis(0), SeqVector.basis(0)), 3)
    T2 = rank_one_to_mat(RankOne(SeqVector.basis(1), SeqVector.basis(1)), 3)
    rep_small = orthogonal_sum_additivity([T1.scale(1e-8), T2.scale(1e-8)], 2.0)
    rep_big = orthogonal_sum_additivity([T1.scale(1e8), T2.scale(1e8)], 2.0)
    assert rep_small.mutual_orthogonality_ok and rep_big.mutual_orthogonality_ok


# ---------------------------------------------------------------------------
# windows and serialization
# ---------------------------------------------------------------------------

def test_embed_window_and_alignment_guard():
    A = MatOp(np.array([[1.0 + 2j]]), basis_offset=3)
    big = embed_window(A, 0, 5)
    assert big.rows == 6 and big.data[3, 3] == 1.0 + 2j
    with pytest.raises(ValueError):
        embed_window(A, 4, 9)
    with pytest.raises(ValueError):
        A + MatOp(np.array([[1.0]]), basis_offset=0)


def test_matop_rejects_nonfinite():
    with pytest.raises(ValueError):
        MatOp(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_spectrum_csv_shape():
    spec = singular_values(MatOp(np.diag([3.0, 4.0]), basis_offset=1))
    buf = io.StringIO()
    spectrum_to_csv(spec, buf)
    assert buf.getvalue().splitlines() == ["index,singular_value", "0,4.0", "1,3.0"]
