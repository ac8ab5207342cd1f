"""Finite matrix windows, Schatten norms, and conjugation maps R S T.

A MatOp is a dense complex matrix acting on the span of e_off .. e_{off+n-1};
the single `basis_offset` anchors both row and column indices, which lets
bilateral windows sit anywhere in Z.  Singular values come from a blocked
one-sided Jacobi on columns: each sweep takes the Gram matrix of every
group of up to 64 columns with one matrix product, rotates it with one
hand-written round-robin Jacobi sweep, and applies the accumulated unitary
to the columns with one more product (no LAPACK in the trusted path;
numpy's svd is used only as an oracle in the test suite).  Groups never
cross a connected component of the columns (columns joined when they share
a nonzero row), whose inner products are exactly zero: the blocks of an
orthogonal sum are swept apart, and the one-entry columns of a shift
window form no group at all.  Whether a Schatten norm lies below a radius
is decided by the same sweeps, stopped as soon as a bound taken from the
Gram matrix settles the answer (`schatten_norm_below`).

Rank-one operators u (x) v come in two flavours selected by `Pairing`:

    HILBERT   matrix entries u_i conj(v_j)   (functional <., v>)
    BILINEAR  matrix entries u_i v_j         (functional sum . v)

Shift windows and conjugations S -> R S T with shift-type R, T are filled
from each shift's row (see `seqspace`): R moves the rows of S and T its
columns, each scaled by the weights, with no dense shift matrix and no
product.  The window grows by each factor's displacement; the grown window
is part of the returned operator, never silently clipped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .seqspace import COEFF_GUARD, Domain, SeqVector, ShiftOp, apply, p_sum

__all__ = [
    "MatOp",
    "Pairing",
    "RankOne",
    "SingularSpectrum",
    "rank_one_to_mat",
    "shift_matrix",
    "conjugation",
    "singular_values",
    "schatten_norm",
    "schatten_norm_below",
    "orthogonal_sum_additivity",
    "OrthogonalSumReport",
    "embed_window",
    "spectrum_to_csv",
]

_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 60
_JACOBI_BLOCK = 32
_MAX_DIM = 2048
_ORTHOGONAL_TOL = 1e-10


class Pairing(Enum):
    HILBERT = "hilbert"
    BILINEAR = "bilinear"


@dataclass(frozen=True, eq=False)
class MatOp:
    """Dense window of an operator: rows and columns both start at basis_offset."""

    data: np.ndarray
    basis_offset: int = 0

    def __post_init__(self):
        arr = np.array(self.data, dtype=complex, copy=True)
        if arr.ndim != 2:
            raise ValueError("MatOp data must be two-dimensional")
        if arr.shape[0] > _MAX_DIM or arr.shape[1] > _MAX_DIM:
            raise ValueError(f"window exceeds the {_MAX_DIM} desk-scale cap")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise ValueError("matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None, basis_offset: int = 0) -> "MatOp":
        return cls(np.zeros((rows, cols if cols is not None else rows), dtype=complex),
                   basis_offset)

    def _require_aligned(self, other: "MatOp") -> None:
        if self.data.shape != other.data.shape or self.basis_offset != other.basis_offset:
            raise ValueError("windows differ; embed into a common window first")

    def __add__(self, other: "MatOp") -> "MatOp":
        self._require_aligned(other)
        return MatOp(self.data + other.data, self.basis_offset)

    def __sub__(self, other: "MatOp") -> "MatOp":
        self._require_aligned(other)
        return MatOp(self.data - other.data, self.basis_offset)

    def scale(self, c: complex) -> "MatOp":
        return MatOp(self.data * complex(c), self.basis_offset)

    def allclose(self, other: "MatOp", tol: float = 1e-12) -> bool:
        return (self.data.shape == other.data.shape
                and self.basis_offset == other.basis_offset
                and bool(np.allclose(self.data, other.data, atol=tol)))


@dataclass(frozen=True)
class RankOne:
    """u (x) v, kept as exact sparse legs until materialized on a window."""

    left: SeqVector
    right: SeqVector
    pairing: Pairing = Pairing.HILBERT


def rank_one_to_mat(r: RankOne, dim: int, basis_offset: int = 0,
                    truncate: bool = False) -> MatOp:
    """Materialize u (x) v on the window [basis_offset, basis_offset + dim).

    Leg entries outside the window are an error unless truncate=True.
    """
    lo, hi = basis_offset, basis_offset + dim - 1
    for leg in (r.left, r.right):
        if not truncate:
            for n in leg.entries:
                if not lo <= n <= hi:
                    raise ValueError(
                        f"rank-one leg has support at {n}, outside [{lo}, {hi}]")
    u = np.zeros(dim, dtype=complex)
    v = np.zeros(dim, dtype=complex)
    for n, c in r.left.entries.items():
        if lo <= n <= hi:
            u[n - lo] = c
    for n, c in r.right.entries.items():
        if lo <= n <= hi:
            v[n - lo] = c
    if r.pairing is Pairing.HILBERT:
        return MatOp(np.outer(u, v.conj()), basis_offset)
    return MatOp(np.outer(u, v), basis_offset)


# ---------------------------------------------------------------------------
# windows for shift-type factors
# ---------------------------------------------------------------------------

def _band(op: ShiftOp, lo: int, hi: int) -> tuple:
    """(cols, rows, values): column j of op on span{e_lo..e_hi} holds the
    weight w_{j+b} of the row (a, b) at row j + a, kept where that row lies
    in the window.  Every column with an image reads its weight, and a
    weight below the coefficient guard is dropped, as `apply` would."""
    a, b = op.displacement, op.offset
    first = max(lo, op.lowest_source())       # the lowest column with an image
    vals = op.weights.window(first + b, hi + b)
    vals[np.abs(vals) < COEFF_GUARD] = 0.0
    src = np.arange(first - lo, hi - lo + 1)  # the columns, less lo
    keep = (src + a >= 0) & (src + a <= hi - lo)
    return src[keep], src[keep] + a, vals[keep]


def shift_matrix(op: ShiftOp, lo: int, hi: int) -> np.ndarray:
    """Dense action of op on span{e_lo..e_hi}; image entries outside the
    window are compressed away (the window is chosen upstream so that
    nothing that matters escapes)."""
    M = np.zeros((hi - lo + 1, hi - lo + 1), dtype=complex)
    cols, rows, vals = _band(op, lo, hi)
    M[rows, cols] = vals
    return M


def conjugation(R: "MatOp | ShiftOp | None", S: MatOp,
                T: "MatOp | ShiftOp | None") -> MatOp:
    """R S T with None meaning the identity factor.

    Matrix factors must share S's window.  Shift-type factors enlarge the
    window by their displacements, so no image mass is clipped; the result
    records the grown window through its offset.  A shift factor moves the
    rows (R) or columns (T) of S by its row and scales them by its weights.
    """
    shift_factors = [f for f in (R, T) if isinstance(f, ShiftOp)]
    if not shift_factors:
        out = S.data
        off = S.basis_offset
        if R is not None:
            if R.cols != S.rows or R.basis_offset != off:
                raise ValueError("left factor window does not match")
            out = R.data @ out
        if T is not None:
            if T.rows != S.cols or T.basis_offset != off:
                raise ValueError("right factor window does not match")
            out = out @ T.data
        return MatOp(out, off)
    if any(isinstance(f, MatOp) for f in (R, T)):
        raise ValueError("mixing matrix and shift factors is not supported")

    off = S.basis_offset
    row_lo, row_hi = off, off + S.rows - 1
    col_lo, col_hi = off, off + S.cols - 1
    lo, hi = min(row_lo, col_lo), max(row_hi, col_hi)
    if R is not None:
        lo = min(lo, row_lo + R.displacement)
        hi = max(hi, row_hi + R.displacement)
    if T is not None:
        lo = min(lo, col_lo - T.displacement)
        hi = max(hi, col_hi - T.displacement)
    if all(f.domain is Domain.NATURALS for f in shift_factors) and off >= 0:
        lo = max(lo, 0)

    dim = hi - lo + 1
    out = np.zeros((dim, dim), dtype=complex)
    out[row_lo - lo:row_hi - lo + 1, col_lo - lo:col_hi - lo + 1] = S.data
    if R is not None:
        cols, rows, vals = _band(R, lo, hi)
        moved = np.zeros_like(out)
        moved[rows] = vals[:, None] * out[cols]
        out = moved
    if T is not None:
        cols, rows, vals = _band(T, lo, hi)
        moved = np.zeros_like(out)
        moved[:, cols] = out[:, rows] * vals
        out = moved
    return MatOp(out, lo)


def embed_window(A: MatOp, lo: int, hi: int) -> MatOp:
    """Zero-pad A onto the window [lo, hi] (which must contain A's window)."""
    if lo > A.basis_offset or hi < A.basis_offset + max(A.rows, A.cols) - 1:
        raise ValueError("target window does not contain the source window")
    dim = hi - lo + 1
    out = np.zeros((dim, dim), dtype=complex)
    r0 = A.basis_offset - lo
    out[r0:r0 + A.rows, r0:r0 + A.cols] = A.data
    return MatOp(out, lo)


# ---------------------------------------------------------------------------
# singular values: one-sided Jacobi on columns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularSpectrum:
    values: tuple          # nonincreasing, length min(rows, cols)
    sweeps: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


def _column_components(U: np.ndarray) -> np.ndarray:
    """Component label of every column of U: the smallest column index of
    its connected component, where two columns are joined when some row is
    nonzero in both.  Columns of different components have inner product
    exactly 0, so no rotation ever mixes them.

    Hook-and-compress union-find on arrays: each row's nonzero columns are
    tied to the row's first one; every round hooks the larger root of each
    still-split pair under the smaller, then points every column at its
    root.  A zero column is a component of its own.
    """
    m, k = U.shape
    cols, rows = np.nonzero(U.T != 0)
    heads = np.full(m, k)
    np.minimum.at(heads, rows, cols)
    heads = heads[rows]
    parent = np.arange(k)
    while True:
        a, b = parent[heads], parent[cols]
        apart = a != b
        if not apart.any():
            return parent
        heads, cols = heads[apart], cols[apart]
        np.minimum.at(parent, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            root = parent[parent]
            if np.array_equal(root, parent):
                break
            parent = root


def _column_groups(U: np.ndarray) -> list:
    """Column index sets of one sweep.  Groups never cross a component (see
    `_column_components`): a one-column component has none (its singular
    value is its norm), one of up to two _JACOBI_BLOCK-column blocks is one
    group, and a larger one gets every pair of _JACOBI_BLOCK-column blocks
    of its sorted column indices.  A single component of n columns gets the
    blocks of range(n)."""
    labels = _column_components(U)
    sizes = np.bincount(labels, minlength=U.shape[1])
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    groups = []
    for root in np.flatnonzero(sizes > 1):
        idx = order[ends[root] - sizes[root]:ends[root]]
        if idx.size <= 2 * _JACOBI_BLOCK:
            groups.append(idx)
            continue
        blocks = [idx[lo:lo + _JACOBI_BLOCK] for lo in range(0, idx.size, _JACOBI_BLOCK)]
        groups += [np.concatenate((blocks[i], blocks[j]))
                   for i in range(len(blocks)) for j in range(i + 1, len(blocks))]
    return groups


def _circle_step(k: int) -> np.ndarray:
    """Round-robin (circle method) permutation of k = 2h positions.

    The pairs of a step are (i, i + h).  Position 0 stays; the others move
    one place round the circle 1 -> 2 -> ... -> h-1 -> 2h-1 -> ... -> h -> 1,
    so k - 1 steps meet every pair once and end in the starting layout.
    """
    h = k // 2
    src = np.arange(k)
    if h >= 2:
        src[1] = h
        src[2:h] = np.arange(1, h - 1)
        src[h:k - 1] = np.arange(h + 1, k)
        src[k - 1] = h - 1
    return src


def _gram_sweep(G: np.ndarray, tol: float) -> "np.ndarray | None":
    """One round-robin Jacobi sweep over the Gram matrix G = W^H W.

    Returns the accumulated unitary V (the group's new columns are W V), or
    None when every pair already meets |G_pq| <= tol sqrt(G_pp) sqrt(G_qq).
    Each step rotates its h disjoint pairs at once, with the rotation of the
    scalar pair loop: for gamma = G_pq, phase = gamma / |gamma|,
    zeta = (G_qq - G_pp) / (2 |gamma|), t = sign(zeta) / (|zeta| + hypot(1, zeta)),
    c = 1 / hypot(1, t) and s = t c; pairs with a zero column are skipped.
    """
    n = k = G.shape[0]
    d = np.sqrt(np.maximum(G.diagonal().real, 0.0))
    live = d > 0.0
    pending = (np.abs(G) > tol * np.outer(d, d)) & live[:, None] & live
    np.fill_diagonal(pending, False)
    if not pending.any():
        return None
    if k % 2:  # a zero column sits out one pair per step and never rotates
        k += 1
    h = k // 2
    G = np.pad(G, ((0, k - n), (0, k - n)))
    VH = np.eye(k, dtype=G.dtype)  # V^H, so that V's columns are rows here
    src = _circle_step(k)
    for _ in range(k - 1):
        diag = np.maximum(G.diagonal().real, 0.0)
        alpha, beta = diag[:h], diag[h:]
        gamma = G.diagonal(h)
        g = np.abs(gamma)
        # sqrt before multiplying: alpha * beta underflows to zero for two
        # denormal column norms, the scale stays positive
        scale = np.sqrt(alpha) * np.sqrt(beta)
        act = (g > tol * scale) & (scale > 0.0)
        if act.any():
            gs = np.where(act, g, 1.0)
            zeta = (beta - alpha) / (2.0 * gs)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            t = np.where(act, t, 0.0)
            c = 1.0 / np.hypot(1.0, t)
            if G.dtype.kind == "c":
                # componentwise: complex / real overflows for a denormal |gamma|
                pairs = gamma.copy().view(float).reshape(h, 2) / gs[:, None]
                phase = pairs.view(complex).ravel()
            else:
                phase = gamma / gs
            b = (t * c) * phase
            bc = b.conj()
            # columns of G: u_p <- c u_p - conj(b) u_q,  u_q <- b u_p + c u_q
            P, Q = G[:, :h], G[:, h:]
            qb = Q * bc
            Q *= c
            Q += P * b
            P *= c
            P -= qb
            # rows of G and of V^H: the adjoint rotation
            c, b, bc = c[:, None], b[:, None], bc[:, None]
            for P, Q in ((G[:h], G[h:]), (VH[:h], VH[h:])):
                qb = Q * b
                Q *= c
                Q += P * bc
                P *= c
                P -= qb
        G = G.take(src, axis=0).take(src, axis=1)
        VH = VH.take(src, axis=0)
    return VH[:n, :n].conj().T


class _Sweeps:
    """The sweep loop of one-sided Jacobi, rotating the columns of U in place.

    Iterating runs sweeps until one leaves every column group untouched
    (`converged`) or `max_sweeps` have run; `sweeps` counts them.  It yields
    once before each sweep.  A sweep visits every column group (see
    `_column_groups`; no group crosses a connected component of the
    columns, and a one-column component has none): it forms the group's
    Gram matrix with one product, rotates it with one round-robin sweep
    (`_gram_sweep`) and applies the accumulated unitary with one more.
    Rotations mix columns of one group only, so the components never merge
    and the groups, taken before the first sweep, hold for every sweep.
    """

    def __init__(self, U: np.ndarray, tol: float, max_sweeps: int):
        self.U, self.tol, self.max_sweeps = U, tol, max_sweeps
        self.sweeps = 0
        self.converged = False

    def __iter__(self):
        U = self.U
        groups = None
        for self.sweeps in range(1, self.max_sweeps + 1):
            yield
            if groups is None:  # a compare settled before any sweep needs none
                groups = _column_groups(U)
            rotated = False
            for idx in groups:
                W = U[:, idx]
                V = _gram_sweep(W.conj().T @ W, self.tol)
                if V is not None:
                    U[:, idx] = W @ V
                    rotated = True
            if not rotated:
                self.converged = True
                return


def _scaled_columns(A: MatOp) -> tuple:
    """(U, e, n): the nonzero columns of A, or of A^H when rows < cols, in
    real arithmetic when A is real and scaled by the exact 2^-e that brings
    the largest entry into [1/2, 1); n = min(rows, cols) counts the columns
    before the zero ones were dropped (their singular values are zeros)."""
    B = A.data if A.rows >= A.cols else A.data.conj().T
    n = B.shape[1]
    if not B.imag.any():
        B = B.real
    U = np.asfortranarray(B[:, B.any(axis=0)])
    parts = (U.real, U.imag) if U.dtype.kind == "c" else (U,)
    top = max(float(np.max(np.abs(part), initial=0.0)) for part in parts)
    exponent = math.frexp(top)[1]
    for part in parts:
        np.ldexp(part, -exponent, out=part)
    return U, exponent, n


def _column_norms(U: np.ndarray, exponent: int, n: int) -> tuple:
    """The column norms of U scaled back by 2^exponent, nonincreasing, padded
    with zeros to n values."""
    norms = sorted((math.sqrt(float(np.vdot(u, u).real)) for u in U.T), reverse=True)
    return tuple([math.ldexp(v, exponent) for v in norms] + [0.0] * (n - U.shape[1]))


def singular_values(A: MatOp, tol: float = _JACOBI_TOL,
                    max_sweeps: int = _JACOBI_MAX_SWEEPS) -> SingularSpectrum:
    """Singular values by blocked one-sided Jacobi orthogonalization.

    Columns p < q with inner product gamma = u_p^H u_q are rotated by the
    complex plane rotation that zeroes gamma; a pair is skipped when
    |gamma| <= tol * ||u_p|| ||u_q||.  The spectrum has converged when a
    sweep (see `_Sweeps`) leaves every group untouched; the column norms
    are then the singular values.  Works on the transpose when rows < cols
    so the column count is min(rows, cols), in real arithmetic when the
    matrix is real, and on the matrix scaled by a power of two that brings
    its largest entry near 1, so squared norms neither overflow nor
    underflow (the scaling is exact and undone on the values).
    """
    if min(A.rows, A.cols) == 0:
        return SingularSpectrum((), 0, True)
    U, exponent, n = _scaled_columns(A)
    jacobi = _Sweeps(U, tol, max_sweeps)
    for _ in jacobi:
        pass
    return SingularSpectrum(_column_norms(U, exponent, n), jacobi.sweeps, jacobi.converged)


def schatten_norm(A: MatOp, p: float) -> float:
    """(sum sigma_i^p)^(1/p); p = 1 is the trace norm, p = 2 Frobenius."""
    return p_sum(singular_values(A).values, p)


# a bracket decides a compare only when it clears the radius by this much,
# far above the rounding of the bracket and of the Jacobi iterates
_DECIDE_MARGIN = 1e-6


def _schatten_bracket(G: np.ndarray, p: float, rows: int) -> tuple:
    """(lower, upper) around ||W||_p from the Gram matrix G = W^H W of the
    columns of W, each of length `rows`.

    With d the column norms, F = ||d||_2 = ||W||_2, the Gershgorin bound
    s = sqrt(max_i sum_j |G_ij|) >= ||W||_op and rho the largest row sum of
    |G_ij| / (d_i d_j), j != i (rounded up by the product's rounding):
    eigenvalues of G majorize its diagonal, so ||d||_p is an upper bound for
    p <= 2 and a lower one for p >= 2; the sorted squared singular values
    lie within (1 -+ rho) d_i^2 (Ostrowski); and sum sigma^p lies on the
    side of F^2 s^(p-2) that p - 2 points to.  Columns with d = 0 add
    nothing to rho.
    """
    d = np.sqrt(np.maximum(G.diagonal().real, 0.0))
    mag = np.abs(G)
    s = math.sqrt(float(mag.sum(axis=1).max()))
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)
    ratios = mag * inv[:, None] * inv
    np.fill_diagonal(ratios, 0.0)
    rho = float(ratios.sum(axis=1).max()) + G.shape[0] * rows * 2.0 ** -52
    norms = d.tolist()
    dp = max(norms) if p == math.inf else p_sum(norms, p)
    mixed = p_sum(norms, 2.0) ** (2.0 / p) * s ** (1.0 - 2.0 / p)
    if p <= 2.0:
        lower = max(max(norms), mixed, dp * math.sqrt(1.0 - rho) if rho < 1.0 else 0.0)
        return lower, dp
    return dp, min(dp * math.sqrt(1.0 + rho), mixed)


def schatten_norm_below(A: MatOp, p: float, radius: float,
                        max_sweeps: int = _JACOBI_MAX_SWEEPS) -> bool:
    """Whether ||A||_p < radius, for p in [1, inf] (inf: the operator norm).

    Runs the sweeps of `singular_values` and, before each one, brackets
    ||A||_p from the Gram matrix of the current columns (`_schatten_bracket`),
    on the same zero-column drop and power-of-two scaling, with the radius
    scaled by the same 2^-e.  It returns as soon as the bracket clears the
    radius by a relative _DECIDE_MARGIN.  A bracket that never clears is
    settled at convergence by the exact `schatten_norm(A, p) < radius`
    (the largest singular value for p = inf) on the same values.  Raises
    ValueError when the sweep budget runs out first: an unconverged
    spectrum decides nothing.
    """
    if not 1.0 <= p <= math.inf:
        raise ValueError("p must lie in [1, inf]")
    U, exponent, n = _scaled_columns(A)
    if U.shape[1] == 0:
        return 0.0 < radius
    try:
        r = math.ldexp(radius, -exponent)
    except OverflowError:
        r = math.inf
    jacobi = _Sweeps(U, _JACOBI_TOL, max_sweeps)
    for _ in jacobi:
        lower, upper = _schatten_bracket(U.conj().T @ U, p, U.shape[0])
        if upper < r * (1.0 - _DECIDE_MARGIN):
            return True
        if lower > r * (1.0 + _DECIDE_MARGIN):
            return False
    if not jacobi.converged:
        raise ValueError(f"Schatten-{p} norm against radius {radius!r} still undecided "
                         f"when the sweep budget (max_sweeps = {max_sweeps}) ran out")
    values = _column_norms(U, exponent, n)
    return (values[0] if p == math.inf else p_sum(values, p)) < radius


# ---------------------------------------------------------------------------
# orthogonal families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthogonalSumReport:
    p: float
    lhs: float                     # ||sum T_i||_p
    rhs: float                     # (sum ||T_i||_p^p)^(1/p)
    mutual_orthogonality_ok: bool
    max_violation: float           # largest scaled cross-product entry
    first_bad_pair: tuple | None   # (i, j) of the first failing pair


def orthogonal_sum_additivity(Ts: Sequence[MatOp], p: float) -> OrthogonalSumReport:
    """Check T_i* T_j = T_i T_j* = 0 for i != j and compare ||sum||_p with
    the p-sum of the parts.

    The zero test is entrywise, at _ORTHOGONAL_TOL scaled by the product of
    the two operator norms, so the verdict is invariant under rescaling the
    family.
    """
    if not Ts:
        raise ValueError("empty family")
    for T in Ts[1:]:
        Ts[0]._require_aligned(T)
    spectra = [singular_values(T).values for T in Ts]
    norms = [vals[0] if vals else 0.0 for vals in spectra]
    ok = True
    worst = 0.0
    bad = None
    for i in range(len(Ts)):
        for j in range(i + 1, len(Ts)):
            scale = max(norms[i] * norms[j], 1e-300)
            c1 = float(np.max(np.abs(Ts[i].data.conj().T @ Ts[j].data))) / scale
            c2 = float(np.max(np.abs(Ts[i].data @ Ts[j].data.conj().T))) / scale
            v = max(c1, c2)
            worst = max(worst, v)
            if v > _ORTHOGONAL_TOL and ok:
                ok = False
                bad = (i, j)
    total = Ts[0]
    for T in Ts[1:]:
        total = total + T
    lhs = schatten_norm(total, p)
    rhs = p_sum([p_sum(vals, p) for vals in spectra], p)
    return OrthogonalSumReport(p, lhs, rhs, ok, worst, bad)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def spectrum_to_csv(spec: SingularSpectrum, fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["index", "singular_value"])
    for i, v in enumerate(spec.values):
        writer.writerow([i, repr(v)])
