"""Finite matrix windows, Schatten norms, and conjugation maps R S T.

A MatOp is a dense complex matrix acting on the span of e_off .. e_{off+n-1};
the single `basis_offset` anchors both row and column indices, which lets
bilateral windows sit anywhere in Z.  Singular values come from a blocked
one-sided Jacobi on columns: each sweep takes the Gram matrix of every
group of up to 64 columns with one matrix product, rotates it with a
hand-written round-robin Jacobi sweep, and applies the accumulated unitary
to the columns with one more product (no LAPACK in the trusted path;
numpy's svd is used only as an oracle in the test suite).  Groups never
cross a connected component of the columns (columns joined when they share
a nonzero row), whose inner products are exactly zero: the blocks of an
orthogonal sum are swept apart, and the one-entry columns of a shift
window form no group at all.  Each component is scaled by the exact power
of two that brings its largest entry near 1, so a column far below the
matrix's largest keeps its square unless its own component holds entries
more than about 2^537 above it.  Groups of different components, of one
matrix or of several, share no column, so one sweep engine (`_Sweeps`)
rotates them side by side: round t of a sweep stacks the t-th group of
every component still rotating, across every matrix of the call, and one
round-robin pass rotates the whole stack, with the values, sweep counts and
flags of sweeping the groups one at a time.  Whether a Schatten norm lies
below a radius is decided by the same sweeps, stopped as soon as a bound
taken from the Gram matrix settles the answer (`schatten_norm_below`).

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
    def zeros(cls, rows: int, cols: int | None = None) -> "MatOp":
        return cls(np.zeros((rows, cols if cols is not None else rows), dtype=complex))

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


def _column_groups(U: np.ndarray, labels: np.ndarray) -> list:
    """The column groups of one sweep, one sequence per component of more
    than one column (`labels`, the `_column_components` of U; no group
    crosses a component, and a one-column component has none: its singular
    value is its norm).
    A component of up to two _JACOBI_BLOCK-column blocks has one group; a
    larger one gets every pair of _JACOBI_BLOCK-column blocks of its sorted
    column indices, in order, each pair rotating the columns the pairs before
    it left.  A single component of n columns gets the blocks of range(n)."""
    sizes = np.bincount(labels, minlength=U.shape[1])
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    sequences = []
    for root in np.flatnonzero(sizes > 1):
        idx = order[ends[root] - sizes[root]:ends[root]]
        if idx.size <= 2 * _JACOBI_BLOCK:
            sequences.append([idx])
            continue
        blocks = [idx[lo:lo + _JACOBI_BLOCK] for lo in range(0, idx.size, _JACOBI_BLOCK)]
        sequences.append([np.concatenate((blocks[i], blocks[j]))
                          for i in range(len(blocks)) for j in range(i + 1, len(blocks))])
    return sequences


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


def _gram_sweep(G: np.ndarray, tol: float) -> list:
    """One round-robin Jacobi sweep over each Gram matrix G[i] = W_i^H W_i of
    an (m, n, n) stack.

    Returns, per matrix of the stack, the accumulated unitary V_i (the
    group's new columns are W_i V_i), or None when every pair already meets
    |G_pq| <= tol sqrt(G_pp) sqrt(G_qq).  Each step rotates the h disjoint
    pairs of every matrix at once, with the rotation of the scalar pair loop:
    for gamma = G_pq, phase = gamma / |gamma|, zeta = (G_qq - G_pp) / (2 |gamma|),
    t = sign(zeta) / (|zeta| + hypot(1, zeta)), c = 1 / hypot(1, t) and
    s = t c; pairs with a zero column are skipped.  Every operation is
    elementwise within one matrix, so each V_i is the one a stack of G[i]
    alone gives.  (A pair that does not rotate takes c = 1 and s = 0, which
    leaves every nonzero entry as it is.)  The matrices that rotate are laid
    out row by row, L[p, i, q] = G[i][p, q], so that row p of all of them is
    one contiguous run and the row rotations of the stack are 2-D passes.
    """
    m, n = G.shape[:2]
    d = np.sqrt(np.maximum(G.diagonal(0, 1, 2).real, 0.0))
    live = d > 0.0
    pending = ((np.abs(G) > tol * (d[:, :, None] * d[:, None, :]))
               & live[:, :, None] & live[:, None, :])
    pending[:, np.arange(n), np.arange(n)] = False
    rotates = np.flatnonzero(pending.any(axis=(1, 2)))
    out = [None] * m
    if not rotates.size:
        return out
    b = rotates.size
    k = n + n % 2  # a zero column sits out one pair per step and never rotates
    h = k // 2
    L = np.zeros((k, b, k), dtype=G.dtype)
    L[:n, :, :n] = G[rotates].transpose(1, 0, 2)
    VH = np.zeros_like(L)  # V^H, so that V's columns are rows here
    VH[np.arange(k), :, np.arange(k)] = 1.0
    src = _circle_step(k)
    # the step's permutation of L's entries: rows and columns both move by src
    moves = ((src[:, None, None] * b + np.arange(b)[:, None]) * k + src).ravel()
    rows = (h * b, k)
    for _ in range(k - 1):
        diag = np.maximum(L.diagonal(0, 0, 2).real, 0.0)
        alpha, beta = diag[:, :h], diag[:, h:]
        gamma = L.diagonal(h, 0, 2)
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
            if L.dtype.kind == "c":
                # componentwise: complex / real overflows for a denormal |gamma|
                pairs = gamma.copy().view(float).reshape(b, h, 2) / gs[:, :, None]
                phase = pairs.view(complex)[:, :, 0]
            else:
                phase = gamma / gs
            s = (t * c) * phase
            sc = s.conj()
            # columns of G: u_p <- c u_p - conj(s) u_q,  u_q <- s u_p + c u_q
            P, Q = L[:, :, :h], L[:, :, h:]
            qs = Q * sc
            Q *= c
            Q += P * s
            P *= c
            P -= qs
            # rows of G and of V^H: the adjoint rotation
            c, s, sc = c.T.reshape(-1, 1), s.T.reshape(-1, 1), sc.T.reshape(-1, 1)
            for A in (L, VH):
                P, Q = A[:h].reshape(rows), A[h:].reshape(rows)
                qs = Q * s
                Q *= c
                Q += P * sc
                P *= c
                P -= qs
        L = L.reshape(-1).take(moves).reshape(k, b, k)
        VH = VH.take(src, axis=0)
    for i, j in enumerate(rotates.tolist()):
        out[j] = VH[:n, i, :n].conj().T
    return out


class _Sweeps:
    """The sweep loop of one-sided Jacobi over the columns of many matrices
    at once, rotating each column array of Us in place; `labels` holds the
    component labels of each (see `_column_components`).

    Iterating runs sweeps until each matrix has had a sweep that left all
    its column groups untouched (`converged[i]`) or _JACOBI_MAX_SWEEPS have
    run; `sweeps[i]` counts matrix i's.  Both Jacobi settings are read at
    call time, so a test may patch them.  It yields once before each sweep.  The
    groups (see `_column_groups`) are taken before the first sweep; rotations
    mix the columns of one group only, so the components never merge and the
    groups hold for every sweep.  Groups of different components, of one
    matrix or of two, share no column, so their rotations commute, and a
    sweep runs in rounds: round t takes the t-th group of every component
    that still rotates.  Each group's Gram matrix is formed with one
    product; the round's Gram matrices are stacked by size and dtype and
    rotated by one `_gram_sweep` per stack, and one more product per group
    applies its accumulated unitary.  A component whose groups all came back
    unrotated leaves the sweeps: its columns no longer change, so every
    later sweep would leave it untouched again.  So every column, sweep
    count and flag is the one sweeping the groups one at a time gives, and
    a component's columns come out as sweeping that component alone leaves
    them.
    """

    def __init__(self, Us: list, labels: list):
        self.Us, self.labels = Us, labels
        self.sweeps = [0] * len(Us)
        self.converged = [False] * len(Us)

    def __iter__(self):
        live = list(range(len(self.Us)))
        parts = None            # (matrix, group sequence) of each rotating component
        for sweep in range(1, _JACOBI_MAX_SWEEPS + 1):
            for i in live:
                self.sweeps[i] = sweep
            yield
            if parts is None:  # a compare settled before any sweep needs none
                parts = [(i, seq) for i in live
                         for seq in _column_groups(self.Us[i], self.labels[i])]
            rotated = self._sweep(parts)
            parts = [part for part, moved in zip(parts, rotated) if moved]
            moving = {i for i, _ in parts}
            for i in live:
                self.converged[i] = i not in moving
            live = [i for i in live if i in moving]
            if not live:
                return

    def _sweep(self, parts: list) -> list:
        """One sweep over the components `parts`; whether each rotated."""
        rotated = [False] * len(parts)
        for t in range(max((len(seq) for _, seq in parts), default=0)):
            stacks: dict = {}
            for j, (i, seq) in enumerate(parts):
                if t < len(seq):
                    W = self.Us[i][:, seq[t]]
                    stacks.setdefault((W.shape[1], W.dtype), []).append((j, W.conj().T @ W))
            for items in stacks.values():
                Vs = _gram_sweep(np.stack([G for _, G in items]), _JACOBI_TOL)
                for (j, _), V in zip(items, Vs):
                    if V is not None:
                        i, seq = parts[j]
                        U, idx = self.Us[i], seq[t]
                        U[:, idx] = U[:, idx] @ V
                        rotated[j] = True
        return rotated


def _ldexp(X: np.ndarray, shifts) -> None:
    """Multiply X by 2^shifts in place, its real and imaginary parts apart
    (shifts broadcast against X)."""
    for part in ((X.real, X.imag) if X.dtype.kind == "c" else (X,)):
        np.ldexp(part, shifts, out=part)


def _unit_scaled(X: np.ndarray) -> tuple:
    """(Y, e): a copy Y of X times the exact 2^-e that brings its largest
    real or imaginary part into [1/2, 1) (e = 0 for a zero X)."""
    Y = X.copy()
    e = math.frexp(float(np.max(np.abs(Y.view(float)), initial=0.0)))[1]
    _ldexp(Y, -e)
    return Y, e


def _scaled_columns(A: MatOp) -> tuple:
    """(U, exponents, n, labels): the nonzero columns of A, or of A^H when
    rows < cols, in real arithmetic when A is real, each connected component
    of them (labels, see `_column_components`) scaled by the exact 2^-e that
    brings its largest real or imaginary part into [1/2, 1), with
    exponents[j] the e of column j; n = min(rows, cols) counts the columns
    before the zero ones were dropped (their singular values are zeros).
    Rotations never merge components, so the labels hold for every sweep.
    U is one Fortran-ordered copy: the columns are selected as the rows of
    the transpose, and conjugated in place."""
    B = A.data if A.rows >= A.cols else A.data.T
    n = B.shape[1]
    if not B.imag.any():
        B = B.real
    U = B.T[B.any(axis=0)].T
    if A.rows < A.cols and U.dtype.kind == "c":
        np.conjugate(U, out=U)
    top = np.zeros(U.shape[1])
    for part in ((U.real, U.imag) if U.dtype.kind == "c" else (U,)):
        np.maximum(top, np.max(np.abs(part), axis=0, initial=0.0), out=top)
    labels = _column_components(U)
    np.maximum.at(top, labels, top)     # each label is its component's first column
    exponents = np.frexp(top[labels])[1]
    _ldexp(U, -exponents)
    return U, exponents, n, labels


def _column_norms(U: np.ndarray, exponents: np.ndarray, n: int) -> tuple:
    """The norms of U's columns, column j scaled back by 2^exponents[j],
    nonincreasing and padded with zeros to n values."""
    norms = [math.ldexp(math.sqrt(float(np.vdot(u, u).real)), e)
             for u, e in zip(U.T, exponents.tolist())]
    return tuple(sorted(norms, reverse=True) + [0.0] * (n - U.shape[1]))


def singular_values(A: MatOp) -> SingularSpectrum:
    """Singular values by blocked one-sided Jacobi orthogonalization.

    Columns p < q with inner product gamma = u_p^H u_q are rotated by the
    complex plane rotation that zeroes gamma; a pair is skipped when
    |gamma| <= _JACOBI_TOL * ||u_p|| ||u_q||.  The spectrum has converged
    when a sweep (see `_Sweeps`) leaves every group untouched, within
    _JACOBI_MAX_SWEEPS sweeps; the column norms are then the singular
    values.  Works on the transpose when rows < cols
    so the column count is min(rows, cols), in real arithmetic when the
    matrix is real, and on each connected component of the columns scaled
    by the power of two that brings its largest entry near 1 (see
    `_scaled_columns`; the scaling is exact and undone on the values).
    Rotations never mix components, and one-sided Jacobi's relative
    accuracy is that of the column-scaled matrix, so this costs nothing.
    Squared norms do not overflow, and underflow only for entries more than
    about 2^537 below the largest of their own component.
    """
    return _spectra([A])[0]


def _spectra(As: Sequence[MatOp]) -> list:
    """`singular_values` of every matrix of As, swept together: one `_Sweeps`
    runs the column groups of all of them, and each spectrum, its sweep
    count and flag included, is the one the matrix gives alone."""
    scaled = {i: _scaled_columns(A) for i, A in enumerate(As) if min(A.rows, A.cols)}
    jacobi = _Sweeps([U for U, *_ in scaled.values()],
                     [labels for *_, labels in scaled.values()])
    for _ in jacobi:
        pass
    spectra = [SingularSpectrum((), 0, True)] * len(As)
    for i, (U, exponents, n, _), sweeps, converged in zip(scaled, scaled.values(),
                                                          jacobi.sweeps, jacobi.converged):
        spectra[i] = SingularSpectrum(_column_norms(U, exponents, n), sweeps, converged)
    return spectra


def _part_and_sum_values(Ts: Sequence[MatOp], total: MatOp) -> list:
    """The singular values of every part of Ts and of their sum `total`,
    equal to those of `_spectra([*Ts, total])`, with one sweep of each block
    the sum shares with a part.

    A part is read off the sum when, with the sum's transpose choice, its
    nonzero columns are whole components of the sum's columns, the sum's
    entries there are the part's, and both take real or both complex
    arithmetic.  Its scaled columns are then the sum's there, bit for bit:
    the same components, each with the same exponent (see
    `_scaled_columns`).  The sweeps rotate each component as if it were
    alone, so the part's values are the norms of its columns in the swept
    sum.  The other parts are swept in the same `_Sweeps` call as the sum.
    """
    U, exponents, n, labels = _scaled_columns(total)
    B = total.data if total.rows >= total.cols else total.data.T
    cols = np.flatnonzero(B.any(axis=0))
    reads = {}
    for i, T in enumerate(Ts):
        C = T.data if T.rows >= T.cols else T.data.T
        mine = np.flatnonzero(C.any(axis=0))
        if (bool(C.imag.any()) == (U.dtype.kind == "c")
                and np.array_equal(B[:, mine], C[:, mine])):
            at = np.searchsorted(cols, mine)
            if np.count_nonzero(np.isin(labels, labels[at])) == at.size:
                reads[i] = at
    rest = {i: _scaled_columns(T) for i, T in enumerate(Ts) if i not in reads}
    jacobi = _Sweeps([U, *(V for V, *_ in rest.values())],
                     [labels, *(ls for *_, ls in rest.values())])
    for _ in jacobi:
        pass
    values = {i: _column_norms(*scaled[:3]) for i, scaled in rest.items()}
    values.update((i, _column_norms(U.T[at].T, exponents[at], n)) for i, at in reads.items())
    return [values[i] for i in range(len(Ts))] + [_column_norms(U, exponents, n)]


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


def schatten_norm_below(A: MatOp, p: float, radius: float) -> bool:
    """Whether ||A||_p < radius, for p in [1, inf] (inf: the operator norm).

    Runs the sweeps of `singular_values` and, before each one, brackets
    ||A||_p (`_schatten_bracket`) from the Gram matrix of the current
    columns brought to one scale: column j, scaled by 2^-e_j, is multiplied
    by 2^(e_j - E), E the largest exponent, and the radius is scaled by
    2^-E.  It returns as soon as the bracket clears the radius by a
    relative _DECIDE_MARGIN.  A bracket that never clears is settled at
    convergence by the exact `schatten_norm(A, p) < radius` (the largest
    singular value for p = inf) on the same values.  Raises
    ValueError when the sweep budget runs out first: an unconverged
    spectrum decides nothing.
    """
    if not 1.0 <= p <= math.inf:
        raise ValueError("p must lie in [1, inf]")
    U, exponents, n, labels = _scaled_columns(A)
    if U.shape[1] == 0:
        return 0.0 < radius
    top = int(exponents.max())
    try:
        r = math.ldexp(radius, -top)
    except OverflowError:
        r = math.inf
    to_top = np.ldexp(1.0, exponents - top)
    jacobi = _Sweeps([U], [labels])
    for _ in jacobi:
        W = U * to_top
        lower, upper = _schatten_bracket(W.conj().T @ W, p, U.shape[0])
        if upper < r * (1.0 - _DECIDE_MARGIN):
            return True
        if lower > r * (1.0 + _DECIDE_MARGIN):
            return False
    if not jacobi.converged[0]:
        raise ValueError(f"Schatten-{p} norm against radius {radius!r} still undecided "
                         f"when the sweep budget (max_sweeps = {_JACOBI_MAX_SWEEPS}) ran out")
    values = _column_norms(U, exponents, n)
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

    Parts on disjoint coordinates add by construction: each one is a set of
    whole components of the sum's columns, so its spectrum is read off the
    sum's one sweep (`_part_and_sum_values`), and lhs and rhs come from the
    same column norms.  What the check tests there is mutual orthogonality.
    Parts that share coordinates are swept apart from the sum, and there
    lhs against rhs tests additivity itself.

    The zero test is entrywise, at _ORTHOGONAL_TOL scaled by the product of
    the two operator norms, so the verdict is invariant under rescaling the
    family.  Each part enters the cross products and the norm scale times
    the exact 2^-e that brings its largest real or imaginary part into
    [1/2, 1), so no product underflows to a false zero or overflows; where
    none did unscaled, the quotients are those of the unscaled parts.
    """
    if not Ts:
        raise ValueError("empty family")
    for T in Ts[1:]:
        Ts[0]._require_aligned(T)
    total = Ts[0]
    for T in Ts[1:]:
        total = total + T
    *spectra, whole = _part_and_sum_values(Ts, total)
    scaled = []
    for T, vals in zip(Ts, spectra):
        X, e = _unit_scaled(T.data)
        scaled.append((X, math.ldexp(max(vals, default=0.0), -e)))
    ok = True
    worst = 0.0
    bad = None
    for i, (X, a) in enumerate(scaled):
        for j in range(i + 1, len(Ts)):
            Y, b = scaled[j]
            scale = max(a * b, 1e-300)
            c1 = float(np.max(np.abs(X.conj().T @ Y), initial=0.0)) / scale
            c2 = float(np.max(np.abs(X @ Y.conj().T), initial=0.0)) / scale
            v = max(c1, c2)
            worst = max(worst, v)
            if v > _ORTHOGONAL_TOL and ok:
                ok = False
                bad = (i, j)
    lhs = p_sum(whole, p)
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
