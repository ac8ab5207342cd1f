"""Finite matrix windows, Schatten norms, and conjugation maps R S T.

A MatOp is a dense complex matrix acting on the span of e_off .. e_{off+n-1};
the single `basis_offset` anchors both row and column indices, which lets
bilateral windows sit anywhere in Z.  Singular values come from a blocked
one-sided Jacobi on columns: each sweep takes the Gram matrix of every
group of up to 64 columns with one matrix product, rotates it with one
hand-written round-robin Jacobi sweep, and applies the accumulated unitary
to the columns with one more product (no LAPACK in the trusted path;
numpy's svd is used only as an oracle in the test suite).

Rank-one operators u (x) v come in two flavours selected by `Pairing`:

    HILBERT   matrix entries u_i conj(v_j)   (functional <., v>)
    BILINEAR  matrix entries u_i v_j         (functional sum . v)

Conjugation S -> R S T with shift-type R, T grows the basis window by the
displacement band of each factor; the grown window is part of the returned
operator, never silently clipped.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .seqspace import Domain, SeqVector, ShiftOp, apply, adjoint, p_sum

__all__ = [
    "MatOp",
    "Pairing",
    "RankOne",
    "SingularSpectrum",
    "rank_one_to_mat",
    "conjugate_rank_one",
    "shift_matrix",
    "conjugation",
    "conjugate_by",
    "singular_values",
    "schatten_norm",
    "operator_norm",
    "trace_of",
    "frobenius_norm",
    "orthogonal_sum_additivity",
    "OrthogonalSumReport",
    "embed_window",
    "mat_to_json",
    "mat_from_json",
    "mat_to_csv",
    "spectrum_to_csv",
]

_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 60
_JACOBI_BLOCK = 32
_MAX_DIM = 2048


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

    @classmethod
    def identity(cls, n: int, basis_offset: int = 0) -> "MatOp":
        return cls(np.eye(n, dtype=complex), basis_offset)

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


def _conj_vector(v: SeqVector) -> SeqVector:
    return SeqVector({n: c.conjugate() for n, c in v.entries.items()},
                     v.domain, v.p_exponent)


def conjugate_rank_one(R: ShiftOp | None, r: RankOne, T: ShiftOp | None) -> RankOne:
    """Exact rank-one image of u (x) v under S -> R S T.

    The left leg moves by R.  The right leg moves by the transpose of T
    (bilinear flavour) or by its conjugate transpose (Hilbert flavour), so
    materializing afterwards equals conjugating the materialized matrix.
    """
    left = apply(R, r.left) if R is not None else r.left
    right = r.right
    if T is not None:
        if r.pairing is Pairing.BILINEAR:
            right = apply(adjoint(T), right)
        else:
            right = _conj_vector(apply(adjoint(T), _conj_vector(right)))
    return RankOne(left, right, r.pairing)


# ---------------------------------------------------------------------------
# windows for shift-type factors
# ---------------------------------------------------------------------------

def shift_matrix(op: ShiftOp, lo: int, hi: int) -> np.ndarray:
    """Dense action of op on span{e_lo..e_hi}; image entries outside the
    window are compressed away (the window is chosen upstream so that
    nothing that matters escapes)."""
    dim = hi - lo + 1
    M = np.zeros((dim, dim), dtype=complex)
    dom = op.domain
    for j in range(lo, hi + 1):
        if dom is Domain.NATURALS and j < 0:
            continue
        img = apply(op, SeqVector.basis(j, dom))
        for n, c in img.entries.items():
            if lo <= n <= hi:
                M[n - lo, j - lo] = c
    return M


def conjugation(R: "MatOp | ShiftOp | None", S: MatOp,
                T: "MatOp | ShiftOp | None") -> MatOp:
    """R S T with None meaning the identity factor.

    Matrix factors must share S's window.  Shift-type factors enlarge the
    window by their displacement band before multiplying, so no image mass
    is clipped; the result records the grown window through its offset.
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

    off = S.basis_offset
    row_lo, row_hi = off, off + S.rows - 1
    col_lo, col_hi = off, off + S.cols - 1
    lo, hi = min(row_lo, col_lo), max(row_hi, col_hi)
    if isinstance(R, ShiftOp):
        dmin, dmax = R.displacement_range()
        lo = min(lo, row_lo + dmin)
        hi = max(hi, row_hi + dmax)
    if isinstance(T, ShiftOp):
        dmin, dmax = T.displacement_range()
        lo = min(lo, col_lo - dmax)
        hi = max(hi, col_hi - dmin)
    if all(f.domain is Domain.NATURALS for f in shift_factors) and off >= 0:
        lo = max(lo, 0)

    dim = hi - lo + 1
    S_emb = np.zeros((dim, dim), dtype=complex)
    S_emb[row_lo - lo:row_hi - lo + 1, col_lo - lo:col_hi - lo + 1] = S.data

    out = S_emb
    if R is not None:
        R_mat = shift_matrix(R, lo, hi) if isinstance(R, ShiftOp) else None
        if R_mat is None:
            raise ValueError("mixing matrix and shift factors is not supported")
        out = R_mat @ out
    if T is not None:
        T_mat = shift_matrix(T, lo, hi) if isinstance(T, ShiftOp) else None
        if T_mat is None:
            raise ValueError("mixing matrix and shift factors is not supported")
        out = out @ T_mat
    return MatOp(out, lo)


def conjugate_by(R: "MatOp | ShiftOp", S: MatOp) -> MatOp:
    """R S R* with the Hermitian adjoint of the single outer factor."""
    if isinstance(R, MatOp):
        return conjugation(R, S, MatOp(R.data.conj().T, R.basis_offset))
    # grow the window symmetrically, then conjugate the windowed matrix:
    # compression commutes with the Hermitian transpose on a fixed window
    dmin, dmax = R.displacement_range()
    off = S.basis_offset
    lo = min(off, off + dmin, off - dmax)
    hi = max(off + S.rows - 1, off + S.cols - 1) + max(dmax, 0, -dmin)
    if R.domain is Domain.NATURALS and off >= 0:
        lo = max(lo, 0)
    dim = hi - lo + 1
    S_emb = np.zeros((dim, dim), dtype=complex)
    S_emb[off - lo:off - lo + S.rows, off - lo:off - lo + S.cols] = S.data
    R_mat = shift_matrix(R, lo, hi)
    return MatOp(R_mat @ S_emb @ R_mat.conj().T, lo)


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


def _column_groups(n: int) -> list:
    """Column index sets of one sweep: every pair of _JACOBI_BLOCK-column
    blocks, or all n columns when they fit in two blocks."""
    if n <= 2 * _JACOBI_BLOCK:
        return [np.arange(n)]
    blocks = [np.arange(lo, min(lo + _JACOBI_BLOCK, n))
              for lo in range(0, n, _JACOBI_BLOCK)]
    return [np.concatenate((blocks[i], blocks[j]))
            for i in range(len(blocks)) for j in range(i + 1, len(blocks))]


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


def singular_values(A: MatOp, tol: float = _JACOBI_TOL,
                    max_sweeps: int = _JACOBI_MAX_SWEEPS) -> SingularSpectrum:
    """Singular values by blocked one-sided Jacobi orthogonalization.

    Columns p < q with inner product gamma = u_p^H u_q are rotated by the
    complex plane rotation that zeroes gamma; a pair is skipped when
    |gamma| <= tol * ||u_p|| ||u_q||.  A sweep visits every column group
    (see `_column_groups`): it forms the group's Gram matrix with one
    product, rotates it with one round-robin sweep (`_gram_sweep`) and
    applies the accumulated unitary with one more.  The spectrum has
    converged when a sweep leaves every group untouched; the column norms
    are then the singular values.  Works on the transpose when rows < cols
    so the column count is min(rows, cols), in real arithmetic when the
    matrix is real, and on the matrix scaled by a power of two that brings
    its largest entry near 1, so squared norms neither overflow nor
    underflow (the scaling is exact and undone on the values).
    """
    B = A.data if A.rows >= A.cols else A.data.conj().T
    n = B.shape[1]
    if n == 0:
        return SingularSpectrum((), 0, True)
    if not B.imag.any():
        B = B.real
    # zero columns never rotate: their singular values are exact zeros
    U = np.asfortranarray(B[:, B.any(axis=0)])
    parts = (U.real, U.imag) if U.dtype.kind == "c" else (U,)
    top = max(float(np.max(np.abs(part), initial=0.0)) for part in parts)
    exponent = math.frexp(top)[1]
    for part in parts:
        np.ldexp(part, -exponent, out=part)
    groups = _column_groups(U.shape[1])
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        rotated = False
        for idx in groups:
            W = U[:, idx]
            V = _gram_sweep(W.conj().T @ W, tol)
            if V is not None:
                U[:, idx] = W @ V
                rotated = True
        if not rotated:
            converged = True
            break
    norms = sorted((math.sqrt(float(np.vdot(u, u).real)) for u in U.T), reverse=True)
    values = [math.ldexp(v, exponent) for v in norms] + [0.0] * (n - U.shape[1])
    return SingularSpectrum(tuple(values), sweeps, converged)


def schatten_norm(A: MatOp, p: float) -> float:
    """(sum sigma_i^p)^(1/p); p = 1 is the trace norm, p = 2 Frobenius."""
    return p_sum(singular_values(A).values, p)


def operator_norm(A: MatOp) -> float:
    vals = singular_values(A).values
    return vals[0] if vals else 0.0


def frobenius_norm(A: MatOp) -> float:
    return float(np.linalg.norm(A.data))


def trace_of(A: MatOp) -> complex:
    if A.rows != A.cols:
        raise ValueError("trace needs a square window")
    return complex(np.trace(A.data))


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

    @property
    def additivity_gap(self) -> float:
        return abs(self.lhs - self.rhs)


def orthogonal_sum_additivity(Ts: Sequence[MatOp], p: float,
                              tol: float = 1e-10) -> OrthogonalSumReport:
    """Check T_i* T_j = T_i T_j* = 0 for i != j and compare ||sum||_p with
    the p-sum of the parts.

    The zero test is entrywise, at `tol` scaled by the product of the two
    operator norms, so the verdict is invariant under rescaling the family.
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
            if v > tol and ok:
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

def mat_to_json(A: MatOp) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "basis_offset": A.basis_offset,
        "entries": [[float(z.real), float(z.imag)] for z in A.data.ravel()],
    }


def mat_from_json(d: Mapping) -> MatOp:
    arr = np.array([complex(re, im) for re, im in d["entries"]],
                   dtype=complex).reshape(d["rows"], d["cols"])
    return MatOp(arr, d.get("basis_offset", 0))


def mat_to_csv(A: MatOp, fileobj) -> None:
    """Rows of alternating re/im columns; header names carry basis indices."""
    writer = csv.writer(fileobj, lineterminator="\n")
    cols = [A.basis_offset + j for j in range(A.cols)]
    writer.writerow([f"{part}_{j}" for j in cols for part in ("re", "im")])
    for i in range(A.rows):
        row = []
        for j in range(A.cols):
            z = A.data[i, j]
            row.append(repr(float(z.real)))
            row.append(repr(float(z.imag)))
        writer.writerow(row)


def spectrum_to_csv(spec: SingularSpectrum, fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["index", "singular_value"])
    for i, v in enumerate(spec.values):
        writer.writerow([i, repr(v)])
