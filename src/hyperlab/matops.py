"""Finite matrix windows, Schatten norms, and conjugation maps R S T.

A MatOp is a dense complex matrix acting on the span of e_off .. e_{off+n-1};
the single `basis_offset` anchors both row and column indices, which lets
bilateral windows sit anywhere in Z.  Singular values come from a one-sided
Jacobi sweep on columns (no LAPACK in the trusted path; numpy's svd is used
only as an oracle in the test suite).

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


def singular_values(A: MatOp, tol: float = _JACOBI_TOL,
                    max_sweeps: int = _JACOBI_MAX_SWEEPS) -> SingularSpectrum:
    """Singular values by cyclic one-sided Jacobi orthogonalization.

    Columns p < q with inner product gamma = u_p^H u_q are rotated by the
    complex plane rotation that zeroes gamma; a pair is skipped when
    |gamma| <= tol * ||u_p|| ||u_q||.  After convergence the column norms
    are the singular values.  Works on the transpose when rows < cols so
    the column count is min(rows, cols).
    """
    B = A.data if A.rows >= A.cols else A.data.conj().T
    U = np.array(B, dtype=complex)
    n = U.shape[1]
    if n == 0:
        return SingularSpectrum((), 0, True)
    sq = [float(np.vdot(U[:, j], U[:, j]).real) for j in range(n)]
    sweeps = 0
    converged = n == 1
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        worst = 0.0
        for p in range(n - 1):
            up = U[:, p]
            for q in range(p + 1, n):
                alpha, beta = sq[p], sq[q]
                if alpha == 0.0 or beta == 0.0:
                    continue
                gamma = complex(np.vdot(up, U[:, q]))
                g = abs(gamma)
                # sqrt before multiplying: alpha * beta underflows to zero
                # for two denormal column norms, scale stays positive
                scale = math.sqrt(alpha) * math.sqrt(beta)
                if g <= tol * scale:
                    continue
                worst = max(worst, g / scale)
                phase = gamma / g
                zeta = (beta - alpha) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                uq = U[:, q]
                new_p = c * up - (s * phase.conjugate()) * uq
                new_q = (s * phase) * up + c * uq
                U[:, p] = new_p
                U[:, q] = new_q
                up = U[:, p]
                sq[p] = float(np.vdot(new_p, new_p).real)
                sq[q] = float(np.vdot(new_q, new_q).real)
        if worst <= tol:
            converged = True
            break
    values = tuple(sorted((math.sqrt(v) for v in sq), reverse=True))
    return SingularSpectrum(values, sweeps, converged)


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
