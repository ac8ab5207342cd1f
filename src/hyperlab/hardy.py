"""Kernel-function spaces on the unit disc and their multiplication operators.

A BetaSpace is the Hilbert space of power series f(z) = sum a_n beta_n z^n
with square-summable coefficients a_n; the functions e_n(z) = beta_n z^n form
an orthonormal basis, and point evaluation at |z| < 1 is realized by the
kernel vector k_z with coefficients beta_n conj(z)^n.  Everything here is
truncated at a fixed basis dimension, with explicit geometric tail bounds.

The operators of interest are multiplication by a polynomial symbol and the
two-sided multiplication S |-> M*_phi S M_psi acting on rank-one kernels.
All three eigenchecks run in float on one "leg": the kernel k_z, the band of
`mult_op_matrix` applied to it one diagonal at a time, and the symbol's
value.  In exact arithmetic the truncated identity fails only on the top
`degree` coordinates, so the float apply is checked coordinate by coordinate
below them and the defect on them is taken in closed form, its power of |z|
kept apart so it does not underflow.  The geometric vector of the nuclear
analogue is the Hardy kernel at conj(lam), and the two rank-one checks share
one residual, whose rank-two norms come from a 2x2 SVD of thin QR factors,
never from a dense SVD.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .matops import MatOp, _unit_scaled
from .seqspace import Domain, WeightSeq, _left_sum

__all__ = [
    "BetaSpace",
    "AnalyticSymbol",
    "mult_op_matrix",
    "KernelEigenReport",
    "ConjugationEigenReport",
    "adjoint_kernel_eigencheck",
    "conjugation_eigencheck",
    "unimodular_locus_sample",
    "SpanResidualReport",
    "span_density_residual",
    "CertificateKind",
    "ConverseCertificate",
    "converse_certificate",
    "NuclearEigenReport",
    "nuclear_eigencheck",
]

_PASS_FACTOR = 10.0
# the float apply's bulk deviation measured below 1.3e-14 up to degree 300
# (random symbols, dim 2048); one band entry off by 1e-12 relative reads 1e-12
_BULK_TOL = 1e-13
_BOUNDARY_POINTS = 720
_BOUNDARY_RADIUS = 1.0 - 1e-6
_ORBIT_DIM = 24        # the converse certificate's desk orbit: its Hardy truncation and length
_ORBIT_STEPS = 50


@dataclass(frozen=True)
class BetaSpace:
    """Coefficient-weighted function space on the disc, truncated to the
    basis vectors e_0 .. e_N (so matrices are (N+1) x (N+1)); `betas` holds
    beta_0 .. beta_N, read once from the rule."""

    rule: WeightSeq
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("truncation dimension must be >= 1")
        if self.rule.domain is not Domain.NATURALS:
            raise ValueError("basis weights are indexed by the naturals")
        b = self.rule.at(np.arange(self.dim + 1))
        bad = (np.abs(b.imag) > 1e-15 * np.hypot(b.real, b.imag)) | (b.real <= 0.0)
        if bad.any():
            n = int(np.argmax(bad))
            self.rule.weight(n)   # an unusable weight reads 0: this raises its error
            raise ValueError(f"basis weight at n={n} must be a positive real")
        object.__setattr__(self, "betas", b.real)

    @classmethod
    def hardy(cls, dim: int) -> "BetaSpace":
        return cls(WeightSeq.constant(1.0), dim)

    @classmethod
    def inv_linear(cls, dim: int) -> "BetaSpace":
        return cls(WeightSeq.ratio((1.0,), (1.0, 1.0)), dim)


@dataclass(frozen=True)
class AnalyticSymbol:
    """Polynomial multiplier symbol c_0 + c_1 z + ... + c_M z^M, trailing
    coefficient nonzero, optionally with a known sup-norm."""

    coeffs: tuple
    sup_bound: float | None = None

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs if cs else (0.0 + 0.0j,))

    @classmethod
    def from_coeffs(cls, coeffs, sup_bound: float | None = None) -> "AnalyticSymbol":
        return cls(coeffs, sup_bound)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def coeff_abs_sum(self) -> float:
        return _left_sum(abs(c) for c in self.coeffs)


def mult_op_matrix(phi: AnalyticSymbol, space: BetaSpace) -> MatOp:
    """Matrix of multiplication by the symbol in the orthonormal basis.

    Multiplying e_n by z^m lands on (beta_n / beta_{n+m}) e_{n+m}, so the
    matrix is lower triangular with band width the symbol degree.
    """
    n_dim = space.dim + 1
    data = np.zeros((n_dim, n_dim), dtype=complex)
    flat = data.reshape(-1)
    for m, c in enumerate(phi.coeffs[:n_dim]):
        flat[m * n_dim::n_dim + 1] = _band(c, space.betas, m)   # entries (n + m, n)
    return MatOp(data)


def _band(c: complex, betas: np.ndarray, m: int) -> np.ndarray:
    """The entries c beta_n / beta_{n+m} (n = 0 .. dim - m) of the m-th band
    diagonal, in CPython's complex-by-float steps: the float joins as
    (b, 0.0) in the product and the quotient."""
    bn, bk = betas[:betas.size - m], betas[m:]
    ar = c.real * bn - c.imag * 0.0
    ai = c.real * 0.0 + c.imag * bn
    out = np.empty(bn.size, dtype=complex)
    out.real = (ar + ai * 0.0) / bk
    out.imag = (ai - ar * 0.0) / bk
    return out


# -- kernel eigenchecks -----------------------------------------------------

class _Leg(NamedTuple):
    """One side of the identity M*_sym k_z = conj(sym(z)) k_z on a truncation."""
    u: np.ndarray         # the kernel k_z
    b: np.ndarray         # M*_sym k_z, applied band by band
    alpha: complex        # conj(sym(z))
    deviation: float      # largest bulk deviation, relative to the coordinate's scale
    log_scale: float      # log |z|^e, the defect's factor kept apart
    defect: np.ndarray    # (b - alpha u) / |z|^e, nonzero on the top `degree` coordinates
    bound: float          # tail bound on the defect's norm, in units of |z|^e


def _leg(sym: AnalyticSymbol, space: BetaSpace, z: complex) -> _Leg:
    """The leg of `sym` at z, with M*_sym applied through `_band`, the band
    of `mult_op_matrix`, one diagonal at a time.

    In exact arithmetic b_n = alpha u_n for n <= dim - degree; the float
    deviation there is |b_n - alpha u_n| / (|u_n| sum_m |c_m| |z|^m), read
    where u_n .. u_{n+degree}, their powers of z and that scale are normal
    floats.  On the top coordinates
    n = dim + 1 - t (t = 1 .. degree) the defect is the closed form
    -beta_n conj(z)^(dim + 1) T_t, T_t = sum_{m >= t} conj(c_m) conj(z)^(m - t)
    being Horner's partial sums.  Its factor |z|^e, e = max(dim + 1 - degree, 0)
    the power of the tail bound |z|^e / sqrt(1 - |z|^2), is kept as a
    logarithm, so neither the defect nor the pass decision underflows.
    """
    u = _dense_kernel(space, z)
    n_dim, deg = u.size, sym.degree
    b = np.zeros(n_dim, dtype=complex)
    for m, c in enumerate(sym.coeffs[:n_dim]):
        b[:n_dim - m] += _band(c, space.betas, m).conj() * u[m:]
    zc, r = z.conjugate(), abs(z)
    tails, acc = [], 0j                       # T_degree .. T_0 = conj(sym(z))
    for c in reversed(sym.coeffs):
        acc = acc * zc + c.conjugate()
        tails.append(acc)
    e = max(n_dim - deg, 0)                   # bulk n < e; top n = dim + 1 - t, t = 1 .. k
    k = n_dim - e
    # a subnormal u_k or power conj(z)^k = u_k / beta_k is rounded to a
    # multiple of 2^-1074: its error is absolute, so n is read only where its
    # whole window u_n .. u_{n+deg} is normal and so is the scale
    tiny = np.finfo(float).tiny
    au = np.abs(u)
    bad = np.concatenate([[0], np.cumsum(au < tiny * np.maximum(space.betas, 1.0))])
    ref = au[:e] * _left_sum(abs(c) * r ** m for m, c in enumerate(sym.coeffs))
    ok = (bad[deg + 1:] == bad[:e]) & (ref >= tiny)
    dev = np.abs(b[:e][ok] - acc * u[:e][ok]) / ref[ok]
    t = np.arange(1, k + 1)
    defect = np.zeros(n_dim, dtype=complex)
    defect[n_dim - t] = (-space.betas[n_dim - t] * ((zc / r) ** e if r else 1.0) * zc ** k
                         * np.array(tails, dtype=complex)[deg - t])
    return _Leg(u, b, acc, float(dev.max(initial=0.0)),
                0.0 if e == 0 else e * math.log(r) if r else -math.inf, defect,
                sym.coeff_abs_sum() * float(space.betas.max()) / math.sqrt(1.0 - r * r)
                if deg else 0.0)


def _rank_two(left: _Leg, right: _Leg) -> tuple:
    """(log s, sigma_1, sigma_2, bound) for X = a b^H - alpha conj(gamma) u v^H,
    legs (u, a, alpha) and (v, b, gamma); all but log s in units of s.

    With the defects d = a - alpha u and e = b - gamma v, exactly
    X = u (conj(alpha) e)^H + d b^H, whose singular values are taken with
    the defects in the units of the larger one.  The bound is the triangle
    inequality on that sum, each defect at its tail bound.
    """
    top = max(left.log_scale, right.log_scale)
    top = 0.0 if top == -math.inf else top
    fd, fe = math.exp(left.log_scale - top), math.exp(right.log_scale - top)
    s1, s2 = _rank_two_singulars(left.u, fd * left.defect,
                                 left.alpha.conjugate() * fe * right.defect, right.b)
    nu, nv = float(np.linalg.norm(left.u)), float(np.linalg.norm(right.u))
    bd, be = fd * left.bound, fe * right.bound
    bound = abs(left.alpha) * nu * be + abs(right.alpha) * bd * nv + math.exp(top) * bd * be
    return top, s1, s2, bound


def _log10s(scaled: tuple, log_scale: float) -> list:
    """log10 of each value times e^log_scale, past any underflow (-inf for 0)."""
    return [math.log10(v) + log_scale / math.log(10) if v else -math.inf for v in scaled]


def _rank_two_singulars(p1, p2, q1, q2) -> tuple:
    """Singular values of p1 q1^H + p2 q2^H = P Q^H: those of the 2x2
    R_p R_q^H, R the thin QR factors of P = [p1 p2] and Q = [q1 q2]."""
    rp, rq = (np.linalg.qr(np.column_stack(pair), mode="r") for pair in ((p1, p2), (q1, q2)))
    s1, s2 = np.linalg.svd(rp @ rq.conj().T, compute_uv=False)
    return float(s1), float(s2)


class _EigenReport:
    """The eigenchecks' pass rule, on residual and bound in the units of
    their common power of |z| (`_scaled`), so it decides where both report 0.0."""

    @property
    def passed(self) -> bool:
        residual, bound = self._scaled
        return self.bulk_deviation <= _BULK_TOL and residual <= _PASS_FACTOR * bound


@dataclass(frozen=True)
class KernelEigenReport(_EigenReport):
    eigenvalue: complex
    residual: float
    bound: float
    truncation_dim: int
    bulk_deviation: float
    log10_residual: float
    log10_bound: float
    _scaled: tuple       # (residual, bound) in units of |z|^e


def adjoint_kernel_eigencheck(phi: AnalyticSymbol, space: BetaSpace,
                              z: complex) -> KernelEigenReport:
    """Residual of the kernel eigen-identity for the adjoint multiplier.

    The adjoint of multiplication sends the kernel at z to conj(phi(z))
    times itself; on the truncation the identity fails only in the top
    coefficients, at geometric scale.  The report gives that defect in
    closed form, its tail bound, and the float apply's bulk deviation.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("eigencheck point must lie inside the open disc")
    leg = _leg(phi, space, z)
    res = float(np.linalg.norm(leg.defect))
    scale = math.exp(leg.log_scale)
    return KernelEigenReport(leg.alpha, scale * res, scale * leg.bound, space.dim,
                             leg.deviation, *_log10s((res, leg.bound), leg.log_scale),
                             (res, leg.bound))


@dataclass(frozen=True)
class ConjugationEigenReport(_EigenReport):
    eigenvalue: complex
    op_residual: float
    s1_residual: float
    bound: float
    truncation_dim: int
    bulk_deviation: float
    log10_residual: float
    log10_bound: float
    _scaled: tuple       # (s1_residual, bound) in units of |z|^e


def conjugation_eigencheck(phi: AnalyticSymbol, psi: AnalyticSymbol,
                           space: BetaSpace, z: complex,
                           w: complex) -> ConjugationEigenReport:
    """Residual of the rank-one kernel eigen-identity for the two-sided
    multiplication S |-> M*_phi S M_psi.

    The kernel tensor k_z (x) k_w is an eigenvector with eigenvalue
    conj(phi(z)) psi(w); the truncated residual is rank two, so both its
    operator and trace norms come from a 2x2 SVD.
    """
    z, w = complex(z), complex(w)
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise ValueError("eigencheck points must lie inside the open disc")
    left, right = _leg(phi, space, z), _leg(psi, space, w)
    top, s1, s2, bound = _rank_two(left, right)
    scale = math.exp(top)
    return ConjugationEigenReport(left.alpha * right.alpha.conjugate(), scale * s1,
                                  scale * (s1 + s2), scale * bound, space.dim,
                                  max(left.deviation, right.deviation),
                                  *_log10s((s1 + s2, bound), top), (s1 + s2, bound))


# -- unimodular locus -------------------------------------------------------

# cells (w points times g^2) per array pass of the locus scan: 2^16 keep a
# pass's float temporaries near 0.5 MB at any grid density
_LOCUS_CELLS = 1 << 16
# a locus point: 40 bytes in one structured array
_LOCUS = np.dtype([("z", complex), ("w", complex), ("modulus", float)])


def unimodular_locus_sample(phi: AnalyticSymbol, psi: AnalyticSymbol,
                            grid_density: int, tol: float,
                            exclude: tuple = (),
                            exclude_radius: float = 1e-6) -> np.ndarray:
    """Sample pairs (z, w) in the bidisc where |phi(z) psi(w)| crosses 1.

    Scans a polar grid; along each radial line in z (for every grid w) a
    sign change of |phi(z) psi(w)| - 1 is refined by bisection.  Pairs whose
    eigenvalue conj(phi(z)) psi(w) falls within `exclude_radius` of a point
    in `exclude` are dropped, mirroring the countable exclusion set of the
    spanning argument.  An empty result is evidence (grid-relative) that
    the modulus-one level set misses the bidisc.

    The scan runs as array passes over chunks of grid w points, every
    crossing of a chunk bisected together, in the float steps of CPython's
    complex arithmetic; points come in (w, direction, radius) order, as one
    structured array with fields z, w and modulus (|phi(z) psi(w)|).  A
    symbol whose modulus is not finite on the grid raises ValueError.
    """
    if grid_density < 8:
        raise ValueError("grid density must be >= 8")
    g = int(grid_density)
    radii = [(i + 0.5) / g for i in range(g)]
    angles = [2.0 * math.pi * k / g for k in range(g)]
    w_points = np.array([r * cmath.exp(1j * t) for r in radii for t in angles])
    directions = np.array([cmath.exp(1j * t) for t in angles])
    rad, dr, di = np.array(radii), directions.real, directions.imag
    wr, wi = w_points.real, w_points.imag
    exclude = [complex(e) for e in exclude]
    half_tol = tol * 0.5
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):
        # |phi| along each radial line does not depend on w
        moduli = np.hypot(*_horner(phi, *_scale(rad, dr[:, None], di[:, None])))
        psi_r, psi_i = _horner(psi, wr, wi)
        bws = np.hypot(psi_r, psi_i)
        if not (np.isfinite(moduli).all() and np.isfinite(bws).all()):
            raise ValueError("|phi| or |psi| is not finite on the scan grid")
        chunk = max(1, _LOCUS_CELLS // (g * g))
        for w0 in range(0, len(w_points), chunk):
            bw = bws[w0:w0 + chunk]
            vals = moduli * bw[:, None, None] - 1.0
            hit = np.abs(vals) < tol
            cross = np.zeros_like(hit)
            cross[:, :, 1:] = ~hit[:, :, 1:] & (vals[:, :, :-1] * vals[:, :, 1:] < 0.0)
            # a direct hit is the grid point itself, at modulus vals + 1
            hits = np.flatnonzero(hit)
            hw, hd, hr = np.unravel_index(hits, vals.shape)
            hit_zr, hit_zi = _scale(rad[hr], dr[hd], di[hd])
            # a crossing bisects [r_{idx-1}, r_idx], all of a pass together
            crosses = np.flatnonzero(cross)
            cw, cd, cr = np.unravel_index(crosses, vals.shape)
            cdr, cdi, cbw = dr[cd], di[cd], bw[cw]
            lo, hi, flo = rad[cr - 1], rad[cr], vals.reshape(-1)[crosses - 1]
            run = np.arange(crosses.size)
            for _ in range(60):
                if not run.size:
                    break
                mid = 0.5 * (lo[run] + hi[run])
                fm = np.hypot(*_horner(phi, *_scale(mid, cdr[run], cdi[run]))) * cbw[run] - 1.0
                done = np.abs(fm) < half_tol
                lo[run[done]] = hi[run[done]] = mid[done]
                up = ~done & (flo[run] * fm <= 0.0)
                down = ~done & ~up
                hi[run[up]] = mid[up]
                lo[run[down]], flo[run[down]] = mid[down], fm[down]
                run = run[~done]
            cross_zr, cross_zi = _scale(0.5 * (lo + hi), cdr, cdi)
            # both kinds in one list, then back into (w, direction, radius) order
            zr = np.concatenate([hit_zr, cross_zr])
            zi = np.concatenate([hit_zi, cross_zi])
            mod = np.concatenate([vals.reshape(-1)[hits] + 1.0,
                                  np.hypot(*_horner(phi, cross_zr, cross_zi)) * cbw])
            widx = np.concatenate([hw, cw]) + w0
            keep = np.concatenate([np.ones(hits.size, dtype=bool),
                                   np.hypot(cross_zr, cross_zi) < 1.0])
            if exclude:
                keep &= ~_excluded(phi, zr, zi, psi_r[widx], psi_i[widx],
                                   exclude, exclude_radius)
            sel = np.flatnonzero(keep)
            sel = sel[np.argsort(np.concatenate([hits, crosses])[sel])]
            part = np.empty(sel.size, _LOCUS)
            part["z"].real, part["z"].imag = zr[sel], zi[sel]
            part["w"], part["modulus"] = w_points[widx[sel]], mod[sel]
            parts.append(part)
    return np.concatenate(parts)


def _scale(r, dr, di):
    """r * d for float r and complex d = dr + i di in CPython's steps: the
    float joins the product as the complex (r, 0.0)."""
    return r * dr - 0.0 * di, r * di + 0.0 * dr


def _horner(sym: AnalyticSymbol, zr, zi):
    """The symbol at zr + i zi on separate real and imaginary arrays, in the
    float steps of AnalyticSymbol.__call__: acc = acc * z + c from 0j."""
    ar = np.zeros(np.shape(zr))
    ai = np.zeros(np.shape(zr))
    for c in reversed(sym.coeffs):
        ar, ai = ar * zr - ai * zi + c.real, ar * zi + ai * zr + c.imag
    return ar, ai


def _excluded(phi, zr, zi, psi_r, psi_i, exclude, radius) -> np.ndarray:
    """Whether conj(phi(z)) psi(w) lies within radius of an excluded point,
    in CPython's complex steps."""
    pr, pi = _horner(phi, zr, zi)
    pi = -pi
    er = pr * psi_r - pi * psi_i
    ei = pr * psi_i + pi * psi_r
    near = np.zeros(er.shape, dtype=bool)
    for e in exclude:
        near |= np.hypot(er - e.real, ei - e.imag) <= radius
    return near


# -- span density -----------------------------------------------------------

@dataclass(frozen=True)
class SpanResidualReport:
    residual: float
    rank_deficient: bool
    metric: str = "frobenius"
    sample_count: int = 0


def span_density_residual(z, w, target: MatOp, space: BetaSpace) -> SpanResidualReport:
    """Relative least-squares distance from `target` to the span of the
    kernel tensors k_z (x) k_w over the sample pairs (z[i], w[i]).

    Frobenius metric (a desk-scale proxy for the trace norm; the report
    says so).  With U and V the kernels k_z and k_w as rows, the Gram
    matrix <u_i, u_j> <v_j, v_i> is (conj(U) U^T) * (conj(V) V^T)^T, and the
    system is solved through a truncated pseudo-inverse with cutoff 1e-10
    times the top eigenvalue; hitting the cutoff flags the report as rank
    deficient.
    """
    z, w = np.asarray(z, complex), np.asarray(w, complex)
    if z.ndim != 1 or z.shape != w.shape:
        raise ValueError("z and w must be two point lists of one length")
    if not z.size:
        raise ValueError("at least one sample pair is required")
    n_dim = space.dim + 1
    if target.data.shape != (n_dim, n_dim):
        raise ValueError("target dimension does not match the space truncation")
    U, V, t_mat = _dense_kernel(space, z), _dense_kernel(space, w), target.data
    gram = (U.conj() @ U.T) * (V.conj() @ V.T).T
    rhs = ((U.conj() @ t_mat) * V).sum(axis=1)
    eigs = np.linalg.eigvalsh(gram)
    deficient = bool(eigs[0] <= 1e-10 * eigs[-1])
    coeff = np.linalg.pinv(gram, rcond=1e-10, hermitian=True) @ rhs
    # materialize the best approximant and subtract; the normal-equations
    # value ||T||^2 - 2 Re<T, X> + ||X||^2 loses half the digits to
    # cancellation when the fit is good, the direct difference does not
    approx = (U.T * coeff) @ V.conj()
    rel = float(np.linalg.norm(t_mat - approx) / np.linalg.norm(t_mat))
    return SpanResidualReport(rel, deficient, "frobenius", z.size)


def _dense_kernel(space: BetaSpace, z) -> np.ndarray:
    """The kernel k_z = (beta_n conj(z)^n), its powers a running product, so
    neighbouring entries differ by one rounding at any dim; for an array of
    points, one kernel per point along the last axis."""
    z = np.asarray(z, complex)
    if (np.hypot(z.real, z.imag) >= 1.0).any():
        raise ValueError("kernels exist only for points inside the open disc")
    powers = np.empty(z.shape + (space.dim + 1,), complex)
    powers[...] = z.conj()[..., None]
    powers[..., 0] = 1.0
    return space.betas * np.cumprod(powers, axis=-1)


# -- converse certificates --------------------------------------------------

class CertificateKind(Enum):
    NOT_HYPERCYCLIC_CONTRACTION = "not_hypercyclic_contraction"
    NOT_HYPERCYCLIC_INVERSE_CONTRACTION = "not_hypercyclic_inverse_contraction"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConverseCertificate:
    kind: CertificateKind
    sup_phi: float
    sup_psi: float
    inf_phi: float
    inf_psi: float
    sup_estimated: bool
    orbit_norms: tuple
    orbit_monotone: bool


def _boundary_modulus_range(sym: AnalyticSymbol) -> tuple[float, float]:
    """(inf, sup) of |symbol| over the closed disc via boundary sampling,
    with interior zeros detected from the polynomial roots."""
    zs = np.array([_BOUNDARY_RADIUS * cmath.exp(2j * math.pi * k / _BOUNDARY_POINTS)
                   for k in range(_BOUNDARY_POINTS)])
    vals = np.hypot(*_horner(sym, zs.real, zs.imag))
    sup = float(vals.max())
    inf = float(vals.min())
    cs = sym.coeffs
    if len(cs) > 1:
        roots = np.roots(np.array(cs[::-1], dtype=complex))
        if np.any(np.abs(roots) < 1.0 - 1e-9):
            inf = 0.0
    elif abs(cs[0]) == 0.0:
        inf = 0.0
    return inf, sup


def converse_certificate(phi: AnalyticSymbol, psi: AnalyticSymbol,
                         seed: int = 0) -> ConverseCertificate:
    """Norm certificate ruling out dense conjugation orbits.

    If the sup-norm product is at most 1 the two-sided multiplication is a
    contraction, so no orbit can be dense; if the inf-modulus product is at
    least 1 the inverse is a contraction, same conclusion.  A 50-step orbit
    of a random unit start is tracked as a desk check of the monotone norm
    behaviour the certificate predicts; a norm past float range raises
    ValueError naming its step.
    """
    inf_phi, sup_phi_est = _boundary_modulus_range(phi)
    inf_psi, sup_psi_est = _boundary_modulus_range(psi)
    estimated = phi.sup_bound is None or psi.sup_bound is None
    sup_phi = phi.sup_bound if phi.sup_bound is not None else sup_phi_est
    sup_psi = psi.sup_bound if psi.sup_bound is not None else sup_psi_est
    if sup_phi * sup_psi <= 1.0:
        kind = CertificateKind.NOT_HYPERCYCLIC_CONTRACTION
    elif inf_phi * inf_psi >= 1.0:
        kind = CertificateKind.NOT_HYPERCYCLIC_INVERSE_CONTRACTION
    else:
        kind = CertificateKind.INCONCLUSIVE

    space = BetaSpace.hardy(_ORBIT_DIM)
    left = mult_op_matrix(phi, space).data.conj().T
    right = mult_op_matrix(psi, space).data
    rng = np.random.default_rng(seed)
    n_dim = space.dim + 1
    s = rng.standard_normal((n_dim, n_dim)) + 1j * rng.standard_normal((n_dim, n_dim))
    s /= np.linalg.norm(s)
    norms = [1.0]
    # each norm is taken on s times the exact power of two that brings its
    # largest part near 1, so no square overflows while the entries are finite
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, _ORBIT_STEPS + 1):
            s = left @ s @ right
            scaled, e = _unit_scaled(s)
            norm = float(np.ldexp(np.linalg.norm(scaled), e))
            if not math.isfinite(norm):
                raise ValueError(f"the converse orbit's norm at step {step} is {norm}, "
                                 "not finite")
            norms.append(norm)
    if kind is CertificateKind.NOT_HYPERCYCLIC_CONTRACTION:
        monotone = all(b <= a * (1.0 + 1e-10) + 1e-300
                       for a, b in zip(norms, norms[1:]))
    elif kind is CertificateKind.NOT_HYPERCYCLIC_INVERSE_CONTRACTION:
        monotone = all(b >= a * (1.0 - 1e-10) for a, b in zip(norms, norms[1:]))
    else:
        monotone = True
    return ConverseCertificate(kind, float(sup_phi), float(sup_psi),
                               float(inf_phi), float(inf_psi), estimated,
                               tuple(norms), monotone)


# -- nuclear-space analogue -------------------------------------------------

@dataclass(frozen=True)
class NuclearEigenReport(_EigenReport):
    eigenvalue: complex
    op_residual: float
    bound: float
    truncation_dim: int
    p_exponent: float
    bulk_deviation: float
    log10_residual: float
    log10_bound: float
    _scaled: tuple       # (op_residual, bound) in units of |z|^e


def nuclear_eigencheck(phi: AnalyticSymbol, psi: AnalyticSymbol,
                       lam: complex, mu: complex, p: float,
                       dim: int = 64) -> NuclearEigenReport:
    """Eigen-identity residual for the sequence-space conjugation
    phi(backward) S psi(forward) on the rank-one tensor of geometric
    eigenvectors, in the transpose (bilinear) duality.

    The geometric vector with ratio lam is an eigenvector of the plain
    backward shift, and the forward shift transposes onto the backward one,
    so the tensor is an eigenvector with eigenvalue phi(lam) psi(mu).
    """
    space = BetaSpace.hardy(dim)
    lam, mu = complex(lam), complex(mu)
    if abs(lam) >= 1.0 or abs(mu) >= 1.0:
        raise ValueError("geometric ratios must lie inside the open disc")
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    # lam^n is the Hardy kernel at conj(lam), on which phi(backward) acts as
    # M* of the conjugated symbol; the bilinear right leg, conjugated, is the
    # Hermitian leg of psi at mu
    left = _leg(AnalyticSymbol(tuple(c.conjugate() for c in phi.coeffs)), space,
                lam.conjugate())
    right = _leg(psi, space, mu)
    top, s1, _, bound = _rank_two(left, right)
    scale = math.exp(top)
    return NuclearEigenReport(left.alpha * right.alpha.conjugate(), scale * s1,
                              scale * bound, dim, p, max(left.deviation, right.deviation),
                              *_log10s((s1, bound), top), (s1, bound))
