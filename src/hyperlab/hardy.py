"""Kernel-function spaces on the unit disc and their multiplication operators.

A BetaSpace is the Hilbert space of power series f(z) = sum a_n beta_n z^n
with square-summable coefficients a_n; the functions e_n(z) = beta_n z^n form
an orthonormal basis, and point evaluation at |z| < 1 is realized by the
kernel vector k_z with coefficients beta_n conj(z)^n.  Everything here is
truncated at a fixed basis dimension, with explicit geometric tail bounds.

The operators of interest are multiplication by a polynomial symbol and the
two-sided multiplication S |-> M*_phi S M_psi acting on rank-one kernels.
Eigen-identity residuals are far below double precision for moderate
truncations, so the eigenchecks run in mpmath at elevated precision; the
rank-two residual norms come from 2x2 Gram eigenproblems, never from a
dense SVD.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import mpmath as mp
import numpy as np

from .matops import MatOp
from .seqspace import Domain, SeqVector, TaylorPoly, WeightSeq

__all__ = [
    "BetaSpace",
    "KernelVec",
    "AnalyticSymbol",
    "kernel_vector",
    "eval_function",
    "mult_op_matrix",
    "KernelEigenReport",
    "ConjugationEigenReport",
    "adjoint_kernel_eigencheck",
    "conjugation_eigencheck",
    "LocusPoint",
    "unimodular_locus_sample",
    "SpanResidualReport",
    "span_density_residual",
    "CertificateKind",
    "ConverseCertificate",
    "converse_certificate",
    "NuclearEigenReport",
    "nuclear_eigencheck",
]

_EIGEN_DPS = 50
_PASS_FACTOR = 10.0
_RESIDUAL_FLOOR = 1e-50
_BOUNDARY_POINTS = 720
_BOUNDARY_RADIUS = 1.0 - 1e-6


@dataclass(frozen=True)
class BetaSpace:
    """Coefficient-weighted function space on the disc, truncated to the
    basis vectors e_0 .. e_N (so matrices are (N+1) x (N+1))."""

    rule: WeightSeq
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("truncation dimension must be >= 1")
        if self.rule.domain is not Domain.NATURALS:
            raise ValueError("basis weights are indexed by the naturals")
        for n in range(self.dim + 1):
            b = self.rule.weight(n)
            if abs(b.imag) > 1e-15 * abs(b) or b.real <= 0.0:
                raise ValueError(f"basis weight at n={n} must be a positive real")

    @classmethod
    def hardy(cls, dim: int) -> "BetaSpace":
        return cls(WeightSeq.constant(1.0), dim)

    @classmethod
    def inv_linear(cls, dim: int) -> "BetaSpace":
        return cls(WeightSeq.ratio((1.0,), (1.0, 1.0)), dim)

    def beta(self, n: int) -> float:
        if not 0 <= n <= self.dim:
            raise ValueError(f"basis index {n} outside the truncation")
        return self.rule.weight(n).real

    def sup_beta(self) -> float:
        return max(self.beta(n) for n in range(self.dim + 1))


@dataclass(frozen=True)
class KernelVec:
    """Truncated evaluation kernel at a disc point, plus a bound on the
    discarded coefficient tail."""

    z: complex
    coeffs: SeqVector
    tail_bound: float


@dataclass(frozen=True)
class AnalyticSymbol:
    """Polynomial multiplier symbol, optionally with a known sup-norm."""

    taylor: TaylorPoly
    sup_bound: float | None = None

    @classmethod
    def from_coeffs(cls, coeffs, sup_bound: float | None = None) -> "AnalyticSymbol":
        return cls(TaylorPoly(tuple(coeffs)), sup_bound)

    @property
    def degree(self) -> int:
        return self.taylor.degree

    @property
    def coeffs(self) -> tuple:
        return self.taylor.coeffs

    def __call__(self, z: complex) -> complex:
        return self.taylor(z)

    def coeff_abs_sum(self) -> float:
        return sum(abs(c) for c in self.coeffs)


def kernel_vector(space: BetaSpace, z: complex) -> KernelVec:
    """Evaluation kernel at z, truncated to the space dimension.

    The coefficient at n is beta_n * conj(z)^n, so the pairing of a
    coefficient vector with the kernel reproduces the function value.
    """
    z = complex(z)
    entries = dict(enumerate(_dense_kernel(space, z)))
    tail = space.sup_beta() * abs(z) ** (space.dim + 1) / math.sqrt(1.0 - abs(z) ** 2)
    return KernelVec(z, SeqVector(entries, Domain.NATURALS, 2.0), tail)


def eval_function(space: BetaSpace, coeffs: SeqVector, z: complex) -> complex:
    """Value at z of the function with the given basis coefficients."""
    return sum(c * space.beta(n) * z ** n for n, c in coeffs.entries.items())


def mult_op_matrix(phi: AnalyticSymbol, space: BetaSpace) -> MatOp:
    """Matrix of multiplication by the symbol in the orthonormal basis.

    Multiplying e_n by z^m lands on (beta_n / beta_{n+m}) e_{n+m}, so the
    matrix is lower triangular with band width the symbol degree.
    """
    n_dim = space.dim + 1
    data = np.zeros((n_dim, n_dim), dtype=complex)
    cs = phi.coeffs
    for n in range(n_dim):
        bn = space.beta(n)
        for m, c in enumerate(cs):
            k = n + m
            if k >= n_dim:
                break
            data[k, n] = c * bn / space.beta(k)
    return MatOp(data)


# -- high-precision eigenchecks ---------------------------------------------

def _mp_kernel(space: BetaSpace, z: complex) -> list:
    powers = _mp_geometric(z.conjugate(), space.dim)
    return [mp.mpf(space.beta(n)) * pw for n, pw in enumerate(powers)]


def _mp_adjoint_mult(phi: AnalyticSymbol, space: BetaSpace, u: list) -> list:
    """Apply the conjugate transpose of the truncated multiplier matrix."""
    n_dim = space.dim + 1
    cs = [mp.mpc(c) for c in phi.coeffs]
    betas = [mp.mpf(space.beta(n)) for n in range(n_dim)]
    out = []
    for n in range(n_dim):
        acc = mp.mpc(0)
        for m, c in enumerate(cs):
            k = n + m
            if k >= n_dim:
                break
            acc += mp.conj(c) * (betas[n] / betas[k]) * u[k]
        out.append(acc)
    return out


def _mp_eval_symbol(sym: AnalyticSymbol, z: complex):
    acc = mp.mpc(0)
    zz = mp.mpc(z)
    for c in reversed(sym.coeffs):
        acc = acc * zz + mp.mpc(c)
    return acc


def _mp_inner(x: list, y: list):
    return mp.fsum((xi * mp.conj(yi) for xi, yi in zip(x, y)), absolute=False)


def _mp_norm(x: list):
    return mp.sqrt(mp.fsum(abs(xi) ** 2 for xi in x))


def _rank_two_singulars(p1, p2, alpha2, q1, q2):
    """Singular values of p1 q1^H + alpha2 p2 q2^H via the 2x2 Gram pencil.

    With P = [p1 p2], Q = [q1 q2] and A = diag(1, alpha2), the nonzero
    eigenvalues of X^H X equal those of (A^H Gp A) Gq.
    """
    gp = mp.matrix([[_mp_inner(p1, p1), _mp_inner(p2, p1)],
                    [_mp_inner(p1, p2), _mp_inner(p2, p2)]])
    gq = mp.matrix([[_mp_inner(q1, q1), _mp_inner(q2, q1)],
                    [_mp_inner(q1, q2), _mp_inner(q2, q2)]])
    a = mp.matrix([[mp.mpc(1), 0], [0, mp.mpc(alpha2)]])
    h = (a.transpose_conj() * gp * a) * gq
    tr = h[0, 0] + h[1, 1]
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    disc = mp.sqrt(tr * tr - 4 * det)
    eigs = [(tr + disc) / 2, (tr - disc) / 2]
    sigmas = []
    for e in eigs:
        re = mp.re(e)
        sigmas.append(mp.sqrt(re) if re > 0 else mp.mpf(0))
    return sorted(sigmas, reverse=True)


@dataclass(frozen=True)
class KernelEigenReport:
    eigenvalue: complex
    residual: float
    bound: float
    truncation_dim: int

    @property
    def passed(self) -> bool:
        return self.residual <= _PASS_FACTOR * self.bound + _RESIDUAL_FLOOR


def _kernel_defect_bound(phi: AnalyticSymbol, space: BetaSpace, z: complex) -> float:
    """Upper bound on || M*_phi k_z - conj(phi(z)) k_z || on the truncation.

    The defect lives in the top `degree` coefficients, each bounded by
    beta_n |z|^n times a tail of the symbol's coefficient sum.
    """
    if phi.degree == 0:
        return 0.0
    expo = space.dim + 1 - phi.degree
    return (phi.coeff_abs_sum() * space.sup_beta()
            * abs(z) ** max(expo, 0) / math.sqrt(1.0 - abs(z) ** 2))


def adjoint_kernel_eigencheck(phi: AnalyticSymbol, space: BetaSpace,
                              z: complex) -> KernelEigenReport:
    """Residual of the kernel eigen-identity for the adjoint multiplier.

    The adjoint of multiplication sends the kernel at z to conj(phi(z))
    times itself; on the truncation the identity fails only in the top
    coefficients, at geometric scale, which is what the report certifies.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("eigencheck point must lie inside the open disc")
    with mp.workdps(_EIGEN_DPS):
        u = _mp_kernel(space, z)
        a = _mp_adjoint_mult(phi, space, u)
        lam = mp.conj(_mp_eval_symbol(phi, z))
        diff = [ai - lam * ui for ai, ui in zip(a, u)]
        res = float(_mp_norm(diff))
        eig = complex(lam)
    return KernelEigenReport(eig, res,
                             _kernel_defect_bound(phi, space, z), space.dim)


@dataclass(frozen=True)
class ConjugationEigenReport:
    eigenvalue: complex
    op_residual: float
    s1_residual: float
    bound: float
    truncation_dim: int

    @property
    def passed(self) -> bool:
        return self.s1_residual <= _PASS_FACTOR * self.bound + _RESIDUAL_FLOOR


def conjugation_eigencheck(phi: AnalyticSymbol, psi: AnalyticSymbol,
                           space: BetaSpace, z: complex,
                           w: complex) -> ConjugationEigenReport:
    """Residual of the rank-one kernel eigen-identity for the two-sided
    multiplication S |-> M*_phi S M_psi.

    The kernel tensor k_z (x) k_w is an eigenvector with eigenvalue
    conj(phi(z)) psi(w); the truncated residual is rank two, so both its
    operator and trace norms come from a 2x2 Gram eigenproblem.
    """
    z, w = complex(z), complex(w)
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise ValueError("eigencheck points must lie inside the open disc")
    with mp.workdps(_EIGEN_DPS):
        u = _mp_kernel(space, z)
        v = _mp_kernel(space, w)
        a = _mp_adjoint_mult(phi, space, u)
        b = _mp_adjoint_mult(psi, space, v)
        alpha = mp.conj(_mp_eval_symbol(phi, z))
        gamma = mp.conj(_mp_eval_symbol(psi, w))
        lam_mp = alpha * mp.conj(gamma)
        # the residual X = a b^H - lam u v^H cancels exactly on the leading
        # term; split off the truncation defects d = a - alpha u, e = b -
        # gamma v so the Gram pencil only ever multiplies small vectors:
        # X = u (conj(alpha) e)^H + d b^H
        d = [ai - alpha * ui for ai, ui in zip(a, u)]
        e = [mp.conj(alpha) * (bi - gamma * vi) for bi, vi in zip(b, v)]
        sig = _rank_two_singulars(u, d, mp.mpc(1), e, b)
        op_res = float(sig[0])
        s1_res = float(sig[0] + sig[1])
        norm_u = float(_mp_norm(u))
        norm_v = float(_mp_norm(v))
        lam = complex(lam_mp)
    dphi = _kernel_defect_bound(phi, space, z)
    dpsi = _kernel_defect_bound(psi, space, w)
    bound = (abs(phi(z)) * norm_u * dpsi + abs(psi(w)) * dphi * norm_v
             + dphi * dpsi)
    return ConjugationEigenReport(lam, op_res, s1_res, bound, space.dim)


# -- unimodular locus -------------------------------------------------------

@dataclass(frozen=True)
class LocusPoint:
    z: complex
    w: complex
    modulus: float

    def eigenvalue(self, phi: "AnalyticSymbol", psi: "AnalyticSymbol") -> complex:
        return complex(phi(self.z)).conjugate() * complex(psi(self.w))


def unimodular_locus_sample(phi: AnalyticSymbol, psi: AnalyticSymbol,
                            grid_density: int, tol: float,
                            exclude: tuple = (),
                            exclude_radius: float = 1e-6) -> list:
    """Sample pairs (z, w) in the bidisc where |phi(z) psi(w)| crosses 1.

    Scans a polar grid; along each radial line in z (for every grid w) a
    sign change of |phi(z) psi(w)| - 1 is refined by bisection.  Pairs whose
    eigenvalue conj(phi(z)) psi(w) falls within `exclude_radius` of a point
    in `exclude` are dropped, mirroring the countable exclusion set of the
    spanning argument.  An empty result is evidence (grid-relative) that
    the modulus-one level set misses the bidisc.
    """
    if grid_density < 8:
        raise ValueError("grid density must be >= 8")
    g = int(grid_density)
    radii = [(i + 0.5) / g for i in range(g)]
    angles = [2.0 * math.pi * k / g for k in range(g)]
    w_points = [r * cmath.exp(1j * t) for r in radii for t in angles]

    def excluded(zz, ww) -> bool:
        ev = complex(phi(zz)).conjugate() * complex(psi(ww))
        return any(abs(ev - complex(e)) <= exclude_radius for e in exclude)

    directions = [cmath.exp(1j * t) for t in angles]
    # |phi| along each radial line does not depend on w
    moduli = [[abs(phi(r * direction)) for r in radii] for direction in directions]
    out = []
    for w in w_points:
        bw = abs(psi(w))
        for direction, line in zip(directions, moduli):
            vals = [m * bw - 1.0 for m in line]
            for idx in range(len(radii)):
                if abs(vals[idx]) < tol:
                    zz = radii[idx] * direction
                    if not excluded(zz, w):
                        out.append(LocusPoint(zz, w, vals[idx] + 1.0))
                    continue
                if idx == 0:
                    continue
                if vals[idx - 1] * vals[idx] < 0.0:
                    lo, hi = radii[idx - 1], radii[idx]
                    flo = vals[idx - 1]
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        fm = abs(phi(mid * direction)) * bw - 1.0
                        if abs(fm) < tol * 0.5:
                            lo = hi = mid
                            break
                        if flo * fm <= 0.0:
                            hi = mid
                        else:
                            lo, flo = mid, fm
                    zz = 0.5 * (lo + hi) * direction
                    if abs(zz) < 1.0 and not excluded(zz, w):
                        out.append(LocusPoint(zz, w, abs(phi(zz)) * bw))
    return out


# -- span density -----------------------------------------------------------

@dataclass(frozen=True)
class SpanResidualReport:
    residual: float
    rank_deficient: bool
    metric: str = "frobenius"
    sample_count: int = 0


def span_density_residual(samples, target: MatOp,
                          space: BetaSpace) -> SpanResidualReport:
    """Relative least-squares distance from `target` to the span of the
    kernel tensors k_z (x) k_w over the sample pairs.

    Frobenius metric (a desk-scale proxy for the trace norm; the report
    says so).  The Gram system is solved through a truncated pseudo-inverse
    with cutoff 1e-10 times the top eigenvalue; hitting the cutoff flags
    the report as rank deficient.
    """
    pairs = list(samples)
    if not pairs:
        raise ValueError("at least one sample pair is required")
    n_dim = space.dim + 1
    if target.data.shape != (n_dim, n_dim):
        raise ValueError("target dimension does not match the space truncation")
    us, vs = [], []
    for item in pairs:
        z, w = (item.z, item.w) if isinstance(item, LocusPoint) else item
        us.append(_dense_kernel(space, z))
        vs.append(_dense_kernel(space, w))
    m = len(pairs)
    gram = np.empty((m, m), dtype=complex)
    rhs = np.empty(m, dtype=complex)
    t_mat = target.data
    for i in range(m):
        for j in range(m):
            gram[i, j] = np.vdot(us[i], us[j]) * np.vdot(vs[j], vs[i])
        rhs[i] = np.vdot(us[i], t_mat @ vs[i])
    eigs = np.linalg.eigvalsh(gram)
    top = float(eigs[-1]) if eigs.size else 0.0
    deficient = bool(eigs.size and float(eigs[0]) <= 1e-10 * top)
    coeff = np.linalg.pinv(gram, rcond=1e-10, hermitian=True) @ rhs
    # materialize the best approximant and subtract; the normal-equations
    # value ||T||^2 - 2 Re<T, X> + ||X||^2 loses half the digits to
    # cancellation when the fit is good, the direct difference does not
    approx = np.zeros_like(t_mat)
    for c, u, v in zip(coeff, us, vs):
        approx += c * np.outer(u, v.conj())
    rel = float(np.linalg.norm(t_mat - approx) / np.linalg.norm(t_mat))
    return SpanResidualReport(rel, deficient, "frobenius", m)


def _dense_kernel(space: BetaSpace, z: complex) -> np.ndarray:
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("kernels exist only for points inside the open disc")
    n = np.arange(space.dim + 1)
    betas = np.array([space.beta(int(k)) for k in n], dtype=float)
    return betas * (z.conjugate() ** n)


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
    vals = [abs(sym(_BOUNDARY_RADIUS * cmath.exp(2j * math.pi * k / _BOUNDARY_POINTS)))
            for k in range(_BOUNDARY_POINTS)]
    sup = max(vals)
    inf = min(vals)
    cs = sym.coeffs
    if len(cs) > 1:
        roots = np.roots(np.array(cs[::-1], dtype=complex))
        if np.any(np.abs(roots) < 1.0 - 1e-9):
            inf = 0.0
    elif abs(cs[0]) == 0.0:
        inf = 0.0
    return inf, sup


def converse_certificate(phi: AnalyticSymbol, psi: AnalyticSymbol,
                         space: BetaSpace | None = None,
                         orbit_steps: int = 50,
                         seed: int = 0) -> ConverseCertificate:
    """Norm certificate ruling out dense conjugation orbits.

    If the sup-norm product is at most 1 the two-sided multiplication is a
    contraction, so no orbit can be dense; if the inf-modulus product is at
    least 1 the inverse is a contraction, same conclusion.  A 50-step orbit
    of a random unit start is tracked as a desk check of the monotone norm
    behaviour the certificate predicts.
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

    if space is None:
        space = BetaSpace.hardy(24)
    left = mult_op_matrix(phi, space).data.conj().T
    right = mult_op_matrix(psi, space).data
    rng = np.random.default_rng(seed)
    n_dim = space.dim + 1
    s = rng.standard_normal((n_dim, n_dim)) + 1j * rng.standard_normal((n_dim, n_dim))
    s /= np.linalg.norm(s)
    norms = [1.0]
    for _ in range(orbit_steps):
        s = left @ s @ right
        norms.append(float(np.linalg.norm(s)))
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
class NuclearEigenReport:
    eigenvalue: complex
    op_residual: float
    trace_gap: float
    bound: float
    truncation_dim: int
    p_exponent: float

    @property
    def passed(self) -> bool:
        return (self.op_residual <= _PASS_FACTOR * self.bound + _RESIDUAL_FLOOR
                and self.trace_gap <= 1e-10)


def nuclear_eigencheck(phi: AnalyticSymbol, psi: AnalyticSymbol,
                       lam: complex, mu: complex, p: float,
                       dim: int = 64, seed: int = 0) -> NuclearEigenReport:
    """Eigen-identity residual for the sequence-space conjugation
    phi(backward) S psi(forward) on the rank-one tensor of geometric
    eigenvectors, in the transpose (bilinear) duality.

    The geometric vector with ratio lam is an eigenvector of the plain
    backward shift, and the forward shift transposes onto the backward one,
    so the tensor is an eigenvector with eigenvalue phi(lam) psi(mu).  The
    report also desk-checks the trace-duality pairing formula
    tr((f (x) g) S) = sum_n f_n (S^T g)_n on a seeded random S.
    """
    lam, mu = complex(lam), complex(mu)
    if abs(lam) >= 1.0 or abs(mu) >= 1.0:
        raise ValueError("geometric ratios must lie inside the open disc")
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    with mp.workdps(_EIGEN_DPS):
        u = _mp_geometric(lam, dim)
        v = _mp_geometric(mu, dim)
        a = _mp_poly_backward(phi, u)
        b = _mp_poly_backward(psi, v)
        alpha = _mp_eval_symbol(phi, lam)
        gamma = _mp_eval_symbol(psi, mu)
        eig_mp = alpha * gamma
        # bilinear rank-one: X = a b^T - eig u v^T; split the truncation
        # defects as in the kernel case (X = u (alpha e)^T + d b^T), then
        # conjugate the right legs so the Hermitian rank-two Gram applies
        d = [ai - alpha * ui for ai, ui in zip(a, u)]
        e = [alpha * (bi - gamma * vi) for bi, vi in zip(b, v)]
        sig = _rank_two_singulars(u, d, mp.mpc(1),
                                  [mp.conj(x) for x in e],
                                  [mp.conj(x) for x in b])
        op_res = float(sig[0])
        norm_u = float(_mp_norm(u))
        norm_v = float(_mp_norm(v))
        eig = complex(eig_mp)
    tail = (phi.coeff_abs_sum() * psi.coeff_abs_sum()
            * (_geom_tail(lam, dim - phi.degree) * norm_v
               + _geom_tail(mu, dim - psi.degree) * norm_u))
    gap = _trace_pairing_gap(lam, mu, dim, seed)
    return NuclearEigenReport(eig, op_res, gap, tail, dim, p)


def _mp_geometric(ratio: complex, dim: int) -> list:
    out, pw = [], mp.mpc(1)
    r = mp.mpc(ratio)
    for _ in range(dim + 1):
        out.append(pw)
        pw *= r
    return out


def _mp_poly_backward(sym: AnalyticSymbol, x: list) -> list:
    """Apply the polynomial in the plain backward shift to a truncated
    coefficient list: out_n = sum_m c_m x_{n+m}."""
    cs = [mp.mpc(c) for c in sym.coeffs]
    n_dim = len(x)
    out = []
    for n in range(n_dim):
        acc = mp.mpc(0)
        for m, c in enumerate(cs):
            if n + m >= n_dim:
                break
            acc += c * x[n + m]
        out.append(acc)
    return out


def _geom_tail(ratio: complex, expo: int) -> float:
    r = abs(ratio)
    return r ** max(expo, 0) / math.sqrt(max(1.0 - r * r, 1e-300))


def _trace_pairing_gap(lam: complex, mu: complex, dim: int, seed: int) -> float:
    n_dim = dim + 1
    n = np.arange(n_dim)
    u = np.asarray(lam, dtype=complex) ** n
    v = np.asarray(mu, dtype=complex) ** n
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n_dim, n_dim)) + 1j * rng.standard_normal((n_dim, n_dim))
    k = np.outer(u, v)
    lhs = complex(np.trace(k @ s))
    rhs = complex(u @ (s.T @ v))
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) / scale
