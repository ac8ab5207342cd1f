"""The group-at-a-time Jacobi sweep loop that the stacked sweeps replaced,
copied verbatim as the oracle of `matops`: `oracle_column_groups` is the
former flat `_column_groups`, `oracle_gram_sweep` the former one-group
`_gram_sweep`, `OracleSweeps` the former `_Sweeps` (every group of one
matrix, one after another, every sweep) and `oracle_scaled_columns` the
former `_scaled_columns` (the nonzero-column selection, then a Fortran
copy), with each component scaled by its own power of two in a loop over
the components.  `oracle_singular_values` and `oracle_schatten_norm_below`
are the former entry points on top of them, the compare's bracket taken
on the columns brought to the largest exponent.  The components, the
round-robin permutation, the column norms and the bracket are taken from
`matops`.
"""

import math

import numpy as np

from hyperlab.matops import (
    _DECIDE_MARGIN,
    _JACOBI_BLOCK,
    _JACOBI_MAX_SWEEPS,
    _JACOBI_TOL,
    MatOp,
    SingularSpectrum,
    _circle_step,
    _column_components,
    _column_norms,
    _schatten_bracket,
)
from hyperlab.seqspace import p_sum


def oracle_column_groups(U: np.ndarray) -> list:
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


def oracle_gram_sweep(G: np.ndarray, tol: float) -> "np.ndarray | None":
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


class OracleSweeps:
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
                groups = oracle_column_groups(U)
            rotated = False
            for idx in groups:
                W = U[:, idx]
                V = oracle_gram_sweep(W.conj().T @ W, self.tol)
                if V is not None:
                    U[:, idx] = W @ V
                    rotated = True
            if not rotated:
                self.converged = True
                return


def oracle_scaled_columns(A: MatOp) -> tuple:
    B = A.data if A.rows >= A.cols else A.data.conj().T
    n = B.shape[1]
    if not B.imag.any():
        B = B.real
    U = np.asfortranarray(B[:, B.any(axis=0)])
    parts = (U.real, U.imag) if U.dtype.kind == "c" else (U,)
    labels = _column_components(U)
    exponents = np.zeros(U.shape[1], int)
    for root in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == root)
        top = max(float(np.max(np.abs(part[:, idx]), initial=0.0)) for part in parts)
        exponents[idx] = math.frexp(top)[1]
        for part in parts:
            part[:, idx] = np.ldexp(part[:, idx], -exponents[idx])
    return U, exponents, n


def oracle_singular_values(A: MatOp, tol: float = _JACOBI_TOL,
                           max_sweeps: int = _JACOBI_MAX_SWEEPS) -> SingularSpectrum:
    if min(A.rows, A.cols) == 0:
        return SingularSpectrum((), 0, True)
    U, exponents, n = oracle_scaled_columns(A)
    jacobi = OracleSweeps(U, tol, max_sweeps)
    for _ in jacobi:
        pass
    return SingularSpectrum(_column_norms(U, exponents, n), jacobi.sweeps, jacobi.converged)


def oracle_schatten_norm_below(A: MatOp, p: float, radius: float,
                               max_sweeps: int = _JACOBI_MAX_SWEEPS) -> bool:
    if not 1.0 <= p <= math.inf:
        raise ValueError("p must lie in [1, inf]")
    U, exponents, n = oracle_scaled_columns(A)
    if U.shape[1] == 0:
        return 0.0 < radius
    top = max(exponents.tolist())
    try:
        r = math.ldexp(radius, -top)
    except OverflowError:
        r = math.inf
    jacobi = OracleSweeps(U, _JACOBI_TOL, max_sweeps)
    for _ in jacobi:
        W = U * [2.0 ** (e - top) for e in exponents.tolist()]
        lower, upper = _schatten_bracket(W.conj().T @ W, p, U.shape[0])
        if upper < r * (1.0 - _DECIDE_MARGIN):
            return True
        if lower > r * (1.0 + _DECIDE_MARGIN):
            return False
    if not jacobi.converged:
        raise ValueError(f"Schatten-{p} norm against radius {radius!r} still undecided "
                         f"when the sweep budget (max_sweeps = {max_sweeps}) ran out")
    values = _column_norms(U, exponents, n)
    return (values[0] if p == math.inf else p_sum(values, p)) < radius
