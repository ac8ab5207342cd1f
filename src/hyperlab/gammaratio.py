"""Closed form of the products of a rational weight rule.

`seqspace.WeightPrefix` tabulates a rational rule's prefix near the origin
and asks `GammaRatio` for every product or prefix that reaches past the
table.  Products work in mpmath, inside a local `mpmath.workdps`; prefixes
of rules whose roots lie well inside the table come from Stirling's series
in numpy.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath.libmp import NoConvergence

from .seqspace import Domain, WeightSeq

_ROOT_DPS = 50     # digits of the roots of a rational rule's P and Q
_STIRLING_GAP = 64  # Stirling's series serves |x| >= 64 * max |root|
# log(1 + u) - u = u^2 * sum_k _LOG1P_TAIL[k] * u^k, to double precision
# for |u| <= 1 / _STIRLING_GAP
_LOG1P_TAIL = [(-1) ** (k + 1) / (k + 2) for k in range(11)]


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _primitive(p: list[int]) -> list[int]:
    g = math.gcd(*p) * (1 if p[-1] > 0 else -1)
    return [c // g for c in p]


def _int_poly(coeffs) -> list[int]:
    """The primitive integer polynomial with the roots of nonzero binary
    coefficients, low to high: their denominators are powers of two."""
    ratios = [c.as_integer_ratio() for c in _trim(list(coeffs))]
    den = max(d for _, d in ratios)
    return _primitive([n * (den // d) for n, d in ratios])


def _deriv(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _rem(p: list[int], q: list[int]) -> list[int]:
    """A primitive multiple of the remainder of p by q."""
    while len(p) >= len(q):
        k, top = len(p) - len(q), p[-1]
        p = _trim([q[-1] * c - (top * q[j - k] if j >= k else 0) for j, c in enumerate(p)])
    return _primitive(p) if p else p


def _gcd(p: list[int], q: list[int]) -> list[int]:
    while q:
        p, q = q, _rem(p, q)
    return _primitive(p)


def _div(p: list[int], q: list[int]) -> list[int]:
    """p / q for a primitive q that divides p, so that every step is exact."""
    p, quot = list(p), [0] * max(len(p) - len(q) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = p[k + len(q) - 1] // q[-1]
        for j, c in enumerate(q):
            p[k + j] -= quot[k] * c
    return quot


def _sub(p: list[int], q: list[int]) -> list[int]:
    n = max(len(p), len(q))
    return _trim([a - b for a, b in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))])


def _squarefree(p: list[int]) -> list[tuple[list[int], int]]:
    """Yun's factorization p = c * prod f_i^i of an integer polynomial of
    degree >= 1, as (f_i, i) with each f_i square-free, of degree >= 1 and
    coprime to the others."""
    a = _gcd(p, _deriv(p))
    b, c = _div(p, a), _div(_deriv(p), a)
    d, out, i = _sub(c, _deriv(b)), [], 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _div(b, a), _div(d, a)
        d, i = _sub(c, _deriv(b)), i + 1
    return out


class GammaRatio:
    """Closed form of a rational rule's products, for any index range.

    With P(t) = c_P prod_a (t - a) and Q(t) = c_Q prod_b (t - b), roots
    repeated by multiplicity, the log of w_s ... w_e is T(e) - T(s - 1), where
    T(m) = m log(c_P / c_Q) + sum_a G_a(m) - sum_b G_b(m) and G_r(m) is a
    prefix of log(t - r) over t <= m, anchored at k = floor(Re r):

        G_r(m) = logGamma(m + 1 - r) - logGamma(k + 1 - r)             m >= k
        G_r(m) = logGamma(r - k) - logGamma(r - m) - i pi (k - m)      m < k

    Every logGamma argument has a positive real part, so no pole is met,
    except the constant logGamma(r - k) at a real integer root r = k; it is
    taken as 0 there, since only a range across k reads it, and such a range
    holds the zero at k and raises.  Only Re T and Im T modulo 2 pi are used,
    so the branch of logGamma does not matter.

    The roots are found once, to `_ROOT_DPS` digits, from the square-free
    factors of the exact binary coefficients (Durand-Kerner converges only
    slowly, if at all, at a repeated root); each product works in a local
    `mpmath.workdps` with 20 digits beyond those of its largest logGamma, so
    the difference T(e) - T(s - 1) cancels without loss.  The global mpmath
    precision is never changed.  Prefix differences L(m) - L(a) past the
    table take Stirling's series in numpy (`_stirling`) instead, at a
    fraction of a microsecond per index, when every root lies within
    |a| / 64 of 0.
    """

    def __init__(self, w: WeightSeq):
        self.w = w
        num, den = w.rational
        self._roots = []    # (root, floor of its real part, multiplicity, +-1 for P or Q)
        self._lead = []     # leading coefficients of P and Q
        self._sum = 0.0     # sum of the roots of P minus those of Q
        for coeffs, sign in ((num, 1), (den, -1)):
            coeffs = _trim(list(coeffs))
            if not coeffs:
                self._roots = None   # P or Q vanishes: `_check` always raises
                return
            self._lead.append(coeffs[-1])
            if len(coeffs) > 1:
                p = _int_poly(coeffs)
                self._sum -= sign * p[-2] / p[-1]
                for factor, mult in _squarefree(p):
                    self._roots += [(r, int(mpmath.floor(mpmath.re(r))), mult, sign)
                                    for r in self._polyroots(factor)]
        self._degree = sum(mult * sign for _, _, mult, sign in self._roots)  # deg P - deg Q
        self._reach = max((abs(float(mpmath.re(r))) + abs(float(mpmath.im(r)))
                           for r, *_ in self._roots), default=0.0)
        # the integers next to each real part: a zero of P or Q at an
        # integer index sits at one of them
        self._suspects = sorted({k + d for _, k, _, _ in self._roots for d in (0, 1)})
        self._consts = {}   # working dps -> `_setup` constants
        self._np_roots = np.array([complex(r) for r, *_ in self._roots], dtype=complex)
        self._np_weight = np.array([mult * sign for _, _, mult, sign in self._roots], dtype=float)
        self._lead_log = math.log(abs(self._lead[0] / self._lead[1]))

    @staticmethod
    def _polyroots(factor: list[int]) -> list:
        try:
            with mpmath.workdps(_ROOT_DPS):
                return mpmath.polyroots(factor[::-1], maxsteps=200, extraprec=200)
        except NoConvergence:
            raise ValueError("the roots of a rational weight rule did not "
                             "converge") from None

    def _check(self, lo: int, hi: int) -> None:
        """Read the weight at every index of [lo, hi] where it may be zero or
        undefined, raising the rule's own error there."""
        if lo > hi:
            return
        if self._roots is None or self.w.domain is Domain.NATURALS and lo < 0:
            self.w.weight(lo)
        for n in self._suspects:
            if lo <= n <= hi:
                self.w.weight(n)

    def _workdps(self, top: int):
        a = top + self._reach + 3.0
        return mpmath.workdps(20 + len(str(int(a * math.log(a)))))

    def _setup(self):
        """(per-root constants, log|c_P / c_Q|) at the current working
        precision, computed once per precision."""
        dps = mpmath.mp.dps
        if dps not in self._consts:
            self._consts[dps] = (
                [(mpmath.loggamma(k + 1 - r), 0 if r == k else mpmath.loggamma(r - k))
                 for r, k, _, _ in self._roots],
                mpmath.log(abs(mpmath.mpf(self._lead[0]) / self._lead[1])))
        return self._consts[dps]

    def _t(self, m: int, consts):
        """(Re T(m), Im T(m) without its pi multiples, the count of those)."""
        roots, lead_log = consts
        re, im, turns = m * lead_log, 0.0, m * (self._lead[0] * self._lead[1] < 0)
        for (r, k, mult, sign), (c1, c2) in zip(self._roots, roots):
            if m >= k:
                g = mpmath.loggamma(m + 1 - r) - c1
            else:
                g = c2 - mpmath.loggamma(r - m)
                turns += mult * (k - m)
            re += mult * sign * mpmath.re(g)
            im += mult * sign * float(mpmath.im(g))
        return re, im, turns

    def log_sum(self, s: int, e: int) -> tuple[float, float]:
        """(log|w_s ... w_e|, its phase, exactly 0.0 or pi), e >= s - 1."""
        self._check(s, e)
        with self._workdps(max(abs(s), abs(e))):
            consts = self._setup()
            (r1, i1, n1), (r0, i0, n0) = self._t(e, consts), self._t(s - 1, consts)
            odd = (n1 - n0 + round((i1 - i0) / math.pi)) % 2
            return float(r1 - r0), math.pi if odd else 0.0

    def log_prefix(self, m: np.ndarray, a: int) -> np.ndarray:
        """L(m) - L(a) = Re T(m) - Re T(a) over a nonempty integer array
        whose entries lie past a, on its side of 0, evaluated once per
        distinct entry."""
        lo, hi = int(m.min()), int(m.max())
        if a >= 0:
            self._check(a + 1, hi)
        else:
            self._check(lo + 1, a)
        u, inv = np.unique(m, return_inverse=True)
        if _STIRLING_GAP * self._reach <= abs(a) - 1:
            # sums of log|w_t| over a < t <= m, or of log|w_-t| over -a <= t < -m
            side, shift = (1, 1) if a >= 0 else (-1, 0)
            return side * self._stirling(side * u + shift, side * a + shift, side)[inv]
        with self._workdps(max(-lo, hi)):
            consts = self._setup()
            t0 = self._t(a, consts)[0]
            vals = np.array([float(self._t(int(x), consts)[0] - t0) for x in u])
        return vals[inv]

    def _stirling(self, x: np.ndarray, x0: int, side: int) -> np.ndarray:
        """F(x) - F(x0), the sum of log|w_t| over x0 <= t < x (side 1), or of
        log|w_-t| (side -1), for integers x, x0 >= 64 times the largest |root|.
        Stirling's series for Re logGamma(x - r), with log(x - r) = log x +
        log(1 + u) and u = -r / x, gives F(x) up to a constant as

            (deg (x - 1/2) - R) log x - deg x + x log|c_P / c_Q|
                + sum_r Re((r + 1/2) r / x + (x - r - 1/2) h(u) + 1 / (12 (x - r)))

        with deg = deg P - deg Q, R the roots of P minus those of Q, and
        h(u) = log(1 + u) - u.  The differences of the first line are taken
        through log(x / x0) = log1p((x - x0) / x0), and every term of the sum
        is small, so F(x) - F(x0) rounds to a few units of itself; the next
        term of the series, 1 / (360 |x - r|^3), is below 1e-18 past the table.
        """
        roots = side * self._np_roots[:, None]
        y = np.append(x, x0).astype(float)
        u = -roots / y
        h = np.full_like(u, _LOG1P_TAIL[-1])
        for c in _LOG1P_TAIL[-2::-1]:
            h = h * u + c
        h *= u * u
        terms = self._np_weight @ ((roots + 0.5) * roots / y + (y - roots - 0.5) * h
                                   + 1.0 / (12.0 * (y - roots))).real
        d = y[:-1] - x0
        log_ratio = np.log1p(d / x0)
        return (self._degree * ((y[:-1] - 0.5) * log_ratio + d * (math.log(x0) - 1.0))
                - side * self._sum * log_ratio + d * self._lead_log
                + terms[:-1] - terms[-1])
