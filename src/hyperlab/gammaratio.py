"""Closed form of the products of a rational weight rule past its table.

`seqspace.WeightPrefix` tabulates a rational rule's prefix up to the edge
that `GammaRatio` works out from the roots of P and Q, and takes every sum of
log-weights past that edge from `GammaRatio.sums`: Stirling's series in
numpy, or mpmath's log-gamma for a rule whose roots lie too far out for the
series at the largest edge.  mpmath serves only such a rule and the roots of
factors of degree 2 or more, and is imported only when one of them is met.
"""

from __future__ import annotations

import math

import numpy as np

from .seqspace import _EDGE_MAX, _EDGE_MIN

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


def _ratio(a: int, b: int) -> float:
    """a / b rounded to a double, +-inf past float range."""
    try:
        return a / b
    except OverflowError:
        return math.inf if (a < 0) == (b < 0) else -math.inf


def _polyroots(factor: list[int]) -> list:
    """The roots of a square-free integer polynomial, each as (its complex
    value, the root itself): for degree 1 the exact root as a (numerator,
    denominator) pair, otherwise `_ROOT_DPS` digits from mpmath."""
    if len(factor) == 2:
        return [(complex(_ratio(-factor[0], factor[1])), (-factor[0], factor[1]))]
    import mpmath
    from mpmath.libmp import NoConvergence
    try:
        with mpmath.workdps(_ROOT_DPS):
            return [(complex(r), r)
                    for r in mpmath.polyroots(factor[::-1], maxsteps=200, extraprec=200)]
    except NoConvergence:
        raise ValueError("the roots of a rational weight rule did not "
                         "converge") from None


def _log1p_tail(u: np.ndarray) -> np.ndarray:
    """log(1 + u) - u, to double precision for |u| <= 1 / _STIRLING_GAP."""
    h = np.full_like(u, _LOG1P_TAIL[-1])
    for c in _LOG1P_TAIL[-2::-1]:
        h = h * u + c
    return h * u * u


class GammaRatio:
    """Sums of a rational rule's log-weights past the edge of its table.

    With P(t) = c_P prod_a (t - a) and Q(t) = c_Q prod_b (t - b), roots
    repeated by multiplicity, log|w_t| = log|c_P / c_Q| + sum_a log|t - a|
    - sum_b log|t - b|.  The roots are found once, from the square-free
    factors of the exact binary coefficients (Durand-Kerner converges only
    slowly, if at all, at a repeated root).  With reach the largest
    |Re r| + |Im r|, `edge` is the least power of two at least
    max(`_EDGE_MIN`, 64 reach), capped at `_EDGE_MAX`.

    `sums(x, x0, side)` reads, for each row, the sum of log|w_{side t}| over
    x0 <= t < x with x0 >= edge, and the count of negative weights among
    them, from the integers below each root's real part (a complex pair adds
    an even count).  Where the edge is at least 64 reach, the sum is
    Stirling's series (`_stirling`), whose truncation is below 1e-17 and
    whose rounding is a few units of the sum itself.  Otherwise it is
    mpmath's log-gamma, one row at a time (`_mp_sums`), in a local
    `mpmath.workdps`; the global mpmath precision is never changed.
    """

    def __init__(self, rational: tuple):
        self._roots = []    # (value, root, multiplicity, +-1 for P or Q)
        self._sum = 0.0     # sum of the roots of P minus those of Q
        self._lead = [_trim(list(c))[-1] for c in rational]
        for coeffs, sign in zip(rational, (1, -1)):
            p = _int_poly(coeffs)
            if len(p) > 1:
                self._sum -= sign * _ratio(p[-2], p[-1])
                self._roots += [(z, r, mult, sign) for factor, mult in _squarefree(p)
                                for z, r in _polyroots(factor)]
        z = np.array([z for z, *_ in self._roots], complex)
        self._np_roots = z
        self._weight = np.array([mult * sign for *_, mult, sign in self._roots], float)
        self._mult = np.array([mult for *_, mult, _ in self._roots], np.int64)
        # floor(Re r), held within 2^61 of 0, past every index a product reads
        self.floors = np.floor(np.clip(z.real, -2.0 ** 61, 2.0 ** 61)).astype(np.int64)
        self._degree = int(self._weight.sum())    # deg P - deg Q
        self._lead_log = math.log(abs(self._lead[0] / self._lead[1]))
        self._scale = abs(self._lead[0] / self._lead[1]) ** (1.0 / (self._degree or 1))
        self._reach = float(np.max(np.abs(z.real) + np.abs(z.imag), initial=0.0))
        need = min(max(_EDGE_MIN, _STIRLING_GAP * self._reach), _EDGE_MAX)
        self.edge = 1 << (math.ceil(need) - 1).bit_length()
        self._series = _STIRLING_GAP * self._reach <= self.edge

    def sums(self, x: np.ndarray, x0: np.ndarray, side: int) -> tuple:
        """(sum of log|w_{side t}| over x0 <= t < x, count of the negative
        weights among them) over int64 arrays with edge <= x0 <= x <= 2^53 + 1
        whose ranges hold no zero of P or Q."""
        n = x - x0
        ks = self.floors[:, None]
        below = np.clip(ks + 1 - x0, 0, n) if side > 0 else np.clip(x + ks, 0, n)
        count = n * (self._lead[0] * self._lead[1] < 0) + self._mult @ below
        logs = self._stirling(x, x0, side) if self._series else self._mp_sums(x, x0, side)
        return logs, count

    def _stirling(self, x: np.ndarray, x0: np.ndarray, side: int) -> np.ndarray:
        """F(x) - F(x0) per row, the sum of log|w_{side t}| over x0 <= t < x,
        for x0 >= 64 times the largest |root|.  Stirling's series for
        Re logGamma(x - r), with log(x - r) = log x + log(1 + u) and
        u = -r / x, gives F(x) up to a constant as

            (deg (x - 1/2) - R) log x - deg x + x log|c_P / c_Q|
                + sum_r Re((r + 1/2) r / x + (x - r - 1/2) h(u)
                           + 1 / (12 (x - r)) - 1 / (360 (x - r)^3))

        with deg = deg P - deg Q, R the roots of P minus those of Q (mirrored
        on side -1), and h(u) = log(1 + u) - u.  With d = x - x0 and
        v = d / x0, the first line's difference is

            deg (x0 h(v) + (d - 1/2) log1p(v)) + d L0 - R log1p(v),

        where L0 = deg log x0 + log|c_P / c_Q|, the log-weight that the
        leading terms give at x0, is taken as deg log(x0 |c_P / c_Q|^(1/deg))
        in one logarithm: the d factors of a product inside float range have
        log-weights near 0, where the two parts of L0 cancel.  Every other
        term is small, so F(x) - F(x0) rounds to a few units of itself plus
        about d eps; the next term of the series, 1 / (1260 |x - r|^5), is
        below 1e-18 past the least edge.
        """
        roots = side * self._np_roots[:, None]
        y = np.concatenate((x, x0)).astype(float)
        z = y - roots
        terms = self._weight @ ((roots + 0.5) * roots / y + (z - 0.5) * _log1p_tail(-roots / y)
                                + (1.0 / 12.0 - 1.0 / (360.0 * z * z)) / z).real
        x, x0 = y[:len(x)], y[len(x):]
        d = x - x0
        v = d / x0
        log_ratio = np.log1p(v)
        tail = np.where(v <= 1 / _STIRLING_GAP,
                        _log1p_tail(np.minimum(v, 1 / _STIRLING_GAP)), log_ratio - v)
        lead = self._degree * np.log(x0 * self._scale) if self._degree else self._lead_log
        return (self._degree * (x0 * tail + (d - 0.5) * log_ratio) + d * lead
                - side * self._sum * log_ratio + terms[:len(x)] - terms[len(x):])

    def _mp_sums(self, x: np.ndarray, x0: np.ndarray, side: int) -> np.ndarray:
        """The sums of `sums` from mpmath's log-gamma, one row at a time, in a
        local `mpmath.workdps` with 20 digits beyond those of its largest
        log-gamma, so that each difference cancels without loss.  With
        rho = side * r and c the least t > Re rho (held inside [a, b]), the
        sum of log|t - rho| over a <= t < b is

            Re logGamma(rho - a + 1) - Re logGamma(rho - c + 1)
                + Re logGamma(b - rho) - Re logGamma(c - rho),

        each pair taken only where its part of the range is not empty: every
        argument then has a positive real part."""
        import mpmath

        def exact(r):
            return mpmath.mpf(r[0]) / r[1] if isinstance(r, tuple) else r

        # digits of the largest log-gamma, from roots that may lie past floats
        top = int(x.max()) + 3 + max((abs(mpmath.re(exact(r))) + abs(mpmath.im(exact(r)))
                                      for _, r, _, _ in self._roots), default=0)
        with mpmath.workdps(21 + int(mpmath.log10(top * mpmath.log(top)))):
            lead = mpmath.log(abs(mpmath.mpf(self._lead[0]) / self._lead[1]))
            roots = [(side * exact(r), mult * sign) for _, r, mult, sign in self._roots]

            def run(rho, a: int, b: int):    # sum of log|t - rho| over a <= t < b
                c = min(max(int(mpmath.floor(mpmath.re(rho))) + 1, a), b)
                total = mpmath.loggamma(b - rho) - mpmath.loggamma(c - rho) if c < b else 0
                if a < c:
                    total += mpmath.loggamma(rho - a + 1) - mpmath.loggamma(rho - c + 1)
                return mpmath.re(total)

            return np.array([float((b - a) * lead + sum(wt * run(rho, a, b) for rho, wt in roots))
                             for a, b in zip(x0.tolist(), x.tolist())])
