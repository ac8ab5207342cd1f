"""The scalar weight-product chain that `WeightPrefix.products` replaced,
kept as the oracle of the array pass: `ScalarPrefix` keeps the former
constructor, `_check`, `_closed_sum` (with its scalar branch), `_sum`,
`log_abs_many`, `_direct`, `_product`, `product` and `inverse_product` of
closed rules.  A rational rule's log-sums come from `LogGamma`, the
log-gamma sum that the package read far products from before its tables
stopped at an edge: mpmath at 20 digits beyond the largest log-gamma, with
its own roots of P and Q, so that no table and no series of the package
enters the oracle.  `oracle_apply_right_inverse` and
`oracle_shift_power_apply` are the former vector functions, one scalar
product per entry, reading `scalar_prefix(w)` in the place of `w.prefix`,
and `_power` the former diagonal power.  `split_log_abs_many` is the
package's prefix read of a closed rule before it became one signed closed
form.  `agree` compares two outcomes.
"""

import ast
import cmath
import functools
import itertools
import math
from array import array

import mpmath
import numpy as np

from hyperlab.seqspace import (
    _LOG_FLOAT_MAX,
    COEFF_GUARD,
    Domain,
    SeqVector,
    ShiftOp,
    WeightOverflowError,
    WeightPrefix,
    WeightSeq,
    _check_domains,
    _log_phase,
    adjoint,
)

_ROOT_DPS = 60


class LogGamma:
    """log|w_s ... w_e| and its sign for a rational rule, at any range.

    With P(t) = c_P prod_a (t - a) and Q(t) = c_Q prod_b (t - b), roots
    repeated, the log of w_s ... w_e is T(e) - T(s - 1), where
    T(m) = m log(c_P / c_Q) + sum_a G_a(m) - sum_b G_b(m) and G_r(m) is a
    prefix of log(t - r) over t <= m, anchored at k = floor(Re r):

        G_r(m) = logGamma(m + 1 - r) - logGamma(k + 1 - r)             m >= k
        G_r(m) = logGamma(r - k) - logGamma(r - m) - i pi (k - m)      m < k

    Every logGamma argument has a positive real part, so no pole is met,
    except the constant logGamma(r - k) at a real integer root r = k, taken
    as 0 since only a range across k reads it, and such a range raises.
    The roots come from `mpmath.polyroots` at `_ROOT_DPS` digits.
    """

    def __init__(self, w: WeightSeq):
        self.w = w
        self._roots = []    # (root, floor of its real part, +-1 for P or Q)
        self._lead = []
        for coeffs, sign in zip(w.rational, (1, -1)):
            coeffs = list(coeffs)
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs:
                self._roots = None   # P or Q vanishes: `check` always raises
                return
            self._lead.append(coeffs[-1])
            if len(coeffs) > 1:
                with mpmath.workdps(_ROOT_DPS):
                    roots = mpmath.polyroots([mpmath.mpf(c) for c in coeffs[::-1]],
                                             maxsteps=2000, extraprec=2000)
                self._roots += [(r, int(mpmath.floor(mpmath.re(r))), sign) for r in roots]
        self._reach = max((abs(float(mpmath.re(r))) + abs(float(mpmath.im(r)))
                           for r, _, _ in self._roots), default=0.0)
        self._suspects = sorted({k + d for _, k, _ in self._roots for d in (0, 1)})

    def check(self, lo: int, hi: int) -> None:
        """Raise the rule's own error at the lowest index of [lo, hi] where
        the weight may be zero or undefined."""
        if lo > hi:
            return
        if self._roots is None or self.w.domain is Domain.NATURALS and lo < 0:
            self.w.weight(lo)
        for n in self._suspects:
            if lo <= n <= hi:
                self.w.weight(n)

    def _t(self, m: int):
        """(Re T(m), Im T(m) without its pi multiples, the count of those)."""
        lead_log = mpmath.log(abs(mpmath.mpf(self._lead[0]) / self._lead[1]))
        re, im, turns = m * lead_log, 0.0, m * (self._lead[0] * self._lead[1] < 0)
        for r, k, sign in self._roots:
            c1, c2 = mpmath.loggamma(k + 1 - r), 0 if r == k else mpmath.loggamma(r - k)
            if m >= k:
                g = mpmath.loggamma(m + 1 - r) - c1
            else:
                g = c2 - mpmath.loggamma(r - m)
                turns += k - m
            re += sign * mpmath.re(g)
            im += sign * float(mpmath.im(g))
        return re, im, turns

    def log_sum(self, s: int, e: int) -> tuple[float, float]:
        """(log|w_s ... w_e|, its phase, exactly 0.0 or pi), e >= s - 1."""
        self.check(s, e)
        a = max(abs(s), abs(e)) + self._reach + 3.0
        with mpmath.workdps(20 + len(str(int(a * math.log(a))))):
            (r1, i1, n1), (r0, i0, n0) = self._t(e), self._t(s - 1)
            odd = (n1 - n0 + round((i1 - i0) / math.pi)) % 2
            return float(r1 - r0), math.pi if odd else 0.0


def agree(got: str, want: str, w: WeightSeq) -> bool:
    """Whether two outcomes (a value's repr, or an error's type and message)
    agree: equal, or on a rational rule the same shape with every number x
    within (2e-14 + 2 |log|x|| eps) |x| of the oracle's, the accuracy of a
    long rational product."""
    if got == want or w.rational is None:
        return got == want
    try:
        return _close(ast.literal_eval(got), ast.literal_eval(want))
    except (ValueError, SyntaxError):
        return False


def _close(got, want) -> bool:
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(map(_close, got, want)))
    if isinstance(want, (float, complex)) and isinstance(got, type(want)) and want:
        return abs(got - want) <= (2e-14 + 2 * abs(math.log(abs(want))) * 2.0 ** -52) * abs(want)
    return got == want


class ScalarPrefix(WeightPrefix):
    """The former one-range product engine of a weight rule."""

    def __init__(self, w: WeightSeq):
        self.w = w
        self._closed = w.rational is None
        if not self._closed:
            self._log_gamma = LogGamma(w)
            return
        self._a, self._b = w.a, w.a + len(w.values)
        self._low, self._high = _log_phase(w.low), _log_phase(w.high)
        # table indices whose weight is zero, read only to raise
        self._zeros = [w.a + 1 + k for k, v in enumerate(w.values) if v == 0]
        lps = [_log_phase(v) or (0.0, 0.0) for v in w.values]
        self._tab_log = array("d", itertools.accumulate((lp[0] for lp in lps), initial=0.0))
        self._tab_ph = array("d", itertools.accumulate((lp[1] for lp in lps), initial=0.0))

    def _check(self, lo: int, hi: int) -> None:
        """Raise the rule's own error at the lowest index in [lo, hi]
        without a usable weight."""
        if not self._closed:
            self._log_gamma.check(lo, hi)
        elif lo <= hi:
            bad = [z for z in self._zeros if lo <= z <= hi]
            if (self.w.domain is Domain.NATURALS and lo < 0
                    or self._low is None and lo <= self._a):
                bad.append(lo)
            if self._high is None and hi > self._b:
                bad.append(max(lo, self._b + 1))
            if bad:
                self.w.weight(min(bad))  # raises the rule's own error

    def _closed_sum(self, s, e, vector: bool = False):
        """(log-sum, phase-sum) over [s, e] with e >= s - 1, for ints or for
        integer arrays; every index it reads has a usable weight."""
        tab_log, tab_ph, minimum, maximum = self._tab_log, self._tab_ph, min, max
        if vector:
            tab_log, tab_ph = np.frombuffer(tab_log), np.frombuffer(tab_ph)
            minimum, maximum = np.minimum, np.maximum
        a, b = self._a, self._b
        n_low = maximum(minimum(e, a) - s + 1, 0)
        n_high = maximum(e - maximum(s - 1, b), 0)
        j1 = minimum(maximum(s - 1, a), b) - a
        j2 = minimum(maximum(e, a), b) - a
        low, high = self._low or (0.0, 0.0), self._high or (0.0, 0.0)
        return (tab_log[j2] - tab_log[j1] + n_low * low[0] + n_high * high[0],
                tab_ph[j2] - tab_ph[j1] + n_low * low[1] + n_high * high[1])

    def _sum(self, s: int, e: int) -> tuple[float, float]:
        """(log-sum, phase-sum) over [s, e], e >= s - 1."""
        if max(abs(s), abs(e)) > 2 ** 53:   # past exact float index arithmetic
            raise ValueError("weight product reaches an index beyond 2^53")
        if not self._closed:
            return self._log_gamma.log_sum(s, e)
        self._check(s, e)
        return self._closed_sum(s, e)

    def log_abs_many(self, m) -> np.ndarray:
        """L(m), vectorized over a nonempty integer array."""
        m = np.asarray(m, dtype=np.int64)
        lo, hi, up = int(m.min()), int(m.max()), m >= 0
        self._check(min(lo + 1, 1), max(hi, 0))
        if self._closed:
            s, e = np.where(up, 1, m + 1), np.where(up, m, 0)
            logs = self._closed_sum(s, e, vector=True)[0]
            return np.where(up, logs, -logs)
        sums = self._log_gamma.log_sum
        return np.array([sums(1, x)[0] if x >= 0 else -sums(x + 1, 0)[0]
                         for x in m.ravel().tolist()]).reshape(m.shape)

    def product(self, start: int, stop: int) -> complex:
        """w_start * ... * w_stop (empty when stop < start).

        Short comfortably-ranged products multiply directly (exact up to one
        rounding per factor); long or extreme ones go through the log-sums.
        """
        return self._product(start, stop, 1)

    def inverse_product(self, start: int, stop: int) -> complex:
        """1 / (w_start * ... * w_stop), by the same rules as `product`."""
        return self._product(start, stop, -1)

    def _direct(self, start: int, stop: int) -> complex:
        return math.prod(map(self.w.weight, range(start, stop + 1)), start=1.0 + 0.0j)

    def _product(self, start: int, stop: int, sign: int) -> complex:
        if stop < start:
            return 1.0 + 0.0j
        lm, ph = self._sum(start, stop)
        if stop - start < 128 and abs(lm) < 300.0:
            prod = self._direct(start, stop)
            return prod if sign > 0 else 1.0 / prod
        lm, ph = sign * lm, sign * ph + 0.0   # + 0.0: a zero phase stays +0.0
        if lm > _LOG_FLOAT_MAX:
            raise WeightOverflowError(start, stop, lm)
        if lm < math.log(COEFF_GUARD):
            return 0.0 + 0.0j
        if not self._closed:    # the phase is exactly 0 or pi
            return complex(-math.exp(lm) if ph else math.exp(lm), 0.0)
        return cmath.rect(math.exp(lm), ph)


def _power(w: WeightSeq, n: int, m: int) -> complex:
    """w_n ** m, raising WeightOverflowError past float range and flushing
    to 0 below the coefficient guard."""
    lam = w.weight(n)
    log = m * math.log(abs(lam))
    if log > _LOG_FLOAT_MAX:
        raise WeightOverflowError(n, n, log)
    if log < math.log(COEFF_GUARD):
        return 0.0 + 0.0j
    return lam ** m


@functools.lru_cache(maxsize=None)
def scalar_prefix(w: WeightSeq) -> ScalarPrefix:
    """The rule's scalar engine, built once and shared, as `w.prefix` was."""
    return ScalarPrefix(w)


def split_log_abs_many(w: WeightSeq, m) -> np.ndarray:
    """L(m) of a closed rule as `WeightPrefix.log_abs_many` read it before
    its signed closed form: the prefix's check for unusable weights, then
    the log-sum over [1, m] where m >= 0 and the negated one over [m + 1, 0]
    where m < 0, each with its level counts clamped at 0, the table offset
    held within 2^62 of 0."""
    pre = w.prefix
    shape, m = np.shape(m), np.asarray(m, dtype=np.int64).ravel()
    up = m >= 0
    s, e = np.array([min(int(m.min()), 0) + 1]), np.array([max(int(m.max()), 0)])
    first = int(pre._first_unusable(s, e)[0])
    if first < 2 ** 62:
        w.weight(first)  # raises the rule's own error
    s, e = np.where(up, 1, m + 1), np.where(up, m, 0)
    a = min(max(w.a, -2 ** 62 - len(w.values)), 2 ** 62)
    b = a + len(w.values)
    tab_log = np.array(list(itertools.accumulate(
        ((_log_phase(v) or (0.0, 0.0))[0] for v in w.values), initial=0.0)))
    low, high = ((_log_phase(v) or (0.0, 0.0))[0] for v in (w.low, w.high))
    n_low = np.maximum(np.minimum(e, a) - s + 1, 0)
    n_high = np.maximum(e - np.maximum(s - 1, b), 0)
    j1 = np.minimum(np.maximum(s - 1, a), b) - a
    j2 = np.minimum(np.maximum(e, a), b) - a
    logs = tab_log[j2] - tab_log[j1] + n_low * low + n_high * high
    return np.where(up, logs, -logs).reshape(shape)


def oracle_apply_right_inverse(op: ShiftOp, v: SeqVector, m: int) -> SeqVector:
    """m-step right inverse e_n -> e_{n+m} / (w_{n+1+b} ... w_{n+m+b}) of the
    backward-type row (-1, b): op's own, or its adjoint's for a forward-type
    op.  m applications of that row afterwards restore v exactly.  Diagonals
    invert entrywise with overflow guarded.
    """
    _check_domains(op, v)
    if m < 0:
        raise ValueError("m must be a natural number")
    if m == 0:
        return v
    w, a = op.weights, op.displacement
    b = op.offset if a <= 0 else adjoint(op).offset
    out: dict = {}
    for n, c in v.entries.items():
        if a:
            coeff, tgt = scalar_prefix(w).inverse_product(n + 1 + b, n + m + b), n + m
        else:
            coeff, tgt = _power(w, n + b, -m), n
        if coeff != 0:
            out[tgt] = coeff * c
    return SeqVector(out, v.domain, v.p_exponent)


def oracle_shift_power_apply(op: ShiftOp, v: SeqVector, m: int) -> SeqVector:
    """T^m v in one jump via the rule's weight-product engine.

    Equivalent to applying `apply` m times, in O(support) (a rational rule
    evaluates its log-gamma sums).  T^m e_n reads the m weights w_{n+b}, w_{n+b+a}, ...,
    w_{n+b+(m-1)a} of the row (a, b).
    """
    _check_domains(op, v)
    if m < 0:
        raise ValueError("m must be a natural number")
    if m == 0:
        return v
    w, a, b, low = op.weights, op.displacement, op.offset, op.lowest_source(m)
    pre = scalar_prefix(w)
    first = b + (m - 1) * min(a, 0)     # the lowest weight index, less n
    out: dict = {}
    for n, c in v.entries.items():
        if n < low:
            continue  # the orbit fell off the bottom: B^m e_n = 0 for n < m
        if a:
            val = pre.product(n + first, n + first + m - 1) * c
        else:
            val = _power(w, n + b, m) * c
        tgt = n + m * a
        if val != 0:
            out[tgt] = out.get(tgt, 0.0) + val
    return SeqVector(out, v.domain, v.p_exponent)
