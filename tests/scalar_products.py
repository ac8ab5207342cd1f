"""The scalar weight-product chain that `WeightPrefix.products` replaced,
copied verbatim as the oracle of the array pass: `ScalarPrefix` keeps the
former constructor, `_check`, `_closed_sum` (with its scalar branch),
`_grow` (which raises where a range needs an unusable weight), `_at`,
`_sum`, `_far`, `log_abs_many`, `_direct`, `_product`, `product` and
`inverse_product`, and takes the log-gamma closed form from `WeightPrefix`.
`oracle_apply_right_inverse` and `oracle_shift_power_apply` are the former
vector functions, one scalar product per entry, reading `scalar_prefix(w)`
in the place of `w.prefix`, and `_power` the former diagonal power.
"""

import cmath
import functools
import itertools
import math
from array import array

import numpy as np

from hyperlab.seqspace import (
    _CHUNK,
    _LOG_FLOAT_MAX,
    _NEAR,
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


class ScalarPrefix(WeightPrefix):
    """The former one-range product engine of a weight rule."""

    def __init__(self, w: WeightSeq):
        self.w = w
        self._pos_log = array("d", [0.0])    # grown L(0), L(1), ... (rational rules)
        self._pos_ph = array("d", [0.0])     # shorter than _pos_log until a weight is < 0
        self._neg_log = array("d", [0.0])    # grown L(0), L(-1), ... (integer domain)
        self._neg_ph = array("d", [0.0])
        self._closed = w.rational is None
        if not self._closed:
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
        without a usable weight (closed rules)."""
        if lo <= hi:
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

    def _grow(self, lo: int, hi: int) -> None:
        """Extend the rational tables to cover L(lo) .. L(hi), with |lo| and
        |hi| at most `_NEAR`, at least doubling a growing table up to `_NEAR`,
        in chunks that keep temporaries small.  Entry k of a side is L(k) or
        L(-k): it adds w_k or subtracts w_{1-k}.  Growth stops short of an
        index without a usable weight, raising if it is needed."""
        for logs, phs, need, sign in ((self._pos_log, self._pos_ph, hi, 1),
                                      (self._neg_log, self._neg_ph, -lo, -1)):
            if need < len(logs):
                continue
            top = min(max(need, 2 * len(logs)), _NEAR)
            while len(logs) <= top:
                k = np.arange(len(logs), min(len(logs) + _CHUNK, top + 1))
                t = k if sign > 0 else 1 - k
                vals = self.w.at(t).real
                bad = vals == 0.0
                if bad.any():
                    first = int(np.argmax(bad))
                    if k[first] <= need:
                        self.w.weight(int(t[first]))  # raises the rule's own error
                    vals, top = vals[:first], k[first] - 1
                # math.log, not np.log (they differ in the last bit on about one
                # input in 10^4): entries equal a scalar running sum, which
                # cumsum reproduces once the last entry joins the first step
                steps = sign * np.fromiter(map(math.log, memoryview(np.abs(vals))), float,
                                           vals.size)
                # the side's phase table starts at its first negative weight,
                # padded with the 0.0 prefixes before it
                neg = vals < 0
                if len(phs) > 1 or neg.any():
                    phs.extend(itertools.repeat(0.0, len(logs) - len(phs)))
                    tables = ((logs, steps), (phs, np.where(neg, sign * math.pi, 0.0)))
                else:
                    tables = ((logs, steps),)
                for table, step in tables:
                    step[:1] += table[-1]
                    table.frombytes(np.cumsum(step).tobytes())

    def _at(self, m: int) -> tuple[float, float]:
        logs, phs = (self._pos_log, self._pos_ph) if m >= 0 else (self._neg_log, self._neg_ph)
        m = abs(m)
        return logs[m], phs[m] if m < len(phs) else 0.0

    def _sum(self, s: int, e: int) -> tuple[float, float]:
        """(log-sum, phase-sum) over [s, e], e >= s - 1."""
        if max(abs(s), abs(e)) > 2 ** 53:   # past exact float index arithmetic
            raise ValueError("weight product reaches an index beyond 2^53")
        if self._closed:
            self._check(s, e)
            return self._closed_sum(s, e)
        if self._far(s, e):
            return self._gamma.log_sum(s, e)
        self._grow(s - 1, e)
        (l1, p1), (l0, p0) = self._at(e), self._at(s - 1)
        return l1 - l0, p1 - p0

    def _far(self, s: int, e: int) -> bool:
        """Whether a rational product over [s, e] needs the closed form."""
        return not self._closed and max(abs(s - 1), abs(e)) > _NEAR

    def log_abs_many(self, m) -> np.ndarray:
        """L(m), vectorized over a nonempty integer array."""
        m = np.asarray(m, dtype=np.int64)
        lo, hi, up = int(m.min()), int(m.max()), m >= 0
        if self._closed:
            s, e = np.where(up, 1, m + 1), np.where(up, m, 0)
            self._check(min(lo + 1, 1), max(hi, 0))
            logs = self._closed_sum(s, e, vector=True)[0]
            return np.where(up, logs, -logs)
        pos, neg = m > _NEAR, m < -_NEAR
        near = np.where(pos | neg, 0, m)
        # far entries continue the table from L(+-_NEAR), so that the two
        # meet without a step at its edge
        self._grow(-_NEAR if neg.any() else int(near.min()),
                   _NEAR if pos.any() else int(near.max()))
        out = np.where(up, np.frombuffer(self._pos_log)[np.maximum(near, 0)],
                       np.frombuffer(self._neg_log)[np.maximum(-near, 0)])
        for far, edge in ((pos, _NEAR), (neg, -_NEAR)):
            if far.any():
                out[far] = self._at(edge)[0] + self._gamma.log_prefix(m[far], edge)
        return out

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
        short = stop - start < 128
        if short and self._far(start, stop) and max(-start, stop) <= 2 ** 53:
            # a short far product takes the closed form only past [e^-300, e^300]
            prod = self._direct(start, stop)
            if math.exp(-300.0) <= abs(prod) <= math.exp(300.0):
                return prod if sign > 0 else 1.0 / prod
        lm, ph = self._sum(start, stop)
        if short and abs(lm) < 300.0:
            prod = self._direct(start, stop)
            return prod if sign > 0 else 1.0 / prod
        lm, ph = sign * lm, sign * ph + 0.0   # + 0.0: a zero phase stays +0.0
        if lm > _LOG_FLOAT_MAX:
            raise WeightOverflowError(start, stop, lm)
        if lm < math.log(COEFF_GUARD):
            return 0.0 + 0.0j
        if self._far(start, stop):    # the phase is exactly 0 or pi
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
    may first grow its near table, or evaluate its log-gamma closed form for
    indices past it).  T^m e_n reads the m weights w_{n+b}, w_{n+b+a}, ...,
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
