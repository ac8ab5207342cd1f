"""Exact sparse sequence vectors and symbolic shift-type operators.

Vectors live in l^p(N) or l^p(Z) and are stored as finite index -> coefficient
maps, so shift orbits of finitely supported vectors stay finitely supported and
carry no truncation error.  Weight sequences are generator rules (not arrays),
each with one weight-product engine (`WeightPrefix`): short products multiply
directly, long ones come from prefix sums of log-magnitudes (closed forms; a
rational rule tabulates indices up to an edge set by its roots and takes the
rest from Stirling's series), which keeps horizon-10^6 orbits free of silent
overflow.

Every shift is one row (a, b): a displacement a and a weight offset b, with
w_n the weight at index n,

    e_n -> w_{n+b} e_{n+a},

over the index domain of its weights; on the naturals an image below index
0 is dropped.  The named shifts are

    backward unilateral   (-1, 0)   B e_0 = 0,  B e_n = w_n e_{n-1}
    forward unilateral    ( 1, 1)   F e_n = w_{n+1} e_{n+1}
    backward bilateral    (-1, 0)   T e_n = w_n e_{n-1}          (n in Z)
    forward bilateral     ( 1, 0)   S e_n = w_n e_{n+1}          (n in Z)
    diagonal              ( 0, 0)   D e_n = w_n e_n

Each is a single weighted index move; there are no polynomials of shifts.
The adjoint for the bilinear pairing is the transpose, the row (-a, b - a).
Right inverses shift up and divide by the matching weight product of a
backward-type row (a < 0): the operator's own, or its adjoint's for a
forward-type one, so m applications of that row after the m-step right
inverse give the identity, exactly.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "COEFF_GUARD",
    "Domain",
    "SeqVector",
    "WeightSeq",
    "WeightPrefix",
    "WeightOverflowError",
    "ShiftOp",
    "apply",
    "apply_right_inverse",
    "shift_power_apply",
    "adjoint",
    "orbit_norms",
    "lp_norm",
    "p_sum",
    "bilinear_pair",
    "subset_sum_bound_check",
    "SubsetSumReport",
    # reached only through deskbench's tracer, which hooks it by name
    "weight_product",
]

# Canonical sparse form drops coefficients below this magnitude (subnormal
# guard).  This is the only place a coefficient is ever silently lost.
COEFF_GUARD = 1e-300

_LOG_FLOAT_MAX = math.log(1e308)


class Domain(Enum):
    NATURALS = "naturals"
    INTEGERS = "integers"


class WeightOverflowError(ArithmeticError):
    """A weight product left the representable floating range.

    Carries the index range whose product overflowed so callers can report
    the offending term.
    """

    def __init__(self, start: int, stop: int, log_magnitude: float):
        self.start = start
        self.stop = stop
        self.log_magnitude = log_magnitude
        super().__init__(
            f"weight product over indices [{start}, {stop}] has log-magnitude "
            f"{log_magnitude:.3g}, outside floating range"
        )


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeqVector:
    """Finitely supported vector, canonical sparse form.

    `p_exponent` records the ambient norm context; it is not per-entry data.
    """

    entries: dict
    domain: Domain = Domain.NATURALS
    p_exponent: float = 2.0

    def __post_init__(self):
        clean = {}
        for idx, c in self.entries.items():
            c = complex(c)
            if abs(c) < COEFF_GUARD:
                continue
            if self.domain is Domain.NATURALS and idx < 0:
                raise ValueError(f"negative index {idx} in a naturals-domain vector")
            clean[int(idx)] = c
        object.__setattr__(self, "entries", clean)
        if not 1.0 <= self.p_exponent < math.inf:
            raise ValueError("p_exponent must lie in [1, inf)")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain: Domain = Domain.NATURALS, p: float = 2.0) -> "SeqVector":
        return cls({}, domain, p)

    @classmethod
    def basis(cls, n: int, domain: Domain = Domain.NATURALS, p: float = 2.0) -> "SeqVector":
        return cls({n: 1.0 + 0.0j}, domain, p)

    # -- basic queries -----------------------------------------------------

    def coeff(self, n: int) -> complex:
        return self.entries.get(n, 0.0 + 0.0j)

    def support(self) -> tuple:
        return tuple(sorted(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    # -- linear structure --------------------------------------------------

    def add(self, other: "SeqVector") -> "SeqVector":
        if other.domain is not self.domain:
            raise ValueError("cannot add vectors over different index domains")
        out = dict(self.entries)
        for idx, c in other.entries.items():
            out[idx] = out.get(idx, 0.0) + c
        return SeqVector(out, self.domain, self.p_exponent)

    def scale(self, c: complex) -> "SeqVector":
        c = complex(c)
        return SeqVector({i: c * v for i, v in self.entries.items()}, self.domain, self.p_exponent)

    def __add__(self, other: "SeqVector") -> "SeqVector":
        return self.add(other)

    def __sub__(self, other: "SeqVector") -> "SeqVector":
        return self.add(other.scale(-1.0))

    def __rmul__(self, c: complex) -> "SeqVector":
        return self.scale(c)


def lp_norm(v: SeqVector, p: float | None = None) -> float:
    """(sum |c|^p)^(1/p) over the stored entries; exact for finite support."""
    return p_sum([abs(c) for c in v.entries.values()],
                 v.p_exponent if p is None else p)


def p_sum(values: Sequence[float], p: float) -> float:
    """(sum v_i^p)^(1/p) of nonnegative values, as top * (sum (v_i/top)^p)^(1/p)
    with top the largest, so no power overflows or underflows.  The terms are
    added in the order given."""
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    top = max(values, default=0.0)
    if top == 0.0:
        return 0.0
    return top * _left_sum((v / top) ** p for v in values) ** (1.0 / p)


def _left_sum(values) -> float:
    """Floats added left to right from 0, one rounding per term, as the
    builtin sum does up to Python 3.11 (3.12 compensates it)."""
    return functools.reduce(operator.add, values, 0.0)


def bilinear_pair(u: SeqVector, v: SeqVector) -> complex:
    """Duality pairing sum u_n v_n (no conjugation)."""
    if len(v.entries) < len(u.entries):
        return sum(u.coeff(i) * c for i, c in v.entries.items())
    return sum(c * v.coeff(i) for i, c in u.entries.items())


# ---------------------------------------------------------------------------
# weight rules
# ---------------------------------------------------------------------------

def _poly_eval(coeffs: Sequence[float], n: int) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


@dataclass(frozen=True)
class WeightSeq:
    """Rule producing the weight w_n for any requested index, in one of two
    forms.  A closed rule is a table `values` of w_{a+1} .. w_b with one
    level `low` below it and one `high` above it, None meaning no weight
    there: a constant is two equal levels, a step two levels split at a + 1,
    a table its values with the default as both levels.  A rational rule
    has `rational` = (num, den), w_n = P(n)/Q(n) with real coefficients.
    """

    a: int = 0
    values: tuple = ()
    low: complex | None = None
    high: complex | None = None
    rational: tuple | None = None
    domain: Domain = Domain.NATURALS

    @classmethod
    def constant(cls, value: complex, domain: Domain = Domain.NATURALS) -> "WeightSeq":
        return cls(0, (), complex(value), complex(value), domain=domain)

    @classmethod
    def ratio(cls, num: Sequence[float], den: Sequence[float],
              domain: Domain = Domain.NATURALS) -> "WeightSeq":
        return cls(rational=(tuple(map(float, num)), tuple(map(float, den))), domain=domain)

    @classmethod
    def table(cls, values: Sequence[complex], start: int = 1,
              default: complex | None = None,
              domain: Domain = Domain.NATURALS) -> "WeightSeq":
        dv = None if default is None else complex(default)
        return cls(int(start) - 1, tuple(complex(v) for v in values), dv, dv, domain=domain)

    @classmethod
    def step(cls, low: complex, high: complex, split: int = 1,
             domain: Domain = Domain.INTEGERS) -> "WeightSeq":
        return cls(int(split) - 1, (), complex(low), complex(high), domain=domain)

    @property
    def reach(self) -> tuple:
        """(first, last) index with a weight, +-inf where unbounded; the
        naturals' bound and zero weights aside."""
        if self.rational is not None:
            return -math.inf, math.inf
        return (-math.inf if self.low is not None else self.a + 1,
                math.inf if self.high is not None else self.a + len(self.values))

    def weight(self, n: int) -> complex:
        if n < 0 and self.domain is Domain.NATURALS:
            raise ValueError(f"weight index {n} out of the naturals domain")
        if self.rational is None:
            k = n - self.a
            w = self.low if k < 1 else self.high if k > len(self.values) else self.values[k - 1]
            if w is None:
                raise ValueError(f"weight index {n} outside the table range")
        else:
            num, den = self.rational
            d = _poly_eval(den, n)
            if d == 0.0:
                raise ValueError(f"rational weight rule has zero denominator at n={n}")
            w = complex(_poly_eval(num, n) / d)
        if w == 0:
            raise ValueError(f"zero weight encountered at index {n}")
        return w

    @cached_property
    def _levels(self) -> np.ndarray:
        """A closed rule's low level, table and high level as one complex
        array, 0 where there is no weight; built on first use, and no part
        of comparison or hashing."""
        return np.array([self.low or 0.0, *self.values, self.high or 0.0], dtype=complex)

    def at(self, n: np.ndarray) -> np.ndarray:
        """w_n over an integer array n with |n| < 2^62, equal to `weight`'s
        bit for bit, with 0 wherever `weight` raises; a rational rule
        repeats its float steps."""
        if self.rational is None:
            levels, top = self._levels, len(self._levels) - 1
            # a table offset held within 2^62 of 0 picks the same level for
            # every such n, and clipping n before a is taken off keeps every
            # value inside int64
            a = min(max(self.a, -2 ** 62 - top), 2 ** 62)
            vals = levels[np.clip(n, a, a + top) - a]
        else:
            with np.errstate(all="ignore"):
                p, d = (np.broadcast_to(_poly_eval(c, n), n.shape) for c in self.rational)
                vals = np.where(d == 0.0, 0.0, p / d).astype(complex)
        if self.domain is Domain.NATURALS:
            vals[n < 0] = 0.0
        return vals

    def window(self, lo: int, hi: int) -> np.ndarray:
        """w_lo .. w_hi as one complex array (empty when hi < lo), raising
        the rule's own error at the first index without a usable weight."""
        vals = self.at(np.arange(lo, hi + 1))
        if not vals.all():
            self.weight(lo + int(np.argmin(vals != 0)))  # raises the rule's own error
        return vals

    @cached_property
    def prefix(self) -> "WeightPrefix":
        """The rule's weight-product engine, built on first use and shared;
        it takes no part in comparison or hashing."""
        return WeightPrefix(self)


def weight_product(w: WeightSeq, start: int, stop: int) -> complex:
    """w_start * ... * w_stop (empty when stop < start); see `WeightPrefix`."""
    return w.prefix.product(start, stop)


_EDGE_MIN = 1 << 10   # a rational rule's table edge: at least this,
_EDGE_MAX = 1 << 19   # at most this (see `gammaratio.GammaRatio.edge`)
_CHUNK = 1 << 16   # table entries computed per numpy pass


def _log_phase(c: complex | None):
    """(log|c|, phase c), or None when c is not a usable weight."""
    return None if c is None or c == 0 else (math.log(abs(c)), cmath.phase(c))


class WeightPrefix:
    """Cumulative log-magnitudes and phases of one weight rule.

    L(m) = sum_{t=1}^m log|w_t| for m >= 1, L(0) = 0, and
    L(m) = -sum_{t=m+1}^0 log|w_t| for m < 0 on integer-domain rules; the
    phase prefix is defined the same way.  A closed rule's table over the
    indices (a, b] becomes prefix sums, its two levels one log-rate below
    the table and one above it.  L(e) - L(s0), the log-sum over (s0, e]
    when s0 <= e, is then one closed form at any indices: two table lookups
    plus exact signed integer counts times the rates, and no weight outside
    the range is read.  A prefix read L(m) is that form with s0 = 0, for
    every sign of m.  A rational rule whose P or Q vanishes
    has no weight anywhere, and reads as a closed rule with no levels.
    Any other rational rule keeps a table of L(m) for |m| up to its edge,
    grown on demand with numpy; its phase prefix counts negative weights (a
    phase over pi), and a side's phase table is built only from its first
    negative weight on.  The edge is `_EDGE_MIN` until a read reaches past
    it, and from then on `gammaratio.GammaRatio.edge`, worked out from the
    roots of P and Q.  A log-sum over [s, e] is its table part plus, on each
    side, the closed form `GammaRatio.sums` over the indices past the edge,
    taken from the range's own start when that lies past the edge.  Every
    product is one row of an array pass over many ranges, `products`.

    A product over [s, e] of a closed rule carries a relative error of at
    most C * m * eps, with m = max(|s|, |e|) + 1, eps the double-precision
    unit round-off and C a small multiple of 1 + max |log|w_t||: the closed
    forms round a few times on the way to a log-sum of size at most
    m * max |log|w_t||.  A long product p of a rational rule is real, and
    within (2e-14 + 2 |log|p|| eps) |p| of the exact one wherever its range
    lies, when its table part holds up to about 10^4 entries: the table
    keeps the rounding of its running sum apart (compensated summation), and
    the closed form rounds to a few units of its sum.  A longer table part
    adds the rounding of the weights it reads in floats, about eps sqrt(n)
    for n entries at random (2.2e-14 over 5e5).  Prefixes past the edge
    continue the table from L(+-edge), so the two meet without a step.
    Beyond float range a product raises WeightOverflowError; below the
    coefficient guard it flushes to zero.  A rational rule's tables are
    `array('d')`, read in place by numpy.
    """

    def __init__(self, w: WeightSeq):
        self.w = w
        self._pos_log = array("d", [0.0])    # grown L(0), L(1), ... (rational rules)
        self._pos_ph = array("d", [0.0])     # shorter than _pos_log until a weight is < 0
        self._neg_log = array("d", [0.0])    # grown L(0), L(-1), ... (integer domain)
        self._neg_ph = array("d", [0.0])
        self._closed = w.rational is None or not all(map(any, w.rational))
        # the lowest index a read range may start at and meet no unusable
        # weight: 0 or -inf on a closed rule whose table holds no zero and
        # whose levels both exist; None where any range may meet one
        self._usable_from = None
        # indices whose weight is not usable, read only to raise, and a bound:
        # a closed rule's table zeros, a rational rule's as its tables grow
        # and those next to its roots past them
        self._zeros = np.array([np.iinfo(np.int64).max], np.int64)
        if not self._closed:
            return
        # the table offset held within 2^62 of 0, as in `WeightSeq.at`: every
        # index a product reads (|n| <= 2^53 + 1) meets the same level, and
        # every count stays inside int64
        self._a = min(max(w.a, -2 ** 62 - len(w.values)), 2 ** 62)
        self._b = self._a + len(w.values)
        self._low, self._high = _log_phase(w.low), _log_phase(w.high)
        self._add_zeros([self._a + 1 + k for k, v in enumerate(w.values) if v == 0])
        if len(self._zeros) == 1 and self._low is not None and self._high is not None:
            self._usable_from = 0 if w.domain is Domain.NATURALS else -math.inf
        lps = [_log_phase(v) or (0.0, 0.0) for v in w.values]
        low, high = self._low or (0.0, 0.0), self._high or (0.0, 0.0)
        # the log-magnitude part, then the phase part: the table's prefix
        # sums and the rates below and above it (0.0 where there is no level)
        self._parts = [(np.fromiter(itertools.accumulate((lp[k] for lp in lps), initial=0.0),
                                    float), low[k], high[k]) for k in (0, 1)]

    @cached_property
    def _gamma(self):
        # imported on first use: importing seqspace does not load gammaratio
        from .gammaratio import GammaRatio
        gamma = GammaRatio(self.w.rational)
        # past the edge a weight can vanish only next to a root that the
        # series does not serve
        near = (gamma.floors[:, None] + [0, 1]).ravel()
        near = near[np.abs(near) > gamma.edge]
        self._add_zeros(near[self.w.at(near) == 0])
        return gamma

    def _add_zeros(self, n) -> None:
        self._zeros = np.array(sorted({*self._zeros.tolist(), *n}), np.int64)

    def _edge(self, s: np.ndarray, e: np.ndarray) -> int:
        """A rational rule's edge for the ranges [s, e] (int64 arrays), its
        tables grown over their parts inside it."""
        far = max(int(np.abs(s - 1).max(initial=0)), int(np.abs(e).max(initial=0)))
        edge = _EDGE_MIN if far <= _EDGE_MIN else self._gamma.edge
        self._grow(max(int(s.min(initial=1)) - 1, -edge), min(int(e.max(initial=0)), edge), edge)
        return edge

    def _first_unusable(self, s: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Where each range [s, e] (int64 arrays; on a rational rule, tables
        grown by `_edge`) first meets a weight that is not usable, or 2^62."""
        first = self._zeros[np.searchsorted(self._zeros, s)]
        if self._closed and self._high is None:
            first = np.minimum(first, np.maximum(s, self._b + 1))
        if self._closed and self._low is None:
            first = np.where(s <= self._a, s, first)
        if self.w.domain is Domain.NATURALS:
            first = np.where(s < 0, s, first)
        return np.where(first <= e, first, 2 ** 62)

    def _sums(self, s: np.ndarray, e: np.ndarray, edge) -> tuple:
        """(log-sums, phase-sums) over the ranges [s, e] (int64 arrays,
        e >= s - 1) whose every index has a usable weight."""
        if not self._closed:
            (l1, p1), (l0, p0) = (self._near(np.clip(m, -edge, edge)) for m in (e, s - 1))
            lm, ph = l1 - l0, p1 - p0
            # past the edge: indices side * t for x0 <= t < x
            for side, x, x0 in ((1, e + 1, np.maximum(s, edge + 1)),
                                (-1, 1 - s, np.maximum(-e, edge))):
                far = np.flatnonzero(x > x0)
                if len(far):
                    logs, count = self._gamma.sums(x[far], x0[far], side)
                    lm[far] += logs
                    ph[far] += count
            return lm, ph
        return tuple(self._closed_sums(s - 1, e))

    def _closed_sums(self, s0, e):
        """A closed rule's L(e) - L(s0), then its phase prefix's, over int64
        arrays (s0 may be an int) whose ranges meet only usable weights:
        the table's prefix difference plus each level's rate times its
        signed count of indices.  A generator, so that a read of the
        log-sums alone makes no phase pass."""
        a, b = self._a, self._b
        j0, j1 = (np.minimum(np.maximum(x, a), b) - a for x in (s0, e))
        n_low = np.minimum(e, a) - np.minimum(s0, a)
        n_high = np.maximum(e, b) - np.maximum(s0, b)
        for tab, low, high in self._parts:
            yield tab[j1] - tab[j0] + n_low * low + n_high * high

    def _grow(self, lo: int, hi: int, edge: int) -> None:
        """Extend the rational tables to cover L(lo) .. L(hi), with |lo| and
        |hi| at most `edge`, at least doubling a growing table up to it, in
        chunks that keep temporaries small.  Entry k of a side is L(k) or
        L(-k): it adds w_k or subtracts w_{1-k}.  A weight that is not usable
        adds 0 and joins `_zeros`; a naturals rule's side below 0 stops at
        L(-1).  Chunks start at the entries 1 + j * _CHUNK, and a growth
        first drops the entries of a chunk it left part built, so every
        entry is the same whatever reads grew the table before."""
        below = -lo if self.w.domain is Domain.INTEGERS else min(-lo, 1)
        for logs, phs, need, sign in ((self._pos_log, self._pos_ph, hi, 1),
                                      (self._neg_log, self._neg_ph, below, -1)):
            if need < len(logs):
                continue
            top = min(max(need, 2 * len(logs)), edge)
            start = 1 + (len(logs) - 1) // _CHUNK * _CHUNK
            del logs[start:], phs[start:]
            while len(logs) <= top:
                k = np.arange(len(logs), min(len(logs) + _CHUNK, top + 1))
                t = k if sign > 0 else 1 - k
                vals = self.w.at(t).real
                bad = vals == 0.0
                if bad.any():
                    self._add_zeros(t[bad].tolist())
                    vals[bad] = 1.0
                # math.log, as `_log_phase` reads a closed rule's weights, not
                # np.log (they differ in the last bit on about one input in 10^4)
                steps = sign * np.fromiter(map(math.log, memoryview(np.abs(vals))), float,
                                           vals.size)
                # a running sum from the last entry, each addition's rounding
                # error (Knuth's TwoSum) summed apart and added back
                run = np.cumsum(np.append(logs[-1], steps))
                prev, run = run[:-1], run[1:]
                moved = run - prev
                run += np.cumsum((prev - (run - moved)) + (steps - moved))
                logs.frombytes(run.tobytes())
                # the side's phase table, a count, starts at its first negative
                # weight, padded with the 0.0 prefixes before it
                neg = vals < 0
                if len(phs) > 1 or neg.any():
                    phs.extend(itertools.repeat(0.0, len(logs) - len(phs) - len(vals)))
                    phs.frombytes(np.cumsum(np.append(phs[-1], sign * neg))[1:].tobytes())

    def log_abs_many(self, m) -> np.ndarray:
        """L(m), vectorized over a nonempty integer array."""
        shape, m = np.shape(m), np.asarray(m, dtype=np.int64).ravel()
        s, e = np.array([min(int(m.min()), 0) + 1]), np.array([max(int(m.max()), 0)])
        edge = None if self._closed else self._edge(s, e)
        if self._usable_from is None or s[0] < self._usable_from:
            first = int(self._first_unusable(s, e)[0])
            if first < 2 ** 62:
                self.w.weight(first)  # raises the rule's own error
        if self._closed:
            return next(self._closed_sums(0, m)).reshape(shape)
        up = m >= 0
        logs = self._sums(np.where(up, 1, m + 1), np.where(up, m, 0), edge)[0]
        return np.where(up, logs, -logs).reshape(shape)

    def product(self, start: int, stop: int) -> complex:
        """w_start * ... * w_stop (empty when stop < start), one row of `products`."""
        return 1.0 + 0.0j if stop < start else self._row(start, stop, 1)

    def inverse_product(self, start: int, stop: int) -> complex:
        """1 / (w_start * ... * w_stop): one row of `products`."""
        return 1.0 + 0.0j if stop < start else self._row(start, stop, -1)

    def _row(self, start: int, stop: int, sign: int) -> complex:
        """One row of `products` as a Python complex, its error raised."""
        vals, errors = self.products(*_held(np.array([[start], [stop]], object)), sign)
        if errors:
            raise errors[0]
        return vals.tolist()[0]

    def products(self, start: np.ndarray, stop: np.ndarray, sign: int) -> tuple:
        """w_start[i] * ... * w_stop[i] (sign 1) or its reciprocal (sign -1)
        over int64 arrays with stop >= start, in one read of the tables:
        (values, errors), values[i] 0 where the row raises errors[i].

        A short product (under 128 factors) with a log-sum inside (-300,
        300) multiplies its weights in order from 1, one running product
        per distinct start.  Any other is math.exp of its log-sum, with its
        phase by cmath.rect (a rational one is real), raising
        WeightOverflowError past float range and 0 below the coefficient
        guard; a reciprocal is Python's complex division.  A range past
        2^53 raises ValueError, one through a weight that is not usable the
        rule's own error at the lowest such index.
        """
        R = len(start)
        out, errors, lm, ph = np.zeros(R, complex), {}, np.zeros(R), np.zeros(R)
        live = np.maximum(np.abs(start), np.abs(stop)) <= 2 ** 53
        for i in np.flatnonzero(~live).tolist():
            errors[i] = ValueError("weight product reaches an index beyond 2^53")
        edge = None if self._closed else self._edge(start[live], stop[live])
        first = np.full(R, 2 ** 62)
        first[live] = self._first_unusable(start[live], stop[live])
        for i in np.flatnonzero(first < 2 ** 62).tolist():
            try:
                self.w.weight(int(first[i]))  # raises the rule's own error
            except ValueError as exc:
                errors[i], live[i] = exc, False
        lm[live], ph[live] = self._sums(start[live], stop[live], edge)
        take = np.flatnonzero(live & (stop - start < 128) & (np.abs(lm) < 300.0))
        direct = self._running_products(start[take], stop[take])
        out[take] = direct if sign > 0 else np.fromiter(
            map(operator.truediv, itertools.repeat(1.0), direct.tolist()), complex, len(take))
        live[take] = False
        rows = np.flatnonzero(live)
        lm, ph = sign * lm[rows], sign * ph[rows] + 0.0   # + 0.0: a zero phase stays +0.0
        over = lm > _LOG_FLOAT_MAX
        for i, v in zip(rows[over].tolist(), lm[over].tolist()):
            errors[i] = WeightOverflowError(int(start[i]), int(stop[i]), v)
        ok = ~over & ~(lm < math.log(COEFF_GUARD))
        rows, lm, ph = rows[ok], lm[ok], ph[ok]
        mag = np.fromiter(map(math.exp, lm.tolist()), float, len(rows))
        if self._closed:
            out[rows] = np.fromiter(map(cmath.rect, mag.tolist(), ph.tolist()), complex,
                                    len(rows))
        else:
            out[rows] = np.where(ph % 2 != 0, -mag, mag)
        return out, errors

    def _near(self, m: np.ndarray) -> tuple:
        """(L(m), phase prefix) of a rational rule over an int64 array inside
        the grown table."""
        pos, neg = np.frombuffer(self._pos_log), np.frombuffer(self._neg_log)
        logs = np.where(m >= 0, pos[np.clip(m, 0, len(pos) - 1)],
                        neg[np.clip(-m, 0, len(neg) - 1)])
        phs = np.zeros(len(m))
        for table, at in ((self._pos_ph, m), (self._neg_ph, -m)):
            inside = (at >= 0) & (at < len(table))
            phs[inside] = np.frombuffer(table)[at[inside]]
        return logs, phs

    def _running_products(self, s: np.ndarray, e: np.ndarray) -> np.ndarray:
        """w_s * ... * w_e (under 128 factors) multiplied in index order from
        1, one running product per distinct start, the weights read by
        `WeightSeq.at` (0 where not usable) about 1024 at a time."""
        out, m = np.empty(len(s), complex), e - s + 1
        # distinct starts sorted by Python, not np.unique, whose sort kernels
        # add about 0.3 MB of resident code to a run that loads no other
        starts = np.array(sorted(set(s.tolist())), np.int64)
        inv = np.searchsorted(starts, s)
        width = int(m.max(initial=1))
        chunk = 1024 // width
        for j in range(0, len(starts), chunk):
            rows = np.flatnonzero(inv // chunk == j // chunk)
            runs = np.array([list(itertools.accumulate(ws, operator.mul, initial=1.0 + 0.0j))
                             for ws in self.w.at(starts[j:j + chunk, None]
                                                 + np.arange(width)).tolist()])
            out[rows] = runs[inv[rows] - j, m[rows]]
        return out


def _held(x: np.ndarray) -> np.ndarray:
    """Python ints (an object array) held within 2^62 of 0, as int64: past
    2^53 a weight product only raises.  An int64 array is kept as it is."""
    return x if x.dtype == np.int64 else np.clip(x, -2 ** 62, 2 ** 62).astype(np.int64)


# ---------------------------------------------------------------------------
# shift operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftOp:
    """The weighted shift e_n -> w_{n+offset} e_{n+displacement}, over the
    index domain of its weights; on the naturals an image below index 0 is
    dropped.  The constructors name the rows of the module docstring."""

    weights: WeightSeq
    displacement: int
    offset: int

    def __post_init__(self):
        if self.displacement not in (-1, 0, 1):
            raise ValueError("a shift moves each index by at most one")

    # -- constructors ------------------------------------------------------

    @classmethod
    def backward(cls, w: WeightSeq) -> "ShiftOp":
        return cls(_unilateral(w), -1, 0)

    @classmethod
    def forward(cls, mu: WeightSeq) -> "ShiftOp":
        return cls(_unilateral(mu), 1, 1)

    @classmethod
    def bilateral_backward(cls, a: WeightSeq) -> "ShiftOp":
        return cls(_bilateral(a), -1, 0)

    @classmethod
    def bilateral_forward(cls, b: WeightSeq) -> "ShiftOp":
        return cls(_bilateral(b), 1, 0)

    @classmethod
    def diagonal(cls, lam: WeightSeq) -> "ShiftOp":
        return cls(lam, 0, 0)

    @property
    def domain(self) -> Domain:
        return self.weights.domain

    def lowest_source(self, m: int = 1):
        """The lowest index whose image under the m-th power is kept: on the
        naturals both n and n + m * displacement are >= 0; on the integers
        there is none (-inf)."""
        if self.domain is Domain.NATURALS:
            return max(0, -m * self.displacement)
        return -math.inf


def _unilateral(w: WeightSeq) -> WeightSeq:
    if w.domain is not Domain.NATURALS:
        raise ValueError("unilateral shifts need naturals-domain weights")
    return w


def _bilateral(w: WeightSeq) -> WeightSeq:
    if w.domain is not Domain.INTEGERS:
        raise ValueError("bilateral shifts need integer-domain weights")
    return w


def _check_domains(op: ShiftOp, v: SeqVector) -> None:
    if op.domain is not v.domain:
        raise ValueError(
            f"operator over {op.domain.value} applied to a {v.domain.value} vector"
        )


def apply(op: ShiftOp, v: SeqVector) -> SeqVector:
    """Exact image of v under a single application of op."""
    _check_domains(op, v)
    weight, a, b, low = op.weights.weight, op.displacement, op.offset, op.lowest_source()
    out: dict = {}
    for n, c in v.entries.items():
        if n >= low:
            t = n + a
            out[t] = out.get(t, 0.0) + weight(n + b) * c
    return SeqVector(out, v.domain, v.p_exponent)


def apply_right_inverse(op: ShiftOp, v: SeqVector, m: int) -> SeqVector:
    """m-step right inverse e_n -> e_{n+m} / (w_{n+1+b} ... w_{n+m+b}) of the
    backward-type row (-1, b): op's own, or its adjoint's for a forward-type
    op.  m applications of that row afterwards restore v exactly.  Diagonals
    invert entrywise with overflow guarded.
    """
    _check_domains(op, v)
    if m < 0:
        raise ValueError("m must be a natural number")
    return _jump_row(op, False, v, m)


def shift_power_apply(op: ShiftOp, v: SeqVector, m: int) -> SeqVector:
    """T^m v in one jump via the rule's weight-product engine.

    Equivalent to applying `apply` m times, in one `WeightPrefix.products`
    read (a rational rule may first grow its table, and evaluate its closed
    form for indices past the table's edge).  T^m e_n reads the m
    weights w_{n+b}, w_{n+b+a}, ..., w_{n+b+(m-1)a} of the row (a, b).
    """
    _check_domains(op, v)
    if m < 0:
        raise ValueError("m must be a natural number")
    return _jump_row(op, True, v, m)


def _jump_row(op: ShiftOp, jump: bool, v: SeqVector, m: int) -> SeqVector:
    """The one row of `_jump_rows` for v and m, or its error raised."""
    _, idx, re, im, errors = _jump_rows(op, jump, np.array([int(m)], object),
                                        np.array([len(v.entries)]),
                                        np.array(list(v.entries), object),
                                        np.array(list(v.entries.values()), complex))
    if errors:
        raise errors[0]
    return SeqVector(dict(zip(idx.tolist(), map(complex, re.tolist(), im.tolist()))),
                     v.domain, v.p_exponent)


def _jump_rows(op: ShiftOp, jump: bool, e: np.ndarray, size: np.ndarray, n: np.ndarray,
               c: np.ndarray) -> tuple:
    """The inverse points (jump False) or the jumps T^m (jump True) of op
    over rows given flat: row r applies the exponent e[r] to the size[r]
    target entries (indices n, an int64 or object array, coefficients c)
    that follow those of the rows before it.  Returns (size, idx, re, im,
    errors): the images laid out the same way (idx Python ints in an object
    array where an index, exponent or offset passes 2^53), and errors[r]
    the error of the first entry of row r that raised, which leaves the row
    empty.

    Every inverse point and jump is formed here.  On the naturals a jump
    drops the entries whose image falls below index 0.  The entries of the
    shift rows take one `WeightPrefix.products` read over their weight
    ranges (ends past 2^53 held within 2^62 of 0, where it raises), those of
    diagonal rows `_power` one by one.  A coefficient is coeff * c by
    Python's complex product, 0.0 + that for a jump as its dict adds it,
    kept where it (coeff, for an inverse point) is not 0 and it is not
    below the coefficient guard.  A row with e = 0 is its target unchanged.
    """
    a, R = op.displacement, len(size)
    wide = max(abs(op.offset), np.abs(n).max(initial=0), np.abs(e).max(initial=0)) > 2 ** 53
    # exact either way: within 2^53 no sum below leaves int64
    n, e = (x.astype(object if wide else np.int64) for x in (n, e))
    row = np.repeat(np.arange(R), size)
    if jump and op.domain is Domain.NATURALS:
        keep = n >= np.maximum(0, -e * a)[row]
        row, n, c = row[keep], n[keep], c[keep]
    m = e[row]
    go = np.flatnonzero(m != 0)
    coeff, errs = np.ones(len(n), complex), {}
    if a:
        first = op.offset + (m[go] - 1) * min(a, 0) if jump else \
            1 + (op.offset if a < 0 else adjoint(op).offset)
        start = n[go] + first
        coeff[go], errs = op.weights.prefix.products(_held(start), _held(start + m[go] - 1),
                                                     1 if jump else -1)
    else:
        for i, (t, k) in enumerate(zip(n[go].tolist(), m[go].tolist())):
            try:
                coeff[go[i]] = _power(op.weights, t + op.offset, k if jump else -k)
            except (ArithmeticError, ValueError) as exc:
                errs[i] = exc
    vals = c.copy()
    vals[go] = np.fromiter(map(operator.mul, coeff[go].tolist(), c[go].tolist()), complex,
                           len(go))
    if jump:
        vals[go] = 0.0 + vals[go]    # the jump's dict adds each value to 0.0
    errors: dict = {}
    for i in sorted(errs):
        errors.setdefault(int(row[go[i]]), errs[i])
    failed = np.zeros(R, bool)
    failed[list(errors)] = True
    keep = ((vals if jump else coeff) != 0) & ~(np.hypot(vals.real, vals.imag) < COEFF_GUARD) \
        & ~failed[row]
    tgt = n + m * (a if jump else abs(a))
    return np.bincount(row[keep], minlength=R), tgt[keep], vals.real[keep], vals.imag[keep], errors


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


def adjoint(op: ShiftOp) -> ShiftOp:
    """The transpose, for the bilinear pairing: the row (-a, b - a) sends
    e_{n+a} to w_{n+b} e_n."""
    return ShiftOp(op.weights, -op.displacement, op.offset - op.displacement)


# (step, entry) cells of one orbit block: its temporaries peak at 0.7-0.9 MB
# (tracemalloc, on 401 entries and on one)
_ORBIT_CELLS = 1 << 13


def orbit_norms(op: ShiftOp, x0: SeqVector, horizon: int,
                stride_exponent: int = 1) -> list:
    """Rows (n, ||T^n x0||_p, support size of T^n x0) at the times
    n = k^s <= horizon, s the stride exponent and p that of x0, after
    taking all `horizon` steps.

    Each row equals that of applying `apply` step by step and taking
    `lp_norm` of the recorded points, bit for bit.  A weight a step needs
    and does not have raises the rule's own error, and a norm that is not
    finite raises, each at the first step that meets it (a step reads its
    weights before its norm is taken).
    The steps run in blocks of at most `_ORBIT_CELLS` (step, entry) cells:
    one `WeightSeq.at` read of the weights the block's steps use, running
    products along the steps (`_block_products`), an entry dropped for good
    at the step where it falls off the bottom or below COEFF_GUARD, and
    norms only at the recorded times (`_p_sums`).
    """
    _check_domains(op, x0)
    if horizon < 1 or stride_exponent < 1:
        raise ValueError("horizon and stride exponent must be >= 1")
    far = max(x0.entries, key=abs, default=0)
    if abs(far) + horizon + 1 >= 2 ** 62:    # the reach of `at`'s int64 indices
        raise ValueError(f"orbit indices reach past 2^62 from the start index {far}")
    times = _clock(horizon, stride_exponent)
    w, a, b, low = op.weights, op.displacement, op.offset, op.lowest_source()
    idx = np.fromiter(x0.entries, np.int64, len(x0))
    coeffs = np.array(list(x0.entries.values()), complex)
    re, im = coeffs.real, coeffs.imag
    rows, step = [], 0
    with np.errstate(all="ignore"):
        while step < horizon and len(idx):
            S = min(max(1, _ORBIT_CELLS // len(idx)), horizon - step)
            src = idx + a * np.arange(S)[:, None]    # [i, j]: entry j's index before step i
            wts = w.at(src + b)
            RE, IM = _block_products(wts, re, im)
            mag = np.hypot(RE, IM)                   # abs(complex) bit for bit
            on = src >= low
            alive = np.logical_and.accumulate(on & ~(mag < COEFF_GUARD), axis=0)
            missing = (wts == 0) & on
            missing[1:] &= alive[:-1]
            stop = int(missing.argmax()) // len(idx) if missing.any() else S
            lo, hi = np.searchsorted(times, [step + 1, step + stop + 1])
            i = times[lo:hi] - step - 1
            norms = _p_sums(np.where(alive[i], mag[i], 0.0).T, x0.p_exponent)
            bad = np.flatnonzero(~np.isfinite(norms))
            if len(bad):
                raise ValueError(f"the orbit norm at step {times[lo + bad[0]]} is "
                                 f"{norms[bad[0]]}, not finite")
            rows += zip(times[lo:hi].tolist(), norms.tolist(),
                        np.count_nonzero(alive[i], axis=1).tolist())
            if stop < S:
                w.weight(int(src[stop, missing[stop].argmax()]) + b)  # raises the rule's own error
            keep = alive[-1]
            idx, re, im = src[-1, keep] + a, RE[-1, keep], IM[-1, keep]
            step += S
    rows += ((t, 0.0, 0) for t in times[len(rows):].tolist())    # an empty point stays empty
    return rows


def _clock(horizon: int, s: int) -> np.ndarray:
    """The times k^s <= horizon, k = 1, 2, ...; no power past the horizon
    is taken, so a large s costs nothing."""
    k = 1
    if s < horizon.bit_length():    # otherwise 2^s > horizon
        k = int(horizon ** (1.0 / s))
        while k ** s > horizon:
            k -= 1
        while (k + 1) ** s <= horizon:
            k += 1
    return np.arange(1, k + 1, dtype=np.int64) ** s


def _block_products(wts: np.ndarray, re: np.ndarray, im: np.ndarray) -> tuple:
    """The parts (RE, IM)[i] of the coefficients re + 1j im after the
    block's step i: times the weights wts[0] .. wts[i] one step after the
    other, in Python's complex product.

    Real weights scale re and im apart, as two running products; Python's
    product differs from that only once a part is not finite (0 * inf), and
    the modulus of such an entry stays inf or nan either way.  Complex
    weights take one running Python product per entry (c w: the real
    products cr wr - ci wi, cr wi + ci wr of `apply`'s w c), not numpy's
    complex product, which differs from it in the last bit.
    """
    S, E = wts.shape
    if not wts.imag.any():
        return tuple(np.multiply.accumulate(np.vstack([part, wts.real]), axis=0)[1:]
                     for part in (re, im))
    run = np.empty((S + 1, E), complex)
    run[0].real, run[0].imag = re, im
    run[1:] = wts
    run = np.array([list(itertools.accumulate(col, operator.mul))
                    for col in run.T.tolist()]).T[1:]
    return run.real, run.imag


def _p_sums(V: np.ndarray, p: float) -> np.ndarray:
    """`p_sum` of each column of V, V[c, u] the c-th value of column u (0.0
    in the place of an absent value, which changes no sum), in its float
    steps: top the column's largest, each (v / top) ** p by Python's pow,
    not np.power, the values added one row of V after the other, which is
    list order, then top * pow(sum, 1 / p), which overflows to inf as
    Python's float product does, without a warning.  V is overwritten."""
    top = V.max(axis=0)
    nz = V != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        V /= top
    V[nz] = np.fromiter(map(pow, memoryview(V[nz]), itertools.repeat(p)), float,
                        np.count_nonzero(nz))
    s = _left_sum(V)
    with np.errstate(over="ignore"):
        d = top * np.fromiter(map(pow, memoryview(s), itertools.repeat(1.0 / p)), float,
                              len(s))
    return np.where(top == 0.0, 0.0, d)


# ---------------------------------------------------------------------------
# the factor-4 subset bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetSumReport:
    lhs: float
    rhs: float
    holds: bool
    sup_abs_lambda: float
    sup_subset_norm: float


def subset_sum_bound_check(xs: Sequence[SeqVector], lambdas: Sequence[complex],
                           F: Sequence[int]) -> SubsetSumReport:
    """Check ||sum_{n in F} lambda_n x_n|| <= 4 sup|lambda| sup_{G <= F} ||sum_G x_n||.

    The right-hand supremum enumerates all 2^|F| subsets (Gray-code walk with
    an incrementally maintained power sum), so |F| is capped at 20.  The walk
    runs on the coefficients scaled by the exact 2^-e that brings the largest
    into [1/2, 1), so no power overflows.
    """
    F = list(F)
    if len(F) > 20:
        raise ValueError("|F| > 20: exhaustive subset enumeration refused")
    if not F:
        return SubsetSumReport(0.0, 0.0, True, 0.0, 0.0)
    p = xs[F[0]].p_exponent
    domain = xs[F[0]].domain

    weighted = SeqVector.zero(domain, p)
    for n in F:
        weighted = weighted.add(xs[n].scale(lambdas[n]))
    lhs = lp_norm(weighted, p)
    sup_lam = max(abs(lambdas[n]) for n in F)

    top = max((abs(c) for n in F for c in xs[n].entries.values()), default=0.0)
    e = math.frexp(top)[1]
    scaled = {n: [(idx, complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)))
                  for idx, c in xs[n].entries.items()] for n in F}
    # Gray-code walk over subsets: one vector flips per step, and the running
    # sum-of-|c|^p is patched only at the touched indices.
    cur: dict = {}
    power_sum = 0.0
    sup_norm = 0.0  # includes the empty subset
    for step in range(1, 2 ** len(F)):
        bit = (step & -step).bit_length() - 1
        flip = F[bit]
        sign = 1.0 if ((step ^ (step >> 1)) >> bit) & 1 else -1.0
        for idx, c in scaled[flip]:
            old = cur.get(idx, 0.0 + 0.0j)
            new = old + sign * c
            power_sum += abs(new) ** p - abs(old) ** p
            if new == 0:
                cur.pop(idx, None)
            else:
                cur[idx] = new
        if power_sum > 0.0:
            sup_norm = max(sup_norm, power_sum ** (1.0 / p))
    sup_norm = math.ldexp(sup_norm, e)

    rhs = 4.0 * sup_lam * sup_norm
    return SubsetSumReport(lhs, rhs, lhs <= rhs + 1e-12, sup_lam, sup_norm)
