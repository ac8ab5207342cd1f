"""Numeric checkers for the weight conditions behind frequent-orbit results.

Every proposition of the form "for all i, j and uniformly in r >= 0 the
weight products grow / decay / sum" is finitized onto a CheckGrid: index
ranges for i and j, offsets r <= r_max, window depth n_max, and the clock
exponent q.  Each checker returns a Verdict that either certifies the
condition on the grid (with the extremal margin) or exhibits a concrete
witness (i, j, r, n, value).

Products of weights are read off each rule's `WeightPrefix`, so a whole
(i, j, r) slice costs one vectorized pass; clock indices beyond 2^53, where
int64 clock arithmetic and float index arithmetic stop being exact, are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .seqspace import Domain, WeightSeq

__all__ = [
    "CheckGrid",
    "Verdict",
    "VerdictStatus",
    "Witness",
    "check_unilateral_growth",
    "check_bilateral_growth_decay",
    "check_schatten_summability",
    "check_diagonal_forward_summability",
]


class VerdictStatus(Enum):
    SATISFIED_ON_GRID = "satisfied_on_grid"
    VIOLATED_WITH_WITNESS = "violated_with_witness"


@dataclass(frozen=True)
class Witness:
    i: int | None
    j: int | None
    r: int | None
    n: int | None
    value: float


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    condition: str
    witness: Witness | None = None
    margin: float | None = None

    def __post_init__(self):
        if self.status is VerdictStatus.VIOLATED_WITH_WITNESS and self.witness is None:
            raise ValueError("a violation verdict must carry a witness")
        if self.status is VerdictStatus.SATISFIED_ON_GRID and self.margin is None:
            raise ValueError("a satisfied verdict must carry its margin")

    @property
    def satisfied(self) -> bool:
        return self.status is VerdictStatus.SATISFIED_ON_GRID

    def as_json_dict(self) -> dict:
        out = {"status": self.status.value, "condition": self.condition}
        if self.witness is not None:
            out["witness"] = {
                "i": self.witness.i, "j": self.witness.j,
                "r": self.witness.r, "n": self.witness.n,
                "value": self.witness.value,
            }
        if self.margin is not None:
            out["margin"] = self.margin
        return out


@dataclass(frozen=True)
class CheckGrid:
    i_range: tuple
    j_range: tuple
    r_max: int = 32
    n_max: int = 512
    q: int = 1
    growth_threshold: float = math.log(1e6)
    tail_tolerance: float = 1e-2

    def __post_init__(self):
        object.__setattr__(self, "i_range", tuple(int(v) for v in self.i_range))
        object.__setattr__(self, "j_range", tuple(int(v) for v in self.j_range))
        if not self.i_range or not self.j_range:
            raise ValueError("index ranges must be nonempty")
        if self.n_max < 8:
            raise ValueError("n_max must be >= 8")
        if self.r_max < 0 or self.q < 1:
            raise ValueError("r_max must be >= 0 and q >= 1")
        # n_max >= 8 and 8^54 > 2^53, so a larger q needs no larger power
        top = ((self.n_max + self.r_max) ** min(self.q, 54) + max(map(abs, self.i_range))
               + max(map(abs, self.j_range)))
        if top > 2 ** 53:
            raise ValueError(f"clock index (n_max + r_max)^q with q = {self.q}, "
                             f"n_max = {self.n_max}, r_max = {self.r_max} exceeds 2^53")

    @classmethod
    def unilateral_default(cls, q: int = 1) -> "CheckGrid":
        return cls(tuple(range(0, 5)), tuple(range(0, 5)), q=q)

    @classmethod
    def bilateral_default(cls, q: int = 1) -> "CheckGrid":
        return cls(tuple(range(-4, 5)), tuple(range(-4, 5)), q=q)

    def refined(self, r_max: int | None = None, n_max: int | None = None) -> "CheckGrid":
        return CheckGrid(self.i_range, self.j_range,
                         r_max if r_max is not None else self.r_max,
                         n_max if n_max is not None else self.n_max,
                         self.q, self.growth_threshold, self.tail_tolerance)


class _LogTable:
    """The checkers' view of a rule's prefix L(m) (see `WeightPrefix`),
    range-checked to m in [lo - 1, hi]."""

    def __init__(self, w: WeightSeq, lo: int, hi: int):
        if lo < 0 and w.domain is not Domain.INTEGERS:
            raise ValueError("negative indices on a naturals-domain rule")
        self.lo, self.hi = lo, hi
        self._prefix = w.prefix

    def prefix(self, m) -> np.ndarray:
        """L(m), vectorized over an integer array with entries in [lo-1, hi]."""
        m = np.asarray(m)
        if np.any(m < self.lo - 1) or np.any(m > self.hi):
            raise ValueError("prefix index escapes the prepared table")
        return self._prefix.log_abs_many(m)


def _clock_indices(grid: CheckGrid, r: int) -> np.ndarray:
    """(n + r)^q - r^q for n = 1..n_max."""
    n = np.arange(1, grid.n_max + 1, dtype=np.int64)
    return (n + r) ** grid.q - r ** grid.q


def _clock_slices(grid: CheckGrid, Lw: _LogTable, Lmu: _LogTable, anchored: bool,
                  first: int = 1):
    """(r, i, j, vals) per grid cell, with vals[n - first] for n = first..n_max
    the log of w_1..w_{M+i} * mu_1..mu_{M+j}, or with `anchored` the log of
    the products over (i, i + M] and (j, j + M], where M = (n+r)^q - r^q."""
    for r in range(0, grid.r_max + 1):
        M = _clock_indices(grid, r)[first - 1:]
        lj = [(Lmu.prefix(M + j), Lmu.prefix(j) if anchored else 0.0) for j in grid.j_range]
        for i in grid.i_range:
            li = Lw.prefix(M + i) - (Lw.prefix(i) if anchored else 0.0)
            for j, (lmj, lj0) in zip(grid.j_range, lj):
                yield r, i, j, li + lmj - lj0


def _tail_slices(grid: CheckGrid, Lw: _LogTable, Lmu: _LogTable):
    """(r, n, i, j, vals) over the deep-tail region ceil(r_max / 2) <= n <= r:
    vals is the log of the backward products over (i - e, i] and (j - e, j]
    with e = r^q - (r - n)^q."""
    n_tail = max(1, (grid.r_max + 1) // 2)
    for r in range(n_tail, grid.r_max + 1):
        n = np.arange(n_tail, r + 1, dtype=np.int64)
        e = r ** grid.q - (r - n) ** grid.q
        lj = [(Lmu.prefix(np.full_like(e, j)), Lmu.prefix(j - e)) for j in grid.j_range]
        for i in grid.i_range:
            li = Lw.prefix(np.full_like(e, i)) - Lw.prefix(i - e)
            for j, (lj0, lje) in zip(grid.j_range, lj):
                yield r, n, i, j, li + lj0 - lje


def _growth_verdict(condition: str, grid: CheckGrid, slices) -> Verdict:
    """Every slice's log-product at n = n_max clears `growth_threshold`, and
    its top quartile in n is nondecreasing."""
    margin = math.inf
    quart = 3 * grid.n_max // 4
    for r, i, j, vals in slices:
        end = float(vals[-1])
        if end <= grid.growth_threshold:
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(i, j, r, grid.n_max, end))
        diffs = np.diff(vals[quart:])
        bad = np.nonzero(diffs < -1e-12)[0]
        if bad.size:
            n_bad = quart + int(bad[0]) + 2   # 1-based n of the decrease
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(i, j, r, n_bad, float(vals[n_bad - 1])))
        margin = min(margin, end - grid.growth_threshold)
    return Verdict(VerdictStatus.SATISFIED_ON_GRID, condition, margin=margin)


def check_unilateral_growth(w: WeightSeq, mu: WeightSeq, grid: CheckGrid) -> Verdict:
    """Products w_1..w_{M+i} * mu_1..mu_{M+j} with M = (n+r)^q - r^q must grow
    without bound, uniformly over the grid.

    Finitized as: for every (i, j, r) the log-product at n = n_max clears
    `growth_threshold`, and the top quartile in n is nondecreasing.
    """
    if min(grid.i_range) < 0 or min(grid.j_range) < 0:
        raise ValueError("unilateral growth uses nonnegative index shifts")
    top = (grid.n_max + grid.r_max) ** grid.q + max(max(grid.i_range), max(grid.j_range), 0)
    slices = _clock_slices(grid, _LogTable(w, 0, top), _LogTable(mu, 0, top), False)
    return _growth_verdict("unilateral_growth", grid, slices)


def check_bilateral_growth_decay(a: WeightSeq, b: WeightSeq, grid: CheckGrid) -> Verdict:
    """Two-sided condition for bilateral pairs.

    Forward side: products over (i, i + M] and (j, j + M] grow past the
    threshold (M on the clock as above, i and j may be negative).  Backward
    side: products over (i - e, i] and (j - e, j] with e = r^q - (r-n)^q
    must be small in the deep-tail region n >= ceil(r_max / 2), below
    `tail_tolerance`.
    """
    condition = "bilateral_growth_and_decay"
    span = (grid.n_max + grid.r_max) ** grid.q
    pad = max(map(abs, grid.i_range)) + max(map(abs, grid.j_range))
    La = _LogTable(a, -span - pad, span + pad)
    Lb = _LogTable(b, -span - pad, span + pad)
    growth = _growth_verdict(condition, grid, _clock_slices(grid, La, Lb, True))
    if not growth.satisfied:
        return growth
    # backward decay in the deep-tail region
    log_tol = math.log(grid.tail_tolerance)
    margin_decay = math.inf
    for r, n, i, j, vals in _tail_slices(grid, La, Lb):
        worst = int(np.argmax(vals))
        if float(vals[worst]) >= log_tol:
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(i, j, r, int(n[worst]),
                                   math.exp(min(float(vals[worst]), 700.0))))
        margin_decay = min(margin_decay, log_tol - float(vals[worst]))
    return Verdict(VerdictStatus.SATISFIED_ON_GRID, condition,
                   margin=min(growth.margin, margin_decay))


def check_schatten_summability(w: WeightSeq, mu: WeightSeq, p: float,
                               grid: CheckGrid) -> Verdict:
    """Tail sums sum_{n >= N} |w_1..w_{M+i} mu_1..mu_{M+j}|^{-p} with
    N = n_max/2 must fall below `tail_tolerance` for every (i, j, r).

    For integer-domain rules the backward products over (i-e, i], (j-e, j]
    are additionally p-summed over n in the deep-tail region and held to the
    same tolerance (the two-sided summability needed on Z).
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    condition = f"schatten_{p}_summability"
    bilateral = w.domain is Domain.INTEGERS
    span = (grid.n_max + grid.r_max) ** grid.q
    pad = max(map(abs, grid.i_range)) + max(map(abs, grid.j_range))
    lo = -span - pad if bilateral else 0
    Lw = _LogTable(w, lo, span + pad)
    Lmu = _LogTable(mu, lo, span + pad)
    N = grid.n_max // 2
    margin = math.inf
    for r, i, j, vals in _clock_slices(grid, Lw, Lmu, bilateral, first=N):
        tail = float(np.exp(-p * vals).sum())
        if tail >= grid.tail_tolerance:
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(i, j, r, N, tail))
        margin = min(margin, grid.tail_tolerance - tail)
    for r, n, i, j, vals in _tail_slices(grid, Lw, Lmu) if bilateral else ():
        tail = float(np.exp(p * vals).sum())
        if tail >= grid.tail_tolerance:
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(i, j, r, int(n[0]), tail))
        margin = min(margin, grid.tail_tolerance - tail)
    return Verdict(VerdictStatus.SATISFIED_ON_GRID, condition, margin=margin)


def check_diagonal_forward_summability(lam: WeightSeq, mu: WeightSeq, p: float,
                                       grid: CheckGrid,
                                       lam_count: int | None = None) -> Verdict:
    """Diagonal-plus-forward pair: every |lam_j| >= 1, and the inverse
    mu-products are p-summable in the tail, uniformly over i and r.

    `lam_count` bounds the diagonal scan (defaults to n_max); table rules
    without a default are scanned over their own finite range.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    condition = f"diagonal_modulus_and_forward_{p}_summability"
    if lam_count is None:
        lam_count = grid.n_max
        if lam.kind == "table" and lam.params[2] is None:
            start, values, _ = lam.params
            lam_count = min(lam_count, start + len(values) - 1)
    scan_lo = -lam_count if lam.domain is Domain.INTEGERS else 0
    if lam.kind == "table" and lam.params[2] is None:
        scan_lo = max(scan_lo, lam.params[0])
    for jdx in range(scan_lo, lam_count + 1):
        v = abs(lam.weight(jdx))
        if v < 1.0 - 1e-12:
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           Witness(None, jdx, None, None, v))
    if min(grid.i_range) < 0:
        raise ValueError("forward summability uses nonnegative index shifts")
    span = (grid.n_max + grid.r_max) ** grid.q + max(grid.i_range)
    Lmu = _LogTable(mu, 0, span)
    N = grid.n_max // 2
    margin = math.inf
    for r in range(0, grid.r_max + 1):
        M = _clock_indices(grid, r)[N - 1:]
        for i in grid.i_range:
            vals = Lmu.prefix(M + i)
            tail = float(np.exp(-p * vals).sum())
            if tail >= grid.tail_tolerance:
                return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                               Witness(i, None, r, N, tail))
            margin = min(margin, grid.tail_tolerance - tail)
    return Verdict(VerdictStatus.SATISFIED_ON_GRID, condition, margin=margin)
