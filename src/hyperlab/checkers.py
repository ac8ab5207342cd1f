"""Numeric checkers for the weight conditions behind frequent-orbit results.

Every proposition of the form "for all i, j and uniformly in r >= 0 the
weight products grow / decay / sum" is finitized onto a CheckGrid: index
ranges for i and j, offsets r <= r_max, window depth n_max, and the clock
exponent q.  Each checker returns a Verdict that either certifies the
condition on the grid (with the extremal margin) or exhibits a concrete
witness (i, j, r, n, value).

Products of weights are read off each rule's `WeightPrefix`.  Each offset r
is one array pass: every rule's prefix is read once per r, for all shifts i
(or j) at once as an (i, n) array, the cell values (i, j, n) are formed in
blocks of whole i-rows, and each condition yields a mask of bad cells per
block.  One verdict loop reads them all: the first bad cell, in scan order
and then (r, i, j) order, is the witness; with none, the least slack is the
margin.  Clock indices beyond 2^53, where int64 clock arithmetic and float
index arithmetic stop being exact, are refused, and so are grids whose
prefix reads or cell values pass the `_MAX_GRID_*` bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .seqspace import Domain, WeightSeq

__all__ = [
    "DEFAULT_RANGES",
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


# A prefix value costs about 90 ns and a cell value about 5 ns.  On a 2-core
# x86-64 host the grids at these bounds took up to 3 s and 100 MB peak
# resident memory as a `hyperlab check` process: 32 x 32 shifts with
# n_max = 16384 and r_max = 15 took 2.2 s and 96 MB, 1024 x 1024 shifts with
# n_max = 256 and r_max = 0 (Schatten) 3.0 s and 50 MB, and one shift each
# with n_max = 2^18 and r_max = 31 1.5 s and 71 MB.  The default bilateral
# grid reads 3e5 prefix values and forms 1.4e6 cell values.
_MAX_GRID_ROWS = 1 << 20     # prefix values read per offset r
_MAX_GRID_PREFIX = 1 << 24   # prefix values read over all offsets
_MAX_GRID_CELLS = 1 << 28    # cell values formed over all offsets

# the i and j ranges of the default grids, by whether the rules live on Z
DEFAULT_RANGES = {False: range(0, 5), True: range(-4, 5)}


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
        # the caps need only the lengths of the ranges, and are checked
        # before any range (a `range` from the CLI) becomes a tuple
        if not len(self.i_range) or not len(self.j_range):
            raise ValueError("index ranges must be nonempty")
        if self.n_max < 8:
            raise ValueError("n_max must be >= 8")
        if self.r_max < 0 or self.q < 1:
            raise ValueError("r_max must be >= 0 and q >= 1")
        # clock rows hold n_max values, deep-tail rows fewer than r_max
        depth = max(self.n_max, self.r_max)
        rows = (len(self.i_range) + len(self.j_range)) * depth
        for what, size, cap in (
                ("prefix values per offset", rows, _MAX_GRID_ROWS),
                ("prefix values", rows * (self.r_max + 1), _MAX_GRID_PREFIX),
                ("cell values", len(self.i_range) * len(self.j_range)
                 * (self.r_max + 1) * depth, _MAX_GRID_CELLS)):
            if size > cap:
                raise ValueError(f"the check grid reads {size} {what}, more than {cap}")
        object.__setattr__(self, "i_range", tuple(int(v) for v in self.i_range))
        object.__setattr__(self, "j_range", tuple(int(v) for v in self.j_range))
        # n_max >= 8 and 8^54 > 2^53, so a larger q needs no larger power
        top = ((self.n_max + self.r_max) ** min(self.q, 54) + max(map(abs, self.i_range))
               + max(map(abs, self.j_range)))
        if top > 2 ** 53:
            raise ValueError(f"clock index (n_max + r_max)^q with q = {self.q}, "
                             f"n_max = {self.n_max}, r_max = {self.r_max} exceeds 2^53")

    @classmethod
    def unilateral_default(cls, q: int = 1) -> "CheckGrid":
        return cls(DEFAULT_RANGES[False], DEFAULT_RANGES[False], q=q)

    @classmethod
    def bilateral_default(cls, q: int = 1) -> "CheckGrid":
        return cls(DEFAULT_RANGES[True], DEFAULT_RANGES[True], q=q)


_BLOCK = 1 << 13   # cell values formed per step: blocks of whole rows, 64 KB


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
        if m.min() < self.lo - 1 or m.max() > self.hi:
            raise ValueError("prefix index escapes the prepared table")
        return self._prefix.log_abs_many(m)


def _clock_indices(grid: CheckGrid, r: int) -> np.ndarray:
    """(n + r)^q - r^q for n = 1..n_max."""
    n = np.arange(1, grid.n_max + 1, dtype=np.int64)
    return (n + r) ** grid.q - r ** grid.q


def _shifts(indices: tuple) -> np.ndarray:
    """An index range as a column, to broadcast against a row of clock indices."""
    return np.array(indices, dtype=np.int64)[:, None]


def _tables(w: WeightSeq, mu: WeightSeq, grid: CheckGrid,
            two_sided: bool) -> tuple[_LogTable, _LogTable]:
    """Tables for every prefix the clock and deep-tail cells of `grid` read:
    |m| <= (n_max + r_max)^q + max|i| + max|j|, and m >= 0 unless `two_sided`."""
    span = (grid.n_max + grid.r_max) ** grid.q
    pad = max(map(abs, grid.i_range)) + max(map(abs, grid.j_range))
    lo = -span - pad if two_sided else 0
    return _LogTable(w, lo, span + pad), _LogTable(mu, lo, span + pad)


def _blocks(i_range: tuple, a: np.ndarray, b: np.ndarray, b0):
    """The cell values (a[k] + b[l]) - b0[l] in blocks of whole rows k of `a`,
    as (i values, block) with block[k, l] the row of cell (i_range[k], j_l).
    A block holds about `_BLOCK` values and reuses one buffer, so it is
    valid until the next step."""
    shape = (len(b), a.shape[1])
    rows = max(1, _BLOCK // (shape[0] * shape[1]))
    buf = np.empty((min(rows, len(a)), *shape))
    for k in range(0, len(a), rows):
        block = buf[:len(a) - k]
        np.add(a[k:k + len(block), None], b, out=block)
        np.subtract(block, b0, out=block)
        yield i_range[k:k + len(block)], block


def _clock_blocks(grid: CheckGrid, Lw: _LogTable, Lmu: _LogTable, anchored: bool,
                  first: int = 1):
    """(r, i values, block) over the offsets r, with block[k, l, n - first] for
    n = first..n_max the log of w_1..w_{M+i} * mu_1..mu_{M+j}, or with
    `anchored` the log of the products over (i, i + M] and (j, j + M], where
    M = (n+r)^q - r^q.  Each rule's prefix is read once per r, for every
    shift at once."""
    i, j = _shifts(grid.i_range), _shifts(grid.j_range)
    for r in range(0, grid.r_max + 1):
        M = _clock_indices(grid, r)[first - 1:]
        b = Lmu.prefix(M + j)
        b0 = Lmu.prefix(j) if anchored else 0.0
        a = Lw.prefix(M + i)
        if anchored:
            a -= Lw.prefix(i)
        for iv, block in _blocks(grid.i_range, a, b, b0):
            yield r, iv, block


def _tail_blocks(grid: CheckGrid, Lw: _LogTable, Lmu: _LogTable):
    """(r, n, i values, block) over the deep-tail region
    ceil(r_max / 2) <= n <= r: block[k, l] is the log of the backward
    products over (i - e, i] and (j - e, j] with e = r^q - (r - n)^q."""
    n_tail = max(1, (grid.r_max + 1) // 2)
    i, j = _shifts(grid.i_range), _shifts(grid.j_range)
    for r in range(n_tail, grid.r_max + 1):
        n = np.arange(n_tail, r + 1, dtype=np.int64)
        e = r ** grid.q - (r - n) ** grid.q
        b, b0 = Lmu.prefix(j), Lmu.prefix(j - e)
        a = Lw.prefix(i) - Lw.prefix(i - e)
        for iv, block in _blocks(grid.i_range, a, b, b0):
            yield r, n, iv, block


def _exp_sums(x: np.ndarray, p: float) -> np.ndarray:
    """sum of exp(p * x) over the last axis.  A sum past float range is inf,
    which no tolerance admits, so the overflow is the verdict, not an error."""
    with np.errstate(over="ignore"):
        return np.exp(p * x).sum(axis=-1)


def _verdict(condition: str, scans) -> Verdict:
    """The verdict of a stream of (bad, witness, slack) triples: the first
    True of the first mask `bad` that has one, in row-major order, is the
    failing cell, and witness(cell) its Witness, read before the stream
    advances (`_blocks` reuses its buffer); with no bad cell the least slack
    is the margin."""
    margin = math.inf
    for bad, witness, slack in scans:
        if bad.any():
            return Verdict(VerdictStatus.VIOLATED_WITH_WITNESS, condition,
                           witness(np.unravel_index(int(np.argmax(bad)), bad.shape)))
        margin = min(margin, slack)
    return Verdict(VerdictStatus.SATISFIED_ON_GRID, condition, margin=margin)


def _growth_scan(grid: CheckGrid, blocks):
    """Every cell's log-product at n = n_max clears `growth_threshold`, and
    its top quartile in n is nondecreasing; in a failing cell a low end
    outranks a drop."""
    quart = 3 * grid.n_max // 4
    for r, iv, block in blocks:
        end = block[..., -1]
        low = end <= grid.growth_threshold
        falls = np.diff(block[..., quart:], axis=-1) < -1e-12

        def witness(cell):
            n = grid.n_max if low[cell] else quart + int(np.argmax(falls[cell])) + 2
            return Witness(iv[cell[0]], grid.j_range[cell[1]], r, n, float(block[cell][n - 1]))
        yield low | falls.any(axis=-1), witness, float(end.min()) - grid.growth_threshold


def _decay_scan(grid: CheckGrid, La: _LogTable, Lb: _LogTable):
    """Every backward product of the deep-tail region stays below
    `tail_tolerance`; a failing cell's witness is its largest."""
    log_tol = math.log(grid.tail_tolerance)
    for r, n, iv, block in _tail_blocks(grid, La, Lb):
        top = block.max(axis=-1)

        def witness(cell):
            return Witness(iv[cell[0]], grid.j_range[cell[1]], r,
                           int(n[int(np.argmax(block[cell]))]),
                           math.exp(min(float(top[cell]), 700.0)))
        yield top >= log_tol, witness, log_tol - float(top.max())


def _sum_scan(grid: CheckGrid, parts):
    """For each (r, n, i values, j values, s, logs) of `parts`, the sums of
    exp(s * logs) over the last axis, one per cell (i, j), stay below
    `tail_tolerance`; n is the witness's."""
    for r, n, iv, jv, s, logs in parts:
        sums = _exp_sums(logs, s)
        yield (sums >= grid.tail_tolerance,
               lambda cell: Witness(iv[cell[0]], jv[cell[1]], r, n, float(sums[cell])),
               grid.tail_tolerance - float(sums.max()))


def check_unilateral_growth(w: WeightSeq, mu: WeightSeq, grid: CheckGrid) -> Verdict:
    """Products w_1..w_{M+i} * mu_1..mu_{M+j} with M = (n+r)^q - r^q must grow
    without bound, uniformly over the grid.

    Finitized as: for every (i, j, r) the log-product at n = n_max clears
    `growth_threshold`, and the top quartile in n is nondecreasing.
    """
    if min(grid.i_range) < 0 or min(grid.j_range) < 0:
        raise ValueError("unilateral growth uses nonnegative index shifts")
    Lw, Lmu = _tables(w, mu, grid, two_sided=False)
    return _verdict("unilateral_growth",
                    _growth_scan(grid, _clock_blocks(grid, Lw, Lmu, False)))


def check_bilateral_growth_decay(a: WeightSeq, b: WeightSeq, grid: CheckGrid) -> Verdict:
    """Two-sided condition for bilateral pairs.

    Forward side: products over (i, i + M] and (j, j + M] grow past the
    threshold (M on the clock as above, i and j may be negative).  Backward
    side: products over (i - e, i] and (j - e, j] with e = r^q - (r-n)^q
    must be small in the deep-tail region n >= ceil(r_max / 2), below
    `tail_tolerance`.  The forward side is scanned first.
    """
    La, Lb = _tables(a, b, grid, two_sided=True)
    return _verdict("bilateral_growth_and_decay", itertools.chain(
        _growth_scan(grid, _clock_blocks(grid, La, Lb, True)), _decay_scan(grid, La, Lb)))


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
    bilateral = w.domain is Domain.INTEGERS
    Lw, Lmu = _tables(w, mu, grid, two_sided=bilateral)
    N = grid.n_max // 2
    clock = ((r, N, iv, grid.j_range, -p, block)
             for r, iv, block in _clock_blocks(grid, Lw, Lmu, bilateral, first=N))
    tail = ((r, int(n[0]), iv, grid.j_range, p, block)
            for r, n, iv, block in (_tail_blocks(grid, Lw, Lmu) if bilateral else ()))
    return _verdict(f"schatten_{p}_summability", _sum_scan(grid, itertools.chain(clock, tail)))


def check_diagonal_forward_summability(lam: WeightSeq, mu: WeightSeq, p: float,
                                       grid: CheckGrid) -> Verdict:
    """Diagonal-plus-forward pair: every |lam_j| >= 1, and the inverse
    mu-products are p-summable in the tail, uniformly over i and r.

    The diagonal scan covers indices up to n_max in modulus, cut to the
    range where lam has weights.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    return _verdict(f"diagonal_modulus_and_forward_{p}_summability",
                    _diagonal_scan(lam, mu, p, grid))


def _diagonal_scan(lam: WeightSeq, mu: WeightSeq, p: float, grid: CheckGrid):
    """The modulus scan of lam (slack inf), then one tail sum per (r, i)."""
    first, last = lam.reach
    lo = max(-grid.n_max if lam.domain is Domain.INTEGERS else 0, first)
    w = lam.at(np.arange(lo, min(grid.n_max, last) + 1))
    # an unusable weight reads 0, and `weight` raises there if it has none
    yield (np.hypot(w.real, w.imag) < 1.0 - 1e-12,
           lambda cell: Witness(None, lo + int(cell[0]), None, None,
                                abs(lam.weight(lo + int(cell[0])))),
           math.inf)
    if min(grid.i_range) < 0:
        raise ValueError("forward summability uses nonnegative index shifts")
    span = (grid.n_max + grid.r_max) ** grid.q + max(grid.i_range)
    Lmu = _LogTable(mu, 0, span)
    N = grid.n_max // 2
    i = _shifts(grid.i_range)
    yield from _sum_scan(grid, (
        (r, N, grid.i_range, (None,), -p, Lmu.prefix(_clock_indices(grid, r)[N - 1:] + i)[:, None])
        for r in range(0, grid.r_max + 1)))
