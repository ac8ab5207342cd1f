"""The term table of an inverse-orbit family, and exact power sums over it.

The frequent-visit construction reads two kinds of vectors built from its
targets x_1..x_K under one operator T, the family's forward map: the
inverse points x_{k,e} (the right inverse of T applied e times) and the
jumps T^m x_k.  `TermTable` holds each one once, as a flat row of (index,
re, im) entries keyed by its kind and (class, exponent).  Missing rows of
one kind come in one batch from `seqspace._jump_rows`, which also forms
seqspace's one-vector right inverses and jumps, so a row is that vector
bit for bit.  A build that raises, or that forms an index past int64,
stores its error in the row, to be raised where a reader reaches it.

`power_sums` folds rows into running power sums sum |y_i|^p in the float
steps of adding the vectors into a dict one entry at a time, which is how
the threshold search takes its tail and subset norms.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat

import numpy as np

from .seqspace import (
    SeqVector,
    ShiftOp,
    WeightOverflowError,
    _jump_rows,
    _p_sums,
)

__all__ = ["TermTable", "index_array", "pow_or_inf", "power_sums", "shares_an_index"]

# keys and exponents below this bound are exact in int64, larger ones are
# Python ints in object arrays
EXACT_INT64 = 2 ** 62
# row keys below this bound are found through an array (0 where no row is
# built yet), larger ones through a dict
_DENSE_KEYS = 1 << 16


def index_array(values) -> np.ndarray:
    """Integers as an int64 array, or as Python ints in an object array where
    one reaches EXACT_INT64 in absolute value; an int64 array within it is kept."""
    if not isinstance(values, np.ndarray):
        values = list(values)
        try:
            values = np.array(values, np.int64)
        except OverflowError:   # past int64, so past EXACT_INT64
            return np.array(values, object)
    big = values.size and (values.max() >= EXACT_INT64 or values.min() <= -EXACT_INT64)
    return values.astype(object if big else np.int64, copy=False)


class TermTable:
    """The inverse points x_{k,e} and jumps T^m x_k of targets x_1..x_K
    under op, the forward map T of their family.

    Row i holds entries start[i] .. start[i] + size[i] - 1 of (idx, re, im),
    in its vector's entry order, with indices between lo[i] and hi[i]; cls[i]
    is its target's class.  state[i] is nonzero when building it raised
    errors[i] (1 for a jump that overflowed, 2 otherwise, a ValueError for
    an index past int64 included), and then the row has no entries.  Row 0
    is empty and stands for no term.  `ids` keys the rows of each kind,
    inverse points and jumps, by e * K + k - 1.

    The missing rows of one lookup are built together by
    `seqspace._jump_rows`, whatever the rule, exponent or target index.
    """

    def __init__(self, op: ShiftOp, targets: tuple):
        self.op, self.targets = op, targets
        self.start, self.size = array("q"), array("q")
        self.lo, self.hi = array("q"), array("q")
        self.cls, self.state = array("q"), array("b")
        self.norm = array("d")       # lp norms, nan until asked for
        self.errors: dict = {}
        self.idx, self.re, self.im = array("q"), array("d"), array("d")
        self._powers: dict = {}
        # kind (jump) -> its (dense, far) rows, made at the kind's first
        # lookup: a family that never jumps makes no 512 KB jump index
        self._index: dict = {}
        none = np.zeros(0, np.int64)
        self._extend(np.zeros(1, np.int64), none, none, none, [0], [0], {})
        # the targets' entries laid flat, class by class
        self._count = np.array([len(x.entries) for x in targets], np.int64)
        self._first = np.cumsum(self._count) - self._count
        self._n = index_array([n for x in targets for n in x.entries])
        self._c = np.array([c for x in targets for c in x.entries.values()], complex)

    def column(self, name: str, dtype=np.float64) -> np.ndarray:
        """A numpy view of one flat table; it must be dropped before the
        table grows."""
        return np.frombuffer(getattr(self, name), dtype)

    # -- lookup and build --------------------------------------------------

    def ids(self, k: np.ndarray, e: np.ndarray, jump: bool) -> np.ndarray:
        """The rows of x_{k[i], e[i]}, or of T^e[i] x_k[i] where jump (e an
        int64 or object array), built where missing."""
        K = len(self.targets)
        if e.dtype != object and e.size and e.max() >= EXACT_INT64 // (K + 1):
            e = e.astype(object)
        keys = e * K + (k - 1)
        if jump not in self._index:
            self._index[jump] = (np.zeros(_DENSE_KEYS, np.int64), {})
        dense, far = self._index[jump]
        near = keys < _DENSE_KEYS
        out = np.empty(len(keys), np.int64)
        out[near] = dense[keys[near].astype(np.int64)]
        out[~near] = list(map(far.get, keys[~near].tolist(), repeat(0)))
        missing = np.flatnonzero(out == 0)     # row 0 is no key's
        if missing.size:
            todo = keys[missing].tolist()
            new = dict.fromkeys(todo)
            new_keys = index_array(new)
            new.update(zip(new, self._build(new_keys, jump).tolist()))
            out[missing] = list(map(new.__getitem__, todo))
            far.update(new)
            small = new_keys < _DENSE_KEYS
            dense[new_keys[small].astype(np.int64)] = np.fromiter(new.values(), np.int64)[small]
        return out

    def _build(self, keys: np.ndarray, jump: bool) -> np.ndarray:
        """Append the vectors of the keys, x_{k, e} or, where jump, T^e x_k,
        in one `_jump_rows` call; returns their rows in key order."""
        K, first = len(self.targets), len(self.size)
        k = (keys % K + 1).astype(np.int64)
        cnt = self._count[k - 1]
        src = _positions(self._first[k - 1], cnt)
        size, idx, re, im, errors = _jump_rows(self.op, jump, keys // K, cnt, self._n[src],
                                               self._c[src])
        if idx.dtype == object:    # a row with an index past int64 keeps its error instead
            row = np.repeat(np.arange(len(keys)), size)
            for i in np.flatnonzero((idx < -2 ** 63) | (idx >= 2 ** 63)).tolist():
                errors.setdefault(int(row[i]), ValueError(
                    f"index {idx[i]} lies past int64, where a term table row cannot hold it"))
            keep = ~np.isin(row, list(errors))
            size = np.bincount(row[keep], minlength=len(keys))
            idx, re, im = idx[keep], re[keep], im[keep]
        state = np.zeros(len(keys), np.int8)
        for r, exc in errors.items():
            state[r] = 1 if jump and isinstance(exc, WeightOverflowError) else 2
        self._extend(size, idx.astype(np.int64), re, im, k, state, errors)
        return first + np.arange(len(keys))

    def _extend(self, size, idx, re, im, k, state, errors: dict) -> None:
        """Append rows given flat: size[r] entries of (idx, re, im) each, in
        row order, classes k and states, and errors by new row."""
        first = len(self.size)
        offs = np.cumsum(size) - size
        full = np.flatnonzero(size)
        lo, hi = np.zeros(len(size), np.int64), np.zeros(len(size), np.int64)
        if full.size:
            lo[full] = np.minimum.reduceat(idx, offs[full])
            hi[full] = np.maximum.reduceat(idx, offs[full])
        for table, col in ((self.start, offs + len(self.idx)), (self.size, size),
                           (self.lo, lo), (self.hi, hi), (self.cls, k), (self.state, state),
                           (self.norm, np.full(len(size), math.nan)),
                           (self.idx, idx), (self.re, re), (self.im, im)):
            table.frombytes(np.ascontiguousarray(col, table.typecode).tobytes())
        self.errors.update((first + r, exc) for r, exc in errors.items())

    # -- reads -------------------------------------------------------------

    def entries(self, rows: np.ndarray) -> np.ndarray:
        """The positions of the entries of rows, row after row."""
        return _positions(self.column("start", np.int64)[rows],
                          self.column("size", np.int64)[rows])

    def vector(self, row: int) -> SeqVector:
        """The vector of a row, or its error raised."""
        if self.state[row]:
            raise self.errors[row]
        a, x = self.start[row], self.targets[self.cls[row] - 1]
        ent = slice(a, a + self.size[row])
        return SeqVector(dict(zip(self.idx[ent], map(complex, self.re[ent], self.im[ent]))),
                         x.domain, x.p_exponent)

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """lp_norm of the vectors of rows, each taken once: one `_p_sums`
        pass per exponent of their targets over their moduli, a row's c-th
        modulus in row c of its column, 0.0 below its last."""
        norm = self.column("norm")
        todo = rows[np.isnan(norm[rows])]
        if todo.size:
            todo = np.array(list(dict.fromkeys(todo.tolist())), np.int64)
            size = self.column("size", np.int64)[todo]
            ent = self.entries(todo)
            col = np.repeat(np.arange(todo.size), size)
            V = np.zeros((max(1, int(size.max())), todo.size))
            V[np.arange(ent.size) - (np.cumsum(size) - size)[col], col] = np.hypot(
                self.column("re")[ent], self.column("im")[ent])
            # class 0 is row 0's, which is empty: any exponent gives it 0.0
            ps = np.array([2.0] + [x.p_exponent for x in self.targets])[
                self.column("cls", np.int64)[todo]]
            for p in set(ps.tolist()):
                on = ps == p
                norm[todo[on]] = _p_sums(V[:, on], p)
        return norm[rows]

    def powers(self, p: float) -> np.ndarray:
        """|c| ** p of every entry (np.hypot, Python's pow, inf where it
        overflows), each computed once."""
        pw = self._powers.setdefault(p, array("d"))
        done = len(pw)
        if done < len(self.idx):
            mag = np.hypot(self.column("re")[done:], self.column("im")[done:])
            pw.frombytes(_pows(mag, p).tobytes())
        return np.frombuffer(pw)


def _positions(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """start[r], ..., start[r] + size[r] - 1 of each r, one after another."""
    return np.repeat(start - (np.cumsum(size) - size), size) + np.arange(int(size.sum()))


# ---------------------------------------------------------------------------
# power sums of folds
# ---------------------------------------------------------------------------

def _pows(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p for each entry by Python's float pow, inf where it overflows."""
    try:
        return np.fromiter(map(pow, x.tolist(), repeat(p)), float, len(x))
    except OverflowError:
        return np.array([pow_or_inf(v, p) for v in x.tolist()])


def pow_or_inf(v: float, p: float) -> float:
    """v ** p, or inf where it overflows."""
    try:
        return v ** p
    except OverflowError:
        return math.inf


def _fold_entries(table: TermTable, rid: np.ndarray) -> tuple:
    """(ent, valid): valid[f, t, w] where row rid[f, t] (rid < 0 is none)
    has a w-th entry, and the positions of those entries."""
    r = np.maximum(rid, 0)
    size = np.where(rid >= 0, table.column("size", np.int64)[r], 0)
    valid = np.arange(max(1, int(size.max(initial=0)))) < size[..., None]
    return (table.column("start", np.int64)[r][..., None] + np.arange(valid.shape[-1]))[valid], \
        valid


def shares_an_index(group: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether two rows of one group may share an index, row j of group
    group[j] >= 0 covering the indices [lo[j], hi[j]], each group's rows in
    order and one after the other.  They may not where each group's rows
    first rise, each above the one before, and then fall, each below the
    one before and below the group's first row."""
    rise = np.ones(len(group), bool)
    rise[1:] = (group[1:] != group[:-1]) | (lo[1:] > hi[:-1])
    if rise.all():
        return False
    at = np.arange(len(group))
    first = np.maximum.accumulate(np.where(np.diff(group, prepend=-1) != 0, at, 0))
    # from its first row that does not rise on, every row of a group falls;
    # a group's first row rises
    turned = (np.maximum.accumulate(np.where(rise, -1, at)) >= first)[1:]
    return bool((turned & ((hi[1:] >= lo[:-1]) | (hi >= lo[first])[1:])).any())


def power_sums(table: TermTable, rid: np.ndarray, p: float, shared: bool) -> np.ndarray:
    """s[f, t]: the power sum sum |y_i|^p of y = the sum of the vectors of
    rows rid[f, 0], ..., rid[f, t] (rid < 0 adds nothing), in the float
    steps of folding them into a dict entry by entry: each entry adds
    |new|^p - |old|^p (|.| is np.hypot, ^ Python's pow) in order, and once
    a power overflows or the sum stops being below inf it stays there.
    Unless `shared` (see `shares_an_index`), old is 0 for every entry."""
    ent, valid = _fold_entries(table, rid)
    d = np.zeros(valid.shape)
    if shared:
        d[valid] = _running_powers(np.flatnonzero(valid) // valid[0].size,
                                   table.column("idx", np.int64)[ent], table.column("re")[ent],
                                   table.column("im")[ent], p)
    else:
        d[valid] = table.powers(p)[ent]
    s = np.cumsum(d.reshape(len(rid), -1), axis=1)
    stuck = ~(s < math.inf)
    for f in np.flatnonzero(stuck.any(axis=1)).tolist():
        t = int(np.argmax(stuck[f]))
        s[f, t:] = s[f, t]
    return s[:, valid.shape[-1] - 1::valid.shape[-1]]


def _running_powers(f, idx, re, im, p: float) -> np.ndarray:
    """|new|^p - |old|^p of each entry (idx, re + i im) of folds f (entries
    in fold order), new = old + the entry and old the running sum of the
    fold's earlier entries at that index (0 for the first)."""
    order, same, run_re, run_im = _fold_replay(f, idx, re, im)
    new = _pows(np.hypot(run_re, run_im), p)
    out = np.empty(len(order))
    out[order] = new - np.where(same, np.roll(new, 1), 0.0)
    return out


def _fold_replay(g, idx, re, im) -> tuple:
    """Replay adding the entries (idx, re + i im) of groups g, in entry
    order, into one dict per group: (order, same, run_re, run_im), with
    order the entries sorted stably by (group, index), same[j] where sorted
    entry j has the group and index of entry j - 1, and run the running sum
    of its (group, index) just after each sorted entry is added."""
    order = np.lexsort((idx, g))
    n = len(order)
    same = np.zeros(n, bool)
    same[1:] = (g[order][1:] == g[order][:-1]) & (idx[order][1:] == idx[order][:-1])
    run_re, run_im = re[order], im[order]
    rank = np.arange(n) - np.maximum.accumulate(np.where(same, 0, np.arange(n)))
    for r in range(1, int(rank.max(initial=0)) + 1):
        at = np.flatnonzero(rank == r)
        run_re[at] += run_re[at - 1]
        run_im[at] += run_im[at - 1]
    return order, same, run_re, run_im
