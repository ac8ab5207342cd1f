"""Lower-density statistics on the polynomial clock n^q.

The central quantity is the finite-horizon profile of

    card{ n in A : n <= N^q } / N        for N = 1 .. N_max,

whose liminf over N is the q-lower density of the visit set A.  On a desk
horizon the liminf is reported as the minimum of the profile over a tail
window [tail_start, N_max]; for q > 1 the ratios may legitimately exceed 1
(the clock runs faster than the counter).

`visit_set` turns an orbit stream into the set of times the orbit enters a
prescribed ball, with the metric chosen by a NormSpec: an lp norm for
sequence vectors, operator or Schatten norm for matrix windows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .matops import MatOp, embed_window, schatten_norm_below
from .seqspace import SeqVector, lp_norm
from .terms import EXACT_INT64, index_array

__all__ = [
    "NatSet",
    "DensityEstimate",
    "DensityProfile",
    "NormSpec",
    "q_lower_density",
    "visit_set",
    "density_to_csv",
    "natset_from_lines",
]


@dataclass(frozen=True, eq=False)
class NatSet:
    """Strictly increasing naturals as one read-only sorted array (int64, or
    Python ints in an object array where one reaches 2^62: `index_array`'s
    rule; an int64 array is kept, not copied), with the horizon that was
    actually searched (membership beyond the horizon is unknown, not false)."""

    elems: np.ndarray
    horizon: int

    def __post_init__(self):
        elems = index_array(self.elems).view()
        if np.any(elems[1:] <= elems[:-1]):
            raise ValueError("elements must be strictly increasing")
        if elems.size and elems[0] < 0:
            raise ValueError("elements must be naturals")
        if self.horizon < 0 or (elems.size and elems[-1] > self.horizon):
            raise ValueError("elements exceed the stated horizon")
        elems.flags.writeable = False
        object.__setattr__(self, "elems", elems)

    def count_leq(self, x) -> int:
        # a float is floored, as numpy would compare in float64
        x = math.floor(x) if isinstance(x, float) and math.isfinite(x) else x
        return int(np.searchsorted(self.elems, x, side="right"))

    def __contains__(self, n) -> bool:
        i = self.count_leq(n) - 1
        return bool(i >= 0 and self.elems[i] == n)

    def __len__(self) -> int:
        return len(self.elems)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NatSet):
            return NotImplemented
        return self.horizon == other.horizon and np.array_equal(self.elems, other.elems)

    def __hash__(self) -> int:
        # an object array's bytes are pointers, not values: it hashes by its length
        elems = self.elems
        return hash((self.horizon, elems.tobytes() if elems.dtype != object else len(elems)))


class DensityProfile(Sequence):
    """Read-only sequence of the (N, count, ratio) triples for N = 1..n_max,
    stored as a count array and a ratio array.  Items are Python (int, int,
    float) triples; a slice gives a tuple of them."""

    def __init__(self, counts: np.ndarray, ratios: np.ndarray):
        self.counts = counts
        self.ratios = ratios
        counts.flags.writeable = ratios.flags.writeable = False

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        j = range(len(self))[i]
        return (j + 1, int(self.counts[j]), float(self.ratios[j]))

    def __iter__(self):
        return zip(range(1, len(self) + 1), self.counts.tolist(), self.ratios.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityProfile):
            return NotImplemented
        return (np.array_equal(self.counts, other.counts)
                and np.array_equal(self.ratios, other.ratios))

    def __hash__(self) -> int:
        return hash((self.counts.tobytes(), self.ratios.tobytes()))


@dataclass(frozen=True)
class DensityEstimate:
    q: float
    n_max: int
    tail_start: int
    profile: DensityProfile   # (N, count, ratio) triples for N = 1..n_max
    liminf_proxy: float       # min ratio over N >= tail_start


def q_lower_density(A: NatSet, q: float, N_max: int,
                    tail_start: int | None = None) -> DensityEstimate:
    """Finite-horizon profile of card{n in A : n <= N^q} / N.

    Requires N_max^q <= A.horizon so every counted threshold was actually
    searched; rejects silently incomplete profiles.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    q_int = int(q) if float(q).is_integer() else None
    top = N_max ** q_int if q_int is not None else float(N_max) ** q
    if top > A.horizon:
        raise ValueError(
            f"N_max^q = {top} exceeds the searched horizon {A.horizon}")
    if tail_start is None:
        tail_start = max(1, N_max // 2)
    if not 1 <= tail_start <= N_max:
        raise ValueError("tail_start must lie in [1, N_max]")

    # An element n counts for N when n <= N^q, that is n <= floor(N^q).
    Ns = np.arange(1, N_max + 1)
    if q_int is not None and top < EXACT_INT64:
        # from q = 63 on only N = 1 fits, so the cap changes no floor; at
        # q = 1 the floors are Ns itself, not an N_max-entry copy
        floors = Ns if q_int == 1 else Ns ** min(q_int, 63)
    else:
        # Python's powers: np.power may differ in the last bit, and int64
        # would wrap past EXACT_INT64 (a file: set may declare any horizon)
        floors = (N ** q_int if q_int is not None else int(float(N) ** q)
                  for N in range(1, N_max + 1))
        if A.elems.dtype != object:
            # every element lies below EXACT_INT64, so a floor capped there
            # counts them all as before, and the floors stay int64
            floors = (min(f, EXACT_INT64 - 1) for f in floors)
        floors = index_array(floors)
    counts = np.searchsorted(A.elems, floors, side="right")
    ratios = counts / Ns
    liminf = float(ratios[tail_start - 1:].min())
    return DensityEstimate(float(q), N_max, tail_start, DensityProfile(counts, ratios), liminf)


@dataclass(frozen=True)
class NormSpec:
    """Metric selector for visit detection."""

    kind: str                 # "lp" | "operator" | "schatten"
    p: float | None = None

    @classmethod
    def lp(cls, p: float | None = None) -> "NormSpec":
        return cls("lp", p)

    @classmethod
    def operator(cls) -> "NormSpec":
        return cls("operator", None)

    @classmethod
    def schatten(cls, p: float) -> "NormSpec":
        return cls("schatten", p)

    def within(self, x, target, radius: float) -> bool:
        """Whether the distance from x to target is below radius.  A matrix
        distance is decided by `schatten_norm_below`, which stops its Jacobi
        sweeps once a certified bracket of the norm clears the radius."""
        if self.kind == "lp":
            if not isinstance(x, SeqVector):
                raise TypeError("lp metric expects sequence vectors")
            return lp_norm(x - target, self.p) < radius
        if not isinstance(x, MatOp):
            raise TypeError(f"{self.kind} metric expects matrix windows")
        if self.kind not in ("operator", "schatten"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        lo = min(x.basis_offset, target.basis_offset)
        hi = max(x.basis_offset + max(x.rows, x.cols),
                 target.basis_offset + max(target.rows, target.cols)) - 1
        diff = embed_window(x, lo, hi) - embed_window(target, lo, hi)
        return schatten_norm_below(diff, math.inf if self.kind == "operator" else self.p,
                                   radius)


def visit_set(orbit: Iterable, target, radius: float, norm: NormSpec) -> NatSet:
    """Times n (1-based position in the orbit stream) with
    distance(orbit_n, target) < radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    hits, n = [], 0
    for n, x in enumerate(orbit, start=1):
        if norm.within(x, target, radius):
            hits.append(n)
    return NatSet(hits, n)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def density_to_csv(est: DensityEstimate, fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["N", "count", "ratio"])
    for N, count, ratio in est.profile:
        writer.writerow([N, count, repr(float(ratio))])


def natset_from_lines(text: str) -> NatSet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# horizon"):
        raise ValueError("missing horizon header")
    horizon = int(lines[0].split()[-1])
    return NatSet([int(ln) for ln in lines[1:]], horizon)
