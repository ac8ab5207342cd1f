"""Constructive machinery for frequently returning orbits on the clock n^q.

The pipeline mirrors the constructive argument this laboratory studies:

1.  an EpsSchedule (eps_k), small enough that k*eps_k + sum_{j>k} eps_j -> 0;
2.  per-class tail thresholds N_k making every tested criterion sum < eps_k;
3.  a SeparatedFamily J_1..J_K of positive-density visit plans, pairwise
    separated by N_k + N_j;
4.  the assembled vector x = sum_l sum_{n in J_l} x_{l, n^q};
5.  verification that the orbit points T^{n^q} x for n in J_k really land
    inside the prescribed ball around the k-th target.

Step 5 deliberately avoids re-iterating the stored float vector: far blocks
of the assembled sum sit below the subnormal coefficient guard, so a naive
orbit walk would silently lose exactly the structure under test.  Distances
are instead evaluated block by block through closed-form weight products,
with a direct-iteration cross-check on early times where floats still hold
the full picture.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .density import NatSet, q_lower_density
from .matops import MatOp, Pairing, RankOne, conjugation, rank_one_to_mat
from .seqspace import (
    COEFF_GUARD,
    Domain,
    SeqVector,
    ShiftOp,
    WeightOverflowError,
    _left_sum,
    _p_sums,
    adjoint,
    apply,
    apply_right_inverse,
    lp_norm,
    shift_power_apply,
)
from .terms import (
    EXACT_INT64,
    TermTable,
    _fold_replay,
    index_array,
    pow_or_inf,
    power_sums,
    shares_an_index,
)

__all__ = [
    "EpsSchedule",
    "BackwardOrbitFamily",
    "SeparatedFamily",
    "SeparationReport",
    "CriterionFailure",
    "find_tail_threshold",
    "build_separated_family",
    "verify_separated_family",
    "assemble_vector",
    "condition_c_exactness",
    "ClassVisitReport",
    "verify_q_frequent_visits",
    "conjugation_orbit",
    "conjugation_inverse_family",
    "materialize_rank_one_sum",
]

# ---------------------------------------------------------------------------
# epsilon schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsSchedule:
    """eps_k = scale * base^k."""

    scale: float = 1.0
    base: float = 0.5

    def __post_init__(self):
        # k*eps_k + sum_{j>k} eps_j goes to 0 only for a base in (0, 1)
        if not 0.0 < self.base < 1.0:
            raise ValueError(f"eps_base must lie in (0, 1), got {self.base!r}")

    def eps(self, k: int) -> float:
        if k < 1:
            raise ValueError("k must be >= 1")
        v = self.scale * self.base ** k
        if not 0.0 < v < math.inf:
            raise ValueError(f"eps_{k} = {v} is not a positive real")
        return v

    def bound(self, k: int, K: int) -> float:
        """k*eps_k + sum_{j=k+1}^{K} eps_j: the radius class k of K is
        visited within, and the quantity that must vanish as k grows."""
        return k * self.eps(k) + _left_sum(self.eps(j) for j in range(k + 1, K + 1))

    def describe(self) -> str:
        return f"{self.scale!r}*{self.base!r}^k"


# ---------------------------------------------------------------------------
# inverse-orbit families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackwardOrbitFamily:
    """Targets x_1..x_K with their exact inverse-orbit points x_{k,n}.

    x_{k,n} shifts the support of x_k up by n and divides by the running
    weight product, so n applications of the forward map (`forward_op`)
    restore x_k exactly.  The points and the jumps of the forward map live
    in one term table (`terms.TermTable`), built once per (class, exponent)
    from batched reads of the rule's shared `WeightPrefix`, and read by the
    threshold search, the assembly and the verifier alike, none of which
    takes the operator again.
    """

    op: ShiftOp
    base_points: tuple
    _terms: TermTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = tuple(self.base_points)
        if not pts:
            raise ValueError("at least one target is required")
        for x in pts:
            if x.domain is not self.op.domain:
                raise ValueError("target domain does not match the operator")
        object.__setattr__(self, "base_points", pts)
        object.__setattr__(self, "_terms", TermTable(self.forward_op(), pts))

    @property
    def num_classes(self) -> int:
        return len(self.base_points)

    def base_point(self, k: int) -> SeqVector:
        if not 1 <= k <= self.num_classes:
            raise ValueError(f"class index {k} out of range")
        return self.base_points[k - 1]

    def inverse_point(self, k: int, n: int) -> SeqVector:
        """x_{k,n}; n = 0 returns the target itself."""
        if n == 0:
            return self.base_point(k)
        if n < 0:
            raise ValueError("n must be a natural number")
        self.base_point(k)
        return self._terms.vector(int(self._terms.ids(np.array([k]), index_array([n]),
                                                      jump=False)[0]))

    def forward_op(self) -> ShiftOp:
        """The map that undoes inverse_point: the operator itself for
        backward-type (displacement < 0) and diagonal rules, its adjoint for
        forward-type."""
        return self.op if self.op.displacement <= 0 else adjoint(self.op)


def condition_c_exactness(family: BackwardOrbitFamily, q: int, nm_max: int = 8,
                          tol: float = 1e-10) -> float:
    """Check T^{n^q} x_{k, n^q} = x_k and T^{n^q} x_{k, m^q} = x_{k, m^q - n^q}
    for all 1 <= n < m <= nm_max; returns the worst relative deviation."""
    fwd = family.forward_op()
    qi = int(q)
    worst = 0.0
    for k in range(1, family.num_classes + 1):
        x = family.base_point(k)
        scale = max(lp_norm(x), 1e-30)
        for n in range(1, nm_max + 1):
            back = shift_power_apply(fwd, family.inverse_point(k, n ** qi), n ** qi)
            worst = max(worst, lp_norm(back - x) / scale)
            for m in range(n + 1, nm_max + 1):
                jumped = shift_power_apply(fwd, family.inverse_point(k, m ** qi), n ** qi)
                want = family.inverse_point(k, m ** qi - n ** qi)
                ref = max(lp_norm(want), 1e-30)
                worst = max(worst, lp_norm(jumped - want) / ref)
    if worst > tol:
        raise ValueError(f"condition (c) violated: relative deviation {worst:.3g}")
    return worst


# ---------------------------------------------------------------------------
# tail thresholds
# ---------------------------------------------------------------------------

class CriterionFailure(Exception):
    """No tested threshold made the criterion sums small enough.

    Carries the witness of the last failing probe: the class index, the
    offset r, the index window, and the offending norm.
    """

    def __init__(self, class_index: int, r: int, window: tuple, value: float,
                 eps_k: float, cap: int):
        self.class_index = class_index
        self.r = r
        self.window = window
        self.value = value
        self.eps_k = eps_k
        self.cap = cap
        super().__init__(
            f"criterion sums stay >= eps_k = {eps_k:.3g} up to threshold {cap}: "
            f"class {class_index}, r = {r}, window {window}, norm {value:.3g}")


# each tail-threshold probe tests the offsets r <= _THRESHOLD_R_MAX, in a
# window of _THRESHOLD_WINDOW indices, on every tail of the window and on
# _THRESHOLD_SAMPLES seeded random index sets
_THRESHOLD_R_MAX = 32
_THRESHOLD_WINDOW = 64
_THRESHOLD_SAMPLES = 20


def find_tail_threshold(family: BackwardOrbitFamily, k: int, q: int, eps: EpsSchedule,
                        hard_cap: int = 4096, seed: int = 0) -> int:
    """Smallest N making every tested criterion sum smaller than eps_k.

    For each class i <= k, each offset r <= _THRESHOLD_R_MAX (r = 0
    included), and each tested index set F inside the window of
    _THRESHOLD_WINDOW indices starting at N, both

        || sum_{n in F} x_{i, (n+r)^q - r^q} ||            (inverse side)
        || sum_{n in F, n <= r} T^{r^q - (r-n)^q} x_i ||    (forward side)

    must be < eps_k, with T the family's forward map.  Tested F are every
    contiguous tail of the window plus _THRESHOLD_SAMPLES seeded random
    subsets of size <= 12.  The search doubles N and then bisects to the
    smallest passing value; if nothing passes by `hard_cap` a
    CriterionFailure carries the last witness.

    A probe is an array pass over the family's term table: it reads the
    terms of a block of (class, r) pairs from the table, whose missing
    inverse points and jumps come in one batch each, and takes every tail
    and subset norm as a running power sum in the float steps of adding the
    terms into a dict (`terms.power_sums`), so every comparison with eps_k
    is that of the scalar loop.  Blocks hold 1, 8, 64, ... pairs in the
    scalar order, so no term is computed past the block where the first
    witness lies.  The witness is the first one in the order class, r,
    tails, forward side, subsets; a term whose weight product leaves the
    floating range is the witness (i, r, window, inf) where that order meets
    it, and any other error a term raises is raised there.
    """
    if not 1 <= k <= family.num_classes:
        raise ValueError("class index out of range")
    qi = int(q)
    if qi < 1:
        raise ValueError("q must be a positive natural")
    eps_k = eps.eps(k)
    rng = random.Random(seed)
    # offsets into the sliding window, drawn once so every probe sees the
    # same sample pattern
    subset_offsets = [sorted(rng.sample(range(_THRESHOLD_WINDOW), rng.randint(1, 12)))
                      for _ in range(_THRESHOLD_SAMPLES)]
    p = family.base_point(1).p_exponent
    W, table = _THRESHOLD_WINDOW, family._terms
    # a subset as positions of a tail fold, which adds n = N + W - 1 first
    subsets = np.full((_THRESHOLD_SAMPLES, max(map(len, subset_offsets))), -1)
    for j, offs in enumerate(subset_offsets):
        subsets[j, :len(offs)] = W - 1 - np.array(offs)
    pairs = [(i, r) for i in range(1, k + 1) for r in range(_THRESHOLD_R_MAX + 1)]
    top = _nilpotent_top(family)
    # a norm max(s, 0) ** (1 / p) can reach eps_k only where its power sum s
    # is not below cut; the norm itself is taken there alone (a cut below
    # the normal range, where its margin would not hold, is 0)
    cut = pow_or_inf(eps_k * (1.0 - 1e-9), p)
    if cut < np.finfo(float).tiny:
        cut = 0.0

    def norm(s: float) -> float:
        return max(s, 0.0) ** (1.0 / p)

    def reached(s: np.ndarray) -> np.ndarray:
        out = np.zeros(s.shape, bool)
        near = ~(s < cut)
        out[near] = [norm(v) >= eps_k for v in s[near].tolist()]
        return out

    def sums(rid: np.ndarray) -> tuple:
        """(first, tails, subsets, subset hits) of folds rid[j] in tail
        order: the first term whose build raised or after which the norm
        reaches eps_k (W if none), the power sum after each term, those of
        the subsets and whether their norms reach eps_k."""
        # a subset fold shares an index only where its tail fold does; rid
        # < 0 reads row 0, which is empty and raised nothing
        f, t = np.nonzero(table.column("size", np.int64)[rid.clip(0)] > 0)
        shared = shares_an_index(f, *(table.column(c, np.int64)[rid[f, t]] for c in ("lo", "hi")))
        tails = power_sums(table, rid, p, shared)
        # without shared indices a power sum only adds nonnegative terms, so
        # a subset's sum exceeds the whole tail's by rounding at most (some
        # 1e-13 of it), far inside cut's margin: where the whole tail stays
        # below cut its subsets do too
        subs = np.zeros((len(rid), _THRESHOLD_SAMPLES))
        open_ = np.flatnonzero(~(tails[:, -1] < cut) | shared)
        if open_.size:
            sub = np.where(subsets >= 0, rid[open_][:, subsets.clip(0)], -1)
            sub = sub.reshape(-1, subsets.shape[1])
            subs[open_] = power_sums(table, sub, p, shared)[:, -1].reshape(len(open_), -1)
        raised = table.column("state", np.int8)[rid.clip(0)] != 0
        return _first(raised | reached(tails)), tails, subs, reached(subs)

    def block_witness(N: int, block: list):
        """The first witness of a block of (class, r) pairs, or None."""
        cls = np.array([i for i, _ in block])
        dt = np.int64 if (N + W + _THRESHOLD_R_MAX) ** qi * (family.num_classes + 1) \
            < EXACT_INT64 else object
        r = np.array([r for _, r in block], dt)[:, None]
        n = np.arange(N + W - 1, N - 1, -1).astype(dt)
        rid = table.ids(np.repeat(cls, W), ((n + r) ** qi - r ** qi).ravel(),
                        jump=False).reshape(-1, W)
        # pairs with the same terms (all r alike when q = 1) share their
        # sums: the u-th distinct row of terms first comes at pair uniq[u]
        index: dict = {}
        inv = [index.setdefault(row.tobytes(), len(index)) for row in rid]
        uniq = [inv.index(u) for u in range(len(index))]
        at, tails, subs, sub_hit = (v[inv] for v in sums(rid[uniq]))
        # forward side: the jumps T^m x_i, m = r^q - (r-n)^q, at the
        # positions with n <= r, built once per family; a jump past
        # `_nilpotent_top` is 0
        fwd = np.flatnonzero(r[:, 0] >= N)
        if fwd.size:
            m = r[fwd] ** qi - (r[fwd] - n) ** qi
            live = n <= r[fwd]
            if top is not None:
                live &= m <= top[cls[fwd], None]
            frid = np.full(live.shape, -1)
            frid[live] = table.ids(np.broadcast_to(cls[fwd, None], live.shape)[live], m[live],
                                   jump=True)
            f_at, f_tails, f_subs, f_hit = sums(frid)
        for j, (i, r_) in enumerate(block):
            t = int(at[j])
            if t < W:
                row = int(rid[j, t])
                if table.state[row]:
                    return _term_error(table.errors[row], i, r_, N)
                return (i, r_, (N + W - 1 - t, N + W - 1), norm(tails[j, t].item()))
            hit = sub_hit[j]
            if r_ >= N:
                jf = int(np.searchsorted(fwd, j))
                t = int(f_at[jf])
                if t < W:
                    row = int(frid[jf, t])
                    if table.state[row]:
                        return _term_error(table.errors[row], i, r_, N)
                    return (i, r_, (N + W - 1 - t, r_), norm(f_tails[jf, t].item()))
                hit = hit | f_hit[jf]
            for s_ in np.flatnonzero(hit)[:1].tolist():
                offs = subset_offsets[s_]
                if sub_hit[j, s_]:
                    return (i, r_, tuple(N + o for o in offs), norm(subs[j, s_].item()))
                return (i, r_, tuple(N + o for o in offs if N + o <= r_),
                        norm(f_subs[jf, s_].item()))
        return None

    def probe(N: int):
        """None when every sum is small; otherwise a witness tuple."""
        lo, size = 0, 1
        while lo < len(pairs):
            w = block_witness(N, pairs[lo:lo + size])
            if w is not None:
                return w
            lo, size = lo + size, 8 * size
        return None

    w = probe(1)
    if w is None:
        return 1
    lo, hi = 1, None
    N = 2
    while N <= hard_cap:
        w2 = probe(N)
        if w2 is None:
            hi = N
            break
        w = w2
        lo = N
        N *= 2
    if hi is None:
        raise CriterionFailure(w[0], w[1], w[2], w[3], eps_k, hard_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) is None:
            hi = mid
        else:
            lo = mid
    return hi


def _nilpotent_top(family: BackwardOrbitFamily) -> np.ndarray | None:
    """top[l], the highest index of x_l (-1 for l = 0 and an empty x_l),
    where the forward map T is a unilateral backward shift, so that T^m x_l
    is 0 for every m > top[l]; None for any other T."""
    fwd = family.forward_op()
    if fwd.displacement < 0 and fwd.domain is Domain.NATURALS:
        return np.array([-1] + [max(x.entries, default=-1) for x in family.base_points])
    return None


def _term_error(exc: Exception, i: int, r: int, N: int) -> tuple:
    """The witness of a term whose weight product left the floating range;
    any other error of a term is raised."""
    if isinstance(exc, WeightOverflowError):
        return (i, r, (N, N + _THRESHOLD_WINDOW - 1), math.inf)
    raise exc


# ---------------------------------------------------------------------------
# separated visit plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatedFamily:
    sets: tuple              # NatSet per class, 1-indexed externally
    N_ks: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "N_ks", tuple(int(v) for v in self.N_ks))
        if len(self.sets) != len(self.N_ks):
            raise ValueError("one threshold per class is required")
        # with no threshold below 0, consecutive times separated imply all
        # pairs separated (see verify_separated_family)
        if any(v < 0 for v in self.N_ks):
            raise ValueError(f"thresholds must be >= 0, got {self.N_ks}")

    @property
    def num_classes(self) -> int:
        return len(self.sets)

    @property
    def horizon(self) -> int:
        return max(s.horizon for s in self.sets)


@dataclass(frozen=True)
class SeparationReport:
    ok: bool
    disjoint_ok: bool
    min_ok: bool
    separation_ok: bool
    density_ok: bool
    densities: tuple
    first_violation: tuple | None    # (kind, detail)


def _plan(fam: SeparatedFamily) -> tuple:
    """(times, classes): every planned time with its class, class by class."""
    times = np.concatenate([np.zeros(0, np.int64), *(s.elems for s in fam.sets)])
    return times, np.repeat(np.arange(1, fam.num_classes + 1), [len(s) for s in fam.sets])


def _blocks(fam: SeparatedFamily) -> tuple:
    """`_plan` sorted by time and then by class: a merge of the classes'
    sorted times, each placed after every earlier time of the other classes
    and every equal time of a lower class."""
    sets = [s.elems for s in fam.sets]
    size = sum(map(len, sets))
    merged = np.empty(size, np.result_type(np.int64, *(own.dtype for own in sets)))
    classes = np.empty(size, np.int64)
    for k, own in enumerate(sets):
        at = np.arange(len(own))
        for j, other in enumerate(sets):
            if j != k:
                at += np.searchsorted(other, own, side="right" if j < k else "left")
        merged[at] = own
        classes[at] = k + 1
    return merged, classes


def build_separated_family(N_ks: Sequence[int], horizon: int) -> tuple:
    """Round-robin block construction of separated positive-density classes,
    one class k = 1..K per threshold N_k.

    [1, horizon] splits into consecutive blocks; block m serves class
    k = (m mod K) + 1 with the global arithmetic progression k mod g_k,
    g_k = 2 (N_k + max_j N_j), clipped to the block interior.  With more
    than one class a guard strip of max_j N_j at each block edge keeps
    cross-class neighbours at distance >= N_k + N_j.  Returns the plan and
    the `verify_separated_family` report it was checked with.
    """
    N = [int(v) for v in N_ks]
    K = len(N)
    if K < 1:
        raise ValueError("at least one threshold is required")
    if any(v < 1 for v in N):
        raise ValueError("thresholds must be >= 1")
    gmax = max(N)
    gaps = [2 * (v + gmax) for v in N]
    guard = gmax if K > 1 else 0
    block = 2 * guard + 2 * max(gaps)
    # the progressions, masked to their class's block interiors
    elems = []
    for k in range(1, K + 1):
        t = np.arange(k, horizon - guard + 1, gaps[k - 1])
        pos = (t - 1) % block
        elems.append(t[((t - 1) // block % K == k - 1) & (pos >= guard) & (pos < block - guard)])
    # the density proxy is a liminf over [horizon // 2, horizon]: a class
    # with no element by then has proxy 0, however many come later
    if any(len(s) < 2 or s[0] > max(1, horizon // 2) for s in elems):
        need = (2 * K + 1) * block
        raise ValueError(
            f"horizon {horizon} too small for positive density in every class; "
            f"roughly {need} is needed for K = {K}, N_ks = {tuple(N)}")
    fam = SeparatedFamily(tuple(NatSet(s, horizon) for s in elems), tuple(N))
    rep = verify_separated_family(fam)
    if not rep.ok:
        raise AssertionError(f"construction violated its own contract: {rep.first_violation}")
    return fam, rep


def verify_separated_family(fam: SeparatedFamily) -> SeparationReport:
    """Exhaustive invariant check.

    Disjointness, per-class minimum, and the separation |m - n| >= N_k + N_j
    are checked on every consecutive pair of the sorted union; consecutive
    pairs imply all pairs because intermediate gaps only add (each gap
    already clears the first and last class thresholds, none of them below
    0).
    """
    times, cls = _blocks(fam)
    disjoint_ok = min_ok = separation_ok = True
    violation = None
    thr = np.array(fam.N_ks, np.int64)[cls - 1]
    # a pair at distance 0 breaks disjointness whatever the thresholds
    close = np.flatnonzero(np.diff(times) < np.maximum(thr[:-1] + thr[1:], 1))
    if close.size:
        i = int(close[0])
        a, b, ka, kb = int(times[i]), int(times[i + 1]), int(cls[i]), int(cls[i + 1])
        if a == b:
            disjoint_ok = False
            violation = ("disjointness", (a, ka, kb))
        else:
            separation_ok = False
            violation = ("separation", (a, ka, b, kb, int(thr[i] + thr[i + 1])))
    for k, s in enumerate(fam.sets, start=1):
        if s.elems.size and s.elems[0] < k:
            min_ok = False
            violation = violation or ("minimum", (k, int(s.elems[0])))
    densities = tuple(q_lower_density(s, 1.0, s.horizon, max(1, s.horizon // 2)).liminf_proxy
                      for s in fam.sets)
    density_ok = all(d > 0.0 for d in densities)
    if not density_ok:
        violation = violation or ("density", densities)
    ok = disjoint_ok and min_ok and separation_ok and density_ok
    return SeparationReport(ok, disjoint_ok, min_ok, separation_ok, density_ok,
                            densities, violation)


# ---------------------------------------------------------------------------
# assembly and verification
# ---------------------------------------------------------------------------

def assemble_vector(family: BackwardOrbitFamily, J: SeparatedFamily, q: int) -> SeqVector:
    """x = sum_l sum_{n in J_l} x_{l, n^q}, exact over the horizon.

    Blocks whose coefficients sit below the subnormal guard vanish from the
    stored vector; the verifier reconstructs them from the family instead of
    trusting this float shadow.  The blocks are added into one dict, and an
    entry is dropped the moment it falls below the guard, exactly as the fold
    total = total + x_{l, n^q} would store it.
    """
    qi = int(q)
    if qi < 1:
        raise ValueError("q must be a positive natural")
    if J.num_classes > family.num_classes:
        raise ValueError("more visit plans than targets")
    table = family._terms
    times, cls = _plan(J)
    rows = table.ids(cls, index_array(times.astype(object) ** qi), jump=False)
    failed = np.flatnonzero(table.column("state", np.int8)[rows])
    if failed.size:
        raise table.errors[int(rows[failed[0]])]
    ent = table.entries(rows)
    acc: dict = {}
    re, im = table.column("re")[ent].tolist(), table.column("im")[ent].tolist()
    for idx, c in zip(table.column("idx", np.int64)[ent].tolist(), map(complex, re, im)):
        v = acc.get(idx, 0.0) + c
        if abs(v) < COEFF_GUARD:
            acc.pop(idx, None)
        else:
            acc[idx] = v
    return SeqVector(acc, family.base_point(1).domain, family.base_point(1).p_exponent)


@dataclass(frozen=True)
class ClassVisitReport:
    k: int
    radius: float
    designed_count: int
    designed_within: int             # designed times landing inside the ball
    max_designed_distance: float
    contained: bool                  # J_k subset of the measured visit set
    visit_times: NatSet
    visit_density: float             # 1-density proxy of the measured visits
    designed_density: float          # 1-density proxy of J_k
    density_ratio: float             # visit_density / designed_density
    cross_check_dev: float | None    # decomposition vs direct jump at early times
    # every walk is summed to its end or to a proved stop, so no scan is
    # partial; a class constant, not a field, kept for deskbench's tracer,
    # which counts `truncated_classes` from it
    truncated = False


# the last orbit time whose stored-vector jump the verifier's cross-check
# may take
_CROSS_CHECK_HORIZON = 512


def verify_q_frequent_visits(x: SeqVector, family: BackwardOrbitFamily, J: SeparatedFamily,
                             q: int, radii: Sequence[float], horizon: int | None = None,
                             cross_check: int = 3) -> list:
    """Measure the visit structure of {T^{n^q} x} around every target, T
    the family's forward map, class k's ball having radius radii[k - 1]
    (construct-fhc passes the schedule's `EpsSchedule.bound(k, K)`).

    For each time n the orbit point decomposes over the designed blocks:
    blocks m >= n contribute x_{l, m^q - n^q} exactly, blocks m < n
    contribute T^{n^q - m^q} x_l via closed-form jumps, both rows of the
    family's term table.  Every distance and visit is that of walking all
    the blocks, though a walk may stop early where the rule's form bounds
    the blocks it leaves (see `_Walk` and `_scan_distances`).
    `_scan_distances` measures every time n = 1..horizon at once, one
    distance array per class, and the visit set of class k is the times
    whose distance lies below its radius.  Early designed times n with n^q
    up to _CROSS_CHECK_HORIZON are re-measured by jumping the stored vector
    directly, giving an independent consistency figure.  The scan sums a
    distance exactly where a report reads it (class k's designed times,
    every class at those early times) and where its largest term lies
    below the radius; any other time is no visit, decided from that term.
    """
    qi = int(q)
    K = J.num_classes
    if len(radii) != K:
        raise ValueError("one radius per class is required")
    blocks = _blocks(J)
    btime = blocks[0]
    if btime.size and btime[0] < 1:
        raise ValueError("visit plans start at time 1")
    N_H = horizon if horizon is not None else (int(btime[-1]) if btime.size else 0)
    early = [m for m in btime.tolist()
             if m <= N_H and m ** qi <= _CROSS_CHECK_HORIZON][:max(cross_check, 0)]
    # the cells whose distance the reports read: each class's designed
    # times and every class at the cross-check times
    designed = [s.elems[:s.count_leq(N_H)].astype(np.int64) - 1 for s in J.sets]
    read = np.zeros((K, N_H), bool)
    for k in range(K):
        read[k, designed[k]] = True
    read[:, [m - 1 for m in early]] = True
    distances = _scan_distances(family, blocks, K, qi, N_H, [float(r) for r in radii], read)

    # independent early-time cross-check from the stored vector
    dev = None
    if early:
        dev, fwd = 0.0, family.forward_op()
        for m in early:
            z = shift_power_apply(fwd, x, m ** qi)
            for k in range(1, K + 1):
                d_direct = lp_norm(z - family.base_point(k))
                dev = max(dev, abs(d_direct - distances[k - 1, m - 1].item()))

    reports = []
    for k in range(1, K + 1):
        radius = float(radii[k - 1])
        d = distances[k - 1]
        des_d = d[designed[k - 1]].tolist()
        within = sum(1 for v in des_d if v < radius)
        visits = NatSet(np.flatnonzero(d < radius) + 1, N_H)
        vis_density = q_lower_density(visits, 1.0, N_H, max(1, N_H // 2)).liminf_proxy \
            if N_H >= 1 else 0.0
        des_density = q_lower_density(J.sets[k - 1], 1.0, J.sets[k - 1].horizon,
                                      max(1, J.sets[k - 1].horizon // 2)).liminf_proxy
        reports.append(ClassVisitReport(
            k=k,
            radius=radius,
            designed_count=len(des_d),
            designed_within=within,
            max_designed_distance=max(des_d) if des_d else 0.0,
            contained=within == len(des_d),
            visit_times=visits,
            visit_density=vis_density,
            designed_density=des_density,
            density_ratio=(vis_density / des_density) if des_density > 0 else math.inf,
            cross_check_dev=dev,
        ))
    return reports


# A scan pass takes as many times as hold about _PASS_SIZE orbit-point
# terms, judged by the longest time of the pass before (the first pass,
# before any walk length is known, takes _FIRST_PASS times), and a walk step
# looks ahead as many blocks as keep that many (time, block) pairs: arrays
# of 256 KB bound a pass's memory at any horizon.  With powers taken only
# on the cells near a ball, a pass costs mostly its fixed round of array
# operations: `construct-fhc --q 1 --targets "0|0,1" --horizon 25000` took
# 91 ms in process at 2^13 terms and 76 ms at 2^15 (2 cores, Python 3.11,
# numpy 2.4), and 2^16 gained nothing more.
_PASS_SIZE = 1 << 15
_FIRST_PASS = 64


def _first(mask: np.ndarray) -> np.ndarray:
    """Per row, the first column where mask holds, or the width if none."""
    return np.where(mask, np.arange(mask.shape[1]), mask.shape[1]).min(axis=1)


# a side of a walk may stop once the pieces it has not walked sum to a norm
# of at most this share of the largest piece the time walked (see `_Walk`):
# a factor 2 inside what `_lp_distances` asks of the terms past a stop, so
# that an l^1 sum, whose terms are the norms themselves, need not walk again
_STOP = 2.0 ** -56


class _Tail:
    """What a closed rule proves about the pieces of one side of a walk:
    the future pieces x_{l,e} where its level `high` has |high| > 1, the
    past pieces T^e x_l of a bilateral shift where `low` has |low| < 1.

    Take r = |log|level|| and u = n + offset for an entry c_n of a target.
    Once e >= start, the entry of a piece from c_n reads the weights
    between u and the table's edge and then only the level, so its modulus
    is |c_n| exp(k_n - r e), k_n = L(u) - L(edge) -+ (u - edge) r with L
    the rule's log prefix (- on the future side), and the piece's norm is
    at most C exp(-r e), C = max_l ||(|c_n| exp(k_n))_n||_p over the
    entries of x_l.  Pieces at distinct exponents e >= x sum to at most
    C exp(-r x) / (1 - exp(-r)), which `rest` takes with C raised by a
    factor e and r lowered by 2^-30 of itself, far more than the rounding
    of a piece's log-sum (a few units in e r) and of k_n.  Every index of
    such a piece lies e above the targets' (below them on the past side),
    which span `span` indices.
    """

    def __init__(self, start: int, log_c: float, rate: float, span: int):
        self.start, self.log_c, self.span = start, log_c, span
        self.rate = rate * (1.0 - 2.0 ** -30)

    def rest(self, x: np.ndarray) -> np.ndarray:
        """The bound on the summed norms of pieces at distinct exponents
        from x on, inf where x < start."""
        x = np.minimum(x, 2 ** 62).astype(float)   # past 2^53 a piece only raises
        with np.errstate(over="ignore", under="ignore"):
            r = np.exp(self.log_c - self.rate * x) / -math.expm1(-self.rate)
        return np.where(x >= self.start, r, math.inf)


def _tails(family: BackwardOrbitFamily) -> tuple:
    """(future, past) `_Tail`s of the walks over the family's pieces, None on
    a side without one: every rule but a closed one whose weights are all
    usable, a diagonal forward map, a level that does not shrink the pieces,
    and the past side on the naturals, which ends at the nilpotent cut."""
    op, targets = family.forward_op(), family.base_points
    w = op.weights
    n = index_array([i for x in targets for i in x.entries])
    if op.displacement != -1 or w.rational is not None or not (w.low and w.high and all(w.values)) \
            or not n.size or n.dtype == object or max(abs(w.a), np.abs(n).max()) > 2 ** 52:
        return None, None
    p = targets[0].p_exponent
    cls = np.repeat(np.arange(len(targets)), [len(x.entries) for x in targets])
    logc = np.log(np.abs([c for x in targets for c in x.entries.values()]))
    u = n + op.offset
    L = w.prefix.log_abs_many
    tails = []
    for level, edge, sign in ((w.high, w.a + len(w.values), 1), (w.low, w.a, -1)):
        rate = sign * math.log(abs(level))
        if rate <= 0.0 or (sign < 0 and op.domain is Domain.NATURALS):
            tails.append(None)
            continue
        if op.domain is Domain.NATURALS:
            edge = max(edge, 0)   # L starts at 0, and every weight above it is the level
        c0 = logc + (L(u) - L(np.array([edge]))) + sign * (edge - u) * rate
        top = c0.max()
        log_c = top + math.log(np.bincount(cls, np.exp(p * (c0 - top))).max()) / p + 1.0
        tails.append(_Tail(int((sign * (edge - u)).max()), log_c, rate, int(n.max() - n.min())))
    return tuple(tails)


class _Walk:
    """The block walks of one pass of times, stepped for all times at once.

    A future piece is the inverse point x_{l, m^q - n^q}, a past piece the
    jump T^{n^q - m^q} x_l, both rows of the family's term table, which
    builds each once (a walk step's missing pieces in one batch);
    row 0 is empty and stands in for positions past the end of a walk.
    used[t] counts the pieces time t has added (n_future[t] of them on the
    future walk); parts collects (time, position, piece) arrays; fail[t] is
    the piece whose error ended t's walk, or -1; bad[t] marks a past jump
    that overflowed.

    Each side walks to its end: the last block, or block 0, a nilpotent cut
    or an overflow on the past side.  Where tails gives the side a `_Tail`,
    it may stop after a piece: when the bound R on the pieces it has not
    walked is below COEFF_GUARD, so each of their entries would be dropped
    and they are empty; or when R is at most _STOP times mu[t], the largest
    norm of the pieces t walked other than its e = 0 one, and the next
    piece lies more than the targets' span past the walked ones, so no
    piece left shares an index with a walked piece or a target.
    rest[side, t] is R where that side stopped with R >= COEFF_GUARD, 0.0
    elsewhere.
    """

    def __init__(self, table: TermTable, bpow, bcls, nq, i0, tails: tuple):
        self.table, self.bpow, self.bcls = table, bpow, bcls
        self.nq, self.i0, self.tails = nq, i0, tails
        T = len(nq)
        self.used = np.zeros(T, np.int64)
        self.n_future = np.zeros(T, np.int64)
        self.fail = np.full(T, -1, np.int64)
        self.bad = np.zeros(T, bool)
        self.rest = np.zeros((2, T))
        self.mu = np.zeros(T)
        self.parts: list = []

    def _step(self, side, act, pid, ok, x, x_next, more, counted) -> np.ndarray:
        """Add each row's pieces pid (exponents x, the next piece's x_next
        where more holds) up to its first stop: before a piece that is not
        ok, or after one where the side's tail allows it.  Returns the rows
        that ran through the whole step."""
        S = pid.shape[1]
        rows = np.arange(len(act))
        halt = np.zeros(pid.shape, bool)
        tail = self.tails[side]
        if tail is not None:
            R = np.where(more, tail.rest(x_next), 0.0)
            norms = np.where(counted, self.table.norms(pid), 0.0)
            mu = np.maximum.accumulate(np.hstack([self.mu[act, None], norms]), axis=1)[:, 1:]
            # R is 0.0 past the last piece
            halt = (R < COEFF_GUARD) | ((R <= _STOP * mu) & (x_next - x > tail.span))
        fb, fa = _first(~ok), _first(ok & halt)
        n_take = np.minimum(fb, fa + 1)
        taken = np.arange(S) < n_take[:, None]
        self.parts.append((np.broadcast_to(act[:, None], pid.shape)[taken],
                           (self.used[act, None] + np.arange(S))[taken], pid[taken]))
        self.used[act] += n_take
        if tail is not None:
            last = np.maximum(n_take - 1, 0)
            self.mu[act] = np.where(n_take > 0, mu[rows, last], self.mu[act])
            stop = (fa < fb) & ~(R[rows, last] < COEFF_GUARD)
            self.rest[side, act[stop]] = R[rows, last][stop]
        at = pid[rows, np.minimum(fb, S - 1)]
        state = np.where((fb <= fa) & (fb < S), self.table.column("state", np.int8)[at], 0)
        self.fail[act[state == 2]] = at[state == 2]
        self.bad[act[state == 1]] = True
        return (fb == S) & (fa == S)

    def future(self) -> None:
        """Blocks i0, i0 + 1, ...: add x_{l, m^q - n^q}."""
        B = len(self.bpow)
        act = np.flatnonzero(self.i0 < B)
        j = 0
        while act.size:
            # look ahead about half the walk so far: a piece past a stop is
            # computed for nothing, a step costs a round of array operations
            S = max(1, min(max(4, j // 2), _PASS_SIZE // len(act)))
            i = self.i0[act, None] + (j + np.arange(S))
            inb = i < B
            ic = np.minimum(i, B - 1)
            e = self.bpow[ic] - self.nq[act, None]
            pid = np.zeros(i.shape, np.int64)
            pid[inb] = self.table.ids(self.bcls[ic][inb], e[inb], jump=False)
            ok = inb & (self.table.column("state", np.int8)[pid] == 0)
            e_next = self.bpow[np.minimum(i + 1, B - 1)] - self.nq[act, None]
            act = act[self._step(0, act, pid, ok, e, e_next, i + 1 < B, e > 0)]
            j += S
        self.n_future = self.used.copy()

    def past(self, top: np.ndarray | None) -> None:
        """Blocks i0 - 1, i0 - 2, ...: add T^{n^q - m^q} x_l, stop at block
        0, at a jump that overflows (the time reads inf) and, where top is
        `_nilpotent_top`'s array, before the first block whose jump clears
        its target's support."""
        act = np.flatnonzero((self.i0 > 0) & (self.fail < 0))
        j, S = 0, 1
        while act.size:
            S = max(1, min(2 * S, _PASS_SIZE // len(act)))
            s = np.arange(S)
            i = self.i0[act, None] - 1 - (j + s)
            ic = np.maximum(i, 0)
            delta = self.nq[act, None] - self.bpow[ic]
            cls = self.bcls[ic]
            cut = i < 0
            if top is not None:
                cut |= delta > top[cls]
            reach = s < _first(cut)[:, None]
            pid = np.zeros(i.shape, np.int64)
            pid[reach] = self.table.ids(cls[reach], delta[reach], jump=True)
            ok = reach & (self.table.column("state", np.int8)[pid] == 0)
            d_next = self.nq[act, None] - self.bpow[np.maximum(i - 1, 0)]
            act = act[self._step(1, act, pid, ok, delta, d_next, i > 0, reach)]
            j += S

    def terms(self) -> tuple:
        """(time, idx, re, im) of every added entry, ordered by time, then
        walk position, then the piece's entry order; whether an index may
        repeat within a time (`terms.shares_an_index`: the future pieces
        rise, the past ones fall below them); and how many of each time's
        entries come from its future walk."""
        none = np.zeros(0, np.int64)
        t, pos, pid = (np.concatenate(c) for c in zip(*self.parts)) if self.parts else \
            (none, none, none)
        self.parts = []
        offset = np.cumsum(self.used) - self.used
        slot = np.empty(len(pid), np.int64)
        slot[offset[t] + pos] = pid
        del t, pos, pid
        slot_t = np.repeat(np.arange(len(self.used)), self.used)
        size = self.table.column("size", np.int64)[slot]
        ends = np.concatenate([[0], np.cumsum(size)])    # entries before each slot
        front = ends[offset + self.n_future] - ends[offset]
        lo, hi = (self.table.column(c, np.int64)[slot[size > 0]] for c in ("lo", "hi"))
        shared = shares_an_index(slot_t[size > 0], lo, hi)
        ent = self.table.entries(slot)
        del slot
        return (np.repeat(slot_t, size), self.table.column("idx", np.int64)[ent],
                self.table.column("re")[ent], self.table.column("im")[ent], shared, front)


def _merge_terms(t, idx, re, im, front) -> tuple:
    """Entries of the orbit points y_t = sum of their terms, in the order
    the dict fold acc[i] = acc.get(i, 0j) + c would hold them: first
    occurrence of each (time, index), each sum added term by term (a lone
    -0.0 keeps its sign, which no distance reads).  The first front[u]
    terms of time u are those of its future walk; the last array returned
    counts the entries of each y_u first seen among them."""
    order, same, run_re, run_im = _fold_replay(t, idx, re, im)
    starts = np.flatnonzero(~same)
    last = np.append(starts[1:], len(same))[:len(starts)] - 1
    by_first = np.argsort(order[starts])
    first = order[starts][by_first]
    tf = t[first]
    ahead = first - np.searchsorted(t, np.arange(len(front)))[tf] < front[tf]
    return tf, idx[first], run_re[last][by_first], run_im[last][by_first], \
        np.bincount(tf[ahead], minlength=len(front))


def _lp_distances(t, idx, re, im, n_times: int, targets: Sequence[dict], p: float,
                  radii: Sequence[float], read: np.ndarray, rest: np.ndarray,
                  front: np.ndarray) -> tuple:
    """(out, moved): out[k, u] = lp_norm(SeqVector(y_u) - SeqVector(x_k))
    for u < n_times where read[k, u] holds or that norm may lie below
    radii[k]; elsewhere the largest term of the difference, which is at
    least radii[k] and at most the norm.  y_u holds the entries (idx, re +
    i im) at t == u (t nondecreasing, each time's entries in its dict
    order), x_k the entries targets[k].

    Step for step the float operations of that expression: |y_i| is
    np.hypot, which equals abs(complex) bit for bit where np.abs does not;
    entries below COEFF_GUARD are dropped; the difference keeps y's order,
    updates y's entries in place and appends |t_i| for the target indices
    y lacks; the norms are `_p_sums` of the terms, a dropped entry or an
    empty cell being 0.0.  A norm is top * pow(s, 1 / p) with top the
    largest term and s >= 1.0 (top adds exactly 1.0), so it is never below
    top, and where top >= radius, norm < radius is False without a power.

    moved[u] holds where y_u may lack terms that could change a value:
    rest[side, u] > 0 bounds the summed norms of the pieces each side of
    u's walk left (`_Walk`), whose entries would be new indices, entering
    after the first front[u] entries of y_u (the future side) or after all
    of them (the past side).  Each such entry is at most rest, so where
    rest[0, u] + rest[1, u] < top, top is the same with them; each adds a
    term (entry / top) ** p to the running sum A of the terms before it,
    and where A + (rest 2^(1/p) / top) ** p == A, that term is at most
    half of a bound that vanishes beside A, rounding included, so it
    vanishes too and A and so the sum keep every bit (a bound that
    underflows to 0.0 proves it at any A).  A value decided by top alone
    needs only the first.
    """
    p = float(p)
    mag = np.hypot(re, im)
    keep = ~(mag < COEFF_GUARD)
    mag[~keep] = 0.0
    col = np.arange(len(t)) - np.searchsorted(t, np.arange(n_times))[t]
    width0 = np.bincount(t, minlength=n_times)
    out = np.empty((len(targets), n_times))
    left = rest.sum(axis=0)
    moved = np.zeros(n_times, bool)
    for k, target in enumerate(targets):
        # V[c, u]: the c-th term of time u
        V = np.zeros((max(1, int(width0.max(initial=0)) + len(target)), n_times))
        V[col, t] = mag
        width = width0.copy()
        for ti, tc in target.items():
            hit = np.flatnonzero(keep & (idx == ti))
            a = np.hypot(re[hit] - tc.real, im[hit] - tc.imag)
            V[col[hit], t[hit]] = np.where(a < COEFF_GUARD, 0.0, a)
            lacks = np.ones(n_times, bool)
            lacks[t[hit]] = False
            lacks = np.flatnonzero(lacks)
            V[width[lacks], lacks] = abs(tc)
            width[lacks] += 1
        top = V.max(axis=0)
        out[k] = top
        moved |= (left > 0.0) & ~(left < top)
        # a NaN top compares False both ways and takes the exact sum
        exact = read[k] | ~(top >= radii[k])
        W = V[:, exact]
        out[k, exact] = _p_sums(W, p)     # W now holds the terms (v / top) ** p
        for side, ahead in enumerate((front[exact], width0[exact])):
            on = rest[side, exact] > 0.0
            if on.any():
                A = _left_sum(np.where(np.arange(len(W))[:, None] < ahead[on], W[:, on], 0.0))
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    bound = (rest[side, exact][on] * 2.0 ** (1.0 / p) / top[exact][on]) ** p
                moved[np.flatnonzero(exact)[on]] |= A + bound != A
    return out, moved


def _scan_distances(family: BackwardOrbitFamily, blocks: tuple, K: int, qi: int, N_H: int,
                    radii: Sequence[float], read: np.ndarray) -> np.ndarray:
    """d over the blocks (times, classes) of `_blocks`, with
    d[k - 1, n - 1] = ||T^{n^q} x - x_k|| for k <= K and n = 1..N_H where
    read[k - 1, n - 1] holds or the distance lies below radii[k - 1], and
    elsewhere a value in [radii[k - 1], ||T^{n^q} x - x_k||] (see
    `_lp_distances`), so d < radius decides every visit; see
    verify_q_frequent_visits.

    The times go through in passes.  A pass walks the blocks of all its
    times at once (`_Walk`, with the rule's `_tails`), taking each piece
    from the term table, expands the pieces to terms, sums the terms of
    each orbit point per index where two pieces of a time overlap
    (`_merge_terms`) and measures the distances (`_lp_distances`).  The
    times whose walk stopped where the pieces it left could move a value
    walk again to their ends and are measured again.
    Every float operation is that of summing each orbit point into a dict
    over all its blocks in block order and taking
    lp_norm(SeqVector(acc) - x_k), in the same order, so every distance
    taken equals that loop's bit for bit.  An error a piece raises is
    raised for the earliest time whose walk reaches it, as that loop would;
    a piece past a stop is not built, so it raises nothing.
    """
    p = family.base_point(1).p_exponent
    targets = [family.base_point(k).entries for k in range(1, K + 1)]
    top = _nilpotent_top(family)
    btime, bcls = blocks
    last = max(N_H, int(btime[-1]) if btime.size else 0)
    dt = np.int64 if (last ** qi + 1) * (K + 1) < EXACT_INT64 else object
    bpow = btime.astype(dt) ** qi
    table = family._terms
    tails = _tails(family)

    def measure(times: np.ndarray, tails: tuple, read: np.ndarray) -> tuple:
        """(d, terms of the longest walk, moved) of one pass of times."""
        walk = _Walk(table, bpow, bcls, times.astype(dt) ** qi, np.searchsorted(btime, times),
                     tails)
        walk.future()
        walk.past(top)
        failed = np.flatnonzero(walk.fail >= 0)
        if failed.size:
            raise table.errors[int(walk.fail[failed[0]])]
        *terms, shared, front = walk.terms()
        longest = int(np.bincount(terms[0], minlength=1).max())
        if shared:
            *terms, front = _merge_terms(*terms, front)
        d, moved = _lp_distances(*terms, len(times), targets, p, radii, read, walk.rest, front)
        # an overflowed past reads inf whatever the pieces left
        d[:, walk.bad] = math.inf
        return d, longest, moved & ~walk.bad

    distances = np.empty((K, N_H))
    n0, width = 1, _FIRST_PASS
    while n0 <= N_H:
        n1 = min(N_H, n0 + width - 1)
        d, longest, moved = measure(np.arange(n0, n1 + 1), tails, read[:, n0 - 1:n1])
        again = np.flatnonzero(moved)
        if again.size:
            d[:, again] = measure(n0 + again, (None, None), read[:, n0 - 1 + again])[0]
        distances[:, n0 - 1:n1] = d
        n0, width = n1 + 1, max(16, _PASS_SIZE // max(1, longest))
    return distances


# ---------------------------------------------------------------------------
# operator-space variant: orbits of the conjugation map S -> R S T
# ---------------------------------------------------------------------------

def conjugation_orbit(R: ShiftOp | MatOp | None, S0: MatOp,
                      T: ShiftOp | MatOp | None, horizon: int) -> Iterator[MatOp]:
    """Yield C^n(S0) = R^n S0 T^n for n = 1..horizon; shift factors grow the
    window band by band."""
    cur = S0
    for _ in range(horizon):
        cur = conjugation(R, cur, T)
        yield cur


def conjugation_inverse_family(R: ShiftOp, T: ShiftOp,
                               pairs: Sequence[tuple], n: int) -> list:
    """Rank-one family F_n = sum_j y_{j,n} (x) v_{j,n} with
    C^n(F_n) = F_0 exactly (bilinear pairing).

    The left legs climb the right inverse of R; the right legs climb the
    right inverse of T's adjoint, which is what the conjugation transposes
    onto functionals.
    """
    out = []
    for u, v in pairs:
        out.append(RankOne(apply_right_inverse(R, u, n),
                           apply_right_inverse(T, v, n), Pairing.BILINEAR))
    return out


def materialize_rank_one_sum(rank_ones: Sequence[RankOne], dim: int) -> MatOp:
    """The sum of the rank-one operators on the window [0, dim)."""
    total = MatOp.zeros(dim, dim)
    for r in rank_ones:
        total = total + rank_one_to_mat(r, dim)
    return total
