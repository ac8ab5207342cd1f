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
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .density import NatSet, q_lower_density
from .matops import MatOp, Pairing, RankOne, conjugation, rank_one_to_mat
from .seqspace import (
    COEFF_GUARD,
    SeqVector,
    ShiftKind,
    ShiftOp,
    WeightOverflowError,
    adjoint,
    apply,
    apply_right_inverse,
    lp_norm,
    p_sum,
    shift_power_apply,
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

_BACKWARD_KINDS = {ShiftKind.BACKWARD, ShiftKind.BACKWARD_BILATERAL}


# ---------------------------------------------------------------------------
# epsilon schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsSchedule:
    """eps_k = scale * base^k unless a custom rule is supplied."""

    scale: float = 1.0
    base: float = 0.5
    custom: Callable | None = field(default=None, compare=False, repr=False)

    def eps(self, k: int) -> float:
        if k < 1:
            raise ValueError("k must be >= 1")
        v = float(self.custom(k)) if self.custom is not None else self.scale * self.base ** k
        if not 0.0 < v < math.inf:
            raise ValueError(f"eps_{k} = {v} is not a positive real")
        return v

    def defect(self, k: int, tail_terms: int = 256) -> float:
        """k*eps_k + sum_{j=k+1}^{k+tail_terms} eps_j, the quantity that must
        vanish as k grows."""
        return k * self.eps(k) + sum(self.eps(j) for j in range(k + 1, k + tail_terms + 1))

    def verify_decay(self, k_max: int = 64, tail_terms: int = 256,
                     threshold: float = 1e-6) -> float:
        """Return the defect at k_max; reject schedules that have not pushed
        it under `threshold` by then."""
        d = self.defect(k_max, tail_terms)
        if d >= threshold:
            raise ValueError(
                f"schedule defect {d:.3g} at k = {k_max} has not decayed below "
                f"{threshold:.3g}")
        return d

    def describe(self) -> str:
        if self.custom is not None:
            return "custom"
        return f"{self.scale!r}*{self.base!r}^k"


# ---------------------------------------------------------------------------
# inverse-orbit families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackwardOrbitFamily:
    """Targets x_1..x_K with their exact inverse-orbit points x_{k,n}.

    x_{k,n} shifts the support of x_k up by n and divides by the running
    weight product, so n applications of the operator (of its adjoint, for a
    forward-type rule) restore x_k exactly.  Points and their norms are
    cached; weight products come from the rule's shared `WeightPrefix`.
    """

    op: ShiftOp
    base_points: tuple
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    _norms: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.op.kind is ShiftKind.POLY_OF_SHIFT:
            raise ValueError("inverse-orbit families need a plain shift or diagonal")
        pts = tuple(self.base_points)
        if not pts:
            raise ValueError("at least one target is required")
        for x in pts:
            if x.domain is not self.op.domain:
                raise ValueError("target domain does not match the operator")
        object.__setattr__(self, "base_points", pts)

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
        key = (k, n)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = apply_right_inverse(self.op, self.base_point(k), n)
        self._cache[key] = out
        return out

    def inverse_norm(self, k: int, n: int) -> float:
        """lp_norm of x_{k,n}, computed once per point."""
        key = (k, n)
        hit = self._norms.get(key)
        if hit is None:
            hit = self._norms[key] = lp_norm(self.inverse_point(k, n))
        return hit

    def forward_op(self) -> ShiftOp:
        """The map that undoes inverse_point: the operator itself for
        backward-type and diagonal rules, its adjoint for forward-type."""
        if self.op.kind in _BACKWARD_KINDS or self.op.kind is ShiftKind.DIAGONAL:
            return self.op
        return adjoint(self.op)

    def check_exactness(self, n_values: Sequence[int], tol: float = 1e-10) -> float:
        """Max relative deviation of T^n x_{k,n} from x_k over the grid."""
        fwd = self.forward_op()
        worst = 0.0
        for k in range(1, self.num_classes + 1):
            x = self.base_point(k)
            scale = max(lp_norm(x), 1e-30)
            for n in n_values:
                back = shift_power_apply(fwd, self.inverse_point(k, n), n)
                worst = max(worst, lp_norm(back - x) / scale)
        if worst > tol:
            raise ValueError(f"inverse-orbit exactness violated: deviation {worst:.3g}")
        return worst


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


class _RunningNorm:
    """Sparse accumulator with an incrementally patched power sum, which
    saturates at inf once a power overflows (never inf - inf = nan)."""

    def __init__(self, p: float):
        self.p = p
        self.entries: dict = {}
        self.power_sum = 0.0

    def add(self, v: SeqVector) -> None:
        for idx, c in v.entries.items():
            old = self.entries.get(idx, 0.0 + 0.0j)
            new = old + c
            if self.power_sum < math.inf:
                try:
                    self.power_sum += abs(new) ** self.p - abs(old) ** self.p
                except OverflowError:
                    self.power_sum = math.inf
            self.entries[idx] = new

    def norm(self) -> float:
        return max(self.power_sum, 0.0) ** (1.0 / self.p)


def find_tail_threshold(family: BackwardOrbitFamily, op: ShiftOp, k: int, q: int,
                        eps: EpsSchedule, r_max: int = 32, samples: int = 20,
                        n_max: int = 64, hard_cap: int = 4096,
                        seed: int = 0) -> int:
    """Smallest N making every tested criterion sum smaller than eps_k.

    For each class i <= k, each offset r <= r_max (r = 0 included), and each
    tested index set F inside the length-n_max window starting at N, both

        || sum_{n in F} x_{i, (n+r)^q - r^q} ||            (inverse side)
        || sum_{n in F, n <= r} T^{r^q - (r-n)^q} x_i ||    (forward side)

    must be < eps_k.  Tested F are every contiguous tail of the window plus
    `samples` seeded random subsets of size <= 12.  The search doubles N and
    then bisects to the smallest passing value; if nothing passes by
    `hard_cap` a CriterionFailure carries the last witness.
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
    subset_offsets = [sorted(rng.sample(range(n_max), rng.randint(1, 12)))
                      for _ in range(samples)]
    p = family.base_point(1).p_exponent

    def inverse_term(i: int, r: int, n: int) -> SeqVector:
        return family.inverse_point(i, (n + r) ** qi - r ** qi)

    def forward_term(i: int, r: int, n: int) -> SeqVector:
        return shift_power_apply(op, family.base_point(i), r ** qi - (r - n) ** qi)

    def probe(N: int):
        """None when every sum is small; otherwise a witness tuple.  A term
        whose weight product leaves the floating range has infinite norm."""
        window = range(N, N + n_max)
        for i in range(1, k + 1):
            for r in range(0, r_max + 1):
                try:
                    acc = _RunningNorm(p)
                    for n in reversed(window):       # tails [n, N + n_max)
                        acc.add(inverse_term(i, r, n))
                        if acc.norm() >= eps_k:
                            return (i, r, (n, N + n_max - 1), acc.norm())
                    if r >= N:
                        acc = _RunningNorm(p)
                        for n in range(min(r, N + n_max - 1), N - 1, -1):
                            acc.add(forward_term(i, r, n))
                            if acc.norm() >= eps_k:
                                return (i, r, (n, r), acc.norm())
                    for offs in subset_offsets:
                        acc = _RunningNorm(p)
                        for o in offs:
                            acc.add(inverse_term(i, r, N + o))
                        if acc.norm() >= eps_k:
                            return (i, r, tuple(N + o for o in offs), acc.norm())
                        accf = _RunningNorm(p)
                        fwd = [N + o for o in offs if N + o <= r]
                        for n in fwd:
                            accf.add(forward_term(i, r, n))
                        if accf.norm() >= eps_k:
                            return (i, r, tuple(fwd), accf.norm())
                except WeightOverflowError:
                    return (i, r, (N, N + n_max - 1), math.inf)
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
    pairs_checked: int


def build_separated_family(N_ks: Sequence[int], K: int, horizon: int) -> SeparatedFamily:
    """Round-robin block construction of separated positive-density classes.

    [1, horizon] splits into consecutive blocks; block m serves class
    k = (m mod K) + 1 with the global arithmetic progression k mod g_k,
    g_k = 2 (N_k + max_j N_j), clipped to the block interior.  With more
    than one class a guard strip of max_j N_j at each block edge keeps
    cross-class neighbours at distance >= N_k + N_j.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if len(N_ks) < K:
        raise ValueError("need a threshold for every class")
    N = [int(v) for v in N_ks[:K]]
    if any(v < 1 for v in N):
        raise ValueError("thresholds must be >= 1")
    gmax = max(N)
    gaps = [2 * (v + gmax) for v in N]
    guard = gmax if K > 1 else 0
    block = 2 * guard + 2 * max(gaps)
    elems: list = [[] for _ in range(K)]
    m = 0
    while True:
        lo = 1 + m * block
        if lo > horizon:
            break
        hi = min((m + 1) * block, horizon)
        k = (m % K) + 1
        g = gaps[k - 1]
        start_bound = max(lo + guard, k)
        first = k + ((start_bound - k + g - 1) // g) * g
        t = first
        while t <= hi - guard:
            elems[k - 1].append(t)
            t += g
        m += 1
    # the density proxy is a liminf over [horizon // 2, horizon]: a class
    # with no element by then has proxy 0, however many come later
    if any(len(s) < 2 or s[0] > max(1, horizon // 2) for s in elems):
        need = (2 * K + 1) * block
        raise ValueError(
            f"horizon {horizon} too small for positive density in every class; "
            f"roughly {need} is needed for K = {K}, N_ks = {tuple(N)}")
    fam = SeparatedFamily(tuple(NatSet(tuple(s), horizon) for s in elems), tuple(N))
    rep = verify_separated_family(fam)
    if not rep.ok:
        raise AssertionError(f"construction violated its own contract: {rep.first_violation}")
    return fam


def verify_separated_family(fam: SeparatedFamily,
                            literal_pair_horizon: int = 3000) -> SeparationReport:
    """Exhaustive invariant check.

    Disjointness, per-class minimum, and the separation |m - n| >= N_k + N_j
    are checked on every consecutive pair of the sorted union; consecutive
    pairs imply all pairs because intermediate gaps only add (each gap
    already clears the first and last class thresholds).  Pairs among
    elements up to `literal_pair_horizon` are additionally checked literally.
    """
    tagged = sorted((n, k) for k, s in enumerate(fam.sets, start=1) for n in s.elems)
    disjoint_ok = min_ok = separation_ok = True
    violation = None
    for (a, ka), (b, kb) in zip(tagged, tagged[1:]):
        if a == b:
            disjoint_ok = False
            violation = violation or ("disjointness", (a, ka, kb))
            break
        need = fam.N_ks[ka - 1] + fam.N_ks[kb - 1]
        if b - a < need:
            separation_ok = False
            violation = violation or ("separation", (a, ka, b, kb, need))
            break
    for k, s in enumerate(fam.sets, start=1):
        if s.elems and s.elems[0] < k:
            min_ok = False
            violation = violation or ("minimum", (k, s.elems[0]))
    pairs = 0
    if disjoint_ok and separation_ok:
        small = [(n, k) for (n, k) in tagged if n <= literal_pair_horizon]
        for idx, (a, ka) in enumerate(small):
            for b, kb in small[idx + 1:]:
                pairs += 1
                if b - a < fam.N_ks[ka - 1] + fam.N_ks[kb - 1]:
                    separation_ok = False
                    violation = violation or ("separation", (a, ka, b, kb))
                    break
            if not separation_ok:
                break
    densities = []
    for s in fam.sets:
        est = q_lower_density(s, 1.0, s.horizon, max(1, s.horizon // 2))
        densities.append(est.liminf_proxy)
    density_ok = all(d > 0.0 for d in densities)
    if not density_ok:
        violation = violation or ("density", tuple(densities))
    ok = disjoint_ok and min_ok and separation_ok and density_ok
    return SeparationReport(ok, disjoint_ok, min_ok, separation_ok, density_ok,
                            tuple(densities), violation, pairs)


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
    acc: dict = {}
    for l in range(1, J.num_classes + 1):
        for n in J.sets[l - 1].elems:
            for idx, c in family.inverse_point(l, n ** qi).entries.items():
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
    proof_bound: float | None        # k*eps_k + sum_{j>k} eps_j when eps given
    designed_count: int
    designed_within: int             # designed times landing inside the ball
    max_designed_distance: float
    contained: bool                  # J_k subset of the measured visit set
    visit_times: NatSet
    visit_density: float             # 1-density proxy of the measured visits
    designed_density: float          # 1-density proxy of J_k
    density_ratio: float             # visit_density / designed_density
    truncated: bool                  # block scan hit the per-time cap somewhere
    cross_check_dev: float | None    # decomposition vs direct jump at early times


def verify_q_frequent_visits(op: ShiftOp, x: SeqVector, family: BackwardOrbitFamily,
                             J: SeparatedFamily, q: int, radii: Sequence[float],
                             eps: EpsSchedule | None = None,
                             horizon: int | None = None,
                             cross_check: int = 3,
                             cross_check_horizon: int = 512,
                             tail_cut: float = 1e-18,
                             max_blocks_per_time: int = 256) -> list:
    """Measure the visit structure of {T^{n^q} x} around every target.

    For each time n the orbit point decomposes over the designed blocks:
    blocks m >= n contribute x_{l, m^q - n^q} exactly, blocks m < n
    contribute T^{n^q - m^q} x_l via closed-form jumps.  The scan down the
    far blocks stops once three consecutive blocks fall below `tail_cut`
    (or at `max_blocks_per_time`, flagged as truncated).  Early designed
    times up to `cross_check_horizon` are re-measured by jumping the stored
    vector directly, giving an independent consistency figure.
    """
    qi = int(q)
    K = J.num_classes
    if len(radii) != K:
        raise ValueError("one radius per class is required")
    blocks = sorted((n, l) for l in range(1, K + 1) for n in J.sets[l - 1].elems)
    N_H = horizon if horizon is not None else (blocks[-1][0] if blocks else 0)
    distances, truncated_any = _scan_distances(op, family, blocks, K, qi, N_H, tail_cut,
                                               max_blocks_per_time)

    # independent early-time cross-check from the stored vector
    dev = None
    if cross_check > 0 and blocks:
        early = [m for m, _ in blocks if m ** qi <= cross_check_horizon][:cross_check]
        if early:
            dev = 0.0
            for m in early:
                z = shift_power_apply(op, x, m ** qi)
                for k in range(1, K + 1):
                    d_direct = lp_norm(z - family.base_point(k))
                    dev = max(dev, abs(d_direct - distances[k][m]))

    reports = []
    for k in range(1, K + 1):
        radius = float(radii[k - 1])
        designed = J.sets[k - 1].elems
        des_d = [distances[k][n] for n in designed if n <= N_H]
        within = sum(1 for d in des_d if d < radius)
        hits = tuple(n for n in range(1, N_H + 1) if distances[k][n] < radius)
        visits = NatSet(hits, N_H)
        vis_density = q_lower_density(visits, 1.0, N_H, max(1, N_H // 2)).liminf_proxy \
            if N_H >= 1 else 0.0
        des_density = q_lower_density(J.sets[k - 1], 1.0, J.sets[k - 1].horizon,
                                      max(1, J.sets[k - 1].horizon // 2)).liminf_proxy
        bound = None
        if eps is not None:
            bound = k * eps.eps(k) + sum(eps.eps(j) for j in range(k + 1, K + 1))
        contained = all(n in visits for n in designed if n <= N_H)
        reports.append(ClassVisitReport(
            k=k,
            radius=radius,
            proof_bound=bound,
            designed_count=len(des_d),
            designed_within=within,
            max_designed_distance=max(des_d) if des_d else 0.0,
            contained=contained,
            visit_times=visits,
            visit_density=vis_density,
            designed_density=des_density,
            density_ratio=(vis_density / des_density) if des_density > 0 else math.inf,
            truncated=truncated_any,
            cross_check_dev=dev,
        ))
    return reports


def _distance(acc: dict, mags: dict, target: dict, p: float) -> float:
    """lp_norm(SeqVector(acc) - SeqVector(target)) from the entries: mags
    holds |acc_i| for the entries at or above COEFF_GUARD, in acc's order.

    The difference keeps y's order, updates y's entries in place, appends
    the target indices y lacks and then drops what fell below the guard, as
    SeqVector.add does, so p_sum adds the same terms in the same order.
    """
    diff = mags.copy()
    for idx, t in target.items():
        if idx in mags:
            a = abs(acc[idx] - t)
            if a < COEFF_GUARD:
                del diff[idx]
            else:
                diff[idx] = a
        else:
            diff[idx] = abs(t)     # a stored target entry clears the guard
    return p_sum(diff.values(), p)


def _scan_distances(op: ShiftOp, family: BackwardOrbitFamily, blocks: list, K: int,
                    qi: int, N_H: int, tail_cut: float, max_blocks_per_time: int) -> tuple:
    """({k: {n: ||T^{n^q} x - x_k||}} for k <= K and n = 1..N_H, truncated)
    over the sorted (time, class) blocks; see verify_q_frequent_visits.

    Each time's orbit point is summed into a plain dict in block order, and
    its distance to every target is the float arithmetic of
    lp_norm(SeqVector(acc) - x_k) step for step, without building either
    vector (see `_distance`).
    """
    block_times = [b[0] for b in blocks]
    nilpotent = op.kind is ShiftKind.BACKWARD
    sup_top = {l: (max(family.base_point(l).support())
                   if family.base_point(l).entries else -1)
               for l in range(1, K + 1)}
    p = family.base_point(1).p_exponent
    targets = [family.base_point(k).entries for k in range(1, K + 1)]

    distances = {k: {} for k in range(1, K + 1)}  # n -> distance
    truncated = False
    for n in range(1, N_H + 1):
        nq = n ** qi
        acc: dict = {}
        i0 = bisect_left(block_times, n)
        consec_small = 0
        used = 0
        bad = False
        for i in range(i0, len(blocks)):
            m, l = blocks[i]
            e = m ** qi - nq
            for idx, c in family.inverse_point(l, e).entries.items():
                acc[idx] = acc.get(idx, 0.0 + 0.0j) + c
            used += 1
            if used >= max_blocks_per_time:
                truncated = True
                break
            if family.inverse_norm(l, e) < tail_cut:
                consec_small += 1
                if consec_small >= 3:
                    break
            else:
                consec_small = 0
        for i in range(i0 - 1, -1, -1):
            m, l = blocks[i]
            delta = nq - m ** qi
            if nilpotent and delta > sup_top[l]:
                break    # later blocks only increase delta: all images vanish
            try:
                tv = shift_power_apply(op, family.base_point(l), delta)
            except WeightOverflowError:
                bad = True
                break
            for idx, c in tv.entries.items():
                acc[idx] = acc.get(idx, 0.0 + 0.0j) + c
            used += 1
            if used >= max_blocks_per_time:
                truncated = True
                break
        if bad:
            for k in range(1, K + 1):
                distances[k][n] = math.inf
            continue
        # |y_i| of the stored entries of y = SeqVector(acc)
        mags = {}
        for idx, c in acc.items():
            a = abs(c)
            if not a < COEFF_GUARD:
                mags[idx] = a
        for k, target in enumerate(targets, start=1):
            distances[k][n] = _distance(acc, mags, target, p)
    return distances, truncated



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


def materialize_rank_one_sum(rank_ones: Sequence[RankOne], dim: int,
                             basis_offset: int = 0, truncate: bool = False) -> MatOp:
    total = MatOp.zeros(dim, dim, basis_offset)
    for r in rank_ones:
        total = total + rank_one_to_mat(r, dim, basis_offset, truncate)
    return total
