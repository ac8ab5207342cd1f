"""Constructive-pipeline tests.

Oracles: closed-form geometric tail sums, literal pairwise separation scans,
and direct summation, all computed in this file from first principles.
"""

import math
import random
import sys
from bisect import bisect_left

import numpy as np
import pytest

from hyperlab import fhc, terms
from hyperlab.cli import build_shift, parse_vectors, parse_weight_spec
from hyperlab.density import NatSet, q_lower_density
from hyperlab.fhc import (
    BackwardOrbitFamily,
    ClassVisitReport,
    CriterionFailure,
    EpsSchedule,
    SeparatedFamily,
    SeparationReport,
    assemble_vector,
    build_separated_family,
    condition_c_exactness,
    conjugation_inverse_family,
    conjugation_orbit,
    find_tail_threshold,
    materialize_rank_one_sum,
    verify_q_frequent_visits,
    verify_separated_family,
)
from hyperlab.matops import Pairing, RankOne, rank_one_to_mat
from hyperlab.seqspace import (
    COEFF_GUARD,
    Domain,
    SeqVector,
    ShiftOp,
    WeightOverflowError,
    WeightPrefix,
    WeightSeq,
    adjoint,
    apply_right_inverse,
    lp_norm,
    shift_power_apply,
)
from scalar_products import (agree, oracle_apply_right_inverse, oracle_shift_power_apply,
                             scalar_prefix)

W2 = WeightSeq.constant(2.0)
B2 = ShiftOp.backward(W2)
# weights 2 up to index 4300 and none past it
SHORT_TABLE = WeightSeq.table([2.0] * 4300, start=1)


def family_e0(op=B2):
    return BackwardOrbitFamily(op, (SeqVector.basis(0),))


# ---------------------------------------------------------------------------
# epsilon schedules
# ---------------------------------------------------------------------------

def test_eps_schedule_default_values_and_defect():
    eps = EpsSchedule()
    assert eps.eps(3) == pytest.approx(0.125)
    # the defect at k (the bound with 256 tail terms) for the geometric rule
    # is k 2^-k + 2^-k (1 - 2^-256)
    assert eps.bound(4, 4 + 256) == pytest.approx(4 * 0.0625 + 0.0625, rel=1e-12)
    # the visit radius of class 2 of 3: 2 eps_2 + eps_3
    assert eps.bound(2, 3) == 2 * 0.25 + 0.125
    assert eps.bound(3, 3) == 3 * 0.125
    assert eps.describe() == "1.0*0.5^k"


def test_eps_schedule_rejects_nondecaying_rule():
    # k eps_k + sum_{j>k} eps_j goes to 0 only for a base in (0, 1)
    for base in (10.0, 1.0, 1.5, 0.0, -0.5):
        with pytest.raises(ValueError, match="eps_base"):
            EpsSchedule(1e300, base)
    # a term that leaves the floating range is refused where it is read
    with pytest.raises(ValueError, match="not a positive real"):
        EpsSchedule(1e-300, 0.5).eps(100)
    with pytest.raises(ValueError):
        EpsSchedule().eps(0)


# ---------------------------------------------------------------------------
# inverse-orbit families
# ---------------------------------------------------------------------------

def test_inverse_point_matches_slow_right_inverse():
    ops = [
        B2,
        ShiftOp.forward(WeightSeq.ratio([1.0, 1.0], [0.0, 1.0])),
        ShiftOp.diagonal(WeightSeq.constant(2.0)),
    ]
    x = SeqVector({0: 1.0, 3: -0.5j})
    for op in ops:
        fam = BackwardOrbitFamily(op, (x,))
        for n in (0, 1, 5, 40):
            fast = fam.inverse_point(1, n)
            slow = apply_right_inverse(op, x, n)
            for i in set(fast.support()) | set(slow.support()):
                assert abs(fast.coeff(i) - slow.coeff(i)) <= 1e-12 * abs(slow.coeff(i))


def test_inverse_point_cached_and_exact(monkeypatch):
    # x_{1,7} is one row of the term table: a second read builds nothing
    fam = family_e0()
    built = []
    build = terms.TermTable._build
    monkeypatch.setattr(terms.TermTable, "_build", lambda self, keys, op:
                        built.extend(keys.tolist()) or build(self, keys, op))
    a = fam.inverse_point(1, 7)
    assert fam.inverse_point(1, 7) == a
    assert built == [7]
    assert a == SeqVector({7: 2.0 ** -7})


RATIO = WeightSeq.ratio([1.0, 1.0], [0.0, 1.0])
FAR = 2 ** 19 + 1000
# (op, targets, exponents) covering each branch of WeightPrefix.products
INVERSE_CASES = {
    # short products multiply directly, long ones take exp of the log-sum,
    # and past 2^-996 the coefficient flushes to 0 or below the guard
    "constant-2": (ShiftOp.backward(W2), ("0", "0,1", "3=1:-0.5"),
                   (1, 5, 127, 128, 129, 500, 995, 996, 997, 1100)),
    # 2^e overflows past e = 1024; at e = 1023 the coefficient 3 * 2^1023
    # of the third target overflows to inf without an error
    "constant-0.5": (ShiftOp.backward(WeightSeq.constant(0.5)), ("0", "0,1", "3=3"),
                     (1, 127, 600, 1020, 1023, 1024, 1025, 3000)),
    # complex weights: rect of the log-sum, with its phase
    "complex": (ShiftOp.backward(WeightSeq.constant(0.6 + 0.8j)), ("0", "2=1:1"),
                (1, 100, 130, 5000)),
    # across the step at 0 on Z, and past 2^53
    "step-bilateral": (ShiftOp.bilateral_backward(WeightSeq.step(0.5, 2.0, 0)),
                       ("-200", "-3,0,4", "5=2:1"), (1, 3, 150, 203, 400, 2 ** 53 + 5)),
    # a table with complex and negative weights and a zero weight at 6,
    # which raises on the ranges through it
    "table": (ShiftOp.backward(WeightSeq.table([1.5, -2.0, 0.5j, 3.0, 0.0, 1.25], start=2,
                                               default=1.1)),
              ("0", "0,1", "7"), (1, 2, 4, 5, 6, 200)),
    "short-table": (ShiftOp.backward(SHORT_TABLE), ("0", "3"), (10, 4297, 4300, 4301)),
    # rational: products inside the edge 1024 from the table, longer ones
    # with their part past it from Stirling's series (from their own start
    # past 1025), short ones inside e^+-300 directly
    "ratio": (ShiftOp.backward(RATIO), ("0", "0,1", f"{FAR}"),
              (1, 64, 127, 128, 5000, 2 ** 19 - 1, 2 ** 19, FAR, 3 * FAR)),
    "forward-type": (ShiftOp.forward(RATIO), ("0", "0,1"), (1, 130, FAR)),
    "forward-bilateral": (ShiftOp.bilateral_forward(WeightSeq.step(0.5, 2.0, 0)), ("-100", "0,1"),
                          (1, 50, 150)),
    "diagonal": (ShiftOp.diagonal(WeightSeq.constant(2.0)), ("0", "0,1"), (1, 30, 1100)),
    # a table whose offset lies past int64, above or below every index read
    # (weights 3, which overflow past e = 646), and one with no default
    "far-table-above": (ShiftOp.backward(WeightSeq.table([1.0, 2.0], 10 ** 20, 3.0)),
                        ("0", "0,1", "4=1:-1"), (1, 5, 127, 128, 646, 647)),
    "far-table-below": (ShiftOp.bilateral_backward(
        WeightSeq.table([1.0, 2.0], -10 ** 20, 3.0, Domain.INTEGERS)), ("-5", "0,1"),
        (1, 130, 700, 2 ** 53 + 5)),
    "far-table-no-default": (ShiftOp.backward(WeightSeq.table([1.0, 2.0], 10 ** 20)),
                             ("0", "300"), (1, 200)),
    # a quarter turn: -1 * i^m has a part -0.0, which the jump's dict adds
    # to 0.0
    "quarter-turn": (ShiftOp.backward(WeightSeq.constant(1j)), ("3=-1", "0,2"), (1, 2, 3)),
    # a diagonal keeps target indices past int64, which a term table row
    # cannot hold: such a row holds a ValueError instead
    "diagonal-past-int64": (ShiftOp.diagonal(WeightSeq.constant(2.0)),
                            ("0", f"{10 ** 20}", f"1,{2 ** 63 - 1},{2 ** 63}"), (1, 30)),
}


def scalar_ranges(op, specs, exps):
    """The weight ranges of the inverse-point rows and of the jump rows of a
    case, one per target entry and exponent."""
    fwd = op if op.displacement <= 0 else adjoint(op)
    a, b = fwd.displacement, fwd.offset
    targets = parse_vectors("|".join(specs), op.domain)
    inverse = [(n + 1 + b, n + e + b) for x in targets for n in x.entries for e in exps]
    jump = [(n + b + (m - 1) * min(a, 0), n + b + (m - 1) * min(a, 0) + m - 1)
            for x in targets for n in x.entries for m in exps if n >= fwd.lowest_source(m)]
    return inverse, jump


def scalar_outcome(f, *args):
    """repr of f(*args), or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("case", sorted(INVERSE_CASES))
def test_products_equal_the_scalar_chain(case):
    # both signs over the ranges of both row kinds, in one read each: every
    # value repr-equal (signed zeros and inf included), every error the
    # same type and message, and 0 where a row raises
    op, specs, exps = INVERSE_CASES[case]
    pre, scalar = op.weights.prefix, scalar_prefix(op.weights)
    for ranges in filter(None, scalar_ranges(op, specs, exps)):
        start, stop = (np.array([min(max(v, -2 ** 62), 2 ** 62) for v in col], np.int64)
                       for col in zip(*ranges))
        for sign, want_of in ((1, scalar.product), (-1, scalar.inverse_product)):
            vals, errors = pre.products(start, stop, sign)
            got = [f"{type(errors[i]).__name__}: {errors[i]}" if i in errors else repr(v)
                   for i, v in enumerate(vals.tolist())]
            want = [scalar_outcome(want_of, s, e) for s, e in ranges]
            assert all(agree(g, o, op.weights) for g, o in zip(got, want)), (sign, got, want)
            assert all(vals[i] == 0 for i in errors)


@pytest.mark.parametrize("case", sorted(INVERSE_CASES))
def test_vector_reads_equal_the_scalar_functions(case):
    # one products read per vector: the entries repr-equal, and where
    # entries raise, the error of the first of them
    op, specs, exps = INVERSE_CASES[case]
    fwd = op if op.displacement <= 0 else adjoint(op)
    for x in parse_vectors("|".join(specs), op.domain):
        for e in exps:
            for got, want, o in ((apply_right_inverse, oracle_apply_right_inverse, op),
                                 (shift_power_apply, oracle_shift_power_apply, fwd)):
                assert agree(scalar_outcome(lambda: list(got(o, x, e).entries.items())),
                             scalar_outcome(lambda: list(want(o, x, e).entries.items())),
                             op.weights), (e, got)


def test_vector_reads_keep_indices_past_int64():
    # a diagonal keeps a target index past int64 exactly, and a shift's
    # weight range there raises, as the scalar functions do
    x = SeqVector({3: 0.5, 2 ** 70: -1.0 - 2.0j})
    for op in (ShiftOp.diagonal(WeightSeq.constant(2.0)), B2):
        for e in (0, 1, 3, 2 ** 53 + 5, 2 ** 70):
            for got, want in ((apply_right_inverse, oracle_apply_right_inverse),
                              (shift_power_apply, oracle_shift_power_apply)):
                assert scalar_outcome(lambda: list(got(op, x, e).entries.items())) == \
                    scalar_outcome(lambda: list(want(op, x, e).entries.items())), (op, e, got)


def table_oracle(oracle):
    """oracle, raising the ValueError that a term table row holds in place
    of a vector with an index past int64."""
    def read(*args):
        v = oracle(*args)
        for n in v.entries:
            if not -2 ** 63 <= n < 2 ** 63:
                raise ValueError(
                    f"index {n} lies past int64, where a term table row cannot hold it")
        return v
    return read


@pytest.mark.parametrize("case", sorted(INVERSE_CASES))
def test_term_table_rows_equal_apply_right_inverse(case):
    # every row of one batch, its entries in order with repr-equal
    # coefficients (so -0.0 and inf count) and its norm lp_norm's
    op, specs, exps = INVERSE_CASES[case]
    family = BackwardOrbitFamily(op, tuple(parse_vectors("|".join(specs), op.domain)))
    keys = [(k, e) for k in range(1, family.num_classes + 1) for e in exps]
    table = family._terms
    rows = table.ids(np.array([k for k, _ in keys]), terms.index_array(e for _, e in keys))
    norms = table.norms(rows).tolist()
    for (k, e), row, norm in zip(keys, rows.tolist(), norms):
        x = family.base_point(k)
        try:
            want = table_oracle(oracle_apply_right_inverse)(op, x, e)
        except (ArithmeticError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                family.inverse_point(k, e)
            assert str(got.value) == str(exc)
            continue
        got = family.inverse_point(k, e)
        assert agree(repr(list(got.entries.items())), repr(list(want.entries.items())),
                     op.weights), (k, e)
        assert agree(repr(norm), repr(lp_norm(want)), op.weights), (k, e)


@pytest.mark.parametrize("case", sorted(INVERSE_CASES))
def test_term_table_jump_rows_equal_shift_power_apply(case):
    # the jumps T^m x_k of the forward side and the verifier's past pieces;
    # one that overflows has state 1, any other error state 2
    op, specs, exps = INVERSE_CASES[case]
    family = BackwardOrbitFamily(op, tuple(parse_vectors("|".join(specs), op.domain)))
    fwd = family.forward_op()
    keys = [(k, m) for k in range(1, family.num_classes + 1) for m in exps]
    table = family._terms
    rows = table.ids(np.array([k for k, _ in keys]), terms.index_array(m for _, m in keys), fwd)
    for (k, m), row in zip(keys, rows.tolist()):
        try:
            want = table_oracle(oracle_shift_power_apply)(fwd, family.base_point(k), m)
        except (ArithmeticError, ValueError) as exc:
            assert table.state[row] == (1 if isinstance(exc, WeightOverflowError) else 2)
            with pytest.raises(type(exc)) as got:
                table.vector(row)
            assert str(got.value) == str(exc)
            continue
        assert agree(repr(list(table.vector(row).entries.items())),
                     repr(list(want.entries.items())), op.weights), (k, m)


@pytest.mark.parametrize("case", sorted(INVERSE_CASES))
def test_term_table_forms_its_rows_without_the_vector_functions(case, monkeypatch):
    # with apply_right_inverse and shift_power_apply raising wherever
    # hyperlab binds them, the table still builds every row of the case,
    # e = 0, a target index past 2^53 and a signed zero added, each equal to
    # its oracle
    def gone(*args):
        raise AssertionError("a term table row took a one-vector function")

    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "hyperlab"]:
        for name in ("apply_right_inverse", "shift_power_apply"):
            monkeypatch.setattr(mod, name, gone, raising=False)
    op, specs, exps = INVERSE_CASES[case]
    specs += (f"{2 ** 53 + 3}", "6=-1:-0")
    family = BackwardOrbitFamily(op, tuple(parse_vectors("|".join(specs), op.domain)))
    keys = [(k, e) for k in range(1, family.num_classes + 1) for e in (0,) + exps]
    k, e = np.array([k for k, _ in keys]), terms.index_array(e for _, e in keys)
    fwd = family.forward_op()
    for row_op, oracle, o in ((None, table_oracle(oracle_apply_right_inverse), op),
                              (fwd, table_oracle(oracle_shift_power_apply), fwd)):
        rows = family._terms.ids(k, e, row_op)
        for (k_, e_), row in zip(keys, rows.tolist()):
            got = scalar_outcome(lambda: list(family._terms.vector(row).entries.items()))
            want = scalar_outcome(lambda: list(oracle(o, family.base_point(k_), e_).entries.items()))
            assert agree(got, want, op.weights), (k_, e_, row_op)


def test_condition_c_exactness_both_clocks():
    fam = BackwardOrbitFamily(B2, (SeqVector.basis(0),
                                   SeqVector.basis(0) + SeqVector.basis(1)))
    for q in (1, 2):
        assert condition_c_exactness(fam, q, nm_max=8) <= 1e-10
    rational = ShiftOp.backward(WeightSeq.ratio([1.0, 1.0], [0.0, 1.0]))
    fam2 = BackwardOrbitFamily(rational, (SeqVector.basis(2),))
    assert condition_c_exactness(fam2, 2, nm_max=6) <= 1e-10


# ---------------------------------------------------------------------------
# tail thresholds
# ---------------------------------------------------------------------------

def test_threshold_geometric_oracle_q1():
    # inverse-side tails are sqrt(sum_{n>=N} 4^-n) = 2^-N sqrt(4/3); the
    # forward side vanishes on e_0, so the threshold is the first N with
    # 2^-N sqrt(4/3) < 1/2, namely N = 2
    assert math.sqrt(4 / 3) * 0.5 >= 0.5          # N = 1 fails
    assert math.sqrt(4 / 3) * 0.25 < 0.5          # N = 2 passes
    N = find_tail_threshold(family_e0(), B2, 1, 1, EpsSchedule())
    assert N == 2


def test_threshold_quadratic_clock():
    # r = 0 terms are 2^{-n^2}: at N = 1 the l2 tail is sqrt(0.25 + 4^-4 + ...)
    # which still tips over 1/2; N = 2 is comfortably inside
    t1 = math.sqrt(sum(4.0 ** -(n * n) for n in range(1, 10)))
    t2 = math.sqrt(sum(4.0 ** -(n * n) for n in range(2, 10)))
    assert t1 >= 0.5 and t2 < 0.5
    assert find_tail_threshold(family_e0(), B2, 1, 2, EpsSchedule()) == 2


def test_threshold_sees_the_forward_sums():
    # with target e_5 the forward terms T^n e_5 = 2^n e_{5-n} are huge for
    # n <= 5, so the threshold must clear the support top: N = 6
    fam = BackwardOrbitFamily(B2, (SeqVector.basis(5),))
    assert find_tail_threshold(fam, B2, 1, 1, EpsSchedule()) == 6


def test_threshold_applies_each_forward_power_once(monkeypatch):
    # the probes revisit every (class, power) pair many times over a search;
    # the family's term table builds each jump row T^m x_i once
    built = []
    build = terms.TermTable._build

    def counting(table, keys, op):
        if op is not None:
            built.extend(keys.tolist())
        return build(table, keys, op)

    fam = BackwardOrbitFamily(B2, (SeqVector.basis(5), SeqVector.basis(0)))
    monkeypatch.setattr(terms.TermTable, "_build", counting)
    assert find_tail_threshold(fam, B2, 2, 1, EpsSchedule()) == 6
    assert built and len(built) == len(set(built))


def test_threshold_failure_witness_for_unweighted_shift():
    # w = 1: inverse-orbit points keep norm 1 forever, no threshold exists
    B1 = ShiftOp.backward(WeightSeq.constant(1.0))
    fam = family_e0(B1)
    with pytest.raises(CriterionFailure) as exc:
        find_tail_threshold(fam, B1, 1, 1, EpsSchedule(), hard_cap=64)
    w = exc.value
    assert w.value >= w.eps_k
    assert w.cap == 64 and w.class_index == 1


def test_threshold_failure_when_inverse_points_overflow():
    # w = 1/2: x_{1,n} = 2^n e_n.  The last probe of cap 512 reaches n = 575,
    # whose square overflows; that of cap 4096 reaches coefficients past
    # the floating range
    B_half = ShiftOp.backward(WeightSeq.constant(0.5))
    fam = family_e0(B_half)
    for cap in (512, 4096):
        with pytest.raises(CriterionFailure) as exc:
            find_tail_threshold(fam, B_half, 1, 1, EpsSchedule(), hard_cap=cap)
        assert exc.value.value == math.inf


# ---------------------------------------------------------------------------
# the scalar threshold search, as the oracle of the array pass
# ---------------------------------------------------------------------------

# These are find_tail_threshold and its accumulator as first written, one
# inverse point and one dict fold per term, verbatim but for the names and
# the type hints.  The oracle reads its points from ScalarFamily, which
# builds each with apply_right_inverse, so it shares no code with the term
# table.
_THRESHOLD_R_MAX = fhc._THRESHOLD_R_MAX
_THRESHOLD_WINDOW = fhc._THRESHOLD_WINDOW
_THRESHOLD_SAMPLES = fhc._THRESHOLD_SAMPLES


class _RunningNorm:
    """Sparse accumulator with an incrementally patched power sum, which
    saturates at inf once a power overflows (never inf - inf = nan)."""

    def __init__(self, p: float):
        self.p = p
        self.entries: dict = {}
        self.power_sum = 0.0

    def add(self, v) -> None:
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


def oracle_find_tail_threshold(family, op, k: int, q: int,
                        eps, hard_cap: int = 4096, seed: int = 0) -> int:
    """Smallest N making every tested criterion sum smaller than eps_k.

    For each class i <= k, each offset r <= _THRESHOLD_R_MAX (r = 0
    included), and each tested index set F inside the window of
    _THRESHOLD_WINDOW indices starting at N, both

        || sum_{n in F} x_{i, (n+r)^q - r^q} ||            (inverse side)
        || sum_{n in F, n <= r} T^{r^q - (r-n)^q} x_i ||    (forward side)

    must be < eps_k.  Tested F are every contiguous tail of the window plus
    _THRESHOLD_SAMPLES seeded random subsets of size <= 12.  The search
    doubles N and then bisects to the smallest passing value; if nothing
    passes by `hard_cap` a CriterionFailure carries the last witness.
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

    def inverse_term(i: int, r: int, n: int) :
        return family.inverse_point(i, (n + r) ** qi - r ** qi)

    # the probes revisit a few (class, power) pairs thousands of times;
    # _RunningNorm.add only reads the vectors it is given
    forward_terms: dict = {}

    def forward_term(i: int, r: int, n: int) :
        key = (i, r ** qi - (r - n) ** qi)
        if key not in forward_terms:
            forward_terms[key] = shift_power_apply(op, family.base_point(i), key[1])
        return forward_terms[key]

    def probe(N: int):
        """None when every sum is small; otherwise a witness tuple.  A term
        whose weight product leaves the floating range has infinite norm."""
        window = range(N, N + _THRESHOLD_WINDOW)
        for i in range(1, k + 1):
            for r in range(0, _THRESHOLD_R_MAX + 1):
                try:
                    acc = _RunningNorm(p)
                    for n in reversed(window):       # tails [n, N + _THRESHOLD_WINDOW)
                        acc.add(inverse_term(i, r, n))
                        if acc.norm() >= eps_k:
                            return (i, r, (n, N + _THRESHOLD_WINDOW - 1), acc.norm())
                    if r >= N:
                        acc = _RunningNorm(p)
                        for n in range(min(r, N + _THRESHOLD_WINDOW - 1), N - 1, -1):
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
                    return (i, r, (N, N + _THRESHOLD_WINDOW - 1), math.inf)
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


class ScalarFamily:
    """The targets and their inverse points, one apply_right_inverse each."""

    def __init__(self, op, targets):
        self.op, self.base_points = op, tuple(targets)
        self.num_classes = len(self.base_points)
        self._cache = {}

    def base_point(self, k):
        if not 1 <= k <= self.num_classes:
            raise ValueError(f"class index {k} out of range")
        return self.base_points[k - 1]

    def inverse_point(self, k, n):
        if n == 0:
            return self.base_point(k)
        if (k, n) not in self._cache:
            self._cache[k, n] = apply_right_inverse(self.op, self.base_point(k), n)
        return self._cache[k, n]


def outcome(search, *args, **kwargs):
    """A search's threshold, or the type and message of what it raised, and
    a CriterionFailure's witness."""
    try:
        return search(*args, **kwargs)
    except CriterionFailure as exc:
        return type(exc), str(exc), exc.class_index, exc.r, exc.window, exc.value
    except Exception as exc:          # noqa: BLE001  (compared, not handled)
        return type(exc), str(exc)


# SHORT_TABLE with target e_3 and q = 2: the probe at N = 1 finds its
# witness on the forward side of r = 1, while the points of r = 2, in the
# same block of the array pass, need weights past 4300; the probe at N = 2
# then raises on r = 1
RULES = {
    "constant-2": (ShiftOp.backward(W2), ("0", "0,1", "1=0.5:0.5")),
    # x_{1,e} = 2^e e_e: the large probes overflow, first in the power sum
    # and then in the weight product
    "constant-0.5": (ShiftOp.backward(WeightSeq.constant(0.5)), ("0", "0,1", "2")),
    "step-bilateral": (ShiftOp.bilateral_backward(WeightSeq.step(0.5, 2.0, 0)),
                       ("0", "-1,0", "1=2")),
    "short-table": (ShiftOp.backward(SHORT_TABLE), ("3", "0,1", "2")),
    "ratio": (ShiftOp.backward(WeightSeq.ratio([1.0, 1.0], [0.0, 1.0])), ("0", "0,1", "1")),
    # weights 3 from a table whose offset lies past int64
    "far-table": (INVERSE_CASES["far-table-above"][0], ("0", "0,1", "2")),
}


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("rule", sorted(RULES))
def test_threshold_search_matches_the_scalar_oracle(rule, K, q):
    op, specs = RULES[rule]
    targets = [parse_vectors(spec, op.domain)[0] for spec in specs[:K]]
    family = BackwardOrbitFamily(op, tuple(targets))
    oracle = ScalarFamily(op, targets)

    def same(k, eps, cap):
        want = outcome(oracle_find_tail_threshold, oracle, op, k, q, eps, cap, seed=k)
        assert outcome(find_tail_threshold, family, op, k, q, eps, cap, seed=k) == want, \
            (rule, K, q, k, cap)
        return want

    # a cap below the threshold ends the search with the witness of the
    # probe at the largest power of 2 up to the cap
    for k in range(1, K + 1):
        for eps, top, caps in ((EpsSchedule(), 4096, (1, 2, 4, 8, 16, 32)),
                               (EpsSchedule(0.3, 0.7), 600, (3, 24))):
            N = same(k, eps, top)
            for cap in caps:
                if not isinstance(N, int) or cap < N:
                    same(k, eps, cap)


def test_the_oracle_battery_meets_every_outcome():
    # the battery reaches a threshold, a CriterionFailure with a finite and
    # with an infinite witness, and an error raised after a witness
    op = RULES["short-table"][0]
    fam = ScalarFamily(op, [SeqVector.basis(3)])
    assert outcome(oracle_find_tail_threshold, fam, op, 1, 2, EpsSchedule()) == \
        (ValueError, "weight index 4301 outside the table range")
    op = RULES["constant-0.5"][0]
    for cap, inf in ((64, False), (4096, True)):
        with pytest.raises(CriterionFailure) as exc:
            find_tail_threshold(family_e0(op), op, 1, 1, EpsSchedule(), cap)
        assert math.isinf(exc.value.value) == inf


def test_no_scalar_inverse_product_in_the_search_and_the_verifier(monkeypatch):
    # on a closed rule every inverse point and every jump of a shift comes
    # from the term table's batch reads
    calls, jumps = [], []
    inverse = WeightPrefix.inverse_product
    monkeypatch.setattr(WeightPrefix, "inverse_product",
                        lambda self, *a: calls.append(a) or inverse(self, *a))
    # raising=False: terms need not bind shift_power_apply at all
    monkeypatch.setattr(terms, "shift_power_apply",
                        lambda *a: jumps.append(a[2]) or shift_power_apply(*a), raising=False)
    for weights, op_kind, q in (("w=constant:2", "backward", 1), ("w=constant:2", "backward", 2),
                                ("w=step:0|0.5|2", "bilateral-backward", 1)):
        op, family, J, radii = cli_pipeline(weights, op_kind, "0|0,1", q, 300)
        verify_q_frequent_visits(op, assemble_vector(family, J, q), family, J, q, radii)
    assert calls == [] and jumps == []


# ---------------------------------------------------------------------------
# separated families
# ---------------------------------------------------------------------------

def test_single_class_is_every_fourth_integer():
    fam = build_separated_family([1], 1, 100)
    assert fam.sets[0].elems.tolist() == list(range(1, 98, 4))
    rep = verify_separated_family(fam)
    assert rep.ok
    assert rep.densities[0] == pytest.approx(0.25, abs=0.02)


def test_two_class_construction_invariants():
    fam = build_separated_family([1, 1], 2, 400)
    rep = verify_separated_family(fam)
    assert rep.ok
    assert repr(rep) == repr(oracle_verify_separated_family(fam))
    assert fam.sets[0].elems[:2].tolist() == [5, 9]
    assert fam.sets[1].elems[:2].tolist() == [14, 18]
    for k, s in enumerate(fam.sets, start=1):
        assert s.elems[0] >= k


def test_three_class_literal_pairwise_oracle():
    N_ks = [1, 2, 3]
    fam = build_separated_family(N_ks, 3, 2000)
    tagged = sorted((n, k) for k, s in enumerate(fam.sets, start=1) for n in s.elems)
    # full quadratic scan, independent of the library's reduction argument
    for i, (a, ka) in enumerate(tagged):
        for b, kb in tagged[i + 1:]:
            assert b - a >= N_ks[ka - 1] + N_ks[kb - 1], (a, ka, b, kb)
    assert all(len(s) >= 2 for s in fam.sets)


def test_horizon_too_small_rejected_with_estimate():
    # at horizon 87 class 2 gets elements, but none in the density tail
    # [43, 87] over which the liminf proxy is taken
    for N_ks, horizon in (([4, 4], 40), ([2, 5], 87)):
        with pytest.raises(ValueError) as exc:
            build_separated_family(N_ks, 2, horizon)
        assert "horizon" in str(exc.value)


def oracle_plan(N_ks, K, horizon):
    """build_separated_family's element loop as first written."""
    N = list(N_ks[:K])
    gmax = max(N)
    gaps = [2 * (v + gmax) for v in N]
    guard = gmax if K > 1 else 0
    block = 2 * guard + 2 * max(gaps)
    elems = [[] for _ in range(K)]
    m = 0
    while True:
        lo = 1 + m * block
        if lo > horizon:
            break
        hi = min((m + 1) * block, horizon)
        k = (m % K) + 1
        g = gaps[k - 1]
        t = k + ((max(lo + guard, k) - k + g - 1) // g) * g
        while t <= hi - guard:
            elems[k - 1].append(t)
            t += g
        m += 1
    return elems


def oracle_verify_separated_family(fam):
    """verify_separated_family as first written, one Python pair at a time,
    and then every pair of the plan, each time against all later ones."""
    sets = [s.elems.tolist() for s in fam.sets]
    tagged = sorted((n, k) for k, s in enumerate(sets, start=1) for n in s)
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
    for k, s in enumerate(sets, start=1):
        if s and s[0] < k:
            min_ok = False
            violation = violation or ("minimum", (k, s[0]))
    if disjoint_ok and separation_ok:
        times = np.array([n for n, _ in tagged], np.int64)
        thr = np.array([fam.N_ks[k - 1] for _, k in tagged], np.int64)
        for idx, (a, ka) in enumerate(tagged):
            bad = np.flatnonzero(times[idx + 1:] - a < thr[idx] + thr[idx + 1:])
            if bad.size:
                b, kb = tagged[idx + 1 + int(bad[0])]
                separation_ok = False
                violation = violation or ("separation", (a, ka, b, kb))
                break
    densities = tuple(q_lower_density(s, 1.0, s.horizon, max(1, s.horizon // 2)).liminf_proxy
                      for s in fam.sets)
    density_ok = all(d > 0.0 for d in densities)
    if not density_ok:
        violation = violation or ("density", densities)
    ok = disjoint_ok and min_ok and separation_ok and density_ok
    return SeparationReport(ok, disjoint_ok, min_ok, separation_ok, density_ok,
                            densities, violation)


@pytest.mark.parametrize("N_ks, K, horizon", [
    ([1], 1, 100), ([1, 1], 2, 400), ([1, 2, 3], 3, 2000), ([3, 1], 2, 5000),
    ([2, 5], 2, 300), ([4], 1, 7), ([1, 1, 1, 1], 4, 25000)])
def test_separated_plan_equals_the_element_loop(N_ks, K, horizon):
    want = oracle_plan(N_ks, K, horizon)
    try:
        fam = build_separated_family(N_ks, K, horizon)
    except ValueError:
        assert any(len(s) < 2 or s[0] > max(1, horizon // 2) for s in want)
        return
    assert [s.elems.tolist() for s in fam.sets] == want
    assert all(s.elems.dtype == np.int64 and s.horizon == horizon for s in fam.sets)
    want_rep = oracle_verify_separated_family(fam)
    assert repr(fam.separation) == repr(want_rep) and fam.separation.ok
    assert repr(verify_separated_family(fam)) == repr(want_rep)


def test_separation_scan_equals_the_pair_loop_on_hand_built_plans():
    # duplicates across classes, zero and unequal thresholds, times below
    # the class index and empty classes; repr also tells np.int64 from int
    rng = random.Random(4321)
    plans = [((5, 6), (20,), (2, 2)), ((4, 9), (9, 30), (0, 0)), ((1, 2), (2, 3), (0, 0)),
             ((), (3, 8), (1, 1)), ((1, 9), (5, 40), (1, 1))]
    for _ in range(200):
        K = rng.randint(1, 3)
        plans.append((*(sorted(rng.sample(range(60), rng.randint(0, 8))) for _ in range(K)),
                      tuple(rng.randint(0, 3) for _ in range(K))))
    for *sets, N_ks in plans:
        fam = SeparatedFamily(tuple(NatSet(s, 60) for s in sets), N_ks)
        got = verify_separated_family(fam)
        assert repr(got) == repr(oracle_verify_separated_family(fam)), sets


def test_a_threshold_below_zero_is_refused():
    # with N_2 = -4 times 1 and 3 pass as consecutive neighbours of 2 but
    # sit 2 < N_1 + N_1 = 10 apart: consecutive pairs no longer imply all
    with pytest.raises(ValueError, match="thresholds must be >= 0"):
        SeparatedFamily((NatSet((1, 3), 10), NatSet((2,), 10)), (5, -4))


def test_block_merge_equals_the_stable_sort():
    # each class's times are sorted, so merging them by searchsorted counts
    # (ties to the lower class) orders the plan as a stable sort of the
    # class-by-class concatenation does, Python ints past 2^62 included
    rng = random.Random(977)
    plans = [[[]], [[], []], [[5, 9], [5, 9], [5]], [[2 ** 62, 2 ** 70], [3, 2 ** 70]]]
    for _ in range(300):
        top = rng.choice([80, 2 ** 70])
        plans.append([sorted(rng.sample(range(top - 80, top), rng.randint(0, 12)))
                      for _ in range(rng.randint(1, 4))])
    for sets in plans:
        fam = SeparatedFamily(tuple(NatSet(s, 2 ** 70) for s in sets), (1,) * len(sets))
        times, cls = fhc._plan(fam)
        order = np.argsort(times, kind="stable")
        got_times, got_cls = fhc._blocks(fam)
        assert (got_times.dtype, got_cls.dtype) == (times.dtype, cls.dtype)
        assert got_times.tolist() == times[order].tolist(), sets
        assert got_cls.tolist() == cls[order].tolist(), sets


def test_separation_violation_detected():
    bad = SeparatedFamily((NatSet((5, 6), 10), NatSet((20,), 20)), (2, 2))
    rep = verify_separated_family(bad)
    assert not rep.ok and not rep.separation_ok
    assert rep.first_violation[0] == "separation"


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_frozen_two_block_sum():
    fam = family_e0()
    J = SeparatedFamily((NatSet((4, 8), 10),), (1,))
    x = assemble_vector(fam, J, 1)
    assert x == SeqVector({4: 2.0 ** -4, 8: 2.0 ** -8})


def literal_assemble(family, J, q):
    """The fold x = 0 + x_{1, n_1^q} + ..., one SeqVector per step."""
    total = SeqVector.zero(family.base_point(1).domain, family.base_point(1).p_exponent)
    for l in range(1, J.num_classes + 1):
        for n in J.sets[l - 1].elems:
            total = total + family.inverse_point(l, n ** q)
    return total


def cancelling_family(s=1.0, p=2.0):
    """At time m, classes 1 and 3 put about s 2^-m on e_m, and class 2 at
    time m - 3 puts about -(1 + 2^-50) s 2^-m there (its target sits at
    index 3): the sum of classes 1 and 2 is some 2^-50 of s 2^-m.  With
    s = 1 it falls below COEFF_GUARD for m near 1000, while each block
    clears the guard up to m = 996."""
    targets = (SeqVector({0: s}, p_exponent=p),
               SeqVector({3: -(1 + 2.0 ** -50) * s / 8}, p_exponent=p),
               SeqVector({0: s}, p_exponent=p))
    return BackwardOrbitFamily(B2, targets)


def test_assemble_matches_the_literal_fold_across_the_guard():
    fam = cancelling_family()
    J = SeparatedFamily((NatSet((10, 30, 960, 990), 1000),
                         NatSet((7, 27, 957, 970, 987), 1000),
                         NatSet((960, 980), 1000)), (1, 1, 1))
    x = assemble_vector(fam, J, 1)
    want = literal_assemble(fam, J, 1)
    assert list(x.entries.items()) == list(want.entries.items())
    # indices 10 and 30 keep 2^-m (1 - (1 + 2^-50)) = -2^-(m + 50); at 960
    # and 990 the sum falls below the guard and is dropped, and at 960 class
    # 3 then writes a fresh entry, after class 2's 973
    assert x.entries[10] == -(2.0 ** -60) and x.entries[30] == -(2.0 ** -80)
    for m in (960, 990):
        a, b = fam.inverse_point(1, m).entries[m], fam.inverse_point(2, m - 3).entries[m]
        assert abs(a + b) < COEFF_GUARD <= min(abs(a), abs(b))
    assert list(x.entries) == [10, 30, 973, 960, 980]
    assert x.entries[960] == fam.inverse_point(3, 960).entries[960]
    for q, J2 in ((1, build_separated_family([3, 4], 2, 3000)),
                  (2, SeparatedFamily((NatSet((4, 8, 12), 12), NatSet((6, 10), 12)), (1, 1)))):
        fam2 = BackwardOrbitFamily(B2, (SeqVector.basis(0), SeqVector({0: 1, 1: 1})))
        assert list(assemble_vector(fam2, J2, q).entries.items()) == \
            list(literal_assemble(fam2, J2, q).entries.items())


def test_assemble_empty_and_quadratic_indexing():
    fam = family_e0()
    assert len(assemble_vector(fam, SeparatedFamily((NatSet((), 10),), (1,)), 1)) == 0
    x = assemble_vector(fam, SeparatedFamily((NatSet((2,), 10),), (1,)), 2)
    assert x == SeqVector({4: 2.0 ** -4})   # n = 2 on the quadratic clock


# ---------------------------------------------------------------------------
# visit verification
# ---------------------------------------------------------------------------

def test_end_to_end_single_class_visits():
    eps = EpsSchedule()
    fam = family_e0()
    N1 = find_tail_threshold(fam, B2, 1, 1, eps)
    J = build_separated_family([N1], 1, 2000)
    x = assemble_vector(fam, J, 1)
    reports = verify_q_frequent_visits(B2, x, fam, J, 1, [eps.eps(1)], eps=eps)
    rep = reports[0]
    assert rep.contained
    assert rep.proof_bound == pytest.approx(0.5)
    # neighbouring blocks sit >= 2 N_k away, so the residual around a designed
    # visit is at most the geometric tail 2^{-2 N_1} * sqrt(4/3) plus change
    assert 0.0 < rep.max_designed_distance < 2.0 ** (-2 * N1) * 1.3
    assert rep.visit_times.elems.tolist() == J.sets[0].elems.tolist()   # no spurious visits
    assert rep.density_ratio == pytest.approx(1.0)
    assert rep.cross_check_dev is not None and rep.cross_check_dev < 1e-9


def test_visits_survive_subnormal_underflow():
    # blocks live so deep that every stored coefficient flushes to zero: the
    # stored vector is exactly zero, direct iteration sees nothing, yet the
    # designed visits are still verifiable through the block decomposition
    fam = family_e0()
    elems = tuple(range(1000, 2001, 4))
    J = SeparatedFamily((NatSet(elems, 2000),), (1,))
    x = assemble_vector(fam, J, 1)
    assert len(x) == 0
    direct = shift_power_apply(B2, x, 1000)
    assert lp_norm(direct - SeqVector.basis(0)) == pytest.approx(1.0)
    rep = verify_q_frequent_visits(B2, x, fam, J, 1, [0.5], cross_check=0)[0]
    assert rep.contained
    assert rep.max_designed_distance < 0.1
    assert rep.visit_times.elems.tolist() == list(elems)


def test_zero_vector_has_no_visits():
    fam = family_e0()
    J = SeparatedFamily((NatSet((), 50),), (1,))
    rep = verify_q_frequent_visits(B2, SeqVector.zero(), fam, J, 1, [0.25],
                                   horizon=50)[0]
    assert len(rep.visit_times) == 0
    assert rep.designed_count == 0 and rep.contained


def test_quadratic_clock_visits():
    fam = family_e0()
    J = SeparatedFamily((NatSet((4, 8, 12, 16), 16),), (2,))
    x = assemble_vector(fam, J, 2)
    rep = verify_q_frequent_visits(B2, x, fam, J, 2, [0.5], cross_check=2)[0]
    assert rep.contained
    # blocks are n^2 apart on the orbit clock: residuals decay brutally fast
    assert rep.max_designed_distance < 2.0 ** -40
    assert rep.cross_check_dev is not None and rep.cross_check_dev < 1e-9


def literal_lp_norm(v):
    """lp_norm as first written: a running sum in entry order."""
    mags = [abs(c) for c in v.entries.values()]
    if not mags or max(mags) == 0.0:
        return 0.0
    top = max(mags)
    return top * (sum((m / top) ** v.p_exponent for m in mags)) ** (1.0 / v.p_exponent)


def literal_scan(op, family, J, q, N_H):
    """The verifier's per-time loop as first written, walking every block
    to its end: one SeqVector per orbit point and literal_lp_norm(y - x_k)
    per class.  Returns ({k: {n: distance}}, {k: {n: largest |entry| of
    y - x_k}}, [future pieces, past pieces] walked)."""
    K = J.num_classes
    blocks = sorted((n, l) for l in range(1, K + 1) for n in J.sets[l - 1].elems.tolist())
    block_times = [b[0] for b in blocks]
    nilpotent = op.domain is Domain.NATURALS and op.displacement < 0
    sup_top = {l: max(family.base_point(l).support(), default=-1) for l in range(1, K + 1)}
    distances = {k: {} for k in range(1, K + 1)}
    tops = {k: {} for k in range(1, K + 1)}
    walked = [0, 0]
    # times share most inverse points and jumps: each is built once, and a
    # jump that overflows is None
    pieces, jumps = {}, {}
    for n in range(1, N_H + 1):
        acc = {}
        i0 = bisect_left(block_times, n)
        bad = False
        for m, l in blocks[i0:]:
            e = m ** q - n ** q
            if (l, e) not in pieces:
                pieces[l, e] = family.inverse_point(l, e)
            for idx, c in pieces[l, e].entries.items():
                acc[idx] = acc.get(idx, 0.0 + 0.0j) + c
            walked[0] += 1
        for m, l in reversed(blocks[:i0]):
            delta = n ** q - m ** q
            if nilpotent and delta > sup_top[l]:
                break
            if (l, delta) not in jumps:
                try:
                    jumps[l, delta] = shift_power_apply(op, family.base_point(l), delta)
                except WeightOverflowError:
                    jumps[l, delta] = None
            tv = jumps[l, delta]
            if tv is None:
                bad = True
                break
            for idx, c in tv.entries.items():
                acc[idx] = acc.get(idx, 0.0 + 0.0j) + c
            walked[1] += 1
        y = SeqVector(acc, family.base_point(1).domain, family.base_point(1).p_exponent)
        for k in range(1, K + 1):
            diff = y - family.base_point(k)
            tops[k][n] = max((abs(c) for c in diff.entries.values()), default=0.0)
            distances[k][n] = math.inf if bad else literal_lp_norm(diff)
    return distances, tops, walked


def read_cells(J, q, N_H, cross_check=3):
    """The (class, time) cells whose distance the verifier's reports read:
    each class's designed times up to N_H, and every class at the first
    cross_check designed times n with n^q <= fhc._CROSS_CHECK_HORIZON."""
    blocks = sorted((n, l) for l in range(1, J.num_classes + 1)
                    for n in J.sets[l - 1].elems.tolist())
    early = [m for m, _ in blocks if m <= N_H and m ** q <= fhc._CROSS_CHECK_HORIZON]
    return {(k, n) for k in range(1, J.num_classes + 1) for n in range(1, N_H + 1)
            if n in J.sets[k - 1].elems or n in early[:cross_check]}


def assert_verifier_matches_literal(op, family, J, q, radii):
    """The verifier's distances equal those of the literal loop, which
    walks every block, with ==, on the cells the reports read and wherever
    the largest term lies below the radius; every other distance lies in
    [radius, literal distance].  Visit times and max designed distance
    equal the literal loop's over the whole scan.  Returns the literal
    distances, the number of cells whose exact sum the verifier had to take,
    and its walks: the pieces each side walked, literally and in the
    verifier ("literal" and "verifier", [future, past]), and the times the
    verifier walked again to their ends ("again")."""
    N_H, K = J.horizon, J.num_classes
    want, tops, literal_walked = literal_scan(op, family, J, q, N_H)
    read = read_cells(J, q, N_H)
    mask = np.array([[(k, n) in read for n in range(1, N_H + 1)] for k in range(1, K + 1)],
                    bool).reshape(K, N_H)
    blocks = sorted((n, l) for l in range(1, K + 1) for n in J.sets[l - 1].elems.tolist())
    blocks = (np.array([n for n, _ in blocks], np.int64),
              np.array([l for _, l in blocks], np.int64))
    walks = {"literal": literal_walked, "verifier": [0, 0], "again": 0}
    terms, proved = fhc._Walk.terms, fhc._tails(op, family.base_points) != (None, None)

    def counted(walk):
        walks["verifier"][0] += int(walk.n_future.sum())
        walks["verifier"][1] += int((walk.used - walk.n_future).sum())
        walks["again"] += len(walk.nq) if proved and walk.tails == (None, None) else 0
        return terms(walk)

    fhc._Walk.terms = counted
    try:
        got = fhc._scan_distances(op, family, blocks, K, q, N_H, [float(r) for r in radii],
                                  mask)
    finally:
        fhc._Walk.terms = terms
    assert got.shape == (K, N_H)
    exact = 0
    for k, radius in zip(range(1, K + 1), radii):
        for n, g in enumerate(got[k - 1].tolist(), start=1):
            w = want[k][n]
            if (k, n) in read or not tops[k][n] >= radius:
                exact += 1
                assert g == w, (k, n)
            else:
                assert radius <= g <= w, (k, n)
    x = assemble_vector(family, J, q)
    reports = verify_q_frequent_visits(op, x, family, J, q, radii, horizon=N_H)
    for rep, radius in zip(reports, radii):
        d = want[rep.k]
        designed = [n for n in J.sets[rep.k - 1].elems if n <= N_H]
        assert rep.max_designed_distance == max(d[n] for n in designed)
        assert rep.visit_times.elems.tolist() == [n for n in range(1, N_H + 1) if d[n] < radius]
        assert rep.designed_within == sum(1 for n in designed if d[n] < radius)
    return want, exact, walks


def cli_pipeline(weights, op_kind, targets, q, horizon, p=2.0, eps_scale=1.0):
    """Operator, family, plan and radii as construct-fhc builds them."""
    op = build_shift(op_kind, parse_weight_spec(weights)["w"])
    family = BackwardOrbitFamily(op, tuple(parse_vectors(targets, op.domain, p)))
    eps = EpsSchedule(eps_scale)
    K = family.num_classes
    n_ks = [find_tail_threshold(family, op, k, q, eps) for k in range(1, K + 1)]
    radii = [k * eps.eps(k) + sum(eps.eps(j) for j in range(k + 1, K + 1))
             for k in range(1, K + 1)]
    return op, family, build_separated_family(n_ks, K, horizon), radii


WIDE = ",".join(f"{i}={1 + i % 3}" for i in range(12))
# weights 2 on 1..600 and 0.5 past them: a level that grows the pieces back
TABLE_600 = "w=table:1|" + ",".join(["2"] * 600) + "|0.5"


# "stops" names the sides whose walks stop before their ends somewhere
# (a `_Tail` bounds them and the blocks lie far enough apart); "again" marks
# a case where the verifier walks some times again to their ends
@pytest.mark.parametrize("weights,op_kind,targets,q,horizon,extra", [
    # about 3 % of the cells lie near a ball or are read by the reports
    ("w=constant:2", "backward", "0|0,1", 1, 3000, {"summed_below": 0.1}),
    ("w=constant:2", "backward", "0|0,1", 2, 400, {}),
    ("w=constant:1.5", "backward", "0=0.7,1=0.3:0.2,2=1.3", 1, 1500, {}),
    ("w=step:0|0.5|2", "bilateral-backward", "0", 1, 400, {"stops": "both"}),
    # eps_scale 1e6 makes every threshold 1, so the blocks sit 4 apart and
    # a target 12 indices wide puts several pieces on the same indices; no
    # walk can stop, since every next piece lies within the targets' span
    ("w=constant:2", "backward", WIDE, 1, 300,
     {"eps_scale": 1e6, "merged": True, "stops": "none"}),
    ("w=step:0|0.5|2", "bilateral-backward", f"0|{WIDE}", 1, 120,
     {"eps_scale": 1e6, "merged": True, "stops": "none"}),
    ("w=constant:2", "backward", "0|0,1", 1, 600, {"p": 1.0}),
    ("w=constant:2", "backward", "0|0=0.5,1", 1, 600, {"p": 3.5}),
    ("w=constant:2", "backward", "0|0,1", 1, 6007, {"passes": 3}),
    ("w=step:0|0.5|2", "bilateral-backward", "0", 1, 1000, {"stops": "both"}),
    # a rational rule proves no stop
    ("w=ratio:1,1|0,1", "backward", "0|1", 1, 1500, {"stops": "none"}),
    # w = 3 below 0: far past jumps 2 * 3^(delta - 1) overflow, and those
    # times read inf; where a past piece is 1e125 times the future ones,
    # the terms of the future pieces left underflow to 0.0, which proves
    # the stop at once
    ("w=step:0|3|2", "bilateral-backward", "0", 1, 1000, {"inf": True}),
    # radii far above every distance: nearly every cell takes its exact sum
    ("w=constant:2", "backward", "0|0,1", 1, 600, {"eps_scale": 1e6, "summed_above": 0.9}),
    # the future reads stay inside the table up to e = 599 and meet the
    # level 0.5 past it, which proves nothing: every walk runs to its end
    (TABLE_600, "backward", "0|0,1", 1, 1000, {"stops": "none"}),
    # the past pieces shrink by the level 1/4 below the split
    ("w=step:0|0.25|1.5", "bilateral-backward", "0|-1=0.5,1", 1, 600, {"stops": "both"}),
], ids=["constant-q1", "constant-q2", "constant-1.5-complex", "step-bilateral",
        "wide-target", "wide-target-bilateral", "p-1", "p-3.5", "several-passes",
        "step-bilateral-1000", "ratio-two-classes", "past-overflow", "large-eps",
        "table-past-its-level", "past-bounded-by-low"])
def test_verifier_matches_the_literal_loop(monkeypatch, weights, op_kind, targets, q,
                                           horizon, extra):
    passes, merged = [], []
    lp_distances, merge_terms = fhc._lp_distances, fhc._merge_terms
    monkeypatch.setattr(fhc, "_lp_distances",
                        lambda *a: passes.append(a[4]) or lp_distances(*a))
    monkeypatch.setattr(fhc, "_merge_terms", lambda *a: merged.append(1) or merge_terms(*a))
    summed, p_sums = [], fhc._p_sums
    monkeypatch.setattr(fhc, "_p_sums", lambda V, p: summed.append(V.shape[1]) or p_sums(V, p))
    op, family, J, radii = cli_pipeline(weights, op_kind, targets, q, horizon,
                                        extra.get("p", 2.0), extra.get("eps_scale", 1.0))
    d, exact, walks = assert_verifier_matches_literal(op, family, J, q, radii)
    # every time is scanned twice, directly and by the verifier, and each
    # scan sums exactly the read cells and those whose largest term lies
    # below the radius; a time walked again is measured again
    assert (walks["again"] > 0) == extra.get("again", False)
    assert sum(passes) == 2 * (J.horizon + walks["again"])
    assert sum(summed) >= 2 * exact and (sum(summed) == 2 * exact) == (not walks["again"])
    cells = J.num_classes * J.horizon
    assert extra.get("summed_above", 0.0) * cells < exact < extra.get("summed_below", 1.1) * cells
    assert len(passes) >= 2 * extra.get("passes", 1)
    assert any(math.isinf(v) for v in d[1].values()) == extra.get("inf", False)
    # pieces of one time share indices only where a target is wider than
    # the block gap, and only then are the terms summed per index
    assert bool(merged) == extra.get("merged", False)
    if "eps_scale" in extra:
        assert J.N_ks == (1,) * J.num_classes
    stops = {"none": [False, False], "future": [True, False], "both": [True, True]}
    assert [v < w for v, w in zip(walks["verifier"], walks["literal"])] == \
        stops[extra.get("stops", "future")]


@pytest.mark.parametrize("limit", [fhc.EXACT_INT64, 0], ids=["int64", "python-ints"])
def test_verifier_matches_the_literal_loop_on_python_int_clocks(monkeypatch, limit):
    # clock indices past the int64 bound go through object arrays
    monkeypatch.setattr(fhc, "EXACT_INT64", limit)
    op, family, J, radii = cli_pipeline("w=constant:2", "backward", "0|0,1", 2, 400)
    assert_verifier_matches_literal(op, family, J, 2, radii)


@pytest.mark.parametrize("limit", [fhc.EXACT_INT64, 0], ids=["int64", "python-ints"])
@pytest.mark.parametrize("w,q,blocks", [
    # x_{1, 1099} = 2^1099 e_1099 overflows on the walk of time 1
    (0.5, 1, (30, 1100)),
    # at q = 7 the first block's piece needs a weight past index 2^53
    (2.0, 7, (200, 210)),
], ids=["overflow", "past-2^53"])
def test_a_piece_error_is_raised_as_the_literal_loop_raises_it(monkeypatch, limit, w, q,
                                                                blocks):
    monkeypatch.setattr(fhc, "EXACT_INT64", limit)
    op = ShiftOp.backward(WeightSeq.constant(w))
    fam = BackwardOrbitFamily(op, (SeqVector.basis(0),))
    J = SeparatedFamily((NatSet(blocks, blocks[-1]),), (1,))
    with pytest.raises((ValueError, WeightOverflowError)) as want:
        literal_scan(op, fam, J, q, J.horizon)
    with pytest.raises(type(want.value)) as got:
        verify_q_frequent_visits(op, SeqVector.zero(), fam, J, q, [0.5], cross_check=0)
    assert str(got.value) == str(want.value)


def test_verifier_matches_the_literal_loop_on_long_sums():
    # ratio weights (t + 1) / t: x_{1,e} = e_e / (e + 1) never becomes
    # negligible, so every time sums up to a hundred comparable terms, in an
    # order a pairwise or numpy sum would not keep
    op = ShiftOp.backward(WeightSeq.ratio([1.0, 1.0], [0.0, 1.0]))
    family = BackwardOrbitFamily(op, (SeqVector({0: 1.0, 1: 0.25}),))
    J = SeparatedFamily((NatSet(tuple(range(3, 400, 4)), 400),), (1,))
    d, _, walks = assert_verifier_matches_literal(op, family, J, 1, [0.6])
    assert 0 < len([n for n in d[1] if d[1][n] < 0.6]) < 400
    # a rational rule proves no stop: every walk runs to its end
    assert walks["verifier"] == walks["literal"]


def test_verifier_matches_the_literal_loop_across_the_guard():
    # entries of the orbit point that cancel below COEFF_GUARD are dropped
    # before the target is subtracted, as SeqVector(acc) drops them
    J = SeparatedFamily((NatSet((10, 30, 960, 990), 1000),
                         NatSet((7, 27, 957, 970, 987), 1000),
                         NatSet((960, 980), 1000)), (1, 1, 1))
    assert_verifier_matches_literal(B2, cancelling_family(), J, 1, [0.5, 0.25, 0.125])
    # scaled to s = 1e-285 every cancelling pair falls below the guard; at
    # time 10 the one at e_0 does, so the distance to x_1 is |x_1|, while the
    # dropped remainder s 2^-50 would have moved it in the l^1 norm
    s = 1e-285
    fam = cancelling_family(s, 1.0)
    d, _, _ = assert_verifier_matches_literal(B2, fam, J, 1, [s, s, s])
    assert d[1][10] == s


def test_numpy_hypot_and_row_sums_match_python_bit_for_bit():
    """The verifier's array pass equals lp_norm bit for bit because
    np.hypot(re, im) is abs(complex(re, im)) and adding the rows of a matrix
    one after the other is builtin sum down each column.  This fails first if
    a numpy, libm or Python upgrade breaks either.  np.abs and np.power are
    no such stand-ins: on 300k seeded samples (x86_64, Python 3.11.7, numpy
    2.4.6) np.abs of a complex array differed from abs() on 49559 (moduli
    from 1e-310 to 1e307), np.power(x, 3.5) from x ** 3.5 on 15974 and
    np.power(x, 2.0) and x * x from x ** 2.0 on 261 (x = u^3, u uniform on
    [0, 1)), so the verifier takes |c| from np.hypot and each power from
    Python's pow."""
    rng = np.random.default_rng(2024)
    n = 100_000
    # subnormal up to near overflow, with |c| still finite
    mag = 10.0 ** rng.uniform(-323.5, 308.0, n)
    re = mag * rng.uniform(-1.0, 1.0, n)
    im = mag * rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-30.0, 0.0, n)
    edge_re = [5e-324, 0.0, -0.0, 2.2e-308, 1e-300, 1.7e308, -1.7e308]
    edge_im = [5e-324, 0.0, -0.0, 2.2e-308, 1e-300, 1e154, -5e307]
    re = np.concatenate([re, np.repeat(edge_re, len(edge_im))])
    im = np.concatenate([im, np.tile(edge_im, len(edge_re))])
    want = np.array([abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())])
    assert np.array_equal(np.hypot(re, im).view(np.int64), want.view(np.int64))
    # terms of one sum per column: ones, tiny and huge values and subnormals,
    # where a compensated or pairwise sum would round differently
    rows = rng.choice([1.0, 1e-17, 3e-300, 5e-324, 1e300, 0.0], (40, 2000)) \
        * rng.uniform(0.5, 1.5, (40, 2000))
    s = rows[0].copy()
    for row in rows[1:]:
        s += row
    want = np.array([sum(col) for col in rows.T.tolist()])
    assert np.array_equal(s.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_distance_matches_lp_norm_of_the_difference(p):
    rng, pick = random.Random(7), random.Random(11)
    for _ in range(200):
        acc = {}
        for idx in rng.sample(range(40), rng.randint(0, 30)):
            mag = rng.choice([1e-301, 5e-301, 0.0, 10.0 ** -rng.randint(0, 20), rng.random()])
            acc[idx] = complex(mag * rng.uniform(-1, 1), mag * rng.uniform(-1, 1))
        target = {}
        for idx in rng.sample(range(40), rng.randint(1, 6)):
            # half of them cancel an entry of acc exactly; some sit near the
            # guard, where acc's dropped entries would count
            mag = rng.choice([2e-300, 1.0])
            target[idx] = acc[idx] if idx in acc and rng.random() < 0.5 else \
                complex(mag * rng.uniform(-1, 1), mag * rng.random())
        target = SeqVector(target, p_exponent=p).entries
        diff = SeqVector(acc, p_exponent=p) - SeqVector(target, p_exponent=p)
        want = literal_lp_norm(diff)
        top = max((abs(c) for c in diff.entries.values()), default=0.0)
        terms = (np.zeros(len(acc), np.int64), np.array(list(acc), np.int64),
                 np.array([c.real for c in acc.values()]),
                 np.array([c.imag for c in acc.values()]), 1, [target], p)
        # a walk that left no piece: nothing can move a value
        walked = (np.zeros((2, 1)), np.zeros(1, np.int64))
        # a read cell takes its exact sum whatever the radius
        got, moved = fhc._lp_distances(*terms, [0.0], np.ones((1, 1), bool), *walked)
        assert got.shape == (1, 1) and got[0, 0] == want and not moved.any()
        # an unread cell takes it only where its largest term lies below the
        # radius, and otherwise reads that term
        radius = pick.choice([0.0, top, want, top * pick.uniform(0.5, 1.5), math.inf])
        got = fhc._lp_distances(*terms, [radius], np.zeros((1, 1), bool), *walked)[0][0, 0]
        assert got == (want if top < radius else top)
        assert (got < radius) == (want < radius) and top <= got <= want


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_a_value_not_flagged_moved_keeps_every_bit_with_the_pieces_left(p):
    # y's walked entries, then entries a stopped walk left out, at new
    # indices, each at most the rest of its side: the future ones enter
    # after the future entries, the past ones after all of y's
    rng = random.Random(int(p * 10))
    kept = 0
    for _ in range(300):
        def entries(n, lo):
            return [(lo + i, complex(*(10.0 ** -rng.randint(0, 30) * rng.uniform(-1, 1)
                                       for _ in range(2)))) for i in range(n)]
        fut, past = entries(rng.randint(0, 5), 0), entries(rng.randint(0, 5), 20)
        target = SeqVector(dict(rng.sample(fut + past, min(2, len(fut + past)))
                                + entries(rng.randint(0, 2), 40)), p_exponent=p).entries
        target = {i: c * rng.choice([1.0, 0.5]) for i, c in target.items()} or {0: 1.0}
        top = max((abs(c) for c in (SeqVector(dict(fut + past), p_exponent=p)
                                    - SeqVector(target, p_exponent=p)).entries.values()),
                  default=0.0)
        rest = [top * 2.0 ** -rng.choice([-2, 0, 10, 30, 50, 60, 80, 200]) * rng.random()
                * rng.choice([0, 1]) for _ in range(2)]
        left = [[(100 + 10 * side + i, rest[side] * rng.random()) for i in range(3)]
                if rest[side] else [] for side in range(2)]
        y = fut + past
        t = np.zeros(len(y), np.int64)
        terms = (t, np.array([i for i, _ in y], np.int64), np.array([c.real for _, c in y]),
                 np.array([c.imag for _, c in y]), 1, [target], p)
        radius = rng.choice([0.0, math.inf])
        got, moved = fhc._lp_distances(*terms, [radius], np.zeros((1, 1), bool),
                                       np.array(rest).reshape(2, 1), np.array([len(fut)]))
        diff = SeqVector(dict(fut + left[0] + past + left[1]), p_exponent=p) \
            - SeqVector(target, p_exponent=p)
        want = literal_lp_norm(diff)
        if not moved[0]:
            kept += sum(rest) > 0
            assert got[0, 0] == (want if radius == math.inf else
                                 max((abs(c) for c in diff.entries.values()), default=0.0))
    assert kept > 50


def literal_rise_then_fall(rows) -> bool:
    """Whether the index ranges (lo, hi) of one group's rows rise, each
    above the one before, and then fall, each below the one before and
    below the first row: a loop over the rows."""
    falling = False
    for (plo, phi), (lo, hi) in zip(rows, rows[1:]):
        falling = falling or not lo > phi
        if falling and not (hi < plo and hi < rows[0][0]):
            return False
    return True


def test_shares_an_index_is_the_rise_then_fall_loop():
    # groups of up to six rows of index ranges, one after the other: where
    # every group rises and then falls, no two rows of a group share an
    # index, and where some group does not, the answer is that they may
    rng = random.Random(28)
    shapes = [[[(0, 1), (3, 4), (-3, -2)]], [[(5, 6), (1, 2), (-1, 0)]], [[(0, 3), (2, 5)]],
              [[(0, 1), (-2, -1), (3, 4)]], [[(0, 4), (-5, -1), (-9, -6)], [(0, 0)]], [], [[(2, 2)]]]
    for _ in range(2000):
        groups = []
        for _ in range(rng.randint(1, 4)):
            lo = [rng.randint(-12, 12) for _ in range(rng.randint(1, 6))]
            groups.append([(a, a + rng.randint(0, 3)) for a in lo])
        shapes.append(groups)
    counts = [0, 0]
    for groups in shapes:
        flat = [(g, lo, hi) for g, rows in enumerate(groups) for lo, hi in rows]
        got = terms.shares_an_index(*(np.array([r[j] for r in flat], np.int64)
                                      for j in range(3)))
        assert got == (not all(literal_rise_then_fall(rows) for rows in groups)), groups
        if not got:
            for rows in groups:
                seen = [i for lo, hi in rows for i in range(lo, hi + 1)]
                assert len(seen) == len(set(seen)), rows
        counts[got] += 1
    assert min(counts) > 200


@pytest.mark.parametrize("p,fut,past,target,rest", [
    # the running sum A before the future entries left is 1e-300, below
    # 2^-960, and the bound (rest 2^(1/p) / top) ** p underflows to 0.0
    (2.0, [(0, 1e-150)], [(1, 1.0)], {7: 0.25}, (1e-170, 0.0)),
    (3.5, [(0, 1e-90)], [(1, 1.0)], {1: 0.5}, (1e-100, 0.0)),
    (1.0, [(0, 1e-290)], [(1, 1e25)], {7: 1.0}, (1e-300, 0.0)),
    # the largest term is a target index y lacks, so even the sum of all of
    # y's terms, which the past entries left follow, is 1e-300
    (2.0, [(0, 1e-150)], [], {5: 1.0}, (0.0, 1e-170)),
    (2.0, [(0, 1e-150)], [(2, 3e-151)], {5: 1.0}, (1e-170, 1e-170)),
], ids=["p-2", "p-3.5", "p-1-large-top", "past-side", "both-sides"])
def test_a_stop_whose_bound_underflows_is_not_moved(p, fut, past, target, rest):
    y = fut + past
    terms = (np.zeros(len(y), np.int64), np.array([i for i, _ in y], np.int64),
             np.array([c for _, c in y], float), np.zeros(len(y)), 1,
             [SeqVector(target, p_exponent=p).entries], p)
    got, moved = fhc._lp_distances(*terms, [math.inf], np.ones((1, 1), bool),
                                   np.array(rest).reshape(2, 1), np.array([len(fut)]))
    assert not moved[0]
    # the entries left: new indices, each at most the rest of its side
    left = [[(100 + 10 * side + i, rest[side] * f) for i, f in enumerate((1.0, 0.5, 0.25))]
            if rest[side] else [] for side in range(2)]
    diff = SeqVector(dict(fut + left[0] + past + left[1]), p_exponent=p) \
        - SeqVector(target, p_exponent=p)
    assert got[0, 0] == literal_lp_norm(diff) == literal_lp_norm(
        SeqVector(dict(y), p_exponent=p) - SeqVector(target, p_exponent=p))


def test_a_pass_with_overlapping_pieces_keeps_its_stops(monkeypatch):
    # blocks 2, 3, 4 lie closer than the target's span, so the pieces of
    # times 1 and 2 overlap; from block 40 on they lie far apart and the
    # walks stop, and the stops hold in the pass whose pieces overlap
    merged, merge_terms = [], fhc._merge_terms
    monkeypatch.setattr(fhc, "_merge_terms", lambda *a: merged.append(1) or merge_terms(*a))
    fam = BackwardOrbitFamily(B2, (SeqVector({0: 1.0, 3: 0.5}),))
    J = SeparatedFamily((NatSet((2, 3, 4, 40, 80, 160, 320, 640), 640),), (1,))
    _, _, walks = assert_verifier_matches_literal(B2, fam, J, 1, [0.5])
    assert merged and walks["again"] == 0
    assert walks["verifier"][0] < walks["literal"][0]


def overlapping_plans(count: int, seed: int):
    """(op, family, plan, radii) of random hand-built plans whose early
    blocks lie closer than the targets' span and whose later blocks lie far
    apart: a constant rule on the naturals or a step rule on the integers,
    one or two targets each 1 to 6 indices wide."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            op = ShiftOp.backward(WeightSeq.constant(rng.choice([2.0, 3.0, 4.0])))
        else:
            op = ShiftOp.bilateral_backward(WeightSeq.step(
                rng.choice([0.25, 0.5]), rng.choice([2.0, 4.0]), rng.randint(-2, 2)))
        K = rng.randint(1, 2)
        targets = []
        for _ in range(K):
            width = rng.randint(1, 6)
            lo = rng.randint(-2, 0) if op.domain is Domain.INTEGERS else 0
            at = {0, width - 1} | set(rng.sample(range(width), rng.randint(0, width)))
            targets.append(SeqVector({lo + i: complex(rng.uniform(0.2, 1.5), rng.choice(
                [0.0, rng.uniform(-1, 1)])) for i in sorted(at)}, op.domain))
        times = [rng.randint(1, 4)]
        for _ in range(rng.randint(1, 5)):
            times.append(times[-1] + rng.randint(1, 3))
        while times[-1] < 150:
            times.append(times[-1] + rng.randint(25, 50))
        sets = [[] for _ in range(K)]
        for i, n in enumerate(times):
            sets[i if i < K else rng.randrange(K)].append(n)
        J = SeparatedFamily(tuple(NatSet(s, times[-1]) for s in sets), (1,) * K)
        family = BackwardOrbitFamily(op, tuple(targets))
        # the literal loop reads the inverse points one at a time: building
        # them in one batch first changes no row and saves most of its time
        family._terms.ids(np.repeat(np.arange(1, K + 1), J.horizon + 1),
                          np.tile(np.arange(J.horizon + 1), K))
        yield op, family, J, [rng.choice([0.05, 0.5, 2.0]) for _ in range(K)]


def test_overlapping_passes_keep_their_stops(monkeypatch):
    # every plan equals the literal loop, and no time walks again: a stop
    # is proved whether or not the pieces of its pass overlap
    merged, merge_terms = [], fhc._merge_terms
    monkeypatch.setattr(fhc, "_merge_terms", lambda *a: merged.append(1) or merge_terms(*a))
    kept = 0
    for op, family, J, radii in overlapping_plans(120, 2028):
        merged.clear()
        _, _, walks = assert_verifier_matches_literal(op, family, J, 1, radii)
        assert walks["again"] == 0, (op, family.base_points, J)
        kept += bool(merged) and walks["verifier"][0] < walks["literal"][0]
    assert kept > 60


@pytest.mark.parametrize("case", [("w=constant:2", "backward", "0|0,1", 1, 600, 1.0),
                                  ("w=step:0|0.5|2", "bilateral-backward", "0", 1, 400, 2.0)],
                         ids=["constant-p-1", "step-bilateral"])
def test_stops_far_too_early_are_walked_again(monkeypatch, case):
    # with walks stopping as soon as the bound sits below twice the largest
    # piece, many stopped values could move: those times walk again, and
    # every value still equals the literal loop's
    monkeypatch.setattr(fhc, "_STOP", 2.0)
    *argv, p = case
    op, family, J, radii = cli_pipeline(*argv, p)
    _, _, walks = assert_verifier_matches_literal(op, family, J, argv[3], radii)
    assert walks["again"] > 0


def test_cross_check_skips_blocks_past_the_horizon():
    # block 40 passes the cross-check's clock limit (40 <= 512) but lies
    # past the scanned horizon of 10, so it has no measured distance
    fam = family_e0()
    J = SeparatedFamily((NatSet((4, 40), 40),), (1,))
    x = assemble_vector(fam, J, 1)
    rep = verify_q_frequent_visits(B2, x, fam, J, 1, [0.5], horizon=10)[0]
    assert rep.visit_times.horizon == 10
    assert rep.designed_count == 1 and rep.contained
    assert rep.cross_check_dev is not None and rep.cross_check_dev < 1e-9


# ---------------------------------------------------------------------------
# operator-space variant
# ---------------------------------------------------------------------------

def climb_back(R, T, pairs, n, dim=8):
    """C^n(F_n) minus F_0, with F_n the inverse family on the window
    [0, dim) and C(S) = R S T, over the whole grown window."""
    S = materialize_rank_one_sum(conjugation_inverse_family(R, T, pairs, n), dim)
    for S in conjugation_orbit(R, S, T, n):
        pass
    F_0 = materialize_rank_one_sum([RankOne(u, v, Pairing.BILINEAR) for u, v in pairs], dim)
    lo = S.basis_offset
    assert lo <= 0 and S.rows >= dim - lo
    want = np.zeros_like(S.data)
    want[-lo:dim - lo, -lo:dim - lo] = F_0.data
    return S.data - want


def test_conjugation_inverse_family_exactness():
    R = B2
    T = ShiftOp.forward(W2)
    pairs = [(SeqVector.basis(0), SeqVector.basis(0)),
             (SeqVector.basis(1), SeqVector.basis(0))]
    assert abs(climb_back(R, T, pairs, 3)).max() <= 1e-10


def test_conjugation_inverse_family_exact_for_bilateral_forward():
    # the right legs climb the right inverse of T's transpose, which reads
    # the weights one index below T's own; across the step of the weights
    # an off-by-one there leaves C^3(F_3) = F_0 / 4
    w = WeightSeq.step(0.5, 2.0)
    R = ShiftOp.bilateral_backward(w)
    T = ShiftOp.bilateral_forward(w)
    e = [SeqVector.basis(n, Domain.INTEGERS) for n in range(3)]
    pairs = [(e[0], e[0]), (e[1], e[0]), (e[2], e[1])]
    assert abs(climb_back(R, T, pairs, 3)).max() <= 1e-10


def test_conjugation_orbit_window_growth():
    S0 = rank_one_to_mat(RankOne(SeqVector.basis(2), SeqVector.basis(2)), 5)
    pts = list(conjugation_orbit(B2, S0, ShiftOp.forward(W2), 2))
    # each step multiplies by w_i mu_j = 4 and moves down the diagonal:
    # e_2 (x) e_2* -> 4 e_1 (x) e_1* -> 16 e_0 (x) e_0*
    assert abs(pts[0].data[1 - pts[0].basis_offset][1 - pts[0].basis_offset] - 4.0) < 1e-12
    assert abs(pts[1].data[0 - pts[1].basis_offset][0 - pts[1].basis_offset] - 16.0) < 1e-12
