"""Density-profile tests with brute-force recount oracles."""

import io
import json
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hyperlab import fhc, matops
from hyperlab.cli import main
from hyperlab.density import (
    DensityEstimate,
    DensityProfile,
    NatSet,
    NormSpec,
    density_to_csv,
    natset_from_lines,
    q_lower_density,
    visit_set,
)
from hyperlab.matops import MatOp, embed_window, schatten_norm, singular_values
from hyperlab.seqspace import SeqVector, ShiftOp, WeightSeq, shift_power_apply
from hyperlab.terms import EXACT_INT64, index_array


def oracle_profile(elems, q, N_max):
    """Direct recount, no bisection."""
    out = []
    for N in range(1, N_max + 1):
        thr = N ** q
        out.append(sum(1 for n in elems if n <= thr) / N)
    return out


# ---------------------------------------------------------------------------
# NatSet basics
# ---------------------------------------------------------------------------

def test_natset_validation():
    with pytest.raises(ValueError):
        NatSet((3, 3, 5), 10)
    with pytest.raises(ValueError):
        NatSet((5, 2), 10)
    with pytest.raises(ValueError):
        NatSet((5,), 4)  # beyond the searched horizon
    A = NatSet(sorted({5, 2}), 10)
    assert A.elems.tolist() == [2, 5]
    assert 5 in A and 3 not in A
    assert A.count_leq(4.5) == 1


def test_natset_from_a_range_equals_the_tuple_built_one():
    for r, horizon in [(range(2, 101, 2), 100), (range(7, 50, 7), 49), (range(0, 0), 0),
                       (range(5, 6), 5)]:
        fast = NatSet(r, horizon)
        assert fast == NatSet(tuple(r), horizon)
    for r, horizon, msg in [(range(-2, 10, 2), 10, "naturals"),
                            (range(0, 12, 2), 9, "horizon"),
                            (range(0, 5), -1, "horizon"),
                            (range(9, 0, -3), 10, "increasing")]:
        with pytest.raises(ValueError, match=msg):
            NatSet(r, horizon)


def test_natset_is_one_read_only_sorted_array():
    small = NatSet(np.array([2, 5]), 10)
    assert small.elems.dtype == np.int64 and not small.elems.flags.writeable
    for same in (NatSet((2, 5), 10), NatSet(np.array([2, 5], object), 10),
                 NatSet(range(2, 6, 3), 10)):
        assert same == small and hash(same) == hash(small) and same.elems.dtype == np.int64
    assert small != NatSet((2, 5), 11) and small != NatSet((2, 6), 10)
    # from 2^62 on the elements are Python ints, whatever array they came in
    big = NatSet((3, 2 ** 62, 2 ** 70), 2 ** 70)
    assert big.elems.dtype == object and big.elems.tolist() == [3, 2 ** 62, 2 ** 70]
    twin = NatSet(np.array([3, 2 ** 62, 2 ** 70], object), 2 ** 70)
    assert twin == big and hash(twin) == hash(big)
    assert NatSet(np.array([3, 2 ** 62]), 2 ** 62).elems.dtype == object
    assert 2 ** 62 in big and 2 ** 62 + 1 not in big and 4 not in big
    assert big.count_leq(2 ** 70 - 1) == 2 and big.count_leq(2) == 0
    # a float threshold counts exactly past 2^53, as bisect did
    assert NatSet([2 ** 53 + 1], 2 ** 54).count_leq(float(2 ** 53)) == 0
    with pytest.raises(ValueError, match="increasing"):
        NatSet((3, 2 ** 70, 2 ** 70), 2 ** 70)


@pytest.mark.parametrize("values, big", [
    ([], False), ([0, 5, -7], False), ([EXACT_INT64 - 1, 1 - EXACT_INT64], False),
    ([3, EXACT_INT64], True), ([3, -EXACT_INT64], True),
    ([2 ** 63 - 1, 0], True), ([0, -(2 ** 63)], True),
    ([2 ** 63, 1], True), ([1, -(2 ** 63) - 1], True), ([2 ** 70, -(2 ** 70)], True)])
def test_index_array_is_int64_below_two_to_the_62(values, big):
    # lists, iterators and arrays alike: int64 while every value lies within
    # EXACT_INT64, Python ints in an object array from it on, either sign
    inputs = [values, iter(values), np.array(values, object)]
    if not big or all(abs(v) < 2 ** 63 for v in values):
        inputs.append(np.array(values, np.int64) if values else np.zeros(0, np.int64))
    for given in inputs:
        got = index_array(given)
        assert got.dtype == (object if big else np.int64) and got.tolist() == values
        assert all(type(v) is int for v in got) if big else True
    kept = np.array([1, 2], np.int64)
    assert index_array(kept) is kept


@pytest.mark.parametrize("q", [10.0, 9.5])
def test_floors_past_two_to_the_62_are_capped_for_an_int64_set(q, monkeypatch):
    # every element lies below 2^62, so a floor capped at 2^62 - 1 counts
    # what the Python-int floor counts, and searchsorted reads int64 floors
    # instead of casting the set to object
    A = boundary_set(q, 73, EXACT_INT64 - 1, (EXACT_INT64 - 1,))
    A = NatSet(A.elems, 10 ** 20)
    assert A.elems.dtype == np.int64
    seen = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda a, v, **kw: seen.append(np.asarray(v).dtype) or searchsorted(a, v, **kw))
    est = q_lower_density(A, q, 100)
    assert seen == [np.int64]
    assert list(est.profile) == bisect_profile(A, q, 100)
    assert est.profile[99] == (100, len(A.elems), len(A.elems) / 100)


def test_multiples_of_three_have_density_one_third():
    elems = tuple(range(3, 3001, 3))
    est = q_lower_density(NatSet(elems, 3000), 1.0, 3000)
    assert est.liminf_proxy == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert est.tail_start == 1500


def test_squares_have_unit_density_on_quadratic_clock():
    elems = tuple(k * k for k in range(1, 51))
    est = q_lower_density(NatSet(elems, 2500), 2.0, 50)
    # card{squares <= N^2} = N exactly, so every ratio is 1
    assert all(r == 1.0 for (_, _, r) in est.profile)
    assert est.liminf_proxy == 1.0


def test_full_set_ratios_exceed_one_for_q_twice():
    elems = tuple(range(0, 101))
    est = q_lower_density(NatSet(elems, 100), 2.0, 10)
    # card{n <= N^2} = N^2 + 1 (zero included): the ratio grows ~ N
    assert est.profile[9][2] == pytest.approx(101 / 10)     # ratio at N = 10


def test_incomplete_horizon_rejected():
    A = NatSet((1, 2, 3), 100)
    with pytest.raises(ValueError):
        q_lower_density(A, 2.0, 11)  # 11^2 = 121 > 100


@settings(max_examples=40, deadline=None)
@seed(4025)
@given(st.data())
def test_profile_matches_recount_oracle(data):
    elems = data.draw(st.lists(st.integers(0, 400), max_size=60, unique=True))
    q = data.draw(st.sampled_from([1.0, 1.5, 2.0]))
    A = NatSet(tuple(sorted(elems)), 400)
    N_max = int(400 ** (1.0 / q))
    est = q_lower_density(A, q, N_max)
    want = oracle_profile(A.elems, q, N_max)
    got = [r for (_, _, r) in est.profile]
    assert got == pytest.approx(want, abs=1e-12)


def bisect_profile(A, q, N_max):
    """The profile as first written: one bisect per N, Python thresholds.
    It bisects Python ints: an int64 element meets a float threshold as a
    float64, which rounds past 2^53."""
    q_int = int(q) if float(q).is_integer() else None
    elems = A.elems.tolist()
    out = []
    for N in range(1, N_max + 1):
        count = bisect_right(elems, N ** q_int if q_int is not None else float(N) ** q)
        out.append((N, count, count / N))
    return out


def boundary_set(q, N_max, horizon, extra=()):
    """Random elements plus floor(N^q) and its neighbours for a third of N,
    so many thresholds are hit exactly."""
    rng = random.Random(11)
    elems = {rng.randrange(horizon + 1) for _ in range(N_max)}
    for N in rng.sample(range(1, N_max + 1), N_max // 3):
        t = N ** int(q) if float(q).is_integer() else int(float(N) ** q)
        elems.update(v for v in (t - 1, t, t + 1) if 0 <= v <= horizon)
    return NatSet(tuple(sorted(elems | set(extra))), horizon)


@pytest.mark.parametrize("q", [1.0, 2.0, 1.5])
def test_profile_equals_the_bisect_loop(q):
    N_max = 10 ** 5
    horizon = N_max ** int(q) if q.is_integer() else int(float(N_max) ** q) + 1
    A = boundary_set(q, N_max, horizon)
    est = q_lower_density(A, q, N_max, 7)
    want = bisect_profile(A, q, N_max)
    assert list(est.profile) == want
    assert est.liminf_proxy == min(r for (N, _, r) in want if N >= 7)


def test_profile_past_two_to_the_63(tmp_path):
    # a file: set may declare any horizon; 100^10 = 1e20 > 2^63, where int64
    # thresholds would wrap
    big = (2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 99 ** 10, 100 ** 10 - 1, 100 ** 10)
    A = boundary_set(10, 100, 10 ** 20, big)
    for q in (10.0, 9.5):
        assert list(q_lower_density(A, q, 100).profile) == bisect_profile(A, q, 100)
    # an int64 set around floor(53^9.5), past 2^54, counts 2 at N = 53
    f = int(53.0 ** 9.5)
    near = NatSet((f - 1, f, f + 1), 10 ** 20)
    assert near.elems.dtype == np.int64
    assert list(q_lower_density(near, 9.5, 100).profile) == bisect_profile(near, 9.5, 100)
    assert bisect_profile(near, 9.5, 100)[52] == (53, 2, 2 / 53)
    path = tmp_path / "big.txt"
    path.write_text("# horizon 100000000000000000000\n"
                    + "\n".join(str(n) for n in A.elems) + "\n")
    assert main(["density", "--set", f"file:{path}", "--q", "10", "--n-max", "100",
                 "--out", str(tmp_path), "--format", "csv"]) == 0
    final = json.loads((tmp_path / "density_report.json").read_text())["results"]["final"]
    assert final == {"N": 100, "count": len(A.elems), "ratio": len(A.elems) / 100}
    rows = (tmp_path / "density.csv").read_text().splitlines()[1:]
    assert rows == [f"{N},{c},{r!r}" for N, c, r in bisect_profile(A, 10, 100)]


def test_profile_is_a_read_only_sequence_of_python_triples():
    A = NatSet((2, 3, 5, 7), 10)
    prof = q_lower_density(A, 1.0, 10).profile
    assert isinstance(prof, DensityProfile) and len(prof) == 10
    assert prof[0] == (1, 0, 0.0) and prof[-1] == (10, 4, 0.4) and prof[9] == prof[-1]
    assert prof[-10] == prof[0]
    assert prof[2:5] == ((3, 2, 2 / 3), (4, 2, 0.5), (5, 3, 0.6))
    for item in (prof[4], prof[-1], list(prof)[6]):
        assert [type(v) for v in item] == [int, int, float]
    assert list(prof) == [prof[i] for i in range(10)]
    for i in (10, -11):
        with pytest.raises(IndexError):
            prof[i]
    with pytest.raises(ValueError):
        prof.counts[0] = 5
    assert q_lower_density(A, 1.0, 10) == q_lower_density(A, 1.0, 10)


def test_density_runtime_scale():
    # horizon 10^6 and a thousand profile points stay well under a second
    import time
    elems = tuple(range(3, 10 ** 6, 3))
    A = NatSet(elems, 10 ** 6)
    t0 = time.perf_counter()
    est = q_lower_density(A, 1.0, 1000)
    assert time.perf_counter() - t0 < 1.0
    assert est.liminf_proxy == pytest.approx(1.0 / 3.0, abs=1e-2)


# ---------------------------------------------------------------------------
# visit sets
# ---------------------------------------------------------------------------

def test_visit_set_lp_metric():
    # orbit of e_3 under the unweighted backward shift visits e_0 at n = 3
    B = ShiftOp.backward(WeightSeq.constant(1.0))
    orbit = (shift_power_apply(B, SeqVector.basis(3), n) for n in range(1, 7))
    A = visit_set(orbit, SeqVector.basis(0), 0.5, NormSpec.lp(2.0))
    assert A.elems.tolist() == [3]
    assert A.horizon == 6


def test_visit_set_operator_metric_mixed_windows():
    target = MatOp(np.eye(2, dtype=complex))
    near = MatOp(np.eye(3, dtype=complex) * 1.0)  # extra diagonal 1 at index 2
    far = MatOp(np.zeros((2, 2), dtype=complex))
    A = visit_set([far, target, near], target, 0.5, NormSpec.operator())
    # `near` differs by a rank-one of norm 1 on the grown window
    assert A.elems.tolist() == [2]


def test_visit_set_rejects_mixed_types():
    with pytest.raises(TypeError):
        visit_set([SeqVector.basis(0)], MatOp.zeros(2), 1.0, NormSpec.operator())
    with pytest.raises(ValueError):
        visit_set([], SeqVector.basis(0), 0.0, NormSpec.lp(2.0))


def test_schatten_metric_on_matrix_orbit():
    member = MatOp(np.diag([1.0, 1.0]).astype(complex))
    target = MatOp.zeros(2)
    A = visit_set([member], target, 2.1, NormSpec.schatten(1.0))
    assert A.elems.tolist() == [1]  # trace norm 2 < 2.1
    B = visit_set([member], target, 1.9, NormSpec.schatten(1.0))
    assert len(B) == 0


def gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.mark.parametrize("spec", [NormSpec.schatten(1.0), NormSpec.schatten(1.5),
                                  NormSpec.schatten(2.0), NormSpec.schatten(3.5),
                                  NormSpec.operator()], ids=["1", "1.5", "2", "3.5", "op"])
def test_within_agrees_with_the_exact_norm(spec):
    # x and target sit on different windows; `within` must answer as the
    # full-spectrum norm of their difference on the common window does,
    # also for radii a relative 1e-12 off the norm, where no bracket decides
    rng = np.random.default_rng(11)
    x = MatOp(gaussian(rng, 24, 24), basis_offset=2)
    target = MatOp(gaussian(rng, 20, 20) * 0.3)
    diff = embed_window(x, 0, 25) - embed_window(target, 0, 25)
    exact = (singular_values(diff).values[0] if spec.kind == "operator"
             else schatten_norm(diff, spec.p))
    for rel in (1e-12, 1e-3, 0.5):
        for radius in (exact * (1.0 - rel), exact * (1.0 + rel)):
            assert spec.within(x, target, radius) == (exact < radius)
    assert spec.within(x, target, exact) is False


def test_conjugation_orbit_visits_decide_in_few_sweeps(monkeypatch):
    # C^n(S) = B S F with weight 0.8 maps S to 0.64^n S[n:, n:]; the visit
    # set of the trace-norm ball of radius 5 around 0 must match the SVD
    # oracle while the certified compare runs few Jacobi sweeps (the full
    # spectra take about 118); every 64-column orbit point is one group, so
    # the count of groups swept is the count of sweeps
    dim, horizon, c, radius = 64, 12, 0.8, 5.0
    S0 = gaussian(np.random.default_rng(1061), dim, dim)
    R = ShiftOp.backward(WeightSeq.constant(c))
    T = ShiftOp.forward(WeightSeq.constant(c))
    sweeps = [0]
    gram_sweep = matops._gram_sweep

    def counted(G, tol):
        sweeps[0] += len(G)
        return gram_sweep(G, tol)

    monkeypatch.setattr(matops, "_gram_sweep", counted)
    orbit = fhc.conjugation_orbit(R, MatOp(S0), T, horizon)
    got = visit_set(orbit, MatOp.zeros(dim), radius, NormSpec.schatten(1.0))
    want = [n for n in range(1, horizon + 1)
            if c ** (2 * n) * np.linalg.svd(S0[n:, n:], compute_uv=False).sum() < radius]
    assert got.elems.tolist() == want and got.horizon == horizon
    assert sweeps[0] <= 15


def test_visit_set_lets_an_undecided_compare_raise(monkeypatch):
    rng = np.random.default_rng(37)
    x = MatOp(gaussian(rng, 40, 40))
    radius = schatten_norm(x, 1.0) * (1.0 + 1e-10)
    monkeypatch.setattr(matops, "_JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ValueError, match="sweep budget"):
        visit_set([x], MatOp.zeros(40), radius, NormSpec.schatten(1.0))


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_density_csv_layout():
    est = q_lower_density(NatSet((1, 2, 4), 16), 2.0, 4)
    buf = io.StringIO()
    density_to_csv(est, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "N,count,ratio"
    assert lines[1] == "1,1,1.0"    # threshold 1^2 = 1 catches only the 1
    assert lines[2] == "2,3,1.5"    # threshold 4 catches 1, 2, 4


def test_natset_lines_round_trip():
    A = NatSet((2, 5, 9), 20)
    text = "# horizon 20\n" + "".join(f"{n}\n" for n in A.elems)
    assert natset_from_lines(text) == A
    empty = NatSet((), 7)
    assert natset_from_lines("# horizon 7\n") == empty
