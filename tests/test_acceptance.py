"""Acceptance battery: twelve end-to-end checks, one pass/fail line each.

Each test pins down one contract of the library with exact small-instance
oracles or frozen constants from independent runs: density exactness,
Schatten identities, the subset-sum bound, inverse-orbit exactness, the full
frequent-visit construction, separation invariants, checker ground truth,
kernel eigenpairs, orbit certificates, span-residual enrichment, and
byte-level report determinism.
"""

import json
import math
import time

import numpy as np
import pytest

from hyperlab.checkers import (CheckGrid, check_bilateral_growth_decay,
                               check_schatten_summability,
                               check_unilateral_growth)
from hyperlab.cli import main as cli_main
from hyperlab.density import NatSet, q_lower_density
from hyperlab.fhc import (BackwardOrbitFamily, EpsSchedule, assemble_vector,
                          build_separated_family, condition_c_exactness,
                          find_tail_threshold, verify_q_frequent_visits,
                          verify_separated_family)
from hyperlab.hardy import (AnalyticSymbol, BetaSpace, conjugation_eigencheck,
                            converse_certificate, span_density_residual,
                            unimodular_locus_sample)
from hyperlab.matops import MatOp, schatten_norm
from hyperlab.seqspace import (SeqVector, ShiftOp, WeightSeq, lp_norm,
                               subset_sum_bound_check)

Z = AnalyticSymbol.from_coeffs([0.0, 1.0])
ONE = AnalyticSymbol.from_coeffs([1.0])
TWO = WeightSeq.constant(2.0)
E0 = SeqVector({0: 1.0})
E01 = SeqVector({0: 1.0, 1: 1.0})


def test_01_power_clock_density_exact_on_squares_and_evens():
    t0 = time.perf_counter()
    squares = NatSet(sorted(n * n for n in range(1, 1001)), 1_000_000)
    est = q_lower_density(squares, 2.0, 1000)
    assert all(count == N and ratio == 1.0 for N, count, ratio in est.profile)

    evens = NatSet(tuple(range(2, 1001, 2)), 1000)
    ev = q_lower_density(evens, 1.0, 1000)
    assert abs(ev.liminf_proxy - 0.5) <= 1.0 / ev.tail_start
    assert time.perf_counter() - t0 < 1.0


def test_02_rank_one_schatten_norm_factorizes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250823)
    for _ in range(200):
        a, b = rng.integers(2, 11, size=2)
        u = rng.standard_normal(a) + 1j * rng.standard_normal(a)
        v = rng.standard_normal(b) + 1j * rng.standard_normal(b)
        prod = np.linalg.norm(u) * np.linalg.norm(v)
        mat = MatOp(np.outer(u, v.conj()))
        for p in (1.0, 2.0, 3.5):
            assert abs(schatten_norm(mat, p) - prod) <= 1e-9 * prod
    assert time.perf_counter() - t0 < 5.0


def test_03_disjoint_rank_one_blocks_add_in_p_norm():
    rng = np.random.default_rng(5151)
    for _ in range(100):
        blocks = []
        for _ in range(rng.integers(1, 9)):
            a, b = rng.integers(2, 5, size=2)
            u = rng.standard_normal(a) + 1j * rng.standard_normal(a)
            v = rng.standard_normal(b) + 1j * rng.standard_normal(b)
            blocks.append(np.outer(u, v.conj()))
        rows = sum(B.shape[0] for B in blocks)
        cols = sum(B.shape[1] for B in blocks)
        big = np.zeros((rows, cols), dtype=complex)
        r = c = 0
        for B in blocks:
            big[r:r + B.shape[0], c:c + B.shape[1]] = B
            r += B.shape[0]
            c += B.shape[1]
        prods = np.array([np.linalg.norm(B, 2) for B in blocks])
        for p in (1.0, 2.0, 4.0):
            lhs = schatten_norm(MatOp(big), p)
            rhs = float((prods ** p).sum() ** (1.0 / p))
            assert abs(lhs - rhs) <= 1e-8 * rhs


def test_04_subset_sum_bound_has_no_violations():
    rng = np.random.default_rng(777)
    for _ in range(100):
        size = int(rng.integers(1, 9))
        xs = []
        for _ in range(size):
            support = rng.choice(21, size=rng.integers(1, 5), replace=False)
            xs.append(SeqVector({int(i): complex(rng.standard_normal(),
                                                 rng.standard_normal())
                                 for i in support}))
        lambdas = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        report = subset_sum_bound_check(xs, list(lambdas), range(size))
        assert report.holds, f"bound violated: {report.lhs} > {report.rhs}"


def test_05_inverse_orbit_points_compose_exactly():
    family = BackwardOrbitFamily(ShiftOp.backward(TWO), (E0, E01))
    for q in (1, 2):
        worst = condition_c_exactness(family, q, nm_max=8, tol=1e-10)
        assert worst <= 1e-10


def test_06_frequent_visit_construction_end_to_end():
    t0 = time.perf_counter()
    op = ShiftOp.backward(TWO)
    family = BackwardOrbitFamily(op, (E0, E01))
    sched = EpsSchedule()
    K = family.num_classes
    n_ks = [find_tail_threshold(family, op, k, 1, sched) for k in range(1, K + 1)]
    J = build_separated_family(n_ks, K, 10_000)
    assert verify_separated_family(J).ok
    x = assemble_vector(family, J, 1)
    radii = [k * sched.eps(k) + sum(sched.eps(j) for j in range(k + 1, K + 1))
             for k in range(1, K + 1)]
    reports = verify_q_frequent_visits(op, x, family, J, 1, radii, eps=sched)
    for rep in reports:
        assert rep.designed_within == rep.designed_count
        assert rep.contained
        assert rep.visit_density >= 0.5 * rep.designed_density
    assert time.perf_counter() - t0 < 60.0


def test_07_separated_family_invariants_to_large_horizon():
    for n_ks in ([2, 4], [3, 5, 7], [1, 8]):
        fam = build_separated_family(n_ks, len(n_ks), 100_000)
        rep = verify_separated_family(fam)
        assert rep.ok and rep.disjoint_ok and rep.min_ok and rep.separation_ok
        assert all(d > 0 for d in rep.densities)
        # every pair of the plan, each time against all later ones
        times = np.concatenate([s.elems for s in fam.sets])
        thr = np.repeat(n_ks, [len(s) for s in fam.sets])
        order = np.argsort(times)
        times, thr = times[order], thr[order]
        for i in range(len(times) - 1):
            assert (times[i + 1:] - times[i] >= thr[i] + thr[i + 1:]).all(), times[i]


def test_08_weight_checkers_match_ground_truth():
    grid = CheckGrid.unilateral_default()
    assert check_unilateral_growth(TWO, TWO, grid).satisfied

    flat = check_unilateral_growth(WeightSeq.constant(1.0),
                                   WeightSeq.constant(1.0), grid)
    assert not flat.satisfied and flat.witness is not None

    ratio = WeightSeq.ratio((1.0, 1.0), (0.0, 1.0))   # running product n + 1
    assert check_schatten_summability(ratio, ratio, 2.0, grid).satisfied

    step = WeightSeq.step(0.5, 2.0, split=1)
    two_regime = check_bilateral_growth_decay(step, step,
                                              CheckGrid.bilateral_default())
    assert two_regime.satisfied and two_regime.margin > 0


def test_09_conjugation_eigenpair_with_geometric_residual_decay():
    rep128 = conjugation_eigencheck(Z, Z, BetaSpace.hardy(128), 0.6, 0.6)
    assert abs(rep128.eigenvalue - 0.36) <= 1e-12
    assert rep128.op_residual <= 1e-8 and rep128.s1_residual <= 1e-8

    rep64 = conjugation_eigencheck(Z, Z, BetaSpace.hardy(64), 0.6, 0.6)
    decay = rep128.s1_residual / rep64.s1_residual
    assert 0.6 ** 60 / 100 <= decay <= 0.6 ** 60 * 100


def test_10_scalar_and_shifted_symbols_yield_monotone_certificates():
    half = converse_certificate(AnalyticSymbol.from_coeffs([0.5]), ONE)
    assert half.kind.value == "not_hypercyclic_contraction"
    assert half.orbit_monotone
    assert all(b <= a * (1 + 1e-10) + 1e-15
               for a, b in zip(half.orbit_norms, half.orbit_norms[1:]))

    inv = converse_certificate(AnalyticSymbol.from_coeffs([3.0, 1.0]), ONE)
    assert inv.kind.value == "not_hypercyclic_inverse_contraction"
    assert inv.orbit_monotone
    assert all(b >= a * (1 - 1e-10) - 1e-15
               for a, b in zip(inv.orbit_norms, inv.orbit_norms[1:]))


def test_11_arc_enrichment_drives_span_residual_below_threshold():
    # The identity-symbol pair has no unimodular products inside the bidisk,
    # so the enrichment protocol runs on the shifted symbol, whose level set
    # crosses the scan grid along an arc.
    assert len(unimodular_locus_sample(Z, Z, 16, 1e-3)) == 0

    shifted = AnalyticSymbol.from_coeffs([1.0, 1.0])
    pts = unimodular_locus_sample(shifted, ONE, 16, 1e-3)
    assert len(pts)
    rows = pts.tolist()
    order = sorted(range(len(rows)), key=lambda i: (
        round(rows[i][0].real, 12), round(rows[i][0].imag, 12),
        round(rows[i][1].real, 12), round(rows[i][1].imag, 12)))
    step = max(1, len(pts) // 64)
    s64 = pts[order[::step][:64]]
    s8 = s64[::8]

    target = np.zeros((33, 33), dtype=complex)
    target[0, 0] = 1.0
    space = BetaSpace.hardy(32)
    r8 = span_density_residual(s8["z"], s8["w"], MatOp(target), space).residual
    r64 = span_density_residual(s64["z"], s64["w"], MatOp(target), space).residual

    assert r64 < r8
    assert r64 < 0.1
    # frozen from an independent oracle run of the same protocol
    assert r8 == pytest.approx(0.030129, abs=6e-3)
    assert r64 == pytest.approx(0.000572, abs=3e-4)


def test_12_fixed_seed_reports_are_byte_identical(tmp_path):
    args = ["construct-fhc", "--weights", "w=constant:2", "--q", "1",
            "--targets", "0|0,1", "--horizon", "2000", "--seed", "11"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "construct_fhc_report.json").read_bytes()
    second = (tmp_path / "b" / "construct_fhc_report.json").read_bytes()
    assert first == second
    assert b'"timestamp"' not in first
