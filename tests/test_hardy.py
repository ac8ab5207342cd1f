"""Tests for kernel-function spaces and conjugation eigenchecks."""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hyperlab import cli, hardy
from hyperlab.hardy import (
    AnalyticSymbol,
    BetaSpace,
    CertificateKind,
    adjoint_kernel_eigencheck,
    conjugation_eigencheck,
    converse_certificate,
    mult_op_matrix,
    nuclear_eigencheck,
    span_density_residual,
    unimodular_locus_sample,
)
from hyperlab.matops import MatOp
from hyperlab.seqspace import Domain, WeightSeq

ONE = AnalyticSymbol.from_coeffs([1.0])
Z = AnalyticSymbol.from_coeffs([0.0, 1.0])
Z_PLUS_1 = AnalyticSymbol.from_coeffs([1.0, 1.0])


def coeff_array(space: BetaSpace, pairs) -> np.ndarray:
    """Basis coefficients a_0 .. a_N of a function with finitely many given."""
    out = np.zeros(space.dim + 1, dtype=complex)
    for n, c in dict(pairs).items():
        out[n] = c
    return out


def eval_function(space: BetaSpace, coeffs: np.ndarray, z: complex) -> complex:
    """f(z) = sum a_n beta_n z^n, term by term."""
    return sum(c * space.rule.weight(n).real * z ** n for n, c in enumerate(coeffs.tolist()))


# -- spaces and kernels -----------------------------------------------------

def test_beta_space_validation():
    with pytest.raises(ValueError):
        BetaSpace.hardy(0)
    with pytest.raises(ValueError):
        BetaSpace(WeightSeq.constant(1.0, domain=Domain.INTEGERS), 8)
    with pytest.raises(ValueError):
        BetaSpace(WeightSeq.table((1.0, -2.0), start=0, default=1.0), 8)
    sp = BetaSpace.inv_linear(8)
    assert sp.betas[3] == pytest.approx(0.25)


@pytest.mark.parametrize("values,message", [
    ((1.0, -1.0, 0.0), "basis weight at n=1 must be a positive real"),
    ((1.0, 0.0, -1.0), "zero weight encountered at index 1"),
    ((1.0, 2.0), "weight index 2 outside the table range"),
    ((1.0, 1.0 + 1e-9j, 0.0), "basis weight at n=1 must be a positive real"),
])
def test_beta_space_reports_the_first_bad_weight(values, message):
    with pytest.raises(ValueError, match=message):
        BetaSpace(WeightSeq.table(values, start=0), 2)


def test_kernel_at_origin_is_first_basis_vector():
    k = hardy._dense_kernel(BetaSpace.hardy(16), 0.0)
    assert np.flatnonzero(k).tolist() == [0]
    assert k[0] == 1.0


def test_kernel_reproduces_monomial_hardy():
    sp = BetaSpace.hardy(16)
    k = hardy._dense_kernel(sp, 0.5)
    e3 = coeff_array(sp, {3: 1.0})
    assert np.vdot(k, e3) == pytest.approx(0.125, abs=1e-15)


def test_kernel_reproduces_in_weighted_space():
    sp = BetaSpace.inv_linear(16)
    k = hardy._dense_kernel(sp, 0.5)
    f = coeff_array(sp, {0: 1.0, 1: 1.0})
    value = eval_function(sp, f, 0.5)
    assert value == pytest.approx(1.25)
    assert abs(np.vdot(k, f) - value) < 1e-10


def test_kernel_rejects_boundary_points():
    sp = BetaSpace.hardy(8)
    for z in (1.0, -1.0, 1.0 + 0.0j, 0.8 + 0.8j):
        with pytest.raises(ValueError):
            hardy._dense_kernel(sp, z)


@seed(90217)
@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                    min_size=1, max_size=8),
    radius=st.floats(min_value=0.0, max_value=0.9),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_reproducing_property_for_polynomials(coeffs, radius, angle):
    sp = BetaSpace.inv_linear(16)
    z = radius * complex(math.cos(angle), math.sin(angle))
    f = coeff_array(sp, {n: complex(re, im) for n, (re, im) in enumerate(coeffs)})
    lhs = np.vdot(hardy._dense_kernel(sp, z), f)
    rhs = eval_function(sp, f, z)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


# -- multiplication matrices ------------------------------------------------

def test_mult_matrix_hardy_shift():
    m = mult_op_matrix(Z, BetaSpace.hardy(5))
    expect = np.diag(np.ones(5), -1)
    assert np.allclose(m.data, expect)


def test_mult_matrix_weighted_subdiagonal():
    m = mult_op_matrix(Z, BetaSpace.inv_linear(5))
    sub = np.diag(m.data, -1)
    assert np.allclose(sub, [(n + 2) / (n + 1) for n in range(5)])


def test_symbol_canonical_form():
    phi = AnalyticSymbol.from_coeffs((1.0, 2.0, 0.0, 0.0))
    assert phi.coeffs == (1.0 + 0.0j, 2.0 + 0.0j) and phi.degree == 1
    assert phi(2.0) == pytest.approx(5.0)
    assert AnalyticSymbol.from_coeffs((0.0, 0.0)).coeffs == (0.0 + 0.0j,)


def test_mult_matrix_constant_symbol():
    c = AnalyticSymbol.from_coeffs([2.5 - 1.0j])
    m = mult_op_matrix(c, BetaSpace.inv_linear(6))
    assert np.allclose(m.data, (2.5 - 1.0j) * np.eye(7))


def test_mult_matrix_algebra_morphism():
    sp = BetaSpace.inv_linear(16)
    a = AnalyticSymbol.from_coeffs([1.0, 2.0])
    b = AnalyticSymbol.from_coeffs([3.0, 0.0, 1.0])
    prod_coeffs = np.polymul([2.0, 1.0], [1.0, 0.0, 3.0])[::-1]
    ab = AnalyticSymbol.from_coeffs(list(prod_coeffs))
    lhs = mult_op_matrix(ab, sp).data
    rhs = mult_op_matrix(a, sp).data @ mult_op_matrix(b, sp).data
    keep = sp.dim + 1 - a.degree - b.degree
    assert np.max(np.abs(lhs[:, :keep] - rhs[:, :keep])) < 1e-10


def scalar_mult_op_matrix(phi, space):
    """The scalar loop mult_op_matrix ran before it filled whole diagonals:
    the oracle its bytes are held to."""
    n_dim = space.dim + 1
    data = np.zeros((n_dim, n_dim), dtype=complex)
    cs = phi.coeffs
    for n in range(n_dim):
        bn = space.rule.weight(n).real
        for m, c in enumerate(cs):
            k = n + m
            if k >= n_dim:
                break
            data[k, n] = c * bn / space.rule.weight(k).real
    return MatOp(data)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


MULT_SYMBOLS = [
    [2.5 - 1.0j],
    [0.0, 1.0],
    [-0.0, -1.0, 0.0, 3.0],
    [1e-300, -2.0 + 1e-17j, 0.5j, complex(-0.0, -0.0), 7.0],
    [complex(-2.0, -0.0), complex(0.5, -0.0), complex(-0.0, 3.0)],   # signed zeros
    [complex(k % 3 - 1, (-1) ** k * k / 7) for k in range(21)],     # degree 20
]


@pytest.mark.parametrize("space", [BetaSpace.hardy(12), BetaSpace.inv_linear(12),
                                   BetaSpace.inv_linear(40)], ids=["hardy", "inv_linear-12",
                                                                   "inv_linear-40"])
@pytest.mark.parametrize("coeffs", MULT_SYMBOLS, ids=lambda c: f"degree-{len(c) - 1}")
def test_mult_matrix_matches_the_scalar_loop_bit_for_bit(space, coeffs):
    phi = AnalyticSymbol.from_coeffs(coeffs)
    got = mult_op_matrix(phi, space).data
    want = scalar_mult_op_matrix(phi, space).data
    assert got.shape == want.shape
    # signed zeros included: compare the bits of every real and imaginary part
    assert np.array_equal(bits(got), bits(want))


# -- adjoint kernel eigenchecks ---------------------------------------------

def test_adjoint_eigencheck_geometric_scale():
    rep = adjoint_kernel_eigencheck(Z, BetaSpace.hardy(128), 0.6)
    # the truncated identity fails only in the top coefficient, which for
    # the coordinate symbol is exactly |z|^(N+1)
    assert rep.residual == pytest.approx(0.6 ** 129, rel=1e-12)
    assert rep.residual <= 0.6 ** 127
    assert rep.passed
    assert rep.eigenvalue == pytest.approx(0.6)


def test_adjoint_eigencheck_constant_symbol():
    c = AnalyticSymbol.from_coeffs([0.7 + 0.2j])
    rep = adjoint_kernel_eigencheck(c, BetaSpace.inv_linear(32), 0.4 + 0.3j)
    assert rep.residual == 0.0
    assert rep.eigenvalue == pytest.approx(0.7 - 0.2j)
    assert rep.passed


def test_adjoint_eigencheck_at_origin():
    rep = adjoint_kernel_eigencheck(AnalyticSymbol.from_coeffs([2.0, 3.0]),
                                    BetaSpace.hardy(32), 0.0)
    assert rep.residual == 0.0
    assert rep.passed


# -- conjugation eigenchecks ------------------------------------------------

def test_conjugation_eigencheck_quarter():
    rep = conjugation_eigencheck(Z, Z, BetaSpace.hardy(64), 0.5, 0.5)
    assert rep.eigenvalue == pytest.approx(0.25)
    assert rep.op_residual <= rep.s1_residual
    assert rep.passed


def test_conjugation_eigencheck_at_origin():
    phi = AnalyticSymbol.from_coeffs([1.0 + 2.0j, 1.0])
    psi = AnalyticSymbol.from_coeffs([0.5 - 1.0j, 0.0, 2.0])
    rep = conjugation_eigencheck(phi, psi, BetaSpace.hardy(24), 0.0, 0.0)
    assert rep.eigenvalue == pytest.approx((1.0 - 2.0j) * (0.5 - 1.0j))
    assert rep.s1_residual == 0.0
    assert rep.passed


def test_conjugation_with_constant_right_factor_is_rank_one():
    sp = BetaSpace.hardy(48)
    z, w = 0.45 + 0.2j, -0.3 + 0.5j
    conj_rep = conjugation_eigencheck(Z, ONE, sp, z, w)
    adj_rep = adjoint_kernel_eigencheck(Z, sp, z)
    norm_w = math.sqrt(sum(abs(w) ** (2 * n) for n in range(sp.dim + 1)))
    assert conj_rep.s1_residual == pytest.approx(adj_rep.residual * norm_w, rel=1e-10)
    assert conj_rep.op_residual == pytest.approx(conj_rep.s1_residual, rel=1e-10)


def test_eigencheck_residuals_decay_geometrically():
    # rate max(|z|, |w|) = 0.6: each doubling of the truncation shrinks the
    # residual by 0.6^N, checked to two orders of magnitude either way
    res = {n: conjugation_eigencheck(Z, Z, BetaSpace.hardy(n), 0.6, 0.6).s1_residual
           for n in (32, 64, 128)}
    for small, big in ((32, 64), (64, 128)):
        ratio = res[big] / res[small]
        assert 0.6 ** small / 100.0 <= ratio <= 0.6 ** small * 100.0


# -- unimodular locus -------------------------------------------------------

def test_locus_arc_through_disc():
    pts = unimodular_locus_sample(Z_PLUS_1, ONE, 16, 1e-3)
    assert len(pts)
    assert (np.abs(pts["z"]) < 1.0).all() and (np.abs(pts["w"]) < 1.0).all()
    assert (np.abs(np.abs(pts["z"] + 1.0) - 1.0) < 2e-3).all()


def test_locus_empty_for_small_product():
    phi = AnalyticSymbol.from_coeffs([0.3])
    assert len(unimodular_locus_sample(phi, phi, 8, 1e-3)) == 0


def test_locus_half_radius_circle():
    pts = unimodular_locus_sample(AnalyticSymbol.from_coeffs([0.0, 2.0]), ONE,
                                  8, 1e-3)
    assert len(pts)
    assert (np.abs(np.abs(pts["z"]) - 0.5) < 1e-3).all()


def test_locus_empty_for_coordinate_pair():
    # |z w| < 1 strictly inside the bidisc, so no crossing can exist
    assert len(unimodular_locus_sample(Z, Z, 8, 1e-3)) == 0
    assert len(unimodular_locus_sample(Z, Z, 16, 1e-3)) == 0


def test_locus_respects_exclusion_list():
    sym = AnalyticSymbol.from_coeffs([0.0, 2.0])
    pts = unimodular_locus_sample(sym, ONE, 8, 1e-3)
    banned = eigenvalues(pts[:1], sym, ONE)[0]
    kept = unimodular_locus_sample(sym, ONE, 8, 1e-3,
                                   exclude=(banned,), exclude_radius=1e-6)
    assert len(kept) < len(pts)
    assert all(abs(ev - banned) > 1e-6 for ev in eigenvalues(kept, sym, ONE))


def eigenvalues(pts, phi, psi) -> list:
    """conj(phi(z)) psi(w) of each locus point, in CPython's complex steps."""
    return [complex(phi(z)).conjugate() * complex(psi(w))
            for z, w in zip(pts["z"].tolist(), pts["w"].tolist())]


def test_locus_rejects_sparse_grid():
    with pytest.raises(ValueError):
        unimodular_locus_sample(Z, Z, 4, 1e-3)


def scalar_locus_sample(phi, psi, grid_density, tol, exclude=(), exclude_radius=1e-6):
    """The scalar loop unimodular_locus_sample ran before it became array
    passes: the oracle its bytes are held to, one (z, w, modulus) row per
    point."""
    if grid_density < 8:
        raise ValueError("grid density must be >= 8")
    g = int(grid_density)
    radii = [(i + 0.5) / g for i in range(g)]
    angles = [2.0 * math.pi * k / g for k in range(g)]
    w_points = [r * cmath.exp(1j * t) for r in radii for t in angles]

    def excluded(zz, ww) -> bool:
        ev = complex(phi(zz)).conjugate() * complex(psi(ww))
        return any(abs(ev - complex(e)) <= exclude_radius for e in exclude)

    directions = [cmath.exp(1j * t) for t in angles]
    moduli = [[abs(phi(r * direction)) for r in radii] for direction in directions]
    out = []
    for w in w_points:
        bw = abs(psi(w))
        for direction, line in zip(directions, moduli):
            vals = [m * bw - 1.0 for m in line]
            for idx in range(len(radii)):
                if abs(vals[idx]) < tol:
                    zz = radii[idx] * direction
                    if not excluded(zz, w):
                        out.append((zz, w, vals[idx] + 1.0))
                    continue
                if idx == 0:
                    continue
                if vals[idx - 1] * vals[idx] < 0.0:
                    lo, hi = radii[idx - 1], radii[idx]
                    flo = vals[idx - 1]
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        fm = abs(phi(mid * direction)) * bw - 1.0
                        if abs(fm) < tol * 0.5:
                            lo = hi = mid
                            break
                        if flo * fm <= 0.0:
                            hi = mid
                        else:
                            lo, flo = mid, fm
                    zz = 0.5 * (lo + hi) * direction
                    if abs(zz) < 1.0 and not excluded(zz, w):
                        out.append((zz, w, abs(phi(zz)) * bw))
    return out


def locus_battery():
    """Seeded (phi, psi, grid, tol, exclude, exclude_radius, pass_cells)
    cases; pass_cells None keeps the scan's own chunking, an int shrinks a
    pass to that many cells (7 w points, which divides no grid's w count)."""
    rng = random.Random(909)

    def coeff():
        re = rng.uniform(-2.0, 2.0)
        return complex(re, rng.uniform(-2.0, 2.0)) if rng.random() < 0.7 else complex(re)

    cases = []
    for _ in range(40):
        grid = rng.choice([8, 9, 12, 16])
        cases.append(([coeff() for _ in range(rng.randint(1, 4))],
                      [coeff() for _ in range(rng.randint(1, 3))],
                      grid, 10.0 ** rng.uniform(-6.0, -2.0),
                      tuple(0.5 * coeff() for _ in range(rng.choice([0, 0, 1, 3]))),
                      rng.choice([1e-6, 0.5, 2.0]),
                      rng.choice([None, 7 * grid * grid])))
    cases += [
        ([0.1, 0.1], [0.5j], 12, 1e-3, (), 1e-6, None),             # |phi psi| < 1
        ([0.0, 1.0], [0.0, 1.0], 9, 1e-2, (), 1e-6, 7 * 81),        # |z w| < 1
        ([0.0, 2.0], [0.0, 1.0], 33, 1e-3, (), 1e-6, None),         # 1089 w, short last pass
        ([0.0, 2.0], [1.0], 8, 1e-3, (1.0, -1.0j), 0.3, None),      # drops whole arcs
        ([1.0, 1.0], [0.0, 0.0, 1.5 - 0.5j], 12, 1e-6, (0.5 + 0.5j,), 0.8, 7 * 144),
    ]
    return cases


@pytest.mark.parametrize("case", locus_battery(), ids=lambda c: f"grid{c[2]}")
def test_locus_matches_the_scalar_loop(case, monkeypatch):
    phi_c, psi_c, grid, tol, exclude, radius, pass_cells = case
    if pass_cells is not None:
        monkeypatch.setattr(hardy, "_LOCUS_CELLS", pass_cells)
    phi, psi = AnalyticSymbol.from_coeffs(phi_c), AnalyticSymbol.from_coeffs(psi_c)
    got = unimodular_locus_sample(phi, psi, grid, tol, exclude, radius)
    want = scalar_locus_sample(phi, psi, grid, tol, exclude, radius)
    assert got.dtype.names == ("z", "w", "modulus")
    assert first_difference(got.tolist(), want) is None
    # the density check's sample order is the one `sorted` gives the rows
    assert cli._spread_samples(got, max(1, len(got))).tolist() == sorted_order(want)


def sorted_order(rows: list) -> list:
    """Row indices in the order of the rounded (z.re, z.im, w.re, w.im)
    key, Python's round and a stable sort: the density check's order."""
    def key(i):
        z, w, _ = rows[i]
        return round(z.real, 12), round(z.imag, 12), round(w.real, 12), round(w.imag, 12)
    return sorted(range(len(rows)), key=key)


def first_difference(got: list, want: list):
    """None when both row lists print alike (repr tells -0.0 from 0.0 and
    prints every float to the last bit); otherwise the first difference, kept
    short, since a diff of the two whole reprs takes pytest minutes."""
    for i, (a, b) in enumerate(zip(map(repr, got), map(repr, want))):
        if a != b:
            return i, a, b
    return None if len(got) == len(want) else ("lengths", len(got), len(want))


def test_locus_battery_reaches_the_edge_cases():
    empty = excluding = 0
    for phi_c, psi_c, grid, tol, exclude, radius, _ in locus_battery():
        phi, psi = AnalyticSymbol.from_coeffs(phi_c), AnalyticSymbol.from_coeffs(psi_c)
        if grid > 12:
            continue
        full = scalar_locus_sample(phi, psi, grid, tol)
        empty += not full
        excluding += len(scalar_locus_sample(phi, psi, grid, tol, exclude, radius)) < len(full)
    assert empty >= 3 and excluding >= 3


def test_locus_refuses_a_symbol_that_overflows_on_the_grid():
    huge = AnalyticSymbol.from_coeffs([1e308, 1e308])
    with pytest.raises(ValueError, match="not finite"):
        unimodular_locus_sample(huge, ONE, 8, 1e-3)


# -- span density -----------------------------------------------------------

def loop_span_residual(z, w, target: MatOp, space: BetaSpace) -> tuple:
    """(residual, rank_deficient) as span_density_residual took them before
    its kernels became matrices, one np.vdot per Gram entry: the oracle."""
    us = [hardy._dense_kernel(space, complex(a)) for a in z]
    vs = [hardy._dense_kernel(space, complex(b)) for b in w]
    m, t_mat = len(us), target.data
    gram = np.empty((m, m), dtype=complex)
    rhs = np.empty(m, dtype=complex)
    for i in range(m):
        for j in range(m):
            gram[i, j] = np.vdot(us[i], us[j]) * np.vdot(vs[j], vs[i])
        rhs[i] = np.vdot(us[i], t_mat @ vs[i])
    eigs = np.linalg.eigvalsh(gram)
    coeff = np.linalg.pinv(gram, rcond=1e-10, hermitian=True) @ rhs
    approx = np.zeros_like(t_mat)
    for c, u, v in zip(coeff, us, vs):
        approx += c * np.outer(u, v.conj())
    return (float(np.linalg.norm(t_mat - approx) / np.linalg.norm(t_mat)),
            bool(eigs[0] <= 1e-10 * eigs[-1]))


def unit_target(dim: int, i: int = 0, j: int = 0) -> MatOp:
    out = np.zeros((dim + 1, dim + 1), dtype=complex)
    out[i, j] = 1.0
    return MatOp(out)


def enrichment_samples(pts, count: int = 64):
    """The density check's spread of `count` locus points, by the sorted
    order, and every eighth of them."""
    order = sorted_order(pts.tolist())
    s64 = pts[order[::max(1, len(pts) // count)][:count]]
    return s64, s64[::8]


def span_cases() -> list:
    """(z, w, target, space) of every span test and acceptance case, the
    pinned density report's and the benchmark's, and seeded random ones."""
    z, w = 0.3 + 0.1j, -0.2 + 0.4j
    sp16 = BetaSpace.hardy(16)
    own = np.outer(hardy._dense_kernel(sp16, z), hardy._dense_kernel(sp16, w).conj())
    cases = [([z], [w], MatOp(own), sp16), ([0.5], [0.5], unit_target(16), sp16)]
    s64, s8 = enrichment_samples(unimodular_locus_sample(Z_PLUS_1, ONE, 16, 1e-3))
    cases += [(s["z"], s["w"], unit_target(32), BetaSpace.hardy(32)) for s in (s64, s8)]
    two_z = AnalyticSymbol.from_coeffs([0.0, 2.0])
    pts = unimodular_locus_sample(two_z, Z, 16, 1e-3)
    for dim, count, (i, j) in ((8, 8, (1, 0)), (32, 64, (0, 0))):
        s = pts[cli._spread_samples(pts, count)]
        cases.append((s["z"], s["w"], unit_target(dim, i, j), BetaSpace.hardy(dim)))
    rng = np.random.default_rng(4242)
    for m, dim in ((3, 6), (12, 10), (40, 24)):
        pz, pw = (rng.uniform(0.0, 0.9, m) * np.exp(2j * np.pi * rng.uniform(size=m))
                  for _ in range(2))
        t = rng.standard_normal((dim + 1, dim + 1)) + 1j * rng.standard_normal((dim + 1,) * 2)
        cases.append((pz, pw, MatOp(t), BetaSpace.inv_linear(dim)))
    return cases


@pytest.mark.parametrize("case", span_cases(), ids=lambda c: f"m{len(c[0])}")
def test_span_residual_matches_the_vdot_loop(case):
    z, w, target, space = case
    rep = span_density_residual(z, w, target, space)
    want, deficient = loop_span_residual(z, w, target, space)
    assert rep.rank_deficient == deficient
    assert rep.sample_count == len(z)
    # a Gram with eigenvalues at the 1e-10 cutoff amplifies the last bits of
    # its sums: summed in einsum's or pairwise order, the loop's own residual
    # moves by 1e-10 to 5e-10 on the 64-point enrichment case
    rtol = 1e-8 if deficient else 1e-12
    # an exact fit leaves only rounding, which no order of the sums fixes
    assert abs(rep.residual - want) <= rtol * max(want, 1e-3)


def test_kernel_rows_are_the_one_point_kernels():
    space = BetaSpace.inv_linear(40)
    rng = np.random.default_rng(17)
    z = rng.uniform(-0.7, 0.7, 30) + 1j * rng.uniform(-0.7, 0.7, 30)
    z[:3] = [complex(0.6, -0.0), 0.0, -0.5j]
    rows = hardy._dense_kernel(space, z)
    for a, row in zip(z.tolist(), rows):
        assert hardy._dense_kernel(space, a).tobytes() == row.tobytes()


def test_span_residual_of_own_kernel_tensor():
    sp = BetaSpace.hardy(16)
    z, w = 0.3 + 0.1j, -0.2 + 0.4j
    u = hardy._dense_kernel(sp, z)
    v = hardy._dense_kernel(sp, w)
    rep = span_density_residual([z], [w], MatOp(np.outer(u, v.conj())), sp)
    assert rep.residual < 1e-10
    assert rep.metric == "frobenius"


def test_span_residual_single_sample_partial_fit():
    sp = BetaSpace.hardy(16)
    rep = span_density_residual([0.5], [0.5], unit_target(16), sp)
    # one kernel direction leaves most of the rank-one target unexplained;
    # the projection formula gives the residual in closed form
    n = np.arange(17)
    u = 0.5 ** n
    g = float(u @ u)
    want = math.sqrt(1.0 - (u[0] * u[0] / g) ** 2)
    assert rep.residual == pytest.approx(want, rel=1e-9)
    assert rep.residual > 0.5


def test_span_enrichment_decreases_residual():
    sp = BetaSpace.hardy(32)
    s64, s8 = enrichment_samples(unimodular_locus_sample(Z_PLUS_1, ONE, 16, 1e-3))
    r8 = span_density_residual(s8["z"], s8["w"], unit_target(32), sp)
    r64 = span_density_residual(s64["z"], s64["w"], unit_target(32), sp)
    assert r64.residual < r8.residual
    assert r8.residual == pytest.approx(0.030129, abs=0.006)
    assert r64.residual == pytest.approx(0.000572, abs=0.0003)


def test_span_requires_samples_and_matching_dim():
    sp = BetaSpace.hardy(8)
    tgt = MatOp(np.eye(9, dtype=complex))
    with pytest.raises(ValueError):
        span_density_residual([], [], tgt, sp)
    with pytest.raises(ValueError):
        span_density_residual([0.1], [0.1, 0.2], tgt, sp)
    with pytest.raises(ValueError):
        span_density_residual([0.1], [0.1], MatOp(np.eye(4, dtype=complex)), sp)
    with pytest.raises(ValueError):
        span_density_residual([0.1], [1.0], tgt, sp)


# -- converse certificates --------------------------------------------------

def test_certificate_contraction():
    cert = converse_certificate(AnalyticSymbol.from_coeffs([0.5]), ONE)
    assert cert.kind is CertificateKind.NOT_HYPERCYCLIC_CONTRACTION
    assert cert.orbit_monotone
    assert len(cert.orbit_norms) == 51
    assert cert.orbit_norms[0] == pytest.approx(1.0)
    assert all(b <= a + 1e-9 for a, b in zip(cert.orbit_norms,
                                             cert.orbit_norms[1:]))


def test_certificate_inverse_contraction():
    cert = converse_certificate(AnalyticSymbol.from_coeffs([3.0, 1.0]), ONE)
    assert cert.kind is CertificateKind.NOT_HYPERCYCLIC_INVERSE_CONTRACTION
    assert cert.inf_phi >= 2.0
    assert cert.orbit_monotone
    assert all(b >= a - 1e-9 for a, b in zip(cert.orbit_norms,
                                             cert.orbit_norms[1:]))


def test_certificate_inconclusive_for_crossing_symbol():
    cert = converse_certificate(Z_PLUS_1, ONE)
    assert cert.kind is CertificateKind.INCONCLUSIVE


def test_certificate_uses_supplied_sup_bounds():
    phi = AnalyticSymbol.from_coeffs([0.5], sup_bound=0.5)
    psi = AnalyticSymbol.from_coeffs([1.0], sup_bound=1.0)
    cert = converse_certificate(phi, psi)
    assert not cert.sup_estimated
    assert cert.kind is CertificateKind.NOT_HYPERCYCLIC_CONTRACTION


def test_boundary_scan_equals_the_scalar_moduli():
    # the certificate's boundary moduli, one Horner pass, against
    # abs(sym(z)) point by point; (inf, sup) against the list's min and max
    zs = [hardy._BOUNDARY_RADIUS * cmath.exp(2j * math.pi * k / hardy._BOUNDARY_POINTS)
          for k in range(hardy._BOUNDARY_POINTS)]
    zr, zi = np.array([z.real for z in zs]), np.array([z.imag for z in zs])
    rng = random.Random(720)
    for _ in range(40):
        sym = AnalyticSymbol.from_coeffs([complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                                          for _ in range(rng.randint(1, 6))])
        want = [abs(sym(z)) for z in zs]
        got = np.hypot(*hardy._horner(sym, zr, zi)).tolist()
        assert list(map(repr, got)) == list(map(repr, want))
        inf, sup = hardy._boundary_modulus_range(sym)
        assert repr(sup) == repr(max(want))
        assert inf == 0.0 or repr(inf) == repr(min(want))


# -- nuclear analogue -------------------------------------------------------

def test_nuclear_backward_geometric_eigenvector():
    rep = nuclear_eigencheck(Z, ONE, 0.5, 0.0, 1.0, dim=64)
    assert rep.eigenvalue == pytest.approx(0.5)
    # the only truncation defect is the clipped top coefficient 0.5^65
    assert rep.op_residual == pytest.approx(0.5 ** 65, rel=1e-12)
    assert rep.passed


def test_nuclear_origin_is_exact():
    phi = AnalyticSymbol.from_coeffs([0.7, 2.0])
    psi = AnalyticSymbol.from_coeffs([-0.2, 1.0, 1.0])
    rep = nuclear_eigencheck(phi, psi, 0.0, 0.0, 2.0, dim=16)
    assert rep.eigenvalue == pytest.approx(0.7 * -0.2)
    assert rep.op_residual == 0.0
    assert rep.passed


def test_nuclear_validation():
    with pytest.raises(ValueError):
        nuclear_eigencheck(Z, ONE, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        nuclear_eigencheck(Z, ONE, 0.5, 0.0, 0.5)
    # dim 0 passed with op_residual 0.5, and a negative dim reached numpy
    for dim in (0, -3):
        with pytest.raises(ValueError, match="truncation dimension must be >= 1"):
            nuclear_eigencheck(Z, ONE, 0.5, 0.0, 1.0, dim=dim)


# -- the eigenchecks against their separate-builder oracle ------------------
#
# An mpmath oracle with its own kernel builder, banded applies and rank-two
# residual, run at a precision that resolves the truncation defect: its
# rounding in the bulk, about 10^-dps relative, sits 30 digits below the
# defect's |z|^(dim + 1).  The float checks must agree to 1e-10 relative
# wherever the oracle value is at least 1e-290; below that a float report
# may underflow, and only 1e-300 absolute is asked.

def _mp_inner(x, y):
    return mp.fsum((xi * mp.conj(yi) for xi, yi in zip(x, y)), absolute=False)


def _mp_norm(x):
    return mp.sqrt(mp.fsum(abs(xi) ** 2 for xi in x))


def _oracle_dps(dim, *points):
    """30 digits past the smallest defect scale |z|^(dim + 1), capped where
    every defect lies below 1e-300."""
    return 30 + int(min([330.0] + [(dim + 1) * -math.log10(abs(p)) for p in points if p]))


def _mp_kernel(space, z):
    powers = _mp_geometric(z.conjugate(), space.dim)
    return [mp.mpf(space.rule.weight(n).real) * pw for n, pw in enumerate(powers)]


def _mp_adjoint_mult(phi, space, u):
    n_dim = space.dim + 1
    cs = [mp.mpc(c) for c in phi.coeffs]
    betas = [mp.mpf(space.rule.weight(n).real) for n in range(n_dim)]
    out = []
    for n in range(n_dim):
        acc = mp.mpc(0)
        for m, c in enumerate(cs):
            k = n + m
            if k >= n_dim:
                break
            acc += mp.conj(c) * (betas[n] / betas[k]) * u[k]
        out.append(acc)
    return out


def _mp_eval_symbol(sym, z):
    acc = mp.mpc(0)
    zz = mp.mpc(z)
    for c in reversed(sym.coeffs):
        acc = acc * zz + mp.mpc(c)
    return acc


def _rank_two_singulars(p1, p2, alpha2, q1, q2):
    gp = mp.matrix([[_mp_inner(p1, p1), _mp_inner(p2, p1)],
                    [_mp_inner(p1, p2), _mp_inner(p2, p2)]])
    gq = mp.matrix([[_mp_inner(q1, q1), _mp_inner(q2, q1)],
                    [_mp_inner(q1, q2), _mp_inner(q2, q2)]])
    a = mp.matrix([[mp.mpc(1), 0], [0, mp.mpc(alpha2)]])
    h = (a.transpose_conj() * gp * a) * gq
    tr = h[0, 0] + h[1, 1]
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    disc = mp.sqrt(tr * tr - 4 * det)
    eigs = [(tr + disc) / 2, (tr - disc) / 2]
    sigmas = []
    for e in eigs:
        re = mp.re(e)
        sigmas.append(mp.sqrt(re) if re > 0 else mp.mpf(0))
    return sorted(sigmas, reverse=True)


def _mp_geometric(ratio, dim):
    out, pw = [], mp.mpc(1)
    r = mp.mpc(ratio)
    for _ in range(dim + 1):
        out.append(pw)
        pw *= r
    return out


def _mp_poly_backward(sym, x):
    cs = [mp.mpc(c) for c in sym.coeffs]
    n_dim = len(x)
    out = []
    for n in range(n_dim):
        acc = mp.mpc(0)
        for m, c in enumerate(cs):
            if n + m >= n_dim:
                break
            acc += c * x[n + m]
        out.append(acc)
    return out


def _mp_tail_bound(sym, max_beta, dim, ratio):
    """sum |c_m| max beta |z|^e / sqrt(1 - |z|^2), e = max(dim + 1 - degree, 0)."""
    if sym.degree == 0:
        return mp.mpf(0)
    r = abs(mp.mpc(ratio))
    return (mp.fsum(abs(mp.mpc(c)) for c in sym.coeffs) * max_beta
            * r ** max(dim + 1 - sym.degree, 0) / mp.sqrt(1 - r * r))


def oracle_adjoint(phi, space, z):
    z = complex(z)
    with mp.workdps(_oracle_dps(space.dim, z)):
        u = _mp_kernel(space, z)
        a = _mp_adjoint_mult(phi, space, u)
        lam = mp.conj(_mp_eval_symbol(phi, z))
        diff = [ai - lam * ui for ai, ui in zip(a, u)]
        bound = _mp_tail_bound(phi, max(space.betas), space.dim, z)
        return {"eigenvalue": complex(lam), "residual": float(_mp_norm(diff)),
                "bound": float(bound)}


def oracle_conjugation(phi, psi, space, z, w):
    z, w = complex(z), complex(w)
    with mp.workdps(_oracle_dps(space.dim, z, w)):
        u = _mp_kernel(space, z)
        v = _mp_kernel(space, w)
        a = _mp_adjoint_mult(phi, space, u)
        b = _mp_adjoint_mult(psi, space, v)
        alpha = mp.conj(_mp_eval_symbol(phi, z))
        gamma = mp.conj(_mp_eval_symbol(psi, w))
        d = [ai - alpha * ui for ai, ui in zip(a, u)]
        e = [mp.conj(alpha) * (bi - gamma * vi) for bi, vi in zip(b, v)]
        sig = _rank_two_singulars(u, d, mp.mpc(1), e, b)
        dphi = _mp_tail_bound(phi, max(space.betas), space.dim, z)
        dpsi = _mp_tail_bound(psi, max(space.betas), space.dim, w)
        bound = abs(alpha) * _mp_norm(u) * dpsi + abs(gamma) * dphi * _mp_norm(v) + dphi * dpsi
        return {"eigenvalue": complex(alpha * mp.conj(gamma)), "op_residual": float(sig[0]),
                "s1_residual": float(sig[0] + sig[1]), "bound": float(bound)}


def oracle_nuclear(phi, psi, lam, mu, dim):
    lam, mu = complex(lam), complex(mu)
    with mp.workdps(_oracle_dps(dim, lam, mu)):
        u = _mp_geometric(lam, dim)
        v = _mp_geometric(mu, dim)
        a = _mp_poly_backward(phi, u)
        b = _mp_poly_backward(psi, v)
        alpha = _mp_eval_symbol(phi, lam)
        gamma = _mp_eval_symbol(psi, mu)
        d = [ai - alpha * ui for ai, ui in zip(a, u)]
        e = [alpha * (bi - gamma * vi) for bi, vi in zip(b, v)]
        sig = _rank_two_singulars(u, d, mp.mpc(1),
                                  [mp.conj(x) for x in e],
                                  [mp.conj(x) for x in b])
        dphi = _mp_tail_bound(phi, 1, dim, lam)
        dpsi = _mp_tail_bound(psi, 1, dim, mu)
        bound = abs(alpha) * _mp_norm(u) * dpsi + abs(gamma) * dphi * _mp_norm(v) + dphi * dpsi
        return {"eigenvalue": complex(alpha * gamma), "op_residual": float(sig[0]),
                "bound": float(bound)}


def assert_matches_oracle(rep, want, case):
    for key, value in want.items():
        got = getattr(rep, key)
        if key == "eigenvalue":     # a float Horner value: rounding, not cancellation
            assert abs(got - value) <= 1e-12 * max(1.0, abs(value)), (case, key, got, value)
        elif value >= 1e-290:
            assert got == pytest.approx(value, rel=1e-10), (case, key)
        else:
            assert abs(got - value) <= 1e-300, (case, key, got, value)


def _disc_point(rng, rmax=0.95):
    return cmath.rect(rng.uniform(0.0, rmax), rng.uniform(0.0, 2.0 * math.pi))


def _symbol(rng, degree):
    return AnalyticSymbol.from_coeffs(
        [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(degree + 1)])


def eigen_battery(seed_, draws, max_dim=200):
    """(space, phi, psi, z, w) draws over Hardy, inv_linear and random-table
    spaces, symbol degrees 0-4 and dims 1-max_dim, plus fixed edge cases:
    dim 1, degree-0 symbols, a degree at or above the dim, and the origin."""
    rng = random.Random(seed_)
    cases = [
        (BetaSpace.hardy(1), _symbol(rng, 0), _symbol(rng, 0), 0.5 + 0.1j, -0.3j),
        (BetaSpace.inv_linear(1), _symbol(rng, 3), _symbol(rng, 1), 0.6, 0.2 - 0.4j),
        (BetaSpace.hardy(3), _symbol(rng, 4), _symbol(rng, 3), -0.7j, 0.0),
        (BetaSpace.inv_linear(2), Z, _symbol(rng, 4), 0.0, 0.9),
    ]
    for _ in range(draws):
        dim = rng.choice([1, 2, 5, rng.randint(1, max_dim), max_dim])
        kind = rng.randrange(3)
        if kind == 0:
            space = BetaSpace.hardy(dim)
        elif kind == 1:
            space = BetaSpace.inv_linear(dim)
        else:
            space = BetaSpace(WeightSeq.table([rng.uniform(0.1, 3.0) for _ in range(dim + 1)],
                                              start=0), dim)
        cases.append((space, _symbol(rng, rng.randint(0, 4)), _symbol(rng, rng.randint(0, 4)),
                      _disc_point(rng), _disc_point(rng)))
    return cases


@pytest.mark.parametrize("seed_", [20260, 20261, 20262])
def test_eigenchecks_match_the_separate_builder_oracle(seed_):
    battery = eigen_battery(seed_, 12)
    assert {sp.dim for sp, *_ in battery} >= {1, 2}
    assert any(max(phi.degree, psi.degree) >= sp.dim for sp, phi, psi, *_ in battery)
    assert any(phi.degree == 0 for _, phi, *_ in battery)
    for i, (space, phi, psi, z, w) in enumerate(battery):
        adj = adjoint_kernel_eigencheck(phi, space, z)
        assert_matches_oracle(adj, oracle_adjoint(phi, space, z), i)
        conj = conjugation_eigencheck(phi, psi, space, z, w)
        assert_matches_oracle(conj, oracle_conjugation(phi, psi, space, z, w), i)
        p = 1.0 + i % 3
        nuc = nuclear_eigencheck(phi, psi, z, w, p, dim=space.dim)
        assert_matches_oracle(nuc, oracle_nuclear(phi, psi, z, w, space.dim), i)
        assert nuc.p_exponent == p
        for rep in (adj, conj, nuc):
            assert rep.truncation_dim == space.dim and rep.passed, (i, rep)


def test_adjoint_eigencheck_reports_the_defect_not_rounding():
    # the 50-digit leg reported its own rounding here, 8.6e-53
    phi = AnalyticSymbol.from_coeffs([0.3, 0.5, -0.2j])
    space, z = BetaSpace.hardy(1024), 0.6 + 0.1j
    rep = adjoint_kernel_eigencheck(phi, space, z)
    assert_matches_oracle(rep, oracle_adjoint(phi, space, z), "roadmap")
    assert 2.8e-222 < rep.residual <= rep.bound < 1.8e-221
    assert rep.passed


@pytest.mark.parametrize("n", [0, 512, 1023], ids=["low", "middle", "top"])
def test_one_perturbed_band_entry_fails_every_eigencheck(monkeypatch, n):
    """z on Hardy at dim 1024: entry (n + 1, n) of the band shared with
    mult_op_matrix, off by 1e-12 relative, must fail all three checks."""
    space = BetaSpace.hardy(1024)
    checks = [lambda: adjoint_kernel_eigencheck(Z, space, 0.6),
              lambda: conjugation_eigencheck(Z, Z, space, 0.6, 0.6),
              lambda: nuclear_eigencheck(Z, Z, 0.6, 0.6, 1.0, dim=1024)]
    assert all(check().passed for check in checks)
    band = hardy._band

    def perturbed(c, betas, m):
        out = band(c, betas, m)
        if m == 1:
            out[n] *= 1.0 + 1e-12
        return out

    exact = mult_op_matrix(Z, space).data
    monkeypatch.setattr(hardy, "_band", perturbed)
    assert mult_op_matrix(Z, space).data[n + 1, n] != exact[n + 1, n]
    for check in checks:
        rep = check()
        assert rep.bulk_deviation > hardy._BULK_TOL and not rep.passed


def test_eigen_battery_to_dim_8192_passes_within_the_bound():
    battery = eigen_battery(20263, 24, max_dim=8192)
    battery.append((BetaSpace.hardy(8192), Z, Z, 0.6, 0.6))   # all of it underflows
    assert max(sp.dim for sp, *_ in battery) == 8192
    for i, (space, phi, psi, z, w) in enumerate(battery):
        reps = [(r, r.residual) for r in [adjoint_kernel_eigencheck(phi, space, z)]]
        conj = conjugation_eigencheck(phi, psi, space, z, w)
        nuc = nuclear_eigencheck(phi, psi, z, w, 1.0, dim=space.dim)
        reps += [(conj, conj.s1_residual), (nuc, nuc.op_residual)]
        for rep, residual in reps:
            assert rep.passed, (i, rep)
            assert residual <= rep.bound and rep._scaled[0] <= rep._scaled[1], (i, rep)
            assert rep.log10_residual <= rep.log10_bound + 1, (i, rep)
    # the last case underflows to 0.0 in every field, not in its margin
    for rep, residual in reps:
        assert residual == rep.bound == 0.0 < rep._scaled[0], rep
        # 0.6^8192 is 10^-1817.4
        assert -1818 < rep.log10_residual <= rep.log10_bound < -1817, rep


@pytest.mark.parametrize("coeffs", [(0, 1e13), (0, 1e4), (1.0,) + (0.0,) * 59 + (1e10,)],
                         ids=["large-linear", "moderate-linear", "dominant-z60"])
def test_eigenchecks_pass_where_the_kernel_underflows(coeffs):
    # at z = 0.6 the kernel turns subnormal near n = 1387, inside dim 1500: a
    # subnormal u_{n+m} carries an absolute rounding that a large coefficient
    # lifts above the scale of a normal u_n, so the bulk stops before it
    sym, space = AnalyticSymbol.from_coeffs(coeffs), BetaSpace.hardy(1500)
    reps = [adjoint_kernel_eigencheck(sym, space, 0.6),
            conjugation_eigencheck(sym, sym, space, 0.6, 0.6),
            nuclear_eigencheck(sym, Z, 0.6, 0.6, 1.0, dim=1500)]
    for rep in reps:
        assert rep.passed and rep.bulk_deviation <= 1e-15, rep


def test_the_pass_rule_decides_on_the_scaled_values():
    # both fields underflow to 0.0; the defect, in units of |z|^e, does not
    assert not hardy.KernelEigenReport(0.6, 0.0, 0.0, 8192, 0.0, -1817.0, -1819.0,
                                       (1.0, 0.01)).passed
    assert hardy.KernelEigenReport(0.6, 0.0, 0.0, 8192, 0.0, -1818.0, -1819.0,
                                   (0.1, 0.01)).passed
    assert not hardy.KernelEigenReport(0.6, 0.0, 0.0, 8192, 1e-12, -math.inf, -math.inf,
                                       (0.0, 0.0)).passed
