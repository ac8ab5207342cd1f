"""Seeded task lists of the desk benchmark and the oracles that check them.

Each workload is a fixed list of tasks run back to back by one caller.  A
task is either a ``hyperlab.cli.main([...])`` call or a call into a public
function.  The workload seed picks the random matrices, the jump support and
the CLI ``--seed`` values; it never changes an input size.

Every oracle lives here, outside the program: ``numpy.linalg.svd`` for the
Jacobi spectra, closed forms for the jump, the density profiles and the
orbit norms, and expected verdicts and exit codes for the CLI runs.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("visit-scan", "long-jumps", "spectral")

# The CLI --seed of a task is the workload seed modulo this, so the report
# digests recorded in digests.json cover every seed.
CLI_SEED_VARIANTS = 8

# Relative tolerances of the oracles.
SVD_RTOL = 1e-10      # Jacobi spectrum against LAPACK, scaled by sigma_max
JUMP_RTOL = 1e-9      # 1e6 float products: about 4.5 * m * eps
ORBIT_RTOL = 1e-12
MULT_RTOL = 1e-13     # a product and a quotient of three roundings


@dataclass(frozen=True)
class CliResult:
    code: int
    report: bytes | None
    stderr: str


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]     # problems found; empty when correct


def _run_cli(argv: list, outdir: Path) -> CliResult:
    from hyperlab import cli

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv + ["--out", str(outdir)])
    path = outdir / f"{argv[0].replace('-', '_')}_report.json"
    report = path.read_bytes() if path.is_file() else None
    if path.is_file():
        path.unlink()
    return CliResult(code, report, err.getvalue())


def report_digest(result: CliResult) -> str | None:
    return None if result.report is None else hashlib.sha256(result.report).hexdigest()


def _cli_task(name: str, argv: list, outdir: Path, want_code: int,
              check_results: Callable[[dict], list]) -> Task:
    def run():
        return _run_cli(argv, outdir)

    def check(res: CliResult) -> list:
        problems = []
        if "Traceback" in res.stderr:
            problems.append("traceback on stderr")
        if res.code != want_code:
            problems.append(f"exit code {res.code}, expected {want_code}: "
                            f"{res.stderr.strip()[:200]}")
        if res.report is None:
            return problems + ["no report written"]
        report = json.loads(res.report)
        if report.get("exit_code") != res.code:
            problems.append("report exit_code differs from the process exit code")
        return problems + check_results(report["results"])

    return Task(name, run, check)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# -- oracles on reports -------------------------------------------------------

def _fhc_ok(n_classes: int):
    def check(results: dict) -> list:
        classes = results["classes"]
        problems = []
        if len(classes) != n_classes:
            problems.append(f"{len(classes)} classes, expected {n_classes}")
        for c in classes:
            if c["contained"] is not True:
                problems.append(f"class {c['k']}: designed times not contained in the visits")
            if not (isinstance(c["density_ratio"], float) and c["density_ratio"] > 0.0):
                problems.append(f"class {c['k']}: density_ratio {c['density_ratio']!r}")
        return problems
    return check


def _density_evens(n_max: int):
    # card{even n <= N} = N // 2; on N >= tail_start the ratio (N // 2) / N
    # is smallest at the first odd N
    tail = max(1, n_max // 2)
    first_odd = tail if tail % 2 else tail + 1

    def check(results: dict) -> list:
        want = {"element_count": n_max // 2,
                "final": {"N": n_max, "count": n_max // 2, "ratio": (n_max // 2) / n_max},
                "liminf_proxy": (first_odd // 2) / first_odd}
        got = {k: results[k] for k in want}
        return [] if got == want else [f"evens profile {got} != closed form {want}"]
    return check


def _density_squares(n_max: int):
    # card{m^2 <= N^2} = N, so every ratio is exactly 1
    def check(results: dict) -> list:
        want = {"element_count": n_max,
                "final": {"N": n_max, "count": n_max, "ratio": 1.0},
                "liminf_proxy": 1.0}
        got = {k: results[k] for k in want}
        return [] if got == want else [f"squares profile {got} != closed form {want}"]
    return check


def _orbit_closed_form(c: float, top: int):
    # x = e_0 + ... + e_top under the backward shift with constant weight c:
    # B^n x = c^n (e_0 + ... + e_{top-n}), norm c^n sqrt(top + 1 - n), which
    # for c >= 2 is largest at n = top
    def check(results: dict) -> list:
        problems = []
        want_norm = c ** top
        for key in ("final_norm", "max_norm"):
            if _rel_err(results[key], want_norm) > ORBIT_RTOL:
                problems.append(f"{key} {results[key]!r} != {want_norm!r}")
        if results["points"] != top or results["final_support"] != 1:
            problems.append(f"points/support {results['points']}/{results['final_support']}")
        return problems
    return check


def _verdict(status: str):
    def check(results: dict) -> list:
        got = results["verdict"]["status"]
        return [] if got == status else [f"verdict {got!r}, expected {status!r}"]
    return check


def _passed(results: dict) -> list:
    return [] if results.get("passed") is True else ["eigencheck did not pass"]


def _schatten_window(weight: float, lo: int, hi: int, ps: tuple):
    # backward shift: e_j -> w e_{j-1}, so the window holds w on the
    # superdiagonal
    dim = hi - lo + 1
    M = np.zeros((dim, dim))
    for j in range(max(lo, 1), hi + 1):
        if j - 1 >= lo:
            M[j - 1 - lo, j - lo] = weight

    def check(results: dict) -> list:
        want = np.linalg.svd(M, compute_uv=False)
        got = np.array(results["singular_values"])
        problems = []
        if results["converged"] is not True:
            problems.append("Jacobi did not converge")
        if got.shape != want.shape:
            return problems + [f"{got.size} singular values, expected {want.size}"]
        scale = float(want[0])
        err = float(np.max(np.abs(got - want))) / scale
        if err > SVD_RTOL:
            problems.append(f"spectrum off LAPACK by {err:.3g} relative")
        for p in ps:
            ref = float(np.sum(want ** p) ** (1.0 / p))
            val = results["schatten_norms"][repr(float(p))]
            if _rel_err(val, ref) > SVD_RTOL:
                problems.append(f"Schatten-{p} norm {val!r} != {ref!r}")
        return problems
    return check


def _locus(phi_scale: float, tol: float):
    # phi(z) = phi_scale z, psi(w) = w: every point must sit on |phi psi| = 1
    def check(results: dict) -> list:
        if results["count"] < 1:
            return ["empty unimodular locus"]
        worst = 0.0
        for pt in results["points"]:
            z = complex(pt["z"]["re"], pt["z"]["im"])
            w = complex(pt["w"]["re"], pt["w"]["im"])
            worst = max(worst, abs(abs(phi_scale * z * w) - 1.0))
        return [] if worst <= tol else [f"locus point off |phi psi| = 1 by {worst:.3g}"]
    return check


def _span_residual(results: dict) -> list:
    r = results["report"]["residual"]
    return [] if 0.0 <= r <= 1.0 else [f"span residual {r!r} outside [0, 1]"]


def _converse(kind: str):
    def check(results: dict) -> list:
        cert = results["certificate"]
        problems = []
        if cert["kind"] != kind:
            problems.append(f"certificate {cert['kind']!r}, expected {kind!r}")
        if cert["orbit_monotone"] is not True:
            problems.append("orbit norms not monotone")
        return problems
    return check


# -- direct calls -------------------------------------------------------------

def _jump_task(seed: int) -> Task:
    from hyperlab import seqspace

    m = 10 ** 6
    rng = random.Random(seed)
    entries = {rng.randrange(10_000): rng.uniform(0.5, 2.0)}
    op = seqspace.ShiftOp.forward(seqspace.WeightSeq.ratio([1.0, 1.0], [0.0, 1.0]))
    v = seqspace.SeqVector(entries)

    def run():
        return seqspace.shift_power_apply(op, v, m)

    def check(out) -> list:
        # w_t = (t + 1) / t telescopes: w_{n+1} ... w_{n+m} = (n + m + 1) / (n + 1)
        problems = []
        if set(out.entries) != {n + m for n in entries}:
            return [f"support {sorted(out.entries)} != {sorted(n + m for n in entries)}"]
        for n, c in entries.items():
            want = c * (n + m + 1) / (n + 1)
            if _rel_err(out.entries[n + m], want) > JUMP_RTOL:
                problems.append(f"coefficient at {n + m}: {out.entries[n + m]!r} != {want!r}")
        return problems

    return Task("jump-ratio-1e6", run, check)


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _conjugation_visit_task(rng) -> Task:
    from hyperlab import density, fhc, matops, seqspace

    dim, horizon, c, radius = 64, 12, 0.8, 5.0
    S0 = _gaussian(rng, (dim, dim))
    R = seqspace.ShiftOp.backward(seqspace.WeightSeq.constant(c))
    T = seqspace.ShiftOp.forward(seqspace.WeightSeq.constant(c))

    def run():
        orbit = fhc.conjugation_orbit(R, matops.MatOp(S0), T, horizon)
        return density.visit_set(orbit, matops.MatOp.zeros(dim, dim), radius,
                                 density.NormSpec.schatten(1.0))

    def check(visits) -> list:
        # B S F with weight c on both sides maps S[i, j] to c^2 S[i+1, j+1],
        # so C^n(S0) is c^(2n) S0[n:, n:] and its distance to 0 is that
        # block's trace norm
        want, borderline = [], set()
        for n in range(1, horizon + 1):
            d = c ** (2 * n) * float(np.sum(np.linalg.svd(S0[n:, n:], compute_uv=False)))
            if abs(d - radius) <= 1e-8 * radius:
                borderline.add(n)
            elif d < radius:
                want.append(n)
        got = [n for n in visits.elems if n not in borderline]
        problems = []
        if visits.horizon != horizon:
            problems.append(f"visit horizon {visits.horizon}, expected {horizon}")
        if got != want:
            problems.append(f"visit times {got} != SVD oracle {want}")
        return problems

    return Task("conjugation-visit-scan", run, check)


def _orthogonal_sum_task(rng) -> Task:
    from hyperlab import matops

    block, parts, p = 40, 3, 1.0
    dim = block * parts
    blocks = [_gaussian(rng, (block, block)) for _ in range(parts)]
    Ts = []
    for i, b in enumerate(blocks):
        data = np.zeros((dim, dim), dtype=complex)
        data[i * block:(i + 1) * block, i * block:(i + 1) * block] = b
        Ts.append(matops.MatOp(data))

    def run():
        return matops.orthogonal_sum_additivity(Ts, p)

    def check(rep) -> list:
        norms = [float(np.sum(np.linalg.svd(b, compute_uv=False) ** p) ** (1.0 / p))
                 for b in blocks]
        want = float(sum(v ** p for v in norms) ** (1.0 / p))
        problems = []
        if rep.mutual_orthogonality_ok is not True or rep.first_bad_pair is not None:
            problems.append("disjoint blocks reported as not orthogonal")
        for label, val in (("lhs", rep.lhs), ("rhs", rep.rhs)):
            if _rel_err(val, want) > SVD_RTOL:
                problems.append(f"{label} {val!r} != SVD oracle {want!r}")
        return problems

    return Task("orthogonal-sum-additivity", run, check)


def _mult_op_task(rng) -> Task:
    from hyperlab import hardy

    dim, degree, symbols = 512, 32, 4
    coeffs = [_gaussian(rng, degree + 1) for _ in range(symbols)]

    def run():
        space = hardy.BetaSpace.inv_linear(dim)
        return [hardy.mult_op_matrix(hardy.AnalyticSymbol.from_coeffs(c), space)
                for c in coeffs]

    def check(mats) -> list:
        # beta_n = 1/(n+1), so multiplication by z^m sends e_n to
        # (n+m+1)/(n+1) e_{n+m}: diagonal -m holds c_m (n+m+1)/(n+1), and
        # nothing lies outside the band
        problems = []
        n = np.arange(dim + 1)
        band = sum(dim + 1 - m for m in range(degree + 1))
        for i, (c, M) in enumerate(zip(coeffs, mats)):
            if M.data.shape != (dim + 1, dim + 1):
                problems.append(f"symbol {i}: matrix {M.data.shape}")
                continue
            for m in range(degree + 1):
                diag = np.diagonal(M.data, -m)
                want = c[m] * (n[:dim + 1 - m] + m + 1) / (n[:dim + 1 - m] + 1)
                err = float(np.max(np.abs(diag - want) / np.abs(want)))
                if err > MULT_RTOL:
                    problems.append(f"symbol {i}: diagonal -{m} off the closed form "
                                    f"by {err:.3g} relative")
            # the band holds no zero, so any further nonzero lies outside it
            if np.count_nonzero(M.data) != band:
                problems.append(f"symbol {i}: entries outside the band of width {degree}")
        return problems

    return Task("hardy-mult-op-matrices", run, check)


# -- workloads ----------------------------------------------------------------

def build_tasks(workload: str, seed: int, outdir: Path) -> list:
    """The workload's task list for this seed; outdir receives CLI reports."""
    s = str(seed % CLI_SEED_VARIANTS)
    if workload == "visit-scan":
        top = 400
        return [
            _cli_task("fhc-constant-q1", ["construct-fhc", "--weights", "w=constant:2",
                      "--q", "1", "--targets", "0|0,1", "--horizon", "25000",
                      "--seed", s], outdir, 0, _fhc_ok(2)),
            _cli_task("fhc-ratio", ["construct-fhc", "--weights", "w=ratio:1,1|0,1",
                      "--targets", "0", "--horizon", "2000", "--seed", s],
                      outdir, 0, _fhc_ok(1)),
            _cli_task("density-evens", ["density", "--set", "evens", "--n-max", "500000",
                      "--seed", s], outdir, 0, _density_evens(500_000)),
            _cli_task("density-squares", ["density", "--set", "squares", "--q", "2",
                      "--n-max", "3000", "--seed", s], outdir, 0, _density_squares(3000)),
            _cli_task("orbit", ["orbit", "--weights", "w=constant:2", "--start",
                      ",".join(str(i) for i in range(top + 1)), "--horizon", str(top),
                      "--seed", s], outdir, 0, _orbit_closed_form(2.0, top)),
        ]
    if workload == "long-jumps":
        return [
            _cli_task("fhc-constant-q2", ["construct-fhc", "--weights", "w=constant:2",
                      "--q", "2", "--horizon", "1000", "--seed", s], outdir, 0, _fhc_ok(2)),
            _cli_task("fhc-step-bilateral", ["construct-fhc", "--weights", "w=step:0|0.5|2",
                      "--op", "bilateral-backward", "--targets", "0", "--horizon", "400",
                      "--seed", s], outdir, 0, _fhc_ok(1)),
            # constant weight 2: every clock product is 2^(2M+i+j), which grows
            _cli_task("check-growth", ["check", "--condition", "growth", "--q", "2",
                      "--seed", s], outdir, 0, _verdict("satisfied_on_grid")),
            # on Z the backward products of a constant 2 grow too, so the
            # decay half fails by design
            _cli_task("check-bilateral", ["check", "--condition", "bilateral", "--weights",
                      "w=constant:2@Z;mu=constant:2@Z", "--q", "2", "--seed", s],
                      outdir, 2, _verdict("violated_with_witness")),
            # tail sums of 4^(-pM) fall far below the tolerance
            _cli_task("check-schatten", ["check", "--condition", "schatten", "--q", "2",
                      "--seed", s], outdir, 0, _verdict("satisfied_on_grid")),
            _cli_task("check-diagonal", ["check", "--condition", "diagonal", "--weights",
                      "lam=constant:2;mu=constant:2", "--q", "2", "--seed", s],
                      outdir, 0, _verdict("satisfied_on_grid")),
            _jump_task(seed),
        ]
    if workload == "spectral":
        rng = np.random.default_rng(seed)
        ps = (1.0, 2.0, 3.5)
        return [
            _conjugation_visit_task(rng),
            _orthogonal_sum_task(rng),
            _mult_op_task(rng),
            _cli_task("schatten-window", ["schatten", "--weights", "w=constant:2",
                      "--window", "0:383", "--p", ",".join(map(str, ps)), "--seed", s],
                      outdir, 0, _schatten_window(2.0, 0, 383, ps)),
            _cli_task("hardy-eigen-adjoint", ["hardy", "--check", "eigen", "--phi", "0,1",
                      "--z", "0.6", "--dim", "1024", "--seed", s], outdir, 0, _passed),
            _cli_task("hardy-eigen-conjugation", ["hardy", "--check", "eigen", "--phi", "0,1",
                      "--psi", "0,1", "--z", "0.6", "--w", "0.6", "--dim", "1024",
                      "--seed", s], outdir, 0, _passed),
            _cli_task("hardy-nuclear", ["hardy", "--check", "nuclear", "--phi", "0,1",
                      "--psi", "0,1", "--dim", "512", "--seed", s], outdir, 0, _passed),
            _cli_task("hardy-locus", ["hardy", "--check", "locus", "--phi", "0,2",
                      "--psi", "0,1", "--grid-density", "32", "--seed", s],
                      outdir, 0, _locus(2.0, 1e-3)),
            _cli_task("hardy-density", ["hardy", "--check", "density", "--phi", "0,2",
                      "--psi", "0,1", "--dim", "32", "--seed", s], outdir, 0, _span_residual),
            # sup|phi| sup|psi| = 0.5 * 1 <= 1: a contraction
            _cli_task("hardy-converse", ["hardy", "--check", "converse", "--phi", "0,0.5",
                      "--psi", "0,1", "--seed", s], outdir, 0,
                      _converse("not_hypercyclic_contraction")),
        ]
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
