"""The parameter tables of the console runner: report bytes pinned per
experiment, manifest key and value checks, and a fuzzed contract that every
input ends in a report (exit 0 or 2) or in one `error:` line (exit 1)."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from hyperlab import cli, matops
from hyperlab.cli import build_parser, load_config, main
from hyperlab.matops import SingularSpectrum


def run(args, outdir):
    return main(list(args) + ["--out", str(outdir)])


def report_path(outdir, argv):
    return outdir / f"{argv[0].replace('-', '_')}_report.json"


def one_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


# -- report bytes -----------------------------------------------------------

# SHA-256 of each report, recorded before the parameter tables replaced the
# hand-written defaults and flags.  check-bilateral was re-recorded when the
# closed-form weight prefixes made its witness exact (see
# test_bilateral_witness_is_exact), hardy-nuclear when its trace_gap began
# taking trace(outer(u, v) @ s) as v @ (s @ u), and the three eigenchecks
# (hardy-eigen-adjoint, hardy-eigen-conjugation, hardy-nuclear) when they
# moved to float with the defect in closed form: each gained bulk_deviation,
# their residuals moved in the last digits, and the nuclear bound became the
# conjugation check's rank-two bound.  The same three were re-recorded when
# each gained log10_residual and log10_bound and hardy-nuclear lost trace_gap.
# hardy-density was re-recorded when its Gram matrix became two matrix
# products: the residual moved by one unit in the last place,
# 0.6988169706288795 -> 0.6988169706288794.  construct-fhc was re-recorded
# when its classes lost `truncated` and gained `proof_bound` and
# `cross_check_dev`, again when its separation lost `pairs_checked`, and
# again when its classes lost `proof_bound`, which always equalled their
# `radius`; every other value in it is unchanged.
PINNED = [
    pytest.param([
        "density", "--set", "squares", "--q", "2", "--n-max", "60"],
        0, "35494f38b8f51205279d73af77e6c54c78f73f4899f64f1e612f4bdb79b48143",
        id="density-squares"),
    pytest.param([
        "density", "--set", "evens", "--n-max", "90", "--tail-start", "20"],
        0, "34658fab58ed35cdbadad6b02325a27259b6a4ec3f9fb7c0b4b23b271d9184ae",
        id="density-evens"),
    pytest.param([
        "orbit", "--weights", "w=constant:2", "--start", "0,3", "--horizon", "5",
        "--stride-exponent", "1", "--p", "1.5"],
        0, "9be94f6ebcbcf9721632411fadddf81e905d78a6ec31f4148c974866d657c971",
        id="orbit"),
    pytest.param([
        "construct-fhc", "--weights", "w=constant:2", "--targets", "0|0,1", "--horizon",
        "300", "--eps-scale", "1", "--eps-base", "0.5", "--seed", "5"],
        0, "20f18de3b3f28ca085af792d3738f7b04df03854e703af9c838afdd7df4b74de",
        id="construct-fhc"),
    pytest.param([
        "check", "--condition", "growth", "--i-range", "0:2", "--j-range", "0:2",
        "--r-max", "4", "--n-max", "16"],
        0, "49713443adb94751e67a070fd61aeed613af7334dbae8617b66dd7ddebf6a072",
        id="check-growth"),
    pytest.param([
        "check", "--condition", "bilateral", "--weights",
        "w=constant:2@Z;mu=constant:2@Z", "--r-max", "4", "--n-max", "16"],
        2, "49c6a082eed0fab17a0a9963781170ab882dac4607f7e4e53dac1da0254a57f0",
        id="check-bilateral"),
    pytest.param([
        "check", "--condition", "schatten", "--p", "1.5", "--r-max", "4"],
        0, "ea535f5c8cccfe4f3e2769e38b876afc1e917e20f06587ed031415828aa110ec",
        id="check-schatten"),
    pytest.param([
        "check", "--condition", "diagonal", "--weights", "lam=constant:2;mu=constant:2",
        "--q", "2", "--growth-threshold", "5", "--tail-tolerance", "0.1", "--r-max", "3"],
        0, "46bf9eaa42f943e78e37538cb2ec87d2129bfaf19b51c18afe16547562216424",
        id="check-diagonal"),
    pytest.param([
        "hardy", "--check", "eigen", "--phi", "0,1", "--z", "0.6", "--dim", "24"],
        0, "2db5ba5d37b77a3ab7b60c6169d89f49c90ed38c171d70570d33d48afc736e36",
        id="hardy-eigen-adjoint"),
    pytest.param([
        "hardy", "--check", "eigen", "--phi", "0,1", "--psi", "0,1", "--z", "0.6",
        "--w", "0.6", "--dim", "24", "--beta", "inv_linear"],
        0, "f223d42d1871494c83d34b714b2bbc534a1aeae1c939a5bbdd002b1902fdfc0a",
        id="hardy-eigen-conjugation"),
    pytest.param([
        "hardy", "--check", "locus", "--phi", "0,2", "--psi", "0,1", "--grid-density",
        "8", "--tol", "0.01"],
        0, "a6330480ce5932258969a770517261f1f9e3b013a6876a11dfd6c4d3768d7b1f",
        id="hardy-locus"),
    pytest.param([
        "hardy", "--check", "density", "--phi", "0,2", "--psi", "0,1", "--dim", "8",
        "--samples", "8", "--target", "1,0"],
        0, "f5ed0bf0ec0b5a905d11bf148884582f9e2670ac55f0a44b0ba3941591dea6e6",
        id="hardy-density"),
    pytest.param([
        "hardy", "--check", "converse", "--phi", "0,0.5", "--psi", "0,1", "--seed", "9"],
        0, "3205ec411ab6cec4851c0dd5f68053b45c261d4972fe51b79da02a9db5e122ad",
        id="hardy-converse"),
    pytest.param([
        "hardy", "--check", "nuclear", "--phi", "0,1", "--psi", "0,1", "--dim", "24",
        "--lam", "0.4", "--mu", "0.3:0.1", "--p", "1"],
        0, "ae1029cccfd158457adecb7a47038b0558f680944313d11979e5c79b197db23f",
        id="hardy-nuclear"),
    pytest.param([
        "schatten", "--weights", "w=constant:2", "--window", "0:7", "--p", "1,2,3.5"],
        0, "01d690c77834012c3e122aabb00fdabe9c98068a02949e657173a2d49ab3a618",
        id="schatten"),
]

PINNED_MANIFEST = """seed: 4
experiment: hardy
hardy:
  check: locus
  phi: "0,2"
  psi: "0,1"
  grid_density: 8
  tol: 0.01
  exclude: "0.5,0.5:0.5"
  max_points: 3
output:
  format: json
"""
PINNED_MANIFEST_SHA = "cde1391cb7f9dc27a88b0a1f58be1e302522ceff404d3587112e8b867cf707fe"


@pytest.mark.parametrize("argv,code,digest", PINNED)
def test_report_bytes_are_pinned(tmp_path, argv, code, digest):
    assert run(argv, tmp_path) == code
    assert hashlib.sha256(report_path(tmp_path, argv).read_bytes()).hexdigest() == digest


# SHA-256 of CSV artifacts, recorded while time sets were still tuples
PINNED_CSV = [
    pytest.param([
        "density", "--set", "squares", "--q", "2", "--n-max", "60", "--format", "csv"],
        "density.csv", "67b6dc42862de6a056f4570fa717c35b2e097fd6ad564ea46ff7ee56750d9cfd",
        id="density-squares"),
    pytest.param([
        "construct-fhc", "--weights", "w=constant:2", "--targets", "0|0,1", "--horizon",
        "3000", "--format", "csv"],
        "visit_times.csv", "f56c22d256abc7106572c5dcea05a8e052e8f307873fd4c21d8203732d1d4ea9",
        id="construct-fhc-visit-times"),
    # recorded while locus points were still one object each
    pytest.param([
        "hardy", "--check", "locus", "--phi", "0,2", "--psi", "0,1", "--grid-density", "12",
        "--format", "csv"],
        "locus.csv", "0f4ace99ec72bed8da7154c4215eaed89c6ee22bb1c1648d77601208cde0f32e",
        id="hardy-locus"),
]


@pytest.mark.parametrize("argv,name,digest", PINNED_CSV)
def test_csv_bytes_are_pinned(tmp_path, argv, name, digest):
    assert run(argv, tmp_path) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_manifest_report_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "m.yml"
    cfg.write_text(PINNED_MANIFEST)
    assert run(["hardy", "--config", str(cfg)], tmp_path) == 0
    data = (tmp_path / "hardy_report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_MANIFEST_SHA


# -- the tables -------------------------------------------------------------

# every flag before the tables, plus the manifest-only keys hardy read
ACCEPTED = {
    "density": {"set", "q", "n_max", "tail_start"},
    "orbit": {"weights", "op", "start", "horizon", "stride_exponent", "p"},
    "construct_fhc": {"weights", "op", "q", "targets", "horizon", "eps_scale", "eps_base"},
    "check": {"condition", "weights", "p", "i_range", "j_range", "r_max", "n_max", "q",
              "growth_threshold", "tail_tolerance"},
    "hardy": {"beta", "phi", "psi", "check", "dim", "z", "w", "lam", "mu", "p",
              "grid_density", "tol", "samples", "target", "exclude", "max_points"},
    "schatten": {"weights", "op", "window", "p"},
}
COMMON_FLAGS = {"config", "out", "seed", "format", "help"}


def test_flags_and_manifest_keys_are_the_same_set():
    subs = next(a for a in build_parser()._actions if a.dest == "experiment").choices
    assert {name.replace("-", "_") for name in subs} == set(ACCEPTED)
    for name, sub in subs.items():
        experiment = name.replace("-", "_")
        flags = {a.dest for a in sub._actions} - COMMON_FLAGS
        assert flags == ACCEPTED[experiment]
        assert {row[0] for row in cli._EXPERIMENTS[experiment][2]} == flags


def test_main_builds_one_parser_and_each_call_reads_as_a_fresh_process(tmp_path, capsys):
    # the parser is built on the first call and reused: parsing leaves no
    # state on it, so a run after a refused argv reads as in its own process
    calls = [(["check", "--condition", "growth", "--q", "2", "--n-max", "64"], 0),
             (["check", "--n-max", "eight"], 1),
             (["hardy", "--check", "eigen", "--dim", "64"], 0)]
    build_parser.cache_clear()
    capsys.readouterr()
    for k, (argv, code) in enumerate(calls):
        here, alone = tmp_path / f"in-process-{k}", tmp_path / f"process-{k}"
        assert run(argv, here) == code, argv
        err = capsys.readouterr().err
        proc = run_process(argv, alone)
        assert proc.returncode == code and proc.stderr == err, (argv, proc.stderr, err)
        if code == 1:
            one_error_line(err)
            assert not here.exists() and not alone.exists()
        else:
            assert report_path(here, argv).read_bytes() == report_path(alone, argv).read_bytes()
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2), info


# -- manifests --------------------------------------------------------------

def test_colon_values_load_as_strings(tmp_path):
    cfg = tmp_path / "m.yml"
    cfg.write_text("schatten:\n  window: 2:30\ncheck:\n  i_range: -4:4\n"
                   "hardy:\n  z: 1:1\n  dim: 0x10\n  tol: 1.5e-3\n")
    data, digest = load_config(str(cfg))
    assert data["schatten"]["window"] == "2:30"
    assert data["check"]["i_range"] == "-4:4"
    assert data["hardy"] == {"z": "1:1", "dim": 16, "tol": 1.5e-3}
    assert digest == hashlib.sha256(cfg.read_bytes()).hexdigest()


def test_colon_window_runs_the_whole_range(tmp_path):
    cfg = tmp_path / "m.yml"
    cfg.write_text("schatten:\n  window: 2:30\n")
    assert run(["schatten", "--config", str(cfg)], tmp_path) == 0
    rep = json.loads((tmp_path / "schatten_report.json").read_text())
    assert rep["parameters"]["window"] == "2:30"
    assert len(rep["results"]["singular_values"]) == 29


@pytest.mark.parametrize("experiment,text,needle", [
    ("construct-fhc", "construct_fhc:\n  horizn: 50\n", "'horizn'"),
    ("density", "density:\n  n_max:\n", "density.n_max: empty value"),
    ("construct-fhc", "construct_fhc:\n  horizon: [1, 2]\n", "construct_fhc.horizon"),
    ("density", "density:\n  q: .nan\n", "density.q"),
    ("density", "density:\n  n_max: 2:30\n", "density.n_max"),
    ("density", "density:\n  set: yes\n", "density.set"),
    ("density", "density: 3\n", "'density' must be a mapping"),
    ("density", "output: 3\n", "'output' must be a mapping"),
    ("density", "output:\n  colour: red\n", "'colour'"),
    ("density", "output:\n  format: xml\n", "'xml'"),
    ("density", "densty:\n  q: 2\n", "'densty'"),
    ("density", "seed: [1]\n", "seed"),
    ("density", "seed: -1\n", "seed"),
])
def test_bad_manifest_exits_one_naming_the_key(tmp_path, capsys, experiment, text,
                                               needle):
    cfg = tmp_path / "m.yml"
    cfg.write_text(text)
    assert run([experiment, "--config", str(cfg)], tmp_path) == 1
    assert needle in one_error_line(capsys.readouterr().err)
    assert not report_path(tmp_path, [experiment]).exists()


def test_manifest_value_is_checked_even_when_a_flag_overrides_it(tmp_path, capsys):
    cfg = tmp_path / "m.yml"
    cfg.write_text("density:\n  n_max: many\n")
    assert run(["density", "--config", str(cfg), "--n-max", "10"], tmp_path) == 1
    assert "density.n_max" in one_error_line(capsys.readouterr().err)


def test_non_finite_float_flag_is_rejected(tmp_path, capsys):
    assert run(["density", "--q", "nan"], tmp_path) == 1
    assert "--q" in one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv,literal", [
    (["check", "--condition", "growth", "--weights", "w=ratio:nan|1;mu=constant:2"], "nan|1"),
    (["check", "--condition", "growth", "--weights", "w=ratio:1|1,-inf;mu=constant:2"],
     "1|1,-inf"),
    (["orbit", "--weights", "w=table:0|2,inf:0|1"], "inf:0"),
    (["hardy", "--check", "eigen", "--phi", "nan,1"], "'nan'"),
    (["hardy", "--check", "eigen", "--z", "0.5:inf"], "0.5:inf"),
    (["hardy", "--check", "nuclear", "--phi", "0,1", "--psi", "0,1", "--lam", "nan"], "'nan'"),
    (["hardy", "--check", "eigen", "--dim", "3", "--beta", "table:BETAS"], "'nan'"),
], ids=["ratio-num", "ratio-den", "table-value", "symbol", "point", "lam", "beta-table"])
def test_non_finite_literals_are_refused(tmp_path, capsys, argv, literal):
    # these passed as nan or inf: a report with a nan bound, an inf margin
    # read as satisfied, or LAPACK's "SVD did not converge"
    betas = tmp_path / "betas.txt"
    betas.write_text("1\nnan\n1\n1\n")
    argv = [f"table:{betas}" if a == "table:BETAS" else a for a in argv]
    assert run(argv, tmp_path / "out") == 1
    err = one_error_line(capsys.readouterr().err)
    assert literal in err and "finite" in err


# -- runtime failures and exit codes -----------------------------------------

@pytest.mark.parametrize("extra", [["--horizon", "100"], ["--q", "3", "--horizon", "10"]],
                         ids=["horizon-100", "q3-horizon-10"])
def test_decaying_weights_fail_the_construction_cleanly(tmp_path, capsys, extra):
    # with q = 3 the threshold search asks for weight products at indices
    # near (4096 + 95)^3, which the closed-form prefix answers at once
    argv = ["construct-fhc", "--weights", "w=constant:0.5", "--targets", "0", *extra]
    assert run(argv, tmp_path) == 1
    assert one_error_line(capsys.readouterr().err).startswith(
        "error: construction failed: ")


@pytest.mark.parametrize("base", ["1.5", "1", "0", "-0.5"])
def test_a_base_outside_the_unit_interval_is_refused(tmp_path, capsys, base):
    # eps_k = eps_scale * eps_base^k must decay for the construction's
    # radii k eps_k + sum_{j>k} eps_j to shrink
    argv = ["construct-fhc", "--eps-base", base, "--horizon", "200"]
    assert run(argv, tmp_path) == 1
    assert "eps_base" in one_error_line(capsys.readouterr().err)


def test_long_ratio_scan_walks_every_block(tmp_path):
    # ratio weights keep every far block comparable, and threshold 1 puts
    # 275 blocks in the horizon: the early times walk all of them
    argv = ["construct-fhc", "--weights", "w=ratio:1,1|0,1", "--targets", "0",
            "--eps-scale", "2", "--horizon", "1100"]
    assert run(argv, tmp_path) == 0
    rep = json.loads(report_path(tmp_path, argv).read_text())
    assert rep["exit_code"] == 0
    assert [c["contained"] for c in rep["results"]["classes"]] == [True]
    assert "truncated" not in rep["results"]["classes"][0]


@pytest.mark.parametrize("argv,distance", [
    (["--weights", "w=ratio:1,1|0,1"], 0.0766694131705065),
    (["--weights", "w=step:0|0.5|2", "--op", "bilateral-backward"], 6.291359903103109e-05),
], ids=["ratio", "step-bilateral"])
def test_horizon_ten_thousand_runs_pass(tmp_path, argv, distance):
    # 625 designed times: the ratio run walks every block of every time,
    # the step run stops both sides of its walks where the levels 2 and
    # 1/2 bound the blocks left
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["construct-fhc", *argv, "--targets", "0", "--horizon", "10000"]
    proc = subprocess.run([sys.executable, "-m", "hyperlab.cli", *argv, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    [cls] = json.loads(report_path(tmp_path, argv).read_text())["results"]["classes"]
    assert cls["contained"] is True and cls["designed_count"] == 625
    assert cls["max_designed_distance"] == distance


@pytest.mark.parametrize("argv,needle", [
    (["--set", "evens", "--q", "4", "--n-max", "1000"], "n_max = 1000, q = 4.0"),
    (["--set", "multiples:3", "--q", "3", "--n-max", "1000"], "n_max = 1000, q = 3.0"),
    (["--set", "squares", "--q", "7", "--n-max", "1000"], "n_max = 1000, q = 7.0"),
    (["--set", "evens", "--q", "400", "--n-max", "10"], "n_max = 10, q = 400.0"),
], ids=["evens", "multiples", "squares", "overflow"])
def test_density_refuses_generated_sets_past_the_cap(tmp_path, capsys, argv, needle):
    # evens up to 1000^4 would be a tuple of 5e11 elements
    assert run(["density", *argv], tmp_path) == 1
    assert needle in one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "density_report.json").exists()


@pytest.mark.parametrize("horizon", [cli._MAX_SET_ELEMS + 1, 2 * 10 ** 7, 10 ** 11])
def test_construction_refuses_horizons_past_the_set_cap(tmp_path, capsys, horizon):
    # the visit sets are NatSets up to the horizon: the refusal comes before
    # any threshold search, where these horizons ran for minutes
    argv = ["construct-fhc", "--horizon", str(horizon)]
    start = time.perf_counter()
    assert run(argv, tmp_path) == 1
    assert time.perf_counter() - start < 1.0
    assert str(horizon) in one_error_line(capsys.readouterr().err)
    assert not report_path(tmp_path, argv).exists()


@pytest.mark.parametrize("horizon", [cli._MAX_ORBIT_STEPS + 1, 10 ** 7, 10 ** 11])
def test_orbit_refuses_horizons_past_the_step_cap(tmp_path, capsys, horizon):
    # a stride-1 orbit keeps one row per step: 10^6 steps of one entry take
    # 0.8 s and 180 MB in process, and 10^7 would hold ten times the rows
    argv = ["orbit", "--horizon", str(horizon)]
    start = time.perf_counter()
    assert run(argv, tmp_path) == 1
    assert time.perf_counter() - start < 1.0
    assert str(horizon) in one_error_line(capsys.readouterr().err)
    assert not report_path(tmp_path, argv).exists()


@pytest.mark.parametrize("op", ["diagonal", "forward"])
def test_orbit_refuses_a_norm_past_float_range(tmp_path, capsys, op):
    # 2^1024 overflows: the report read "final_norm": "nan"
    argv = ["orbit", "--weights", "w=constant:2", "--op", op, "--start", "1",
            "--horizon", "1100"]
    assert run(argv, tmp_path) == 1
    assert one_error_line(capsys.readouterr().err) == (
        "error: the orbit norm at step 1024 is nan, not finite")
    assert not report_path(tmp_path, argv).exists()


@pytest.mark.parametrize("check", ["locus", "density"])
@pytest.mark.parametrize("grid", [cli._MAX_GRID_DENSITY + 1, 600])
def test_hardy_refuses_grid_densities_past_the_cap(tmp_path, capsys, check, grid):
    # the locus scan visits g^4 cells: grid 600 ran past an 8 s timeout
    argv = ["hardy", "--check", check, "--phi", "0,2", "--psi", "0,1",
            "--grid-density", str(grid)]
    start = time.perf_counter()
    assert run(argv, tmp_path) == 1
    assert time.perf_counter() - start < 1.0
    assert str(grid) in one_error_line(capsys.readouterr().err)
    assert not report_path(tmp_path, argv).exists()


@pytest.mark.parametrize("check, dim, message", [
    # dim + 1 = 2049 passes MatOp's window cap; density at dim 20000 ended in
    # a numpy _ArrayMemoryError traceback under a 3 GB address-space limit
    ("density", 2048, "2048"),
    # nuclear takes the eigencheck caps
    ("nuclear", cli._MAX_EIGEN_DIM + 1, str(cli._MAX_EIGEN_DIM)),
    ("nuclear", -3, ">= 1"),          # numpy's "negative dimensions", after the mp legs
    ("nuclear", 0, ">= 1"),           # reported passed: true with op_residual 0.5
])
def test_hardy_refuses_dims_past_the_dense_cap(tmp_path, capsys, check, dim, message):
    argv = ["hardy", "--check", check, "--phi", "0,2", "--psi", "0,1", "--dim", str(dim)]
    start = time.perf_counter()
    assert run(argv, tmp_path) == 1
    assert time.perf_counter() - start < 1.0
    assert message in one_error_line(capsys.readouterr().err)
    assert not report_path(tmp_path, argv).exists()


@pytest.mark.parametrize("extra, message", [
    # both ended in numpy _ArrayMemoryError tracebacks under a 3 GB
    # address-space limit
    (["--dim", "3000000000"], "3000000000"),
    (["--dim", "100000000"], "100000000"),
    (["--dim", str(cli._MAX_EIGEN_DIM + 1)], str(cli._MAX_EIGEN_DIM)),
    # (dim + 1) x (degree + 1) band entries past the cap, from phi or from psi
    (["--dim", "1048575", "--phi", ",".join(["1"] * 17)], "degree 16"),
    (["--dim", "1048575", "--psi", ",".join(["1"] * 17), "--w", "0.5"], "degree 16"),
])
def test_hardy_refuses_eigen_sizes_past_the_caps(tmp_path, capsys, extra, message):
    argv = ["hardy", "--check", "eigen", "--z", "0.6", *extra]
    start = time.perf_counter()
    assert run(argv, tmp_path) == 1
    assert time.perf_counter() - start < 1.0
    assert message in one_error_line(capsys.readouterr().err)
    assert not report_path(tmp_path, argv).exists()


@pytest.mark.parametrize("dim", [2048, 2 ** 16])
def test_nuclear_takes_the_eigen_caps(tmp_path, dim):
    # past the 2047 dense cap it kept for its dense random pairing matrix
    argv = ["hardy", "--check", "nuclear", "--phi", "0,2", "--psi", "0,1", "--dim", str(dim)]
    assert run(argv, tmp_path) == 0
    report = json.loads(report_path(tmp_path, argv).read_text())["results"]["report"]
    assert report["truncation_dim"] == dim


def test_nuclear_counts_psi_in_the_band_without_w(tmp_path, capsys):
    argv = ["hardy", "--check", "nuclear", "--dim", "1048575", "--psi", ",".join(["1"] * 17)]
    start = time.perf_counter()
    assert run(argv, tmp_path) == 1
    assert time.perf_counter() - start < 1.0
    assert "degree 16" in one_error_line(capsys.readouterr().err)


def run_process(argv, outdir):
    """The CLI as its own process, BLAS on one thread; its CompletedProcess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "hyperlab.cli", *argv, "--out", str(outdir)],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ["--set", "evens", "--q", "70", "--n-max", "3"],
    ["--set", "squares", "--q", "200", "--n-max", "3"],
    ["--set", "multiples:3", "--q", "70", "--n-max", "3"],
], ids=["evens", "squares", "multiples"])
def test_density_refuses_a_set_past_sys_maxsize_in_one_line(tmp_path, argv):
    # len() of a range past sys.maxsize raised OverflowError: a traceback
    proc = run_process(["density", *argv], tmp_path)
    assert proc.returncode == 1
    assert "elements, more than 10000000" in one_error_line(proc.stderr)


def test_converse_norms_of_finite_orbits_are_finite(tmp_path):
    # entries near 1e160 are finite, but their squares overflowed inside
    # np.linalg.norm: steps 20-24 read "inf" with a warning on stderr
    argv = ["hardy", "--check", "converse", "--phi", "0,1e4", "--psi", "1e4"]
    proc = run_process(argv, tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    norms = json.loads(report_path(tmp_path, argv).read_text())["results"]["certificate"][
        "orbit_norms"]
    assert all(isinstance(v, float) for v in norms)     # a non-finite norm is a string
    assert norms[20] == 4.344784726277849e+159


def test_converse_orbit_past_float_range_is_one_error_line(tmp_path):
    # the first step's entries overflow: the norms read "nan" after two
    # matmul warnings
    argv = ["hardy", "--check", "converse", "--phi", "1e300,1e300", "--psi", "1e300"]
    proc = run_process(argv, tmp_path)
    assert proc.returncode == 1
    assert "at step 1 " in one_error_line(proc.stderr)
    assert not report_path(tmp_path, argv).exists()


def test_locus_refuses_a_negative_max_points(tmp_path, capsys):
    # a negative count used to list points[:-3], all but the last three
    argv = ["hardy", "--check", "locus", "--phi", "0,2", "--psi", "0,1",
            "--grid-density", "8", "--max-points", "-3"]
    assert run(argv, tmp_path) == 1
    assert "max_points" in one_error_line(capsys.readouterr().err)
    assert not report_path(tmp_path, argv).exists()


def test_locus_of_an_overflowing_symbol_is_one_error_line(tmp_path, capsys):
    # |phi| overflows a double on the grid: this was an OverflowError traceback
    argv = ["hardy", "--check", "locus", "--phi", "1e308,1e308", "--psi", "1"]
    assert run(argv, tmp_path) == 1
    assert "not finite" in one_error_line(capsys.readouterr().err)


def test_growth_check_runs_on_the_quartic_clock(tmp_path):
    # clock indices reach (512 + 32)^4, about 8.8e10
    assert run(["check", "--condition", "growth", "--q", "4"], tmp_path) == 0


FAR_TABLE = "w=table:100000000000000000000|1,2|3"


@pytest.mark.parametrize("argv", [
    ["construct-fhc", "--weights", FAR_TABLE, "--horizon", "50"],
    ["construct-fhc", "--weights", FAR_TABLE.replace(":", ":-", 1), "--horizon", "50"],
    ["construct-fhc", "--weights", FAR_TABLE.replace(":", ":-", 1), "--horizon", "200"],
    ["check", "--condition", "growth", "--weights", FAR_TABLE + ";mu=constant:2"],
], ids=["fhc-above", "fhc-below", "fhc-below-200", "growth"])
def test_a_table_offset_past_int64_gives_a_report_or_one_error_line(tmp_path, capsys, argv):
    # weights 3 everywhere read: the offset of the table's two values lies
    # past int64, above or below every index
    code = run(argv, tmp_path)
    if code == 1:
        assert "too small" in one_error_line(capsys.readouterr().err)
    else:
        assert json.loads(report_path(tmp_path, argv).read_text())["exit_code"] == code == 0


@pytest.mark.parametrize("condition", ["bilateral", "schatten"])
def test_clock_indices_beyond_two_to_the_53_are_refused(tmp_path, capsys, condition):
    # (512 + 32)^7 would wrap int64 in the clock arithmetic
    argv = ["check", "--condition", condition, "--weights",
            "w=constant:2@Z;mu=constant:2@Z", "--q", "7"]
    assert run(argv, tmp_path) == 1
    line = one_error_line(capsys.readouterr().err)
    assert "q = 7" in line and "n_max = 512" in line and "r_max = 32" in line
    assert not (tmp_path / "check_report.json").exists()


@pytest.mark.parametrize("argv", [
    ["--condition", "growth", "--n-max", "8", "--r-max", "0", "--q", "6"],
    ["--condition", "bilateral", "--weights", "w=constant:2@Z;mu=constant:2@Z",
     "--n-max", "8", "--r-max", "0", "--q", "17"],
], ids=["growth-q6", "bilateral-q17"])
def test_a_small_grid_checks_at_a_high_clock_exponent(tmp_path, argv):
    # the grid checked is the one given: 8^6 and 8^17 = 2^51 lie below 2^53,
    # though the default grid's (512 + 32)^q does not
    assert run(["check", *argv], tmp_path) == 0
    grid = json.loads((tmp_path / "check_report.json").read_text())["parameters"]["grid"]
    assert (grid["n_max"], grid["r_max"]) == (8, 0)


def test_the_default_grid_past_two_to_the_53_names_its_own_bounds(tmp_path, capsys):
    assert run(["check", "--condition", "growth", "--q", "6"], tmp_path) == 1
    line = one_error_line(capsys.readouterr().err)
    assert "q = 6" in line and "n_max = 512" in line and "r_max = 32" in line


def test_bilateral_witness_is_exact(tmp_path):
    # constant weights 2 on Z: the witness is a backward product over
    # e = r^q - (r - n)^q = 2 indices on each side, 2^2 * 2^2 = 16
    argv = ["check", "--condition", "bilateral", "--weights",
            "w=constant:2@Z;mu=constant:2@Z", "--r-max", "4", "--n-max", "16"]
    assert run(argv, tmp_path) == 2
    witness = json.loads(report_path(tmp_path, argv).read_text())["results"]["verdict"]["witness"]
    assert abs(witness["value"] - 16.0) <= 1e-15 * 16.0


@pytest.mark.parametrize("argv", [
    ["--condition", "schatten", "--weights", "w=constant:0.01@Z;mu=constant:0.01@Z"],
    ["--condition", "diagonal", "--weights", "lam=constant:2;mu=constant:0.01"],
], ids=["schatten", "diagonal"])
def test_overflowing_tail_sum_is_a_quiet_violation(tmp_path, capsys, argv):
    # inverse products of 0.01 pass float range within the tail: the sum is
    # inf, which fails the tolerance, with no RuntimeWarning on the way
    argv = ["check", *argv]
    assert run(argv, tmp_path) == 2
    assert capsys.readouterr().err == ""
    verdict = json.loads(report_path(tmp_path, argv).read_text())["results"]["verdict"]
    assert verdict["witness"]["value"] == "inf"


@pytest.mark.parametrize("extra,needle", [
    (["--i-range", "0:20000", "--j-range", "0:20000"], "per offset"),
    (["--n-max", "50000000", "--r-max", "0"], "per offset"),
    (["--n-max", "262144", "--i-range", "0:1", "--j-range", "0:0"], "prefix values, "),
    (["--n-max", "4096", "--r-max", "9", "--i-range", "0:99", "--j-range", "0:99"],
     "cell values"),
], ids=["shifts", "n-max", "offsets", "cells"])
def test_check_refuses_grids_past_the_caps(tmp_path, capsys, extra, needle):
    # the 20001 x 20001 grid ran past 6 s, and n_max = 5e7 ran out of memory
    argv = ["check", "--condition", "growth", *extra]
    start = time.perf_counter()
    assert run(argv, tmp_path) == 1
    assert time.perf_counter() - start < 1.0
    assert needle in one_error_line(capsys.readouterr().err)
    assert not report_path(tmp_path, argv).exists()


# Runs the CLI with the address space capped 256 MB above what start-up
# holds, so a range that is materialized before its cap is checked ends in
# a MemoryError traceback instead of the one error line.
_CAPPED_RUN = """
import resource, sys
from hyperlab.cli import main
with open("/proc/self/status") as fh:
    size = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmSize:")) << 10
resource.setrlimit(resource.RLIMIT_AS, (size + (256 << 20),) * 2)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
@pytest.mark.parametrize("argv", [
    ["check", "--condition", "growth", "--i-range", "0:3000000000"],
    ["schatten", "--window", "0:3000000000"],
    ["schatten", "--window", "0:5000"],
], ids=["check-i-range", "schatten-window", "schatten-5001"])
def test_wide_ranges_are_refused_before_they_are_built(tmp_path, argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, *argv, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "more than" in one_error_line(proc.stderr)
    assert not report_path(tmp_path, argv).exists()


def test_unconverged_spectrum_exits_two(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "singular_values",
                        lambda A: SingularSpectrum((2.0, 1.0), 60, False))
    assert run(["schatten", "--window", "0:1"], tmp_path) == 2
    rep = json.loads((tmp_path / "schatten_report.json").read_text())
    assert rep["exit_code"] == 2 and rep["results"]["converged"] is False


def counting_jacobi(monkeypatch, *modules):
    calls = []
    real = matops.singular_values

    def counted(A, *args, **kwargs):
        calls.append(A)
        return real(A, *args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, "singular_values", counted)
    return calls


def test_schatten_runs_jacobi_once(tmp_path, monkeypatch):
    calls = counting_jacobi(monkeypatch, cli, matops)
    assert run(["schatten", "--window", "0:7", "--p", "1,2,3.5"], tmp_path) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("ps", [",", "", " , "])
def test_schatten_refuses_an_empty_exponent_list(tmp_path, capsys, ps):
    # "--p ," used to write a report with "schatten_norms": {}
    argv = ["schatten", "--p", ps]
    assert run(argv, tmp_path) == 1
    assert "no Schatten exponent" in one_error_line(capsys.readouterr().err)
    assert not report_path(tmp_path, argv).exists()


# -- fuzzed contract ---------------------------------------------------------

N_WEIGHTS = ["w=constant:2", "w=constant:0.5", "w=ratio:1,1|0,1", "w=table:0|1,2|1"]
N_OPS = ["backward", "forward", "diagonal"]
POINTS = ["0.5", "0.6", "0.3:0.2", "0"]


def ints(lo, hi):
    return st.integers(lo, hi)


def floats(lo, hi):
    return st.floats(lo, hi)


def one_of(*values):
    return st.sampled_from(values)


# well-formed values per key, small enough that no run takes long; what
# lies outside the domains comes from JUNK and FLAG_JUNK
PLAUSIBLE = {
    "density": {
        "set": one_of("squares", "evens", "multiples:3"),
        "q": floats(0.5, 3), "n_max": ints(1, 30), "tail_start": ints(1, 15),
    },
    "orbit": {
        "weights": one_of(*N_WEIGHTS, "w=constant:0.5:0.5", "w=table:1|3,0.5,2"),
        "op": one_of(*N_OPS), "start": one_of("0", "0,3", "2=1:1", ",".join(map(str, range(64)))),
        "horizon": ints(1, 300), "stride_exponent": ints(1, 3), "p": floats(1, 4),
    },
    "construct_fhc": {
        "weights": one_of("w=constant:2", "w=constant:0.5", "w=ratio:1,1|0,1", "w=step:0|0.5|2",
                          "w=table:-1|3,0.5,2|2@Z", "w=table:1|3,0.5,2"),
        "op": one_of("backward", "bilateral-backward"), "q": ints(1, 3),
        "targets": one_of("0", "0|0,1", "1=1:1"),
        "horizon": ints(1, 200), "eps_scale": floats(0.1, 2), "eps_base": floats(0.1, 0.9),
    },
    "check": {
        "condition": one_of("growth", "bilateral", "schatten", "diagonal"),
        "weights": one_of("w=constant:2;mu=constant:2;lam=constant:2",
                          "w=constant:2@Z;mu=constant:2@Z",
                          "w=constant:1;mu=constant:1;lam=constant:1",
                          "w=ratio:1,1|0,1;mu=constant:2;lam=constant:0.5"),
        "p": floats(1, 3), "i_range": one_of("0:2", "-2:2", "1:3", "0"),
        "j_range": one_of("0:2", "-2:2", "1:3", "0"), "r_max": ints(0, 6),
        "n_max": ints(8, 40), "q": ints(1, 2), "growth_threshold": floats(0, 20),
        "tail_tolerance": floats(1e-3, 1),
    },
    "hardy": {
        "check": one_of("eigen", "locus", "density", "converse", "nuclear"),
        "beta": one_of("hardy", "inv_linear"),
        "phi": one_of("0,1", "0,2", "0,0.5", "1,1", "0.5"),
        "psi": one_of("1", "0,1", "0,0.5"),
        "dim": ints(1, 24), "z": one_of(*POINTS), "w": one_of(*POINTS),
        "lam": one_of(*POINTS), "mu": one_of(*POINTS), "p": floats(1, 3),
        "grid_density": ints(8, 12), "tol": floats(1e-4, 0.1), "samples": ints(1, 10),
        "target": one_of("0,0", "1,0", "0,1"),
        "exclude": one_of("", "0.5", "0.5,0.5:0.5"), "max_points": ints(0, 5),
    },
    "schatten": {
        "weights": one_of(*N_WEIGHTS), "op": one_of(*N_OPS),
        "window": one_of("0:2", "0:7", "2:30", "-3:3"),
        "p": one_of("1,2", "1", "3.5", "1,2,3.5"),
    },
}

ODD = ["2:30", "-4:4", "1:1", "9:1", "x", "", "nan", "-inf", "1,x", "w=mystery:1"]
# what a manifest may hold outside the plausible domains
JUNK = st.one_of(st.none(), st.booleans(), st.just(float("nan")), st.just(float("inf")),
                 st.lists(st.integers(0, 3), max_size=2), st.just({"a": 1}),
                 one_of(-1, 0, *ODD))
FLAG_JUNK = one_of("-1", "0", *ODD)


# keys whose defaults cost a second or more a run; the fuzz always sets them
ALWAYS = {"construct_fhc": {"horizon"}, "check": {"r_max", "n_max"}}


@st.composite
def invocations(draw):
    """(experiment, manifest, flags).  Three draws in seven hold only
    plausible values, so they reach the handler; the others carry one kind
    of junk."""
    experiment = draw(st.sampled_from(sorted(PLAUSIBLE)))
    keys = PLAUSIBLE[experiment]
    section, flags = {}, []
    for key, values in keys.items():
        choices = ["manifest", "flag"] + ([] if key in ALWAYS.get(experiment, ()) else
                                          ["absent", "absent"])
        if draw(st.sampled_from(choices)) == "manifest":
            section[key] = draw(values)
        else:
            flags.append(f"--{key.replace('_', '-')}={draw(values)}")
    top = {experiment: section}
    junk = draw(st.sampled_from([None, None, None, "value", "flag", "key", "top"]))
    if junk == "value":
        section[draw(st.sampled_from(sorted(keys)))] = draw(JUNK)
    elif junk == "flag":
        key = draw(st.sampled_from(sorted(keys)))
        flags.append(f"--{key.replace('_', '-')}={draw(FLAG_JUNK)}")
    elif junk == "key":
        section[draw(st.sampled_from(["horizn", "n-max", "max_point", "seed"]))] = 1
    elif junk == "top":
        top.update(draw(st.sampled_from([
            {"seed": -1}, {"seed": 2 ** 64}, {"seed": None}, {"seed": "x"},
            {"output": 3}, {"output": {"format": "xml"}}, {"output": {"colour": 1}},
            {"bogus": 1}, {"experiment": "orbit"}, {"experiment": experiment},
            {"seed": 7, "output": {"format": "csv"}}])))
    return experiment, top, flags


@seed(20260517)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                  HealthCheck.too_slow])
@given(case=invocations())
def test_every_input_gives_a_report_or_one_error_line(tmp_path, capsys, case):
    experiment, top, flags = case
    outdir = tmp_path / "out"
    report = outdir / f"{experiment}_report.json"
    report.unlink(missing_ok=True)
    cfg = tmp_path / "m.yml"
    cfg.write_text(yaml.safe_dump(top))
    argv = [experiment.replace("_", "-"), *flags, "--config", str(cfg)]
    code = run(argv, outdir)
    out, err = capsys.readouterr()
    if code in (0, 2):
        text = report.read_text()
        assert json.loads(text)["exit_code"] == code
        # a numpy scalar or array reaching to_jsonable falls back to its repr
        assert "np." not in text and "array(" not in text, text
    else:
        assert code == 1
        one_error_line(err)
        assert not report.exists()
