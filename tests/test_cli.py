"""End-to-end tests for the console runner: grammars, manifests, exit codes,
artifact layout, and byte-level determinism of reports."""

import json
import math

import numpy as np
import pytest

from hyperlab import cli, fhc
from hyperlab.cli import (ConfigError, build_natset, main, parse_complex,
                          parse_range, parse_symbol, parse_vector,
                          parse_weight_rule, parse_weight_spec, to_jsonable)
from hyperlab.matops import MatOp, schatten_norm, shift_matrix
from hyperlab.seqspace import Domain, ShiftOp, WeightSeq


def run(args, outdir):
    return main(list(args) + ["--out", str(outdir)])


def load_report(outdir, name):
    return json.loads((outdir / f"{name}_report.json").read_text())


# -- grammars ---------------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("1:-0.5") == 1 - 0.5j
    with pytest.raises(ConfigError):
        parse_complex("1:2:3")
    with pytest.raises(ConfigError):
        parse_complex("two")


def test_parse_weight_rule_kinds():
    c = parse_weight_rule("constant:2@Z")
    assert c == WeightSeq.constant(2.0, Domain.INTEGERS)
    r = parse_weight_rule("ratio:1,1|0,1")
    assert r.rational == ((1.0, 1.0), (0.0, 1.0)) and r.weight(1) == 2.0
    t = parse_weight_rule("table:1|2,3,4|0.5@N")
    assert t.weight(2) == 3 and t.weight(99) == 0.5
    t2 = parse_weight_rule("table:0|1,1|")
    assert t2.low is None and t2.high is None
    s = parse_weight_rule("step:1|0.5|2")
    assert s.domain is Domain.INTEGERS and s.weight(-3) == 0.5 and s.weight(5) == 2


def test_parse_weight_rule_rejects():
    for bad in ("constant", "mystery:1", "ratio:1,1", "step:1|2",
                "table:x|1,2|", "step:x|1|2"):
        with pytest.raises(ConfigError):
            parse_weight_rule(bad)


def test_parse_weight_spec_named_rules():
    d = parse_weight_spec("w=constant:2; mu=ratio:1,1|0,1")
    assert set(d) == {"w", "mu"} and d["mu"].rational is not None
    with pytest.raises(ConfigError):
        parse_weight_spec("constant:2")
    with pytest.raises(ConfigError):
        parse_weight_spec(";;")


def test_parse_vector_terms():
    v = parse_vector("0,3=1:1")
    assert v.entries == {0: 1 + 0j, 3: 1 + 1j}
    with pytest.raises(ConfigError):
        parse_vector("a=1")
    with pytest.raises(ConfigError):
        parse_vector(",")


def test_parse_symbol_and_range():
    phi = parse_symbol("1,0,2")
    assert phi.degree == 2 and phi(1.0) == 3.0
    assert tuple(parse_range("-2:2")) == (-2, -1, 0, 1, 2)
    assert tuple(parse_range("5")) == (5,)
    with pytest.raises(ConfigError):
        parse_range("3:1")
    with pytest.raises(ConfigError):
        parse_range("a:b")


def test_build_natset_specs(tmp_path):
    sq = build_natset("squares", 100)
    assert sq.elems.tolist() == [1, 4, 9, 16, 25, 36, 49, 64, 81, 100]
    ev = build_natset("evens", 10)
    assert ev.elems.tolist() == [2, 4, 6, 8, 10]
    m3 = build_natset("multiples:3", 10)
    assert m3.elems.tolist() == [3, 6, 9]
    p = tmp_path / "set.txt"
    p.write_text("# horizon 20\n3\n7\n")
    assert build_natset(f"file:{p}", 999).elems.tolist() == [3, 7]
    with pytest.raises(ConfigError):
        build_natset("file:/no/such/file", 10)
    with pytest.raises(ConfigError):
        build_natset("primes", 10)


@pytest.mark.parametrize("stride, horizon", [(10 ** 15, 10 ** 18), (10 ** 18, 10 ** 20),
                                             (7, 10 ** 5)])
def test_generated_multiples_are_exact_at_any_horizon(stride, horizon):
    # np.arange(10**15, 10**18 + 1, 10**15) holds 999 elements, not 1000: its
    # length comes from a float quotient; past 2^62 the set is Python ints
    got = build_natset(f"multiples:{stride}", horizon)
    assert got.elems.tolist() == list(range(stride, horizon + 1, stride))
    assert got.elems.dtype == (object if horizon >= 2 ** 62 else np.int64)


# -- exit codes -------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "experiment subcommand" in capsys.readouterr().err


def test_unknown_flag_is_usage_error_not_two(capsys):
    assert main(["density", "--no-such-flag"]) == 1
    assert "unrecognized" in capsys.readouterr().err


def test_malformed_yaml_reports_line_and_column(tmp_path, capsys):
    cfg = tmp_path / "m.yml"
    cfg.write_text("density:\n  q: 2\n   bad: x\n")
    assert run(["density", "--config", str(cfg)], tmp_path) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:3:" in err


def test_violated_check_exits_two_with_witness(tmp_path):
    code = run(["check", "--condition", "growth",
                "--weights", "w=constant:1;mu=constant:1"], tmp_path)
    assert code == 2
    rep = load_report(tmp_path, "check")
    assert rep["exit_code"] == 2
    verdict = rep["results"]["verdict"]
    assert verdict["status"] == "violated_with_witness"
    assert verdict["witness"]["value"] == 0.0


def test_satisfied_check_exits_zero(tmp_path):
    code = run(["check", "--condition", "growth",
                "--weights", "w=constant:2;mu=constant:2"], tmp_path)
    assert code == 0
    rep = load_report(tmp_path, "check")
    assert rep["results"]["verdict"]["status"] == "satisfied_on_grid"
    assert rep["results"]["verdict"]["margin"] > 0


def test_rational_check_far_past_the_prefix_table(tmp_path):
    # clock indices reach (64 + 4)^4 - 4^4, about 2.1e7: Stirling's series
    # answers them without tabulating the rule that far
    code = run(["check", "--condition", "growth", "--weights",
                "w=ratio:1,1|0,1;mu=ratio:1,1|0,1", "--q", "4", "--n-max", "64",
                "--r-max", "4"], tmp_path)
    assert code in (0, 2)
    verdict = load_report(tmp_path, "check")["results"]["verdict"]
    # w_1 ... w_M = M + 1, smallest at r = i = j = 0, where M = 64^4
    assert verdict["status"] == "satisfied_on_grid"
    assert verdict["margin"] == pytest.approx(2 * math.log(64 ** 4 + 1) - math.log(1e6),
                                              rel=1e-12)


def test_rational_q2_construction_reads_far_products_without_mpmath(tmp_path, monkeypatch):
    # at q = 2 every long product of (t + 1) / t past the table edge comes
    # from Stirling's series in numpy: with mpmath's log-gamma raising, the
    # run still reports, each class visited
    import mpmath

    def gone(*args, **kwargs):
        raise AssertionError("a far product of a rule of linear factors took mpmath")

    monkeypatch.setattr(mpmath, "loggamma", gone)
    assert run(["construct-fhc", "--weights", "w=ratio:1,1|0,1", "--targets", "0",
                "--q", "2", "--horizon", "1000"], tmp_path) == 0
    rep = load_report(tmp_path, "construct_fhc")
    assert all(cls["contained"] for cls in rep["results"]["classes"])


def test_declared_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "c.yml"
    cfg.write_text("experiment: orbit\n")
    assert run(["density", "--config", str(cfg)], tmp_path) == 1
    assert "declares experiment" in capsys.readouterr().err


# -- manifests --------------------------------------------------------------

def test_flags_override_manifest_values(tmp_path):
    cfg = tmp_path / "c.yml"
    cfg.write_text("seed: 3\ndensity:\n  set: evens\n  q: 1\n  n_max: 300\n")
    assert run(["density", "--config", str(cfg), "--n-max", "150"], tmp_path) == 0
    rep = load_report(tmp_path, "density")
    assert rep["parameters"]["n_max"] == 150
    assert rep["parameters"]["set"] == "evens"
    assert rep["seed"] == 3
    assert rep["results"]["final"]["ratio"] == pytest.approx(0.5)


def test_manifest_output_section_sets_format(tmp_path):
    cfg = tmp_path / "c.yml"
    cfg.write_text("density:\n  set: squares\n  q: 2\n  n_max: 50\n"
                   "output:\n  format: csv\n")
    assert run(["density", "--config", str(cfg)], tmp_path) == 0
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert lines[0] == "N,count,ratio"
    assert lines[-1] == "50,50,1.0"


# -- experiments ------------------------------------------------------------

def test_density_squares_profile_is_flat_one(tmp_path):
    assert run(["density", "--set", "squares", "--q", "2",
                "--n-max", "100"], tmp_path) == 0
    rep = load_report(tmp_path, "density")
    assert rep["results"]["liminf_proxy"] == 1.0
    assert rep["results"]["final"] == {"N": 100, "count": 100, "ratio": 1.0}


def test_orbit_csv_rows_and_norm_growth(tmp_path):
    assert run(["orbit", "--weights", "w=constant:2", "--op", "backward",
                "--start", "5", "--horizon", "5", "--format", "csv"],
               tmp_path) == 0
    lines = (tmp_path / "orbit.csv").read_text().splitlines()
    assert lines[0] == "time,norm,support"
    assert len(lines) == 6
    # (B_2)^5 e_5 = 2^5 e_0
    assert lines[-1] == "5,32.0,1"
    rep = load_report(tmp_path, "orbit")
    assert rep["results"]["final_norm"] == 32.0


def test_orbit_stride_exponent_subsamples(tmp_path):
    assert run(["orbit", "--weights", "w=constant:2", "--start", "9",
                "--horizon", "9", "--stride-exponent", "2"], tmp_path) == 0
    rep = load_report(tmp_path, "orbit")
    assert rep["results"]["points"] == 3          # times 1, 4, 9
    assert rep["results"]["final_norm"] == 2.0 ** 9


def test_construct_fhc_verifies_and_reports_densities(tmp_path):
    code = run(["construct-fhc", "--weights", "w=constant:2", "--q", "1",
                "--targets", "0|0,1", "--horizon", "4000",
                "--format", "csv"], tmp_path)
    assert code == 0
    rep = load_report(tmp_path, "construct_fhc")
    assert rep["results"]["separation"]["ok"] is True
    for cls in rep["results"]["classes"]:
        assert cls["contained"] is True
        assert cls["density_ratio"] > 0.0
    header, *rows = (tmp_path / "visit_times.csv").read_text().splitlines()
    assert header == "class,time"
    assert all(int(r.split(",")[0]) in (1, 2) for r in rows)


def test_construct_fhc_checks_its_separated_family_once(tmp_path, monkeypatch):
    # the builder checks the plan and the report reuses that check
    plans = []
    verify = fhc.verify_separated_family
    def spy(fam, *args, **kwargs):
        plans.append(fam)
        return verify(fam, *args, **kwargs)

    # wherever the name is bound: the builder's module and the runner's
    monkeypatch.setattr(fhc, "verify_separated_family", spy)
    monkeypatch.setattr(cli, "verify_separated_family", spy, raising=False)
    assert run(["construct-fhc", "--weights", "w=constant:2", "--q", "1",
                "--targets", "0|0,1", "--horizon", "4000"], tmp_path) == 0
    assert len(plans) == 1
    rep = load_report(tmp_path, "construct_fhc")
    assert rep["results"]["separation"] == json.loads(json.dumps(to_jsonable(verify(plans[0]))))
    assert plans[0].separation == verify(plans[0])


def test_schatten_norms_match_direct_computation(tmp_path):
    assert run(["schatten", "--weights", "w=constant:2", "--op", "backward",
                "--window", "0:7", "--p", "1,2", "--format", "csv"],
               tmp_path) == 0
    rep = load_report(tmp_path, "schatten")
    op = ShiftOp.backward(WeightSeq.constant(2))
    mat = MatOp(shift_matrix(op, 0, 7))
    for key, val in rep["results"]["schatten_norms"].items():
        assert val == pytest.approx(schatten_norm(mat, float(key)), rel=1e-12)
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,singular_value"


def test_schatten_window_keeps_values_far_below_the_largest(tmp_path):
    # the window's columns hold one weight each, 1e200, 1, 1e-120 and 1: a
    # value 2^537 below the largest is not lost to its square underflowing
    assert run(["schatten", "--weights", "w=table:1|1e200,1e-120|1", "--window", "0:3"],
               tmp_path) == 0
    rep = load_report(tmp_path, "schatten")
    assert rep["results"]["singular_values"] == [1e200, 1.0, 1e-120, 0.0]


def test_hardy_eigen_report_passes(tmp_path):
    assert run(["hardy", "--check", "eigen", "--phi", "0,1", "--z", "0.6",
                "--dim", "64"], tmp_path) == 0
    rep = load_report(tmp_path, "hardy")
    assert rep["results"]["passed"] is True
    assert rep["results"]["report"]["eigenvalue"]["re"] == pytest.approx(0.6)


def test_hardy_locus_csv(tmp_path):
    assert run(["hardy", "--check", "locus", "--phi", "0,2", "--psi", "1",
                "--grid-density", "8", "--format", "csv"], tmp_path) == 0
    rep = load_report(tmp_path, "hardy")
    assert rep["results"]["count"] > 0
    lines = (tmp_path / "locus.csv").read_text().splitlines()
    assert lines[0] == "z_re,z_im,w_re,w_im,modulus"
    assert len(lines) == rep["results"]["count"] + 1


def test_hardy_density_needs_nonempty_locus(tmp_path, capsys):
    code = run(["hardy", "--check", "density", "--phi", "0,1", "--psi", "0,1",
                "--dim", "16"], tmp_path)
    assert code == 1
    assert "misses the scan grid" in capsys.readouterr().err


def test_hardy_converse_certificate(tmp_path):
    assert run(["hardy", "--check", "converse", "--phi", "0.5",
                "--psi", "1"], tmp_path) == 0
    rep = load_report(tmp_path, "hardy")
    cert = rep["results"]["certificate"]
    assert cert["kind"] == "not_hypercyclic_contraction"
    assert cert["orbit_monotone"] is True


# -- determinism ------------------------------------------------------------

def test_reports_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["construct-fhc", "--weights", "w=constant:2", "--q", "1",
            "--targets", "0|0,1", "--horizon", "2000", "--seed", "11"]
    assert run(args, a) == 0
    assert run(args, b) == 0
    ra = (a / "construct_fhc_report.json").read_bytes()
    rb = (b / "construct_fhc_report.json").read_bytes()
    assert ra == rb


def test_report_skeleton_has_no_timestamp(tmp_path):
    assert run(["density", "--set", "evens", "--n-max", "40"], tmp_path) == 0
    rep = load_report(tmp_path, "density")
    assert set(rep) == {"experiment", "version", "seed", "config_sha256",
                        "parameters", "results", "exit_code"}
    assert len(rep["config_sha256"]) == 64
