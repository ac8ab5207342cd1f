"""The orbit experiment against the step-by-step loop it replaced.

`oracle_iterate_orbit` is the former `seqspace.iterate_orbit` and
`oracle_run_orbit` the former `cli._run_orbit`, copied verbatim: one `apply`
per step and one `lp_norm` per recorded point.  Each CLI case runs twice,
once as shipped (`seqspace.orbit_norms`) and once with the oracle as the
orbit handler; exit codes, stderr, the report and orbit.csv must be equal
byte for byte.  `orbit_norms` rows are also compared with the oracle's by
repr on seeded random weights.
"""

import math
import random
import time
from pathlib import Path

import pytest

from hyperlab import cli, seqspace
from hyperlab.cli import (_MAX_ORBIT_STEPS, EXIT_OK, ConfigError, _named_shift, main,
                          parse_vector)
from hyperlab.seqspace import (Domain, SeqVector, ShiftOp, WeightSeq, apply, lp_norm,
                               orbit_norms)


def oracle_iterate_orbit(op: ShiftOp, x0: SeqVector, horizon: int,
                         stride_exponent: int = 1):
    """Lazy orbit stream.

    With stride_exponent 1, yields T^n x0 for n = 1..horizon.  With a larger
    exponent q, iterates step by step but yields only the points T^(k^q) x0
    with k^q <= horizon (the sub-sampling the q-density machinery wants).
    """
    if horizon < 1 or stride_exponent < 1:
        raise ValueError("horizon and stride exponent must be >= 1")
    cur = x0
    k = 1
    for n in range(1, horizon + 1):
        cur = apply(op, cur)
        if stride_exponent == 1:
            yield cur
        elif n == k ** stride_exponent:
            yield cur
            k += 1


def oracle_run_orbit(p: dict, outdir: Path, fmt: str, seed: int):
    if p["horizon"] > _MAX_ORBIT_STEPS:
        raise ConfigError(f"horizon {p['horizon']} is larger than {_MAX_ORBIT_STEPS}, "
                          "the most steps an orbit may take")
    op = _named_shift(p, "orbit")
    norm_p = p["p"]
    start = parse_vector(p["start"], op.domain, norm_p)
    stride = p["stride_exponent"]
    rows = []
    for step, x in enumerate(oracle_iterate_orbit(op, start, p["horizon"], stride), start=1):
        time = step ** stride
        rows.append((time, lp_norm(x, norm_p), len(x)))
        if not math.isfinite(rows[-1][1]):
            raise ValueError(f"the orbit norm at step {time} is {rows[-1][1]}, not finite")
    results = {"points": len(rows),
               "final_norm": rows[-1][1] if rows else lp_norm(start, norm_p),
               "max_norm": max((r[1] for r in rows), default=0.0),
               "final_support": rows[-1][2] if rows else len(start)}
    if fmt == "csv":
        with open(outdir / "orbit.csv", "w") as fh:
            fh.write("time,norm,support\n")
            for time, nv, sup in rows:
                fh.write(f"{time},{nv!r},{sup}\n")
    return EXIT_OK, dict(p), results


def oracle_rows(op, x0, horizon, stride=1):
    return [(step ** stride, lp_norm(x), len(x)) for step, x in
            enumerate(oracle_iterate_orbit(op, x0, horizon, stride), start=1)]


def run_orbit(argv, outdir, capsys):
    """(exit code, stderr, report bytes, orbit.csv bytes) of one CLI run."""
    code = main(["orbit", *argv, "--format", "csv", "--out", str(outdir)])
    files = [outdir / "orbit_report.json", outdir / "orbit.csv"]
    return (code, capsys.readouterr().err,
            *(f.read_bytes() if f.exists() else None for f in files))


def assert_like_the_oracle(argv, tmp_path, monkeypatch, capsys):
    got = run_orbit(argv, tmp_path / "got", capsys)
    with monkeypatch.context() as m:
        m.setitem(cli._EXPERIMENTS, "orbit", (oracle_run_orbit, *cli._EXPERIMENTS["orbit"][1:]))
        want = run_orbit(argv, tmp_path / "want", capsys)
    assert got == want and "argument" not in got[1]
    return got


def vector(indices, shift=0):
    """Entries at `indices` with coefficients of several sizes and phases."""
    return ",".join(f"{n}={1 + (n - shift) % 7}:{(n - shift) % 3 - 1}" for n in indices)


ONE, THREE = "7=0.5:-2", "2,5=1:1,9=-3"
WIDE, WIDE_Z = vector(range(401)), vector(range(-200, 201), -200)
TABLE = "table:1|" + ",".join(["1.5", "0.5", "2", "0.75"] * 10)    # no default: w_41 raises
N_WEIGHTS = ["constant:2", "constant:0.5", TABLE, "ratio:1,1|0,1", "constant:0.5:0.5"]
Z_WEIGHTS = ["step:3|0.5|2@Z",
             "table:-30|" + ",".join(["1.5", "0.5:1", "2", "0.25"] * 15 + ["1"]) + "@Z"]
PS = ["1", "2", "3.5"]


def battery():
    """Every weight against every operator of its domain and every support
    size, with the stride and the norm exponent cycling through 1..3 and PS."""
    cases = [(w, op, start) for w in N_WEIGHTS for op in ("backward", "forward", "diagonal")
             for start in (ONE, THREE, WIDE)]
    cases += [(w, op, start) for w in Z_WEIGHTS
              for op in ("bilateral-backward", "bilateral-forward")
              for start in ("0=0.5:-2", "-3,0=1:1,4=-3", WIDE_Z)]
    return [pytest.param(["--weights", f"w={w}", "--op", op, f"--start={start}",
                          "--horizon", "45", "--stride-exponent", str(1 + i % 3),
                          "--p", PS[i // 3 % 3]],
                         id=f"{w[:20]}-{op}-{start.count(',') + 1}")
            for i, (w, op, start) in enumerate(cases)]


@pytest.mark.parametrize("argv", battery())
def test_the_battery_equals_the_step_loop(argv, tmp_path, monkeypatch, capsys):
    assert_like_the_oracle(argv, tmp_path, monkeypatch, capsys)


def case(weights, op, start, horizon, stride=1, p="2"):
    return ["--weights", f"w={weights}", "--op", op, f"--start={start}",
            "--horizon", str(horizon), "--stride-exponent", str(stride), "--p", p]


# orbits over several blocks, each end of a block's weight reads, and the
# ways an orbit stops or thins out
SPECIAL = {
    # one entry takes 8192 steps a block, three 2730, 401 entries 20
    "one-entry-blocks": case("constant:0.999", "forward", "1", 20000),
    "narrow-complex-blocks": case("constant:0.6:0.8", "forward", THREE, 6000, 1, "3.5"),
    "wide-complex-blocks": case("constant:0.6:0.8@Z", "bilateral-backward", WIDE_Z, 60, 2, "1"),
    "wide-ratio-blocks": case("ratio:1,1|0,1", "forward", WIDE, 60, 1, "3.5"),
    "wide-step-crossing": case("step:3|0.5|2@Z", "bilateral-backward", WIDE_Z, 60, 3),
    "far-table-above": case("table:100000000000000000000|1,2|3", "forward", THREE, 20),
    "far-table-below": case("table:-100000000000000000000|1,2|3@Z", "bilateral-forward",
                            THREE, 20),
    # a step split past int64 read at the far end of the reach of `at`
    "far-step-above": case("step:-100000000000000000000|0.5|2@N", "forward",
                           str(2 ** 62 - 3), 1),
    "far-step-below": case("step:100000000000000000000|0.5|2@Z", "bilateral-backward",
                           str(-2 ** 62 + 3), 1),
    "empties": case("constant:2", "backward", "0,2", 10),
    "empties-wide": case("constant:2", "backward", WIDE, 450, 2),
    "flush": case("constant:1e-20", "forward", THREE, 30),
    "flush-complex": case("constant:1e-20:1e-20", "diagonal", THREE, 30, 1, "1"),
    "flush-in-turn": case("constant:1e-20", "forward", "0=1e-290,1=1,2=1e100", 30, 1, "3.5"),
    "overflow-stride-1": case("constant:2", "forward", "0=2", 1100),
    "overflow-stride-2": case("constant:2", "forward", "0=2", 1100, 2),
    "overflow-stride-3": case("constant:2", "diagonal", "0=2", 1400, 3),
    "overflow-wide": case("constant:2", "forward", WIDE, 1100, 2),
    "inf-norm": case("constant:1", "diagonal", "0=1.5e308,1=1.5e308", 3),
    "nan-weight": case("constant:nan", "forward", ONE, 3),
    "inf-weight": case("constant:inf", "forward", "0=0:1", 3),
    "inf-start": case("constant:0.5", "backward", "0=1:inf,5", 3),
    "zero-in-table": case("table:1|2,0,3|1", "forward", "0", 5),
    "zero-denominator": case("ratio:1|-3,1", "forward", "0", 5),
    "table-end-after-the-last-time": case("table:1|2,0.5,3,4,5", "forward", "0", 6, 2),
    "norm-before-the-table-end": case("table:1|1e200,1e200,1e200", "forward", "0", 10),
    "table-end-in-a-later-block": case(
        "table:-250|" + ",".join(["0.9", "1.1"] * 250 + ["1"]) + "@Z",
        "bilateral-backward", WIDE_Z, 60, 3),
    "flushed-before-the-table-end": case("table:1|1e-20,1e-20,1e-20", "forward",
                                         "0=1e-290", 5),
    "horizon-0": case("constant:2", "backward", ONE, 0),
    "stride-0": case("constant:2", "backward", ONE, 5, 0),
    "large-stride": case("constant:2", "forward", ONE, 50, 10 ** 6),
    "empty-start": case("constant:2", "forward", "3=0", 4),
}


# what the special cases end in: an error line, or a report ("")
ENDS = {
    "overflow-stride-1": "error: the orbit norm at step 1023 is nan, not finite\n",
    "overflow-stride-2": "error: the orbit norm at step 1024 is nan, not finite\n",
    "overflow-stride-3": "error: the orbit norm at step 1331 is nan, not finite\n",
    "inf-norm": "error: the orbit norm at step 1 is inf, not finite\n",
    "norm-before-the-table-end": "error: the orbit norm at step 2 is nan, not finite\n",
    "table-end-after-the-last-time": "error: weight index 6 outside the table range\n",
    "table-end-in-a-later-block": "error: weight index -251 outside the table range\n",
    "zero-in-table": "error: zero weight encountered at index 2\n",
    **dict.fromkeys(("one-entry-blocks", "narrow-complex-blocks", "wide-complex-blocks",
                     "empties-wide", "flush-in-turn", "far-table-above", "far-step-above",
                     "far-step-below", "large-stride",
                     "flushed-before-the-table-end"), ""),
}


@pytest.mark.parametrize("name", SPECIAL)
def test_special_orbits_equal_the_step_loop(name, tmp_path, monkeypatch, capsys):
    err = assert_like_the_oracle(SPECIAL[name], tmp_path, monkeypatch, capsys)[1]
    assert err == ENDS.get(name, err)


def test_a_start_index_past_2_62_is_refused(tmp_path, capsys):
    # the step loop reported this orbit; indices past 2^62 do not fit the
    # int64 arrays the blocks read their weights with
    argv = case("constant:2", "backward", str(2 ** 70), 3)
    code, err, report, _ = run_orbit(argv, tmp_path, capsys)
    assert code == 1 and report is None
    assert err == f"error: orbit indices reach past 2^62 from the start index {2 ** 70}\n"
    code, err, _, _ = run_orbit(case("constant:2", "backward", str(2 ** 61), 3), tmp_path, capsys)
    assert code == 0 and err == ""


def test_a_huge_stride_takes_no_huge_power(tmp_path, capsys):
    # the step loop took 2^s at every step past the first
    start = time.perf_counter()
    code, _, report, csv = run_orbit(case("constant:0.5", "forward", "1", 10 ** 6, 10 ** 9),
                                     tmp_path, capsys)
    assert code == 0 and csv == b"time,norm,support\n1,0.5,1\n"
    assert time.perf_counter() - start < 5.0


RNG_CASES = [("forward", 3, 3000, 1), ("forward", 401, 60, 2), ("diagonal", 1, 9000, 1),
             ("bilateral-backward", 3, 3000, 2), ("bilateral-forward", 401, 45, 1)]


@pytest.mark.parametrize("complex_weights", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind, entries, horizon, stride", RNG_CASES)
def test_rows_equal_the_step_loop_on_random_weights(kind, entries, horizon, stride,
                                                    complex_weights):
    # random moduli near 1 keep the orbits finite and nonzero, so every row
    # compares the running products in their last bit
    rng = random.Random(f"{kind}-{entries}-{complex_weights}")

    def draw():
        r, t = rng.uniform(0.97, 1.03), rng.uniform(0, 2 * math.pi) if complex_weights else 0.0
        return complex(r * math.cos(t), r * math.sin(t))

    domain = Domain.INTEGERS if kind.startswith("bilateral") else Domain.NATURALS
    w = WeightSeq.table([draw() for _ in range(256)], start=-127 if domain is Domain.INTEGERS
                        else 1, default=draw(), domain=domain)
    op = cli.build_shift(kind, w)
    first = -(entries // 2) if domain is Domain.INTEGERS else 0
    x0 = SeqVector({first + i: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for i in range(entries)},
                   domain, rng.choice([1.0, 2.0, 3.5]))
    want = [tuple(map(repr, row)) for row in oracle_rows(op, x0, horizon, stride)]
    assert [tuple(map(repr, row)) for row in orbit_norms(op, x0, horizon, stride)] == want


def test_an_orbit_reads_no_scalar_weight_and_applies_no_step(tmp_path, monkeypatch, capsys):
    calls = []
    weight, step = WeightSeq.weight, seqspace.apply
    monkeypatch.setattr(WeightSeq, "weight", lambda self, n: calls.append(n) or weight(self, n))
    monkeypatch.setattr(seqspace, "apply", lambda *a: calls.append(a) or step(*a))
    for name in ("one-entry-blocks", "narrow-complex-blocks", "wide-complex-blocks",
                 "wide-ratio-blocks", "wide-step-crossing", "flush-in-turn", "empties-wide"):
        assert run_orbit(SPECIAL[name], tmp_path / name, capsys)[:2] == (0, "")
    assert calls == []
