"""Experiment runner tying the library together behind one console command.

Subcommands: density, orbit, construct-fhc, check, hardy, schatten.  Each
experiment declares its parameters once, as (key, type, default, help) rows
of `_EXPERIMENTS`; the rows generate the flags (`--n-max` for `n_max`) and
name the keys of the experiment's manifest section.  A flag overrides the
manifest value, which overrides the default, and both pass through the same
converter.  Unknown keys and empty, non-scalar or unconvertible values are
errors.  Each run writes a canonical JSON report plus optional CSV
artifacts; reports embed the manifest hash and every finitization parameter
(horizons, grids, tolerances), never a timestamp, so a fixed seed
reproduces identical bytes.

Exit codes: 0 on success, 2 when a checker or verification reports a
violation (an unconverged Jacobi spectrum included), 1 with one `error:`
line for usage or runtime errors (malformed manifests carry a line:column
anchor when the parser provides one).

Small grammars used by the flags, also accepted in manifests (where a colon
value such as 2:30 needs no quotes: base-60 numbers are not read):

  complex     "re" or "re:im"                    e.g. "2" or "1:-0.5"
  weights     "name=kind:args[@N|@Z];..."        kinds and args:
                constant:VALUE
                ratio:n0,n1,..|d0,d1,..          ascending-power coefficients
                table:START|v1,v2,..|[DEFAULT]
                step:SPLIT|LOW|HIGH              (domain defaults to Z)
  vector      "idx[=VALUE],..."                  e.g. "0" or "0,1" or "3=1:1"
  vectors     vector "|" vector "|" ...
  symbol      comma list of complex coefficients, ascending powers
  range       "lo:hi" (inclusive)
  set         "squares" | "evens" | "multiples:K" | "file:PATH"
  beta        "hardy" | "inv_linear" | "table:PATH" (one value per line)
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkers import (DEFAULT_RANGES, CheckGrid, check_bilateral_growth_decay,
                       check_diagonal_forward_summability,
                       check_schatten_summability, check_unilateral_growth)
from .density import NatSet, density_to_csv, natset_from_lines, q_lower_density
from .fhc import (BackwardOrbitFamily, CriterionFailure, EpsSchedule,
                  assemble_vector, build_separated_family, find_tail_threshold,
                  verify_q_frequent_visits)
from .hardy import (AnalyticSymbol, BetaSpace, adjoint_kernel_eigencheck,
                    conjugation_eigencheck, converse_certificate,
                    nuclear_eigencheck, span_density_residual,
                    unimodular_locus_sample)
from .matops import _MAX_DIM, MatOp, shift_matrix, singular_values, spectrum_to_csv
from .seqspace import (Domain, SeqVector, ShiftOp, WeightOverflowError,
                       WeightSeq, lp_norm, orbit_norms, p_sum)
from .terms import EXACT_INT64, index_array

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class ConfigError(Exception):
    """Manifest or flag problem; rendered to stderr and mapped to exit 1."""


def finite(text: str) -> float:
    """float() that refuses nan and inf: the converter of float parameters."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


# -- small grammars ---------------------------------------------------------

def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"bad {what} {tok!r}") from None


def _read_file(path, parse):
    """parse(text of the file); read and parse errors become ConfigError."""
    try:
        return parse(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def parse_complex(tok: str) -> complex:
    parts = str(tok).strip().split(":")
    try:
        if len(parts) == 1:
            return complex(finite(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(finite(parts[0]), finite(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"bad complex literal {tok!r} (expected finite re or re:im)")


def _parse_domain_suffix(rule: str) -> tuple[str, Domain | None]:
    if rule.endswith("@N"):
        return rule[:-2], Domain.NATURALS
    if rule.endswith("@Z"):
        return rule[:-2], Domain.INTEGERS
    return rule, None


def parse_weight_rule(rule: str) -> WeightSeq:
    rule, domain = _parse_domain_suffix(rule.strip())
    kind, _, args = rule.partition(":")
    if not args:
        raise ConfigError(f"weight rule {rule!r} is missing arguments")
    if kind == "constant":
        return WeightSeq.constant(parse_complex(args),
                                  domain or Domain.NATURALS)
    if kind == "ratio":
        try:
            num_s, den_s = args.split("|")
            num = [finite(c) for c in num_s.split(",")]
            den = [finite(c) for c in den_s.split(",")]
        except ValueError:
            raise ConfigError(f"bad ratio arguments {args!r} "
                              "(expected finite n0,n1,..|d0,d1,..)") from None
        return WeightSeq.ratio(num, den, domain or Domain.NATURALS)
    if kind == "table":
        parts = args.split("|")
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad table arguments {args!r} "
                              "(expected START|v1,v2,..|[DEFAULT])")
        start = _parse_int(parts[0], "table start")
        values = [parse_complex(v) for v in parts[1].split(",")]
        default = None
        if len(parts) == 3 and parts[2].strip():
            default = parse_complex(parts[2])
        return WeightSeq.table(values, start, default, domain or Domain.NATURALS)
    if kind == "step":
        parts = args.split("|")
        if len(parts) != 3:
            raise ConfigError(f"bad step arguments {args!r} "
                              "(expected SPLIT|LOW|HIGH)")
        split = _parse_int(parts[0], "step split")
        return WeightSeq.step(parse_complex(parts[1]), parse_complex(parts[2]),
                              split, domain or Domain.INTEGERS)
    raise ConfigError(f"unknown weight kind {kind!r}")


def parse_weight_spec(text: str) -> dict:
    out = {}
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, rule = chunk.partition("=")
        if not eq:
            raise ConfigError(f"weight entry {chunk!r} is missing '='")
        out[name.strip()] = parse_weight_rule(rule)
    if not out:
        raise ConfigError("no weight rules given")
    return out


def parse_vector(text: str, domain: Domain = Domain.NATURALS,
                 p: float = 2.0) -> SeqVector:
    entries = {}
    for term in str(text).split(","):
        term = term.strip()
        if not term:
            continue
        idx_s, eq, val_s = term.partition("=")
        entries[_parse_int(idx_s, "vector index")] = parse_complex(val_s) if eq else 1.0 + 0.0j
    if not entries:
        raise ConfigError(f"empty vector literal {text!r}")
    return SeqVector(entries, domain, p)


def parse_vectors(text: str, domain: Domain = Domain.NATURALS,
                  p: float = 2.0) -> list:
    return [parse_vector(part, domain, p) for part in str(text).split("|")]


def parse_symbol(text: str) -> AnalyticSymbol:
    coeffs = [parse_complex(tok) for tok in str(text).split(",") if tok.strip()]
    if not coeffs:
        raise ConfigError(f"empty symbol literal {text!r}")
    return AnalyticSymbol.from_coeffs(coeffs)


def parse_range(text: str) -> range:
    """lo:hi (or one index) as a range: its length is known before any
    index is materialized."""
    lo_s, sep, hi_s = str(text).partition(":")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise ConfigError(f"bad range {text!r} (expected lo:hi)") from None
    if hi < lo:
        raise ConfigError(f"empty range {text!r}")
    if hi - lo >= sys.maxsize:      # len() of the range would overflow
        raise ConfigError(f"range {text!r} holds more than {sys.maxsize} indices")
    return range(lo, hi + 1)


# largest generated set build_natset materializes
_MAX_SET_ELEMS = 10 ** 7


def build_natset(spec: str, horizon: int, what: str = "horizon") -> NatSet:
    """The set up to horizon; a generated set of more than _MAX_SET_ELEMS
    elements is refused, with `what` naming the horizon in the error."""
    spec = str(spec).strip()
    if spec.startswith("file:"):
        return _read_file(spec.split(":", 1)[1], natset_from_lines)
    if spec == "squares":
        roots = range(1, math.isqrt(horizon) + 1)
    elif spec == "evens":
        roots = range(2, horizon + 1, 2)
    elif spec.startswith("multiples:"):
        k = _parse_int(spec.split(":", 1)[1], "multiples stride")
        if k < 1:
            raise ConfigError("multiples stride must be >= 1")
        roots = range(k, horizon + 1, k)
    else:
        raise ConfigError(f"unknown set spec {spec!r}")
    # len() of a range raises OverflowError past sys.maxsize
    count = max(0, (roots.stop - roots.start + roots.step - 1) // roots.step)
    if count > _MAX_SET_ELEMS:
        raise ConfigError(f"set {spec!r} up to {what} = {horizon} would hold {count} "
                          f"elements, more than {_MAX_SET_ELEMS}")
    # np.arange(start, stop, step) takes its length from a float quotient
    elems = (roots.start + roots.step * np.arange(count) if roots.stop < EXACT_INT64
             else index_array(roots))
    return NatSet(elems ** 2 if spec == "squares" else elems, horizon)


def build_beta_space(spec: str, dim: int) -> BetaSpace:
    spec = str(spec).strip()
    if spec == "hardy":
        return BetaSpace.hardy(dim)
    if spec == "inv_linear":
        return BetaSpace.inv_linear(dim)
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        values = _read_file(path, lambda text: [finite(ln) for ln in text.split()])
        if len(values) < dim + 1:
            raise ConfigError(f"{path}: table holds {len(values)} values, "
                              f"need {dim + 1}")
        return BetaSpace(WeightSeq.table(values, start=0), dim)
    raise ConfigError(f"unknown basis-weight spec {spec!r}")


_SHIFT_BUILDERS = {
    "backward": ShiftOp.backward,
    "forward": ShiftOp.forward,
    "bilateral-backward": ShiftOp.bilateral_backward,
    "bilateral-forward": ShiftOp.bilateral_forward,
    "diagonal": ShiftOp.diagonal,
}


def build_shift(kind: str, w: WeightSeq) -> ShiftOp:
    try:
        builder = _SHIFT_BUILDERS[str(kind)]
    except KeyError:
        raise ConfigError(f"unknown operator kind {kind!r} (choose from "
                          f"{', '.join(sorted(_SHIFT_BUILDERS))})") from None
    try:
        return builder(w)
    except ValueError as e:
        raise ConfigError(str(e)) from None


# -- manifests and reports --------------------------------------------------

def load_config(path: str) -> tuple[dict, str]:
    import yaml     # imported here: only a run with --config reads YAML

    class ManifestLoader(yaml.SafeLoader):
        """SafeLoader without YAML 1.1's base-60 numbers: `2:30` and `-4:4`
        reach the range and complex grammars as strings, not as 150 and -244."""

    # YAML 1.1 writes no int or float with a colon but in base 60
    ManifestLoader.yaml_implicit_resolvers = {
        first: [(tag, re.compile("(?!.*:)" + rx.pattern, rx.flags)
                 if tag.endswith((":int", ":float")) else rx) for tag, rx in resolvers]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
    }
    text = _read_file(path, str)
    try:
        data = yaml.load(text, Loader=ManifestLoader)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        if mark is not None:
            problem = getattr(e, "problem", "invalid syntax")
            raise ConfigError(
                f"{path}:{mark.line + 1}:{mark.column + 1}: {problem}") from None
        raise ConfigError(f"{path}: {e}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data, hashlib.sha256(text.encode()).hexdigest()


def to_jsonable(obj):
    """Canonical JSON shadow: dataclasses to dicts, complex to re/im pairs,
    enums to values, non-finite floats to strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if not f.name.startswith("_")}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    return repr(obj)


def canonical_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


# -- experiment handlers ----------------------------------------------------
# each gets every key of its rows, resolved, and builds `parameters` from them

def _named_shift(p: dict, who: str) -> ShiftOp:
    weights = parse_weight_spec(p["weights"])
    if "w" not in weights:
        raise ConfigError(f"{who} needs a weight rule named 'w'")
    return build_shift(p["op"], weights["w"])


def _run_density(p: dict, outdir: Path, fmt: str, seed: int):
    q, n_max = p["q"], p["n_max"]
    if q <= 0 or n_max < 1:
        raise ConfigError("density needs q > 0 and n_max >= 1")
    try:
        horizon = max(1, math.ceil(n_max ** q))
    except OverflowError:
        raise ConfigError(f"n_max^q overflows for n_max = {n_max}, q = {q}") from None
    A = build_natset(p["set"], horizon, f"n_max^q (n_max = {n_max}, q = {q})")
    est = q_lower_density(A, q, n_max, p["tail_start"])
    params = {**p, "tail_start": est.tail_start, "set_horizon": A.horizon}
    last_n, last_count, last_ratio = est.profile[-1]
    results = {"liminf_proxy": est.liminf_proxy, "element_count": len(A.elems),
               "final": {"N": last_n, "count": last_count, "ratio": last_ratio}}
    if fmt == "csv":
        with open(outdir / "density.csv", "w") as fh:
            density_to_csv(est, fh)
    return EXIT_OK, params, results


# a stride-1 orbit keeps one row per step: 10^6 steps of one entry take
# 0.8 s and 180 MB as one in-process run (2-core x86-64); the steps alone
# are cheaper, 10^7 of them at stride 2 (3162 rows) take 0.5 s
_MAX_ORBIT_STEPS = 10 ** 6


def _run_orbit(p: dict, outdir: Path, fmt: str, seed: int):
    if p["horizon"] > _MAX_ORBIT_STEPS:
        raise ConfigError(f"horizon {p['horizon']} is larger than {_MAX_ORBIT_STEPS}, "
                          "the most steps an orbit may take")
    op = _named_shift(p, "orbit")
    start = parse_vector(p["start"], op.domain, p["p"])
    rows = orbit_norms(op, start, p["horizon"], p["stride_exponent"])
    results = {"points": len(rows),
               "final_norm": rows[-1][1],
               "max_norm": max(r[1] for r in rows),
               "final_support": rows[-1][2]}
    if fmt == "csv":
        with open(outdir / "orbit.csv", "w") as fh:
            fh.write("time,norm,support\n")
            for time, nv, sup in rows:
                fh.write(f"{time},{nv!r},{sup}\n")
    return EXIT_OK, dict(p), results


# the ClassVisitReport fields a construct-fhc report lists per class
_CLASS_FIELDS = ("k", "radius", "designed_count", "designed_within", "contained",
                 "max_designed_distance", "designed_density", "visit_density",
                 "density_ratio", "proof_bound", "cross_check_dev")


def _run_construct_fhc(p: dict, outdir: Path, fmt: str, seed: int):
    # the visit set of every class is a NatSet up to the horizon
    if p["horizon"] > _MAX_SET_ELEMS:
        raise ConfigError(f"horizon {p['horizon']} is larger than {_MAX_SET_ELEMS}, "
                          "the most times a visit set may hold")
    if p["op"] not in ("backward", "bilateral-backward"):
        raise ConfigError("construction runs on backward-type operators")
    op = _named_shift(p, "construction")
    q = p["q"]
    targets = parse_vectors(p["targets"], op.domain)
    sched = EpsSchedule(p["eps_scale"], p["eps_base"])
    family = BackwardOrbitFamily(op, tuple(targets))
    K = family.num_classes
    n_ks = [find_tail_threshold(family, op, k, q, sched, seed=seed)
            for k in range(1, K + 1)]
    J = build_separated_family(n_ks, K, p["horizon"])
    sep = J.separation
    x = assemble_vector(family, J, q)
    radii = [sched.bound(k, K) for k in range(1, K + 1)]
    reports = verify_q_frequent_visits(op, x, family, J, q, radii, eps=sched)
    ok = sep.ok and all(r.contained and r.density_ratio > 0.0 for r in reports)
    params = {"weights": p["weights"], "op": p["op"], "q": q, "targets": p["targets"],
              "horizon": p["horizon"], "eps": sched.describe(), "seed": seed}
    results = {
        "thresholds": n_ks,
        "separation": to_jsonable(sep),
        "vector_support": len(x),
        "classes": [{f: getattr(r, f) for f in _CLASS_FIELDS} for r in reports],
    }
    if fmt == "csv":
        with open(outdir / "visit_times.csv", "w") as fh:
            fh.write("class,time\n")
            for r in reports:
                for t in r.visit_times.elems.tolist():
                    fh.write(f"{r.k},{t}\n")
    return (EXIT_OK if ok else EXIT_VIOLATION), params, results


def _build_check_grid(p: dict, bilateral: bool) -> CheckGrid:
    default = DEFAULT_RANGES[bilateral]
    return CheckGrid(
        default if p["i_range"] is None else parse_range(p["i_range"]),
        default if p["j_range"] is None else parse_range(p["j_range"]),
        r_max=p["r_max"], n_max=p["n_max"], q=p["q"],
        growth_threshold=p["growth_threshold"], tail_tolerance=p["tail_tolerance"],
    )


def _run_check(p: dict, outdir: Path, fmt: str, seed: int):
    condition = p["condition"]
    weights = parse_weight_spec(p["weights"])
    norm_p = 2.0 if p["p"] is None else p["p"]
    try:
        if condition == "growth":
            grid = _build_check_grid(p, bilateral=False)
            verdict = check_unilateral_growth(weights["w"], weights["mu"], grid)
        elif condition == "bilateral":
            grid = _build_check_grid(p, bilateral=True)
            verdict = check_bilateral_growth_decay(weights["w"], weights["mu"], grid)
        elif condition == "schatten":
            w = weights["w"]
            grid = _build_check_grid(p, bilateral=w.domain is Domain.INTEGERS)
            verdict = check_schatten_summability(w, weights["mu"], norm_p, grid)
        elif condition == "diagonal":
            grid = _build_check_grid(p, bilateral=False)
            verdict = check_diagonal_forward_summability(
                weights["lam"], weights["mu"], norm_p, grid)
        else:
            raise ConfigError(f"unknown condition {condition!r} (choose from "
                              "growth, bilateral, schatten, diagonal)")
    except KeyError as e:
        raise ConfigError(f"condition {condition!r} needs a weight rule "
                          f"named {e.args[0]!r}") from None
    params = {"condition": condition, "weights": p["weights"], "grid": to_jsonable(grid)}
    if p["p"] is not None or condition in ("schatten", "diagonal"):
        params["p"] = norm_p
    results = {"verdict": verdict.as_json_dict()}
    return (EXIT_OK if verdict.satisfied else EXIT_VIOLATION), params, results


# the locus scan visits g^4 grid cells and keeps about g^3 / 2 points, 40
# bytes each: on a 2-core x86-64 host a density check at g = 64 takes about
# 0.7 s and 48 MB as a process, at g = 128 about 2.9 s and 143 MB
_MAX_GRID_DENSITY = 64
# eigen and nuclear hold a few complex vectors of dim + 1 entries and apply
# each symbol's band one diagonal at a time: on a 2-core x86-64 host a
# conjugation check at both caps (dim 2^20 - 1, two symbols of degree 15) takes
# 3.1 s and 255 MB as a process, at dim 2^20 with degree 1 0.7 s and 130 MB
_MAX_EIGEN_DIM = 2 ** 20
_MAX_EIGEN_BAND = 2 ** 24


def _run_hardy(p: dict, outdir: Path, fmt: str, seed: int):
    check, dim = p["check"], p["dim"]
    if check in ("locus", "density") and p["grid_density"] > _MAX_GRID_DENSITY:
        raise ConfigError(f"grid density {p['grid_density']} is larger than "
                          f"{_MAX_GRID_DENSITY}, the densest scan grid")
    # it builds (dim + 1)^2 dense matrices, past MatOp's window cap
    if check == "density" and dim + 1 > _MAX_DIM:
        raise ConfigError(f"dim {dim} needs {dim + 1} x {dim + 1} matrices, past the "
                          f"{_MAX_DIM} desk-scale cap")
    phi, psi = parse_symbol(p["phi"]), parse_symbol(p["psi"])
    params = {key: p[key] for key in ("check", "phi", "psi", "dim", "beta")}
    code = EXIT_OK
    if check in ("eigen", "nuclear"):
        if dim > _MAX_EIGEN_DIM:
            raise ConfigError(f"dim {dim} is larger than {_MAX_EIGEN_DIM}, the eigencheck cap")
        degree = max(phi.degree, psi.degree if check == "nuclear" or p["w"] is not None else 0)
        if (dim + 1) * (degree + 1) > _MAX_EIGEN_BAND:
            raise ConfigError(f"dim {dim} and symbol degree {degree} need a band of "
                              f"{(dim + 1) * (degree + 1)} entries, more than {_MAX_EIGEN_BAND}")
    if check == "eigen":
        space = build_beta_space(p["beta"], dim)
        z = parse_complex(p["z"])
        if p["w"] is not None:
            w = parse_complex(p["w"])
            rep = conjugation_eigencheck(phi, psi, space, z, w)
            params["z"], params["w"] = to_jsonable(z), to_jsonable(w)
        else:
            rep = adjoint_kernel_eigencheck(phi, space, z)
            params["z"] = to_jsonable(z)
        results = {"report": to_jsonable(rep), "passed": rep.passed}
        code = EXIT_OK if rep.passed else EXIT_VIOLATION
    elif check == "locus":
        if p["max_points"] < 0:
            raise ConfigError("max_points must be >= 0")
        exclude = tuple(parse_complex(t) for t in p["exclude"].split(",") if t.strip())
        pts = unimodular_locus_sample(phi, psi, p["grid_density"], p["tol"], exclude)
        params.update({"grid_density": p["grid_density"], "tol": p["tol"],
                       "exclude": to_jsonable(exclude)})
        results = {"count": len(pts), "points": to_jsonable(
            [dict(zip(pts.dtype.names, row)) for row in pts[:p["max_points"]].tolist()])}
        if fmt == "csv":
            with open(outdir / "locus.csv", "w") as fh:
                fh.write("z_re,z_im,w_re,w_im,modulus\n")
                cols = (pts["z"].real, pts["z"].imag, pts["w"].real, pts["w"].imag,
                        pts["modulus"])
                for row in zip(*(c.tolist() for c in cols)):
                    fh.write(",".join(map(repr, row)) + "\n")
    elif check == "density":
        space = build_beta_space(p["beta"], dim)
        samples = p["samples"]
        if samples < 1:
            raise ConfigError("samples must be >= 1")
        pts = unimodular_locus_sample(phi, psi, p["grid_density"], p["tol"])
        if not len(pts):
            raise ConfigError("the unimodular level set misses the scan grid; "
                              "no samples to span with")
        chosen = pts[_spread_samples(pts, samples)]
        rep = span_density_residual(chosen["z"], chosen["w"],
                                    _parse_target_matrix(p["target"], dim), space)
        params.update({"grid_density": p["grid_density"], "tol": p["tol"],
                       "samples": len(chosen), "target": p["target"]})
        results = {"report": to_jsonable(rep)}
    elif check == "converse":
        cert = converse_certificate(phi, psi, seed=seed)
        results = {"certificate": to_jsonable(cert)}
    elif check == "nuclear":
        lam, mu = parse_complex(p["lam"]), parse_complex(p["mu"])
        rep = nuclear_eigencheck(phi, psi, lam, mu, p["p"], dim=dim)
        params.update({"lam": to_jsonable(lam), "mu": to_jsonable(mu), "p": p["p"]})
        results = {"report": to_jsonable(rep), "passed": rep.passed}
        code = EXIT_OK if rep.passed else EXIT_VIOLATION
    else:
        raise ConfigError(f"unknown hardy check {check!r} (choose from "
                          "eigen, locus, density, converse, nuclear)")
    return code, params, results


def _spread_samples(pts: np.ndarray, samples: int) -> np.ndarray:
    """Indices of up to `samples` locus points spread evenly over them in
    the order of (z.re, z.im, w.re, w.im), each rounded to 12 decimals, ties
    kept in scan order."""
    keys = (pts["w"].imag, pts["w"].real, pts["z"].imag, pts["z"].real)
    order = np.lexsort([np.round(k, 12) for k in keys])
    return order[::max(1, len(pts) // samples)][:samples]


def _parse_target_matrix(spec: str, dim: int) -> MatOp:
    """Rank-one basis target "i,j" meaning e_i (x) e_j* on the truncation."""
    try:
        i_s, j_s = str(spec).split(",")
        i, j = int(i_s), int(j_s)
    except ValueError:
        raise ConfigError(f"bad target spec {spec!r} (expected i,j)") from None
    if not (0 <= i <= dim and 0 <= j <= dim):
        raise ConfigError(f"target indices {spec!r} escape the truncation")
    data = np.zeros((dim + 1, dim + 1), dtype=complex)
    data[i, j] = 1.0
    return MatOp(data)


def _run_schatten(p: dict, outdir: Path, fmt: str, seed: int):
    op = _named_shift(p, "schatten")
    window = parse_range(p["window"])
    if len(window) > _MAX_DIM:
        raise ConfigError(f"window {p['window']!r} holds {len(window)} indices, "
                          f"more than the {_MAX_DIM} desk-scale cap")
    lo, hi = window[0], window[-1]
    ps = [float(t) for t in p["p"].split(",") if t.strip()]
    if not ps:
        raise ConfigError(f"p {p['p']!r} lists no Schatten exponent")
    mat = MatOp(shift_matrix(op, lo, hi), basis_offset=lo)
    spec = singular_values(mat)
    norms = {repr(pv): p_sum(spec.values, pv) for pv in ps}
    results = {"singular_values": [float(v) for v in spec.values],
               "sweeps": spec.sweeps, "converged": spec.converged,
               "schatten_norms": norms}
    if fmt == "csv":
        with open(outdir / "spectrum.csv", "w") as fh:
            spectrum_to_csv(spec, fh)
    # an unconverged spectrum is not a result the norms can rest on
    return (EXIT_OK if spec.converged else EXIT_VIOLATION), dict(p), results


# -- parameter tables -------------------------------------------------------
#
# (handler, summary, rows); a row is (key, type, default, help).  A None
# default leaves the value to the handler, which can then tell "not given".

_WEIGHTS_HELP = "weight rules name=kind:args;... (the shift uses the rule named w)"
_OP_HELP = "operator kind: backward, forward, bilateral-backward, bilateral-forward, diagonal"

_EXPERIMENTS = {
    "density": (_run_density, "power-clock lower-density profile", (
        ("set", str, "squares", "set spec: squares, evens, multiples:K or file:PATH"),
        ("q", finite, 1.0, "clock exponent: count n <= N^q"),
        ("n_max", int, 1000, "last N of the counting profile"),
        ("tail_start", int, None, "first N of the liminf tail (default n_max // 2)"),
    )),
    "orbit": (_run_orbit, "orbit norms of a weighted shift", (
        ("weights", str, "w=constant:2", _WEIGHTS_HELP),
        ("op", str, "backward", _OP_HELP),
        ("start", str, "0", "start vector idx[=VALUE],..."),
        ("horizon", int, 64, "last time: the number of steps taken"),
        ("stride_exponent", int, 1, "record the times n^s <= horizon, n = 1, 2, ..."),
        ("p", finite, 2.0, "exponent of the l^p norm"),
    )),
    "construct_fhc": (_run_construct_fhc, "build and verify a frequent-orbit vector", (
        ("weights", str, "w=constant:2", _WEIGHTS_HELP),
        ("op", str, "backward", "operator kind: backward or bilateral-backward"),
        ("q", int, 1, "clock exponent of the visit times"),
        ("targets", str, "0|0,1", "target vectors separated by |, one class each"),
        ("horizon", int, 10_000, "last time of the verified scan"),
        ("eps_scale", finite, 1.0, "eps_k = eps_scale * eps_base^k"),
        ("eps_base", finite, 0.5, "eps_k = eps_scale * eps_base^k"),
    )),
    "check": (_run_check, "finitized weight-condition checkers", (
        ("condition", str, "growth", "growth, bilateral, schatten or diagonal"),
        ("weights", str, "w=constant:2;mu=constant:2", "rules w and mu (diagonal: lam, mu)"),
        ("p", finite, None, "summability exponent (default 2; recorded when used or given)"),
        ("i_range", str, None, "grid range lo:hi of i (default 0:4, -4:4 on Z)"),
        ("j_range", str, None, "grid range lo:hi of j (default 0:4, -4:4 on Z)"),
        ("r_max", int, CheckGrid.r_max, "largest offset r"),
        ("n_max", int, CheckGrid.n_max, "length of the scanned tails"),
        ("q", int, CheckGrid.q, "clock exponent"),
        ("growth_threshold", finite, CheckGrid.growth_threshold, "log-size growth must reach"),
        ("tail_tolerance", finite, CheckGrid.tail_tolerance, "bound on the tail sums"),
    )),
    "hardy": (_run_hardy, "kernel-space eigenchecks and surveys", (
        ("check", str, "eigen", "eigen, locus, density, converse or nuclear"),
        ("beta", str, "hardy", "basis weights: hardy, inv_linear or table:PATH"),
        ("phi", str, "0,1", "left symbol, ascending coefficients"),
        ("psi", str, "1", "right symbol, ascending coefficients"),
        ("dim", int, 64, "truncation dimension"),
        ("z", str, "0.5", "kernel point (eigen)"),
        ("w", str, None, "second kernel point; given, eigen checks the conjugation"),
        ("lam", str, "0.5", "left geometric ratio (nuclear)"),
        ("mu", str, "0.5", "right geometric ratio (nuclear)"),
        ("p", finite, 1.0, "Schatten exponent (nuclear)"),
        ("grid_density", int, 16, "scan points per axis (locus, density)"),
        ("tol", finite, 1e-3, "tolerance on |phi psi| = 1 (locus, density)"),
        ("samples", int, 64, "locus points spanned (density)"),
        ("target", str, "0,0", "rank-one target e_i (x) e_j* as i,j (density)"),
        ("exclude", str, "", "comma list of points left out of the scan (locus)"),
        ("max_points", int, 128, "locus points listed in the report (locus)"),
    )),
    "schatten": (_run_schatten, "singular spectrum of a shift window", (
        ("weights", str, "w=constant:2", _WEIGHTS_HELP),
        ("op", str, "backward", _OP_HELP),
        ("window", str, "0:15", "basis window lo:hi"),
        ("p", str, "1,2", "comma list of Schatten exponents"),
    )),
}

# the output section's rows; --out and --format are its flags
_OUTPUT = (("dir", str, "."), ("format", str, "json"))
_TOP_KEYS = ("experiment", "seed", "output", *_EXPERIMENTS)


# -- argument plumbing ------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse insists on exit code 2 for usage problems; this runner
        # reserves 2 for checker violations, so reroute through ConfigError
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperlab",
                     description="numerical experiments for orbit frequency, "
                                 "weight conditions, and kernel eigenchecks")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    for name, (_, summary, rows) in _EXPERIMENTS.items():
        sub = subs.add_parser(name.replace("_", "-"), help=summary)
        for key, conv, default, text in rows:
            if default is not None:
                text = f"{text} (default: {default!r})"
            sub.add_argument("--" + key.replace("_", "-"), dest=key, type=conv,
                             help=text)
        sub.add_argument("--config", help="YAML manifest; flags override its values")
        sub.add_argument("--out", help="output directory (default .)")
        sub.add_argument("--seed", type=int, help="64-bit seed for sampled steps")
        sub.add_argument("--format", choices=("json", "csv"),
                         help="also write CSV artifacts next to the JSON report")
    return parser


def _convert(where: str, conv, value):
    """A manifest value through the converter its flag uses."""
    if value is None:
        raise ConfigError(f"{where}: empty value")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{where}: expected a scalar, got {value!r}")
    try:
        return conv(str(value))
    except ValueError:
        raise ConfigError(f"{where}: invalid {conv.__name__} value {value!r}") from None


def _resolve(where: str, rows, section, flags: dict) -> dict:
    """Every row's key: its flag, else its manifest value, else its default.
    Every manifest value is converted, overridden or not."""
    if not isinstance(section, dict):
        raise ConfigError(f"manifest section {where!r} must be a mapping")
    keys = [row[0] for row in rows]
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in manifest section {where!r} "
                              f"(accepted: {', '.join(keys)})")
    out = {}
    for key, conv, default, *_ in rows:
        value = default if key not in section else _convert(f"{where}.{key}", conv,
                                                            section[key])
        out[key] = value if flags.get(key) is None else flags[key]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.experiment is None:
            raise ConfigError("an experiment subcommand is required "
                              f"(one of: {', '.join(s.replace('_', '-') for s in _EXPERIMENTS)})")
        experiment = args.experiment.replace("-", "_")

        config, cfg_hash = load_config(args.config) if args.config else ({}, None)
        for key in config:
            if key not in _TOP_KEYS:
                raise ConfigError(f"unknown manifest key {key!r} "
                                  f"(accepted: {', '.join(_TOP_KEYS)})")
        declared = config.get("experiment")
        if declared is not None and str(declared).replace("-", "_") != experiment:
            raise ConfigError(f"manifest declares experiment {declared!r} but "
                              f"the {experiment.replace('_', '-')!r} subcommand was invoked")
        handler, _, rows = _EXPERIMENTS[experiment]
        params = _resolve(experiment, rows, config.get(experiment, {}), vars(args))
        output = _resolve("output", _OUTPUT, config.get("output", {}),
                          {"dir": args.out, "format": args.format})
        if output["format"] not in ("json", "csv"):
            raise ConfigError(f"unknown output format {output['format']!r}")
        seed = _convert("seed", int, config["seed"]) if "seed" in config else 0
        seed = seed if args.seed is None else args.seed
        if not 0 <= seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

        outdir = Path(output["dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        code, run_params, results = handler(params, outdir, output["format"], seed)
        report = {
            "experiment": experiment,
            "version": __version__,
            "seed": seed,
            "config_sha256": cfg_hash or hashlib.sha256(
                canonical_json(run_params).encode()).hexdigest(),
            "parameters": run_params,
            "results": results,
            "exit_code": code,
        }
        path = outdir / f"{experiment}_report.json"
        path.write_text(canonical_json(report))
        print(path)
        return code
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CriterionFailure as e:
        print(f"error: construction failed: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, WeightOverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
