"""Every weight-rule constructor against the literal per-index rule it
replaced: one string kind per rule, each with its own params layout.

`literal_rule` and `literal_weight` are that form, written out.  Weights,
windows and moduli must equal it bit for bit (compared by repr, so -0.0 and
0.0 differ), or raise its message at the first failing index.  The
products, inverse products and prefix reads of each rule are pinned by a
SHA-256 recorded from the literal form's engine.
"""

import hashlib
import math
import random
import re

import numpy as np
import pytest

from hyperlab.seqspace import Domain, WeightPrefix, WeightSeq
from scalar_products import ScalarPrefix, agree, split_log_abs_many

N, Z = Domain.NATURALS, Domain.INTEGERS

# name: (constructor, positional arguments, domain)
SPECS = {
    "constant-N": ("constant", (2.0,), N),
    "constant-Z-complex": ("constant", (0.5 - 0.25j,), Z),
    "constant-zero": ("constant", (0.0,), N),
    "step-Z-complex": ("step", (0.5, 2.0 + 1.0j, -3), Z),
    "step-N": ("step", (1.5, 0.75, 4), N),
    "step-zero-low": ("step", (0.0, 2.0, 0), Z),
    "table-N-default": ("table", ((1.0, 2.0 - 1.0j, 0.25j, -3.0), 2, 1.5), N),
    "table-Z-default": ("table", ((1.0, 2.0 - 1.0j, 0.25j, -3.0), -3, 0.5 + 0.5j), Z),
    "table-N-nodefault": ("table", ((2.0, 1.0 + 1.0j, 0.5, 3.0), 1), N),
    "table-Z-nodefault": ("table", ((2.0, 1.0 + 1.0j, 0.5, 3.0), -2), Z),
    "table-N-zero": ("table", ((1.5, 0.0, 2.0), 0, 1.25), N),
    "table-Z-zero": ("table", ((1.5, 2.0, 0.0, -0.5j), -1, 0.8), Z),
    "ratio-N": ("ratio", ([1.0, 1.0], [0.0, 1.0]), N),
    "ratio-Z-complex-roots": ("ratio", ([3.0, 0.0, 1.0], [1.0, 0.0, 1.0]), Z),
    "ratio-Z-zero": ("ratio", ([-2.0, 1.0], [1.0]), Z),
}

# engine_digest of each rule, recorded from the literal form's engine; the
# rational ones from the engine whose tables stop at an edge, every outcome
# agreeing with the log-gamma oracle of scalar_products.  ratio-Z-complex-roots
# was re-recorded when table chunks began at fixed entries: product(3, 300)
# moved from 2.0463848911914146 to 2.046384891191414, inverse_product(3, 300)
# from 0.48866662586518383 to 0.48866662586518395, and L(-300) from
# -2.844284252820045 to -2.8442842528200454 (exact: 2.04638489119141331,
# 0.48866662586518418, -2.84428425282004474)
ENGINE_DIGESTS = {
    "constant-N": "661b2ac351f20f1c7611b7f4e1db28397b9445aac91f0db3118dd1941fe5466c",
    "constant-Z-complex": "49d040b5ab03a94bf17df7f6b8395019163fbc30bb0270fedce9748354d09bf0",
    "constant-zero": "1b0f0e80982a6dc065b7f788f56cd0a20df2739f043c76793d43b99e9fc7bb28",
    "step-Z-complex": "eb81eceee16f06cf5b3c0fbcd95fc8e4dac3322c9ed1111d929bc28af373a6a9",
    "step-N": "ab83f820472a40120e82dd34a811ba95691d78226b5a6931ebf774522ee35e9d",
    "step-zero-low": "71053d42a200bcc07d3c11fa5923ebc886dcf6704a623a82d939ed883357a985",
    "table-N-default": "f20f4b7032609af89b16f0801eb875aa63140248e965f0fdb4b2e19b4d4ccbd7",
    "table-Z-default": "f5e7ce12fe139548c7f4efd3d49adf9cbe616141e5828261ea985904a90f80ab",
    "table-N-nodefault": "aa8d8bf1e1beca252fb80abcc1af90c4eadc5406db1e0ee1699fd7e046c2ca79",
    "table-Z-nodefault": "a495c4651284d02d460f535152f3ba71adab56b941a8736dcabba63f7753f400",
    "table-N-zero": "bcf3d2ca54dc1d165a528bc50b93017c5fd1d289a2ed51aad425e2de246f91f0",
    "table-Z-zero": "027e8f26fd8e7d5b26a353d95c3a9fc7826f86bc45b201df9a49c94b2fccc7d1",
    "ratio-N": "15567149fe6a45f7655fd91cf5e4c30340d94eb55cb48cef0df8887472614093",
    "ratio-Z-complex-roots": "b513fa8dec859c072cf14a176854507cc92e31ab635ea48a3e10bea3c767b9fc",
    "ratio-Z-zero": "03badbb7d8135f306ebb749e37e6a9f4a0f809d7e560bdae3c42cd590e646cdc",
}

RANGES = [(1, 5), (-3, 40), (0, 0), (5, 4), (1, 600), (-400, 300), (-2000, -1500),
          (10 ** 6, 10 ** 6 + 200), (3, 300), (-300, 0)]
PREFIX_POINTS = [[3], [0, 1, 2, 50, 900], [-700, -5, 0, 3, 50, 900], [10 ** 6 + 7, 12],
                 [-300, -40, -1, 0]]
WINDOWS = [(-12, 12), (-3, -1), (0, 0), (2, 5), (3, 9), (6, 30), (5, 4), (-30, -20)]


def literal_rule(ctor, args):
    """(kind, params) as the four literal constructors built them."""
    if ctor == "constant":
        return "constant", (complex(args[0]),)
    if ctor == "ratio":
        return "rational_ratio", tuple(tuple(float(c) for c in cs) for cs in args)
    if ctor == "table":
        values, start, default = (*args, None)[:3]
        return "table", (int(start), tuple(complex(v) for v in values),
                         None if default is None else complex(default))
    low, high, split = args
    return "step", (int(split), complex(low), complex(high))


def literal_poly(coeffs, n):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def literal_weight(kind, params, domain, n):
    if domain is Domain.NATURALS and n < 0:
        raise ValueError(f"weight index {n} out of the naturals domain")
    if kind == "constant":
        w = params[0]
    elif kind == "rational_ratio":
        num, den = params
        d = literal_poly(den, n)
        if d == 0.0:
            raise ValueError(f"rational weight rule has zero denominator at n={n}")
        w = complex(literal_poly(num, n) / d)
    elif kind == "table":
        start, values, default = params
        if start <= n < start + len(values):
            w = values[n - start]
        elif default is not None:
            w = default
        else:
            raise ValueError(f"weight index {n} outside the table range")
    else:
        split, low, high = params
        w = high if n >= split else low
    if w == 0:
        raise ValueError(f"zero weight encountered at index {n}")
    return w


def outcome(f, *args):
    """repr of f(*args), or the type and message of what it raised."""
    try:
        v = f(*args)
    except (ValueError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"
    return repr(v.tolist() if isinstance(v, np.ndarray) else v)


def engine_digest(w):
    """SHA-256 of the products, inverse products and prefix reads of `w`."""
    pre = w.prefix
    out = []
    for s, e in RANGES:
        out.append(outcome(pre.product, s, e))
        out.append(outcome(pre.inverse_product, s, e))
    for m in PREFIX_POINTS:
        out.append(outcome(pre.log_abs_many, m))
    return hashlib.sha256("\n".join(out).encode()).hexdigest()


def rules(name):
    """(the rule, a per-index reader of its literal form)."""
    ctor, args, domain = SPECS[name]
    kind, params = literal_rule(ctor, args)
    return (getattr(WeightSeq, ctor)(*args, domain=domain),
            lambda n: literal_weight(kind, params, domain, n))


@pytest.mark.parametrize("name", SPECS)
def test_weight_matches_the_literal_rule(name):
    w, literal = rules(name)
    for n in range(-40, 41):
        assert outcome(w.weight, n) == outcome(literal, n)


@pytest.mark.parametrize("name", SPECS)
def test_window_matches_the_literal_rule(name):
    w, literal = rules(name)
    for lo, hi in WINDOWS:
        want = [outcome(literal, n) for n in range(lo, hi + 1)]
        # `at` reads 0 exactly where the literal rule raises
        got = w.at(np.arange(lo, hi + 1))
        assert [repr(v) if v else "raises" for v in got.tolist()] == [
            "raises" if o.startswith("ValueError") else o for o in want]
        errors = [o for o in want if o.startswith("ValueError")]
        if errors:
            assert outcome(w.window, lo, hi) == errors[0]
            continue
        vals = w.window(lo, hi)
        assert repr(vals.tolist()) == "[" + ", ".join(want) + "]"
        moduli = np.hypot(vals.real, vals.imag)
        assert moduli.tolist() == [abs(literal(n)) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("name", SPECS)
def test_products_and_prefixes_match_the_literal_engine(name):
    w, _ = rules(name)
    assert engine_digest(w) == ENGINE_DIGESTS[name]


def test_reach_is_the_range_of_defined_weights():
    assert WeightSeq.constant(2.0).reach == (-np.inf, np.inf)
    assert WeightSeq.ratio([1.0], [1.0]).reach == (-np.inf, np.inf)
    assert WeightSeq.table((1.0, 2.0), start=-3, default=0.5).reach == (-np.inf, np.inf)
    assert WeightSeq.table((1.0, 2.0, 3.0), start=-3, domain=Z).reach == (-3, -1)


@pytest.mark.parametrize("start", [10 ** 20, -10 ** 20, 7])
def test_at_keeps_its_levels_apart_and_reads_far_tables(start):
    # the levels array is built on first use and is no field, so equality
    # and hashing ignore it; a table offset past int64 reads as the literal
    w = WeightSeq.table((1.0, 2.0 - 1.0j), start=start, default=0.5, domain=Z)
    n = np.array([-2 ** 61, -3, 0, 5, 8, 9, 2 ** 61], np.int64)
    got = w.at(n)
    assert "_levels" in vars(w) and w._levels is vars(w)["_levels"]
    assert repr(w.at(n).tolist()) == repr(got.tolist()) == repr([w.weight(int(i)) for i in n])
    fresh = WeightSeq.table((1.0, 2.0 - 1.0j), start=start, default=0.5, domain=Z)
    assert w == fresh and hash(w) == hash(fresh) and "_levels" not in vars(fresh)


def _weight_or_0(w, n):
    try:
        return w.weight(n)
    except ValueError:
        return 0j


FAR = [-10 ** 20, -2 ** 62 - 9, -2 ** 62 - 3, -2 ** 62 + 2, 2 ** 62 - 5, 2 ** 62, 10 ** 20]


@pytest.mark.parametrize("split", FAR)
def test_at_reads_far_rules_at_the_ends_of_its_reach(split):
    # low and high differ, so a table offset that wrapped round in int64
    # would read the other level; a table near an end of the reach is read
    # entry by entry
    n = np.array([-2 ** 62 + 1, -2 ** 62 + 2, -2 ** 62 + 4, -3, 0,
                  2 ** 62 - 4, 2 ** 62 - 2, 2 ** 62 - 1], np.int64)
    for w in (WeightSeq.step(0.5, 2.0, split=split),
              WeightSeq.table((1.0, 2.0, 3.0j, 4.0, 5.0, 6.0, 7.0), start=split, domain=Z)):
        assert repr(w.at(n).tolist()) == repr([_weight_or_0(w, int(i)) for i in n])


# rational rules with unusable weights on both sides of 0 (n^2 - 4 on Z) and
# a pole inside the table (1 / (n - 50) on N)
EXTRA_RULES = {
    "ratio-Z-two-zeros": WeightSeq.ratio([-4.0, 0.0, 1.0], [1.0], Z),
    "ratio-N-pole": WeightSeq.ratio([1.0], [-50.0, 1.0], N),
}


@pytest.mark.parametrize("name", [*SPECS, *EXTRA_RULES])
def test_products_equal_the_scalar_chain_on_seeded_ranges(name):
    # one array read of many ranges, near and far, short and long, against
    # one scalar product each: values repr-equal, errors the same type and
    # message, whatever the reads before
    w = EXTRA_RULES[name] if name in EXTRA_RULES else rules(name)[0]
    rng = random.Random(name)
    ranges = []
    for centre in (0, 0, 0, 2 ** 19, -2 ** 19, 10 ** 6, 2 ** 53):
        for _ in range(12):
            s = centre + rng.randint(-700, 700)
            ranges.append((s, s + rng.choice([0, 1, 5, 127, 128, 300])))
    rng.shuffle(ranges)
    scalar = ScalarPrefix(w)
    for chunk in (ranges[:30], ranges[30:], ranges):
        start, stop = (np.array(col, np.int64) for col in zip(*chunk))
        for sign, want_of in ((1, scalar.product), (-1, scalar.inverse_product)):
            vals, errors = w.prefix.products(start, stop, sign)
            got = [f"{type(errors[i]).__name__}: {errors[i]}" if i in errors else repr(v)
                   for i, v in enumerate(vals.tolist())]
            want = [outcome(want_of, s, e) for s, e in chunk]
            assert all(agree(g, o, w) for g, o in zip(got, want)), (got, want)


@pytest.mark.parametrize("name", [*SPECS, *EXTRA_RULES])
def test_prefix_reads_equal_the_scalar_chain_at_the_edges_of_their_reach(name):
    # a prefix read L(m) over [min(m, 0) + 1, max(m, 0)] raises the first
    # unusable weight's error, or none: at the naturals' lower end (L(-1)
    # reads w_0, L(-2) also w_{-1}), at table ends, zeros and missing levels
    w = EXTRA_RULES[name] if name in EXTRA_RULES else rules(name)[0]
    scalar = ScalarPrefix(w)
    for m in ([-2], [-1], [0], [-1, 3], list(range(1, 8)), [-6, 6], [-4], [40], [-40, -1]):
        assert agree(outcome(w.prefix.log_abs_many, m), outcome(scalar.log_abs_many, m), w), m


# closed rules beyond SPECS' for the signed prefix form: negative weights, a
# modulus of 1 (exact zero log-sums), and table offsets past the 2^62 clamp
SIGNED_RULES = {
    "constant-Z-negative": WeightSeq.constant(-3.0, Z),
    "constant-Z-one": WeightSeq.constant(1.0, Z),
    "step-Z-negative": WeightSeq.step(-0.25, -1.5 + 2.0j, 7, Z),
    "table-Z-far-above": WeightSeq.table((2.0, -0.5), 2 ** 70, 1.25, Z),
    "table-Z-far-below": WeightSeq.table((2.0, 0.0, -0.5j), -2 ** 70, 0.75 - 1.0j, Z),
    "table-N-far-nodefault": WeightSeq.table((2.0, 3.0), 2 ** 63),
}
CLOSED = [name for name, spec in SPECS.items() if spec[0] != "ratio"] + [*SIGNED_RULES]


def closed_rule(name):
    return SIGNED_RULES[name] if name in SIGNED_RULES else rules(name)[0]


def signed_reads(rng):
    """Seeded prefix reads: 1-element and 2-D shapes, spans of either sign
    near 0 and wide, and the ends of the 2^53 range."""
    reads = [np.array([0]), np.array([-1]), np.array([2 ** 53]), np.array([-2 ** 53]),
             np.array([[-2 ** 53, 2 ** 53], [0, 5]]), rng.integers(-600, 600, (9, 512))]
    for lo, hi in ((-8, 8), (0, 40), (-40, 0), (-10 ** 6, 10 ** 6),
                   (2 ** 53 - 10 ** 4, 2 ** 53), (-2 ** 53, 10 ** 4 - 2 ** 53)):
        reads += [rng.integers(lo, hi, size, endpoint=True) for size in (1, 7, 5000)]
    return reads


@pytest.mark.parametrize("name", CLOSED)
def test_signed_prefix_reads_equal_the_split_they_replaced(name):
    # L(m) - L(0) in one closed form for every sign of m, against the split
    # it replaced (the log-sum over [1, m], or the one over [m + 1, 0]
    # negated): equal bit for bit, or the same error at the same first
    # unusable index.  The split negated an exact 0 at m < 0 into -0.0, where
    # the signed form reads +0.0; `want + 0.0` maps -0.0 to +0.0 and keeps
    # every other value
    w = closed_rule(name)
    for m in signed_reads(np.random.default_rng(sum(map(ord, name)))):
        try:
            want = split_log_abs_many(w, m)
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                w.prefix.log_abs_many(m)
            continue
        got = w.prefix.log_abs_many(m)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), (want + 0.0).view(np.int64)), m


def test_an_exact_zero_prefix_reads_plus_zero_for_every_sign():
    # the one bit the signed form moves; the checkers add it to or subtract
    # it from other prefixes, and no report shows the sign of a 0 log-sum
    w, m = SIGNED_RULES["constant-Z-one"], np.array([-3, 0, 3])
    assert [math.copysign(1.0, v) for v in w.prefix.log_abs_many(m)] == [1.0] * 3
    assert [math.copysign(1.0, v) for v in split_log_abs_many(w, m)] == [-1.0, 1.0, 1.0]


def test_a_closed_prefix_read_makes_no_split_pass(monkeypatch):
    calls, sums, clip = [], WeightPrefix._sums, np.clip
    monkeypatch.setattr(WeightPrefix, "_sums", lambda *a: calls.append("_sums") or sums(*a))
    monkeypatch.setattr(np, "clip", lambda *a, **k: calls.append("clip") or clip(*a, **k))
    for name in CLOSED:
        outcome(WeightPrefix(closed_rule(name)).log_abs_many, np.arange(-40, 40))
    assert calls == []
    # a rational rule still reads the split, through both spies
    WeightPrefix(WeightSeq.ratio([1.0, 1.0], [0.0, 1.0])).log_abs_many(np.arange(1, 40))
    assert calls.count("_sums") == 1 and "clip" in calls
