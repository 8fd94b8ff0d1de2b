import importlib.util
import inspect
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberspec as fs
from fiberspec import fiber, verify
from fiberspec.calculus import _interval, _multiply, _rs_cuts
from fiberspec.cli import main
from fiberspec.config import section_by_name
from fiberspec.kernel import _on_grid

from conftest import (
    CONFIG_PATH,
    loop_random_node_partition,
    random_separable_kernel,
    scalar_integer,
    scalar_uniform,
)

PERFBENCH = os.path.join(os.path.dirname(CONFIG_PATH), "..", "perfbench")
BRIDGE_PATH = os.path.join(PERFBENCH, "bridge_sampled.json")


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    # same kernel on fewer parameter nodes; the s rule keeps 64 nodes, so
    # the eigenvalue_grid_stability comparison with the doubled rule sees
    # only rounding drift
    path = tmp_path_factory.mktemp("verify") / "small.json"
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["omega_grid"]["n"] = 16
    raw["s_quadrature"]["n"] = 64
    path.write_text(json.dumps(raw), encoding="utf-8")
    return fs.load_config(str(path))


def test_suite_passes_on_fixture(small_cfg):
    results = verify.run_suite(small_cfg)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    names = {r.name for r in results}
    for expected in (
        "quadrature_moments",
        "kernel_psd",
        "eigen_residual",
        "projector_idempotence",
        "projector_monotone",
        "rs_error_matches_prediction",
        "mercer_reconstruction",
    ):
        assert expected in names


@pytest.mark.parametrize("n", [40, 48, 100, 200])
def test_moment_check_accepts_gauss_legendre_and_catches_one_weight(n):
    squad = fs.build_s_quadrature("gauss_legendre", n)
    assert verify._moment_error(squad) <= 1e-13
    weights = squad.weights.copy()
    weights[n // 3] += 1e-10
    off = fs.SQuadrature("gauss_legendre", squad.nodes, weights)
    assert verify._moment_error(off) > 1e-13


@pytest.mark.parametrize("n", [1, 2, 24, 100])
def test_moment_basis_is_numpy_legvander(n):
    from numpy.polynomial.legendre import legvander

    x = 2.0 * fs.build_s_quadrature("gauss_legendre", n).nodes - 1.0
    want = legvander(x, 2 * n - 1).T
    assert verify._legendre_rows(x, 2 * n - 1).tobytes() == want.tobytes()


def test_verify_passes_at_48_nodes(tmp_path, capsys):
    # the monomial moments t^k, k < 96, exceeded 1e-13 on this exact rule
    rc = main(
        ["verify", "--config", CONFIG_PATH, "--omega-n", "8", "--quad-n", "48"]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "[PASS] quadrature_moments" in out


def test_suite_is_deterministic(small_cfg):
    a = verify.run_suite(small_cfg)
    b = verify.run_suite(small_cfg)
    assert [(r.name, r.value, r.passed) for r in a] == [
        (r.name, r.value, r.passed) for r in b
    ]


def test_zero_kernel_suite(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 8},
                "s_quadrature": {"rule": "gauss_legendre", "n": 16},
                "kernel": {
                    "type": "separable",
                    "terms": [{"curve": "0", "basis": "sqrt(2)*sin(pi*t)"}],
                },
            }
        ),
        encoding="utf-8",
    )
    cfg = fs.load_config(str(path))
    results = verify.run_suite(cfg)
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_non_psd_kernel_fails_verify(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 8},
                "s_quadrature": {"rule": "gauss_legendre", "n": 16},
                "kernel": {
                    "type": "separable",
                    "terms": [
                        {"curve": "0-1", "basis": "sqrt(2)*sin(pi*t)"}
                    ],
                },
            }
        ),
        encoding="utf-8",
    )
    rc = main(["verify", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 4
    assert "[FAIL] kernel_psd" in captured.out
    assert captured.err.startswith("verify failed: ")
    assert len(captured.err.splitlines()) == 1
    # the check's value is how far the lowest eigenvalue, -1, falls below 0
    (psd,) = [
        r for r in verify.run_suite(fs.load_config(str(path))) if r.name == "kernel_psd"
    ]
    assert psd.value == pytest.approx(1.0, abs=1e-10)
    assert psd.note == "worst=-1.000e+00"


def test_random_separable_kernels_are_valid():
    rng = np.random.default_rng(verify.SEED)
    ogrid = fs.build_omega_grid(8)
    squad = fs.build_s_quadrature("gauss_legendre", 16)
    for _ in range(5):
        k = random_separable_kernel(rng)
        assert 1 <= len(k.terms) <= 5
        assert k.asymmetry == 0.0
        d = fs.decompose_all_fibers(k, ogrid, squad)
        assert d.n_fibers == 8


def test_random_thresholds_span_spectrum(cfg, decomposition):
    fields = verify.random_thresholds(verify._SplitMix64(3), decomposition, 10)
    assert len(fields) == 10
    for lam in fields:
        assert lam.shape == (64,)
        assert np.all(np.isfinite(lam))


def test_stream_is_splitmix64():
    # the first words for seed 1234567 in the reference implementation of
    # SplitMix64 (Vigna's splitmix64.c)
    want = [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    assert verify._SplitMix64(1234567)._words(5).tolist() == want


@pytest.mark.parametrize(
    "sizes", [[8] * 6 + [2], [1, 7, 13, 3, 26], [50]], ids=["chunks", "odd", "whole"]
)
def test_stream_splits_give_one_whole_draw(sizes):
    ogrid = fs.build_omega_grid(16)
    squad = fs.build_s_quadrature("gauss_legendre", 24)
    whole = verify.random_sections(verify._SplitMix64(verify.SEED), ogrid, squad, 50)
    stream = verify._SplitMix64(verify.SEED)
    parts = [verify.random_sections(stream, ogrid, squad, n) for n in sizes]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    # the stream goes on where the whole draw stopped
    again = verify._SplitMix64(verify.SEED)
    again._words(50 * 16 * 24)
    assert stream._drawn == again._drawn
    assert stream._words(5).tolist() == again._words(5).tolist()


def test_stream_normal_moments():
    x = verify._normals(verify._SplitMix64(verify.SEED)._words(10**5))
    assert x.shape == (10**5,) and np.all(np.isfinite(x))
    assert abs(x.mean()) <= 0.02
    assert abs(x.var() - 1.0) <= 0.02


def test_stream_uniforms_and_integers_stay_in_range():
    u = verify._uniforms(verify._SplitMix64(3)._words(10**4), -2.0, 5.0)
    assert u.min() >= -2.0 and u.max() < 5.0
    # the largest words reach the top of the range without touching it
    top = np.array([2**64 - 1], dtype=np.uint64)
    assert verify._uniforms(top, -2.0, 5.0)[0] < 5.0
    ints = verify._integers(verify._SplitMix64(4)._words(3000), 1, 4)
    assert ints.dtype == np.int64 and set(ints.tolist()) == {1, 2, 3}
    # an array high of any shape, up to a span of 2**32 - 1
    highs = np.array([[1, 2, 3], [4, 5, 2**32 - 1]])
    for z in (verify._SplitMix64(7)._words(6), np.full(6, 2**64 - 1, np.uint64)):
        got = verify._integers(z.reshape(2, 3), 0, highs)
        assert got.dtype == np.int64 and got.shape == (2, 3)
        assert np.all(got >= 0) and np.all(got < highs)
    assert verify._integers(top, 0, 2**32 - 1)[0] == 2**32 - 2


def test_stream_scalar_draws_match_array_draws():
    # the loop oracles below convert one word at a time on Python ints; the
    # converters give the same numbers, one word each
    words = verify._SplitMix64(5)._words(200)
    got = [scalar_uniform(w, 0.25, 7.5) for w in words.tolist()]
    assert np.array(got).tobytes() == verify._uniforms(words, 0.25, 7.5).tobytes()
    highs = np.arange(1, 201) * 21_474_836
    got = [scalar_integer(w, -1, h) for w, h in zip(words.tolist(), highs.tolist())]
    assert verify._integers(words, -1, highs).tolist() == got


# random_thresholds as it was first written, one word and one piece at a
# time with overlapping piece masks: its oracle, which it must match to the
# last bit and leave the stream at the same position.  The oracle of
# _random_node_partition, one word per node, is in conftest.
def loop_random_thresholds(stream, d, count):
    def word():
        return int(stream._words(1)[0])

    lo, hi = _interval(d, 0.0)
    span = max(hi - lo, 1e-3)
    nodes = d.ogrid.nodes
    vals = np.zeros((count, nodes.size))
    for row in vals:
        pieces = scalar_integer(word(), 1, 4)
        inner = sorted(scalar_uniform(word(), 0.0, 1.0) for _ in range(pieces - 1))
        edges = [0.0, *inner, 1.0]
        for p in range(pieces):
            mask = (nodes >= edges[p]) & (nodes <= edges[p + 1])
            base = scalar_uniform(word(), lo - 0.3 * span, hi + 0.3 * span)
            amp = scalar_uniform(word(), 0.0, 0.6 * span)
            freq = scalar_integer(word(), 1, 4)
            phase = scalar_uniform(word(), 0.0, 2.0 * np.pi)
            row[mask] = base + amp * np.cos(freq * np.pi * nodes[mask] + phase)
    return vals


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(0, 25),
    kind=st.sampled_from(["trig_rank3", "zero_rank", "random"]),
)
def test_probes_match_loop_oracles(decomposition, seed, count, kind):
    if kind == "trig_rank3":
        d = decomposition
    else:
        ogrid = fs.build_omega_grid(1 + seed % 9)
        squad = fs.build_s_quadrature("gauss_legendre", 2 + seed % 15)
        if kind == "zero_rank":
            # no spectral range at all: the span is floored at 1e-3
            k = fs.SeparableKernel(((fs.parse("0"), fs.parse("sin(pi*t)")),))
        else:
            k = random_separable_kernel(np.random.default_rng(seed))
        d = fs.decompose_all_fibers(k, ogrid, squad)
    got, want = verify._SplitMix64(seed), verify._SplitMix64(seed)
    lams = verify.random_thresholds(got, d, count)
    assert lams.shape == (count, d.n_fibers)
    assert lams.tobytes() == loop_random_thresholds(want, d, count).tobytes()
    assert got._drawn == want._drawn
    labels = verify._random_node_partition(got, d).labels
    assert labels.tolist() == loop_random_node_partition(want, d)
    assert got._drawn == want._drawn


def test_threshold_node_on_an_edge_takes_the_later_piece():
    # a seed whose first threshold has three pieces, on a grid whose nodes
    # include both of its inner edges exactly
    seed = next(
        s for s in range(100)
        if scalar_integer(int(verify._SplitMix64(s)._words(1)[0]), 1, 4) == 3
    )
    words = verify._SplitMix64(seed)._words(3)[1:].tolist()
    edges = sorted(scalar_uniform(w, 0.0, 1.0) for w in words)
    nodes = np.array([0.0, edges[0], sum(edges) / 2, edges[1], 1.0])
    ogrid = fs.OmegaGrid(nodes, np.full(5, 0.2))
    squad = fs.build_s_quadrature("gauss_legendre", 4)
    k = fs.SeparableKernel(((fs.parse("1+omega"), fs.parse("sin(pi*t)")),))
    d = fs.decompose_all_fibers(k, ogrid, squad)
    got = verify.random_thresholds(verify._SplitMix64(seed), d, 1)
    want = loop_random_thresholds(verify._SplitMix64(seed), d, 1)
    assert got.tobytes() == want.tobytes()


def bound_of(row, units):
    """A BOUNDS row's bound: the sum of coefficient * unit over its terms."""
    _, *terms = row
    return sum(c * units[unit] for c, unit in terms)


# a sampled kernel on the trapezoid rule, where quadrature_moments takes
# the rule unit 10
TRAPEZOID = {
    "omega_grid": {"n": 6},
    "s_quadrature": {"rule": "trapezoid", "n": 17},
    "kernel": {
        "type": "sampled",
        "expression": "cos(pi*omega/2)^2*2*sin(pi*t)*sin(pi*s)+min(t,s)-t*s",
    },
    "sections": {"f": "omega*sin(pi*t)+sin(2*pi*t)"},
}


@pytest.mark.parametrize(
    "kind", ["trig_rank3", "trapezoid", "member_tol", "seven_nodes"]
)
def test_every_bound_comes_from_its_table_row(tmp_path, kind):
    if kind == "trapezoid":
        path = tmp_path / "trapezoid.json"
        path.write_text(json.dumps(TRAPEZOID), encoding="utf-8")
        cfg = fs.load_config(str(path))
    elif kind == "member_tol":
        cfg = fs.load_config(CONFIG_PATH, member_tol=1e-3)
    elif kind == "seven_nodes":
        cfg = fs.load_config(CONFIG_PATH, omega_n=8, quad_n=7)
    else:
        cfg = fs.load_config(CONFIG_PATH)
    results = verify.run_suite(cfg)
    # every row is reported, in table order; the grid check only runs on
    # Gauss-Legendre rules of 8 nodes or more
    refined = cfg.squad.rule == "gauss_legendre" and len(cfg.squad) >= 8
    want = [
        name
        for name in verify.BOUNDS
        if refined or name != "eigenvalue_grid_stability"
    ]
    assert [r.name for r in results] == want
    f0 = section_by_name(cfg, next(iter(cfg.sections)))
    units = {
        "1": 1.0,
        "|f0|": fs.l22_norm(f0),
        "member_tol": cfg.tolerances.member_tol,
        "rule": 1.0 if cfg.squad.rule == "gauss_legendre" else 10.0,
    }
    for r in results:
        row = verify.BOUNDS[r.name]
        assert r.relation == row[0], r.name
        assert r.bound == bound_of(row, units), r.name
        want_pass = r.value <= r.bound if r.relation == "<=" else r.value >= r.bound
        assert r.passed == want_pass, r.name
    by_name = {r.name: r for r in results}
    assert by_name["quadrature_moments"].bound == (
        1e-13 if cfg.squad.rule == "gauss_legendre" else 1e-12
    )
    assert by_name["mixing_membership"].bound == cfg.tolerances.member_tol
    assert by_name["membership_rejects_outside"].relation == ">="


# The projector axioms as they were first written, one threshold, section
# and step at a time: the oracle for the stacked projector_axiom_residuals.
def loop_axiom_residuals(
    k,
    d,
    lams,
    x,
    tie: float,
    epsilon: float,
) -> dict:
    """The projector axioms one threshold, section and step at a time."""
    res = {name: 0.0 for name in verify.BOUNDS if name.startswith("projector_")}

    def bump(name, value):
        res[name] = max(res[name], float(value))

    thresholds = [fs.ThresholdField(fs.ScalarField(d.ogrid, v), tie) for v in lams]
    sections = [fs.Section(d.ogrid, d.squad, v) for v in x]
    n_sections = len(sections)
    t_of = [fs.apply_quadrature(k, f) for f in sections]
    norms = [fs.l22_norm(f) for f in sections]
    self_ip = [fs.fiber_inner_product(f, f).values for f in sections]

    for lam in thresholds:
        projected = [fs.projector_apply(d, lam, f) for f in sections]
        for idx, f in enumerate(sections):
            ef = projected[idx]
            g = sections[(idx + 1) % n_sections]
            eg = projected[(idx + 1) % n_sections]
            bump(
                "projector_idempotence",
                fs.l22_norm(
                    fs.Section(
                        f.ogrid,
                        f.squad,
                        fs.projector_apply(d, lam, ef).values - ef.values,
                    )
                ),
            )
            bump(
                "projector_self_adjoint",
                np.max(
                    np.abs(
                        fs.fiber_inner_product(ef, g).values
                        - fs.fiber_inner_product(f, eg).values
                    )
                ),
            )
            bump("projector_contraction", fs.l22_norm(ef) - norms[idx])
            tf = t_of[idx]
            etf = fs.projector_apply(d, lam, tf)
            tef = fs.apply_quadrature(k, ef)
            bump(
                "projector_commutes_with_op",
                fs.l22_norm(fs.Section(f.ogrid, f.squad, etf.values - tef.values)),
            )
            ef_ip = fs.fiber_inner_product(ef, f).values
            etf_ip = fs.fiber_inner_product(etf, f).values
            tf_ip = fs.fiber_inner_product(tf, f).values
            lam_vals = lam.field.values
            bump(
                "projector_order_upper",
                max(0.0, float(np.max(etf_ip - lam_vals * ef_ip))),
            )
            bump(
                "projector_order_lower",
                max(
                    0.0,
                    float(
                        np.max(
                            lam_vals * (self_ip[idx] - ef_ip) - (tf_ip - etf_ip)
                        )
                    ),
                ),
            )

    # monotonicity over pointwise min/max pairs of consecutive thresholds
    for a, b in zip(thresholds, thresholds[1:]):
        lo = fs.ThresholdField(
            fs.ScalarField(d.ogrid, np.minimum(a.field.values, b.field.values)),
            tie,
        )
        hi = fs.ThresholdField(
            fs.ScalarField(d.ogrid, np.maximum(a.field.values, b.field.values)),
            tie,
        )
        for f in sections[:2]:
            e_lo = fs.projector_apply(d, lo, f)
            bump(
                "projector_monotone",
                fs.l22_norm(
                    fs.Section(
                        f.ogrid,
                        f.squad,
                        fs.projector_apply(d, hi, e_lo).values - e_lo.values,
                    )
                ),
            )
            e_hi = fs.projector_apply(d, hi, f)
            bump(
                "projector_monotone",
                fs.l22_norm(
                    fs.Section(
                        f.ogrid,
                        f.squad,
                        fs.projector_apply(d, lo, e_hi).values - e_lo.values,
                    )
                ),
            )

    # right-continuity surrogate: approaching the threshold from below
    # reaches the same quadratic form wherever the approach distance clears
    # the local spectral gap
    f = sections[0]
    for lam in thresholds:
        base_ip = fs.fiber_inner_product(f, fs.projector_apply(d, lam, f)).values
        steps = (1.0, 0.5, 0.2, 0.05)
        prev = None
        closest = None
        for h in steps:
            shifted = fs.ThresholdField(
                fs.ScalarField(d.ogrid, lam.field.values - h), tie
            )
            cur_ip = fs.fiber_inner_product(
                f, fs.projector_apply(d, shifted, f)
            ).values
            bump("projector_right_sup", max(0.0, float(np.max(cur_ip - base_ip))))
            if prev is not None:
                bump(
                    "projector_right_sup",
                    max(0.0, float(np.max(prev - cur_ip))),
                )
            prev = cur_ip
            closest = cur_ip
        # padded slots repeat 0, which is in every fiber spectrum anyway
        spec = np.append(d.eigenvalues, np.zeros((d.n_fibers, 1)), axis=1)
        mu = lam.field.values[:, None]
        window = (spec > mu - steps[-1] - 1e-9) & (spec <= mu + tie + 1e-15)
        valid = ~np.any(window, axis=1)
        if np.any(valid):
            bump(
                "projector_right_sup",
                float(np.max(np.abs(closest[valid] - base_ip[valid]))),
            )

    # boundary thresholds: strictly below every spectral value and above
    # all of them
    below = fs.ThresholdField(
        fs.ScalarField(d.ogrid, d.m.values - 1.0), tie
    )
    above = fs.ThresholdField(
        fs.ScalarField(d.ogrid, d.M.values + max(epsilon, 1e-9)), tie
    )
    for f in sections:
        bump(
            "projector_zero_below_bounds", fs.l22_norm(fs.projector_apply(d, below, f))
        )
        bump(
            "projector_identity_above_bounds",
            fs.l22_norm(
                fs.Section(
                    f.ogrid,
                    f.squad,
                    fs.projector_apply(d, above, f).values - f.values,
                )
            ),
        )

    # norm equality on an eigenfunction strictly below its threshold
    lam1, psi = verify._first_curve_data(d)
    psi = fs.Section(d.ogrid, d.squad, psi)
    lam_above = fs.ThresholdField(fs.ScalarField(d.ogrid, lam1 + 1.0), tie)
    bump(
        "projector_contraction_equality",
        abs(fs.l22_norm(fs.projector_apply(d, lam_above, psi)) - fs.l22_norm(psi)),
    )
    return res


def test_axiom_residuals_on_random_kernel(cfg):
    rng = np.random.default_rng(21)
    ogrid = fs.build_omega_grid(12)
    squad = fs.build_s_quadrature("gauss_legendre", 24)
    k = random_separable_kernel(rng)
    d = fs.decompose_all_fibers(k, ogrid, squad)
    stream = verify._SplitMix64(21)
    lams = verify.random_thresholds(stream, d, 6)
    x = verify.random_sections(stream, ogrid, squad, 2)
    apply_k = _on_grid(k, ogrid, squad)[1]
    res = verify.projector_axiom_residuals(apply_k, d, lams, x, 1e-12, 1e-6)
    # every projector row is a multiple of the unit 1
    for name, row in verify.BOUNDS.items():
        if name.startswith("projector_"):
            assert res[name] <= bound_of(row, {"1": 1.0}), (name, res[name])


def assert_axioms_match_loop(k, d, lams, x, tie=1e-12):
    apply_k = _on_grid(k, d.ogrid, d.squad)[1]
    got = verify.projector_axiom_residuals(apply_k, d, lams, x, tie, 1e-6)
    want = loop_axiom_residuals(k, d, lams, x, tie, 1e-6)
    assert list(got) == list(want)
    for name in want:
        assert abs(got[name] - want[name]) <= 1e-15, (name, got[name], want[name])


def test_stacked_axioms_match_loop_on_fixture(cfg, decomposition):
    # the probes of run_suite: 20 thresholds and 4 sections
    stream = verify._SplitMix64(verify.SEED)
    lams = verify.random_thresholds(stream, decomposition, 20)
    x = verify.random_sections(stream, cfg.ogrid, cfg.squad, 4)
    tie = cfg.tolerances.tie_tol
    assert_axioms_match_loop(cfg.kernel, decomposition, lams, x, tie)


@pytest.mark.parametrize("seed", range(6))
def test_stacked_axioms_match_loop_on_random_kernels(seed):
    rng = np.random.default_rng(seed)
    ogrid = fs.build_omega_grid(int(rng.integers(1, 10)))
    rule = ("gauss_legendre", "trapezoid")[seed % 2]
    squad = fs.build_s_quadrature(rule, int(rng.integers(2, 16)))
    k = random_separable_kernel(rng)
    d = fs.decompose_all_fibers(k, ogrid, squad)
    stream = verify._SplitMix64(seed)
    lams = verify.random_thresholds(stream, d, int(rng.integers(1, 6)))
    x = verify.random_sections(stream, ogrid, squad, int(rng.integers(1, 5)))
    assert_axioms_match_loop(k, d, lams, x)


def test_stacked_axioms_match_loop_on_zero_kernel(grids):
    # no retained eigenpair anywhere: r_max = 0 slots
    ogrid, squad = grids
    k = fs.SeparableKernel(((fs.parse("0"), fs.parse("sin(pi*t)")),))
    d = fs.decompose_all_fibers(k, ogrid, squad)
    assert d.eigenvalues.shape == (len(ogrid), 0)
    stream = verify._SplitMix64(5)
    lams = verify.random_thresholds(stream, d, 4)
    x = verify.random_sections(stream, ogrid, squad, 3)
    assert_axioms_match_loop(k, d, lams, x)


# Rank 1, 2 and 3 over the parameter grid; sin(3 pi t) needs more than 12
# Gauss-Legendre nodes for a drift below 1e-10.
STEP_TERMS = (
    ("1/2", "sqrt(2)*sin(pi*t)"),
    ("max(0,omega-1/2)", "sqrt(2)*sin(2*pi*t)"),
    ("max(0,omega-3/4)", "sqrt(2)*sin(3*pi*t)"),
)


def write_separable(tmp_path, n_s):
    path = tmp_path / f"step_{n_s}.json"
    path.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 16},
                "s_quadrature": {"rule": "gauss_legendre", "n": n_s},
                "kernel": {
                    "type": "separable",
                    "terms": [{"curve": c, "basis": b} for c, b in STEP_TERMS],
                },
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def test_grid_stability_uses_doubled_rule(tmp_path):
    # the half rule of 24 nodes does not resolve sin(3 pi t); the doubled
    # one measures the error of the 24-node rule itself
    assert main(["verify", "--config", write_separable(tmp_path, 24)]) == 0
    results = verify.run_suite(fs.load_config(write_separable(tmp_path, 12)))
    by_name = {r.name: r for r in results}
    assert not by_name["eigenvalue_grid_stability"].passed
    assert by_name["eigenvalues_match_jacobi"].passed


def test_suite_aligns_curves_once(cfg, monkeypatch):
    # the grid check solves and truncates the doubled rule for its
    # eigenvalues alone, so only the configured decomposition is aligned
    calls = []
    align = fiber._align_labels

    def spy(*args):
        calls.append(args)
        return align(*args)

    monkeypatch.setattr(fiber, "_align_labels", spy)
    results = verify.run_suite(cfg)
    assert "eigenvalue_grid_stability" in {r.name for r in results}
    assert len(calls) == 1


def test_jacobi_and_mercer_checks_cover_both_kernel_kinds(tmp_path):
    # the Jacobi oracle and the Mercer reconstruction check run on both
    # kernel kinds
    path = tmp_path / "sampled.json"
    path.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 6},
                "s_quadrature": {"rule": "trapezoid", "n": 9},
                "kernel": {
                    "type": "sampled",
                    "expression": "(1+omega)*(min(t,s)-t*s)",
                },
            }
        ),
        encoding="utf-8",
    )
    sampled = verify.run_suite(fs.load_config(str(path)))
    separable = verify.run_suite(fs.load_config(write_separable(tmp_path, 16)))
    for results in (sampled, separable):
        by_name = {r.name: r for r in results}
        assert by_name["eigenvalues_match_jacobi"].passed
        assert by_name["mercer_reconstruction"].passed


@pytest.mark.parametrize(
    "path", [CONFIG_PATH, BRIDGE_PATH], ids=["trig_rank3", "bridge_sampled"]
)
def test_jacobi_oracle_matches_lapack_on_the_picked_fibers(path):
    # the values-only oracle on the first, middle and last fiber, as
    # run_suite picks and assembles them
    cfg = fs.load_config(path)
    n_fibers = len(cfg.ogrid)
    picked = sorted({0, n_fibers // 2, n_fibers - 1})
    values = _on_grid(cfg.kernel, cfg.ogrid, cfg.squad)[0]
    A = fiber._assemble(values(picked), cfg.squad)
    oracle, vecs = fiber._jacobi(A, cfg.tolerances.eig_tol, vectors=False)
    assert vecs.shape == (3, 0, len(cfg.squad))
    want = np.linalg.eigvalsh(A)[:, ::-1]
    anorm = np.sqrt(np.sum(A * A, axis=(1, 2)))
    assert np.all(np.max(np.abs(oracle - want), axis=1) <= 1e-13 * anorm)


def test_bridge_verify_runs_the_oracle_before_its_known_defect(monkeypatch, capsys):
    # the oracle of eigenvalues_match_jacobi runs before the grid check,
    # which still stops bridge_sampled with the defect perfbench expects
    spec = importlib.util.spec_from_file_location(
        "checks", os.path.join(PERFBENCH, "checks.py")
    )
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    code, message = checks.KNOWN_DEFECT
    calls, jacobi = [], verify._jacobi

    def spy(a, tol, vectors):
        calls.append((a.shape, vectors))
        return jacobi(a, tol, vectors)

    monkeypatch.setattr(verify, "_jacobi", spy)
    assert main(["verify", "--config", BRIDGE_PATH]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err
    assert calls == [((3, 48, 48), False)]


def test_projector_order_upper_allows_the_tie():
    # E at threshold lambda keeps every eigenvalue up to lambda + tie, so
    # <T E f, f> <= (lambda + tie) <E f, f> is the bound; with a tie of
    # 1e-3 a correct decomposition still passes every check
    results = verify.run_suite(fs.load_config(CONFIG_PATH, tie_tol=1e-3))
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 37


def test_kernel_symmetry_check_fails_on_asymmetric_input():
    # the bridge min(t,s) - ts vanishes on the t = 0 row and column, so one
    # raised entry there makes the input asymmetry exactly 5e-11, which the
    # averaged values alone would hide
    ogrid, squad = fs.build_omega_grid(4), fs.build_s_quadrature("trapezoid", 9)
    t, s = squad.nodes[:, None], squad.nodes[None, :]
    values = np.broadcast_to(np.minimum(t, s) - t * s, (4, 9, 9)).copy()
    values[1, 0, 4] += 5e-11
    k = fs.SampledKernel(ogrid, squad, values)
    assert k.asymmetry == 5e-11
    cfg = fs.Config(ogrid, squad, k, {}, {}, {})
    by_name = {r.name: r for r in verify.run_suite(cfg)}
    check = by_name["kernel_symmetry"]
    assert check.value == 5e-11 and not check.passed


# The checks that run_suite runs a chunk of fibers or probes at a time, as
# they were first written: one array expression over the whole (F, n_s,
# n_s) stack and all 50 Rayleigh probes.  They are the oracle for the
# chunked checks, which must give the same values to the last bit.
def full_stack_checks(cfg):
    ogrid, squad, k = cfg.ogrid, cfg.squad, cfg.kernel
    d = fs.decompose(cfg)
    out = {}
    A = fs.fiber_matrices(k, ogrid, squad)
    funcs = d.functions
    vecs = (funcs * np.sqrt(squad.weights)).transpose(0, 2, 1)
    scale = np.maximum(1.0, np.max(np.abs(d.eigenvalues), axis=1, initial=0.0))
    err = np.abs(A @ vecs - vecs * d.eigenvalues[:, None, :])
    out["eigen_residual"] = np.max(err.max(axis=(1, 2), initial=0.0) / scale)
    gram = funcs @ (funcs * squad.weights).transpose(0, 2, 1)
    eye = np.eye(funcs.shape[1]) * (d.labels >= 0)[:, None, :]
    out["eigen_orthonormality"] = np.max(np.abs(gram - eye), initial=0.0)
    picked = sorted({0, d.n_fibers // 2, d.n_fibers - 1})
    oracle, _ = fs.jacobi_eigh(A[picked], cfg.tolerances.eig_tol)
    produced = np.zeros(oracle.shape)
    produced[:, : d.eigenvalues.shape[1]] = d.eigenvalues[picked]
    produced = np.sort(produced, axis=1)[:, ::-1]
    scale = np.maximum(1.0, np.max(np.abs(oracle), axis=1))
    out["eigenvalues_match_jacobi"] = np.max(
        np.abs(produced - oracle) / scale[:, None]
    )
    x = verify.random_sections(verify._SplitMix64(verify.SEED), ogrid, squad, 50)
    quot = (_on_grid(k, ogrid, squad)[1](x) * x) @ squad.weights
    quot /= (x * x) @ squad.weights
    out["rayleigh_bounds"] = np.max(
        np.maximum(d.m.values - quot, quot - d.M.values), initial=0.0
    )
    err = (funcs.transpose(0, 2, 1) * d.eigenvalues[:, None, :]) @ funcs
    err -= fs.kernel_matrices(k, ogrid, squad)
    out["mercer_reconstruction"] = np.max(np.abs(err))
    return out


def write_truncated_sampled(tmp_path):
    # rank_tol drops every eigenvalue of the fibers with omega <= 1/2, whose
    # kernel is the small bridge term alone, so there the Rayleigh quotients
    # exceed M = 0 and rayleigh_bounds reads above 0; a trapezoid rule keeps
    # eigenvalue_grid_stability, which a sampled kernel cannot pass yet, out
    # of the suite
    path = tmp_path / "truncated_sampled.json"
    path.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 8},
                "s_quadrature": {"rule": "trapezoid", "n": 11},
                "kernel": {
                    "type": "sampled",
                    "expression": "max(0,omega-1/2)*2*sin(pi*t)*sin(pi*s)"
                    "+1e-3*(min(t,s)-t*s)",
                },
                "tolerances": {"rank_tol": 1e-2},
            }
        ),
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("kind", ["separable", "sampled"])
def test_trace_check_catches_shifted_eigensums(tmp_path, monkeypatch, kind):
    # the traces come from the kernel on the grids, not from the
    # decomposition, so eigensums that do not add up fail the check
    if kind == "separable":
        cfg = fs.load_config(CONFIG_PATH, omega_n=8, quad_n=16)
    else:
        cfg = fs.load_config(write_truncated_sampled(tmp_path))
    by_name = {r.name: r for r in verify.run_suite(cfg)}
    assert by_name["trace_identity"].value <= 1e-14
    failed = {name for name, r in by_name.items() if not r.passed}

    def shifted(cfg):
        d = fs.decompose(cfg)
        return fs.FiberDecomposition(
            d.ogrid, d.squad, d.eigenvalues, d.functions, d.labels, d.eigensums + 1e-6
        )

    monkeypatch.setattr(verify, "decompose", shifted)
    by_name = {r.name: r for r in verify.run_suite(cfg)}
    assert abs(by_name["trace_identity"].value - 1e-6) <= 1e-12
    # and no other check notices
    assert {name for name, r in by_name.items() if not r.passed} == failed | {
        "trace_identity"
    }


@pytest.mark.parametrize("n_fibers", [1, 7, 8, 9, 13])
def test_chunked_checks_match_full_stack(tmp_path, n_fibers):
    # with 8 fibers a chunk, 1 and 7 fibers make one partial chunk, 8 one
    # full chunk, and 9 and 13 a full chunk and a partial one
    sampled = write_truncated_sampled(tmp_path)
    for path, quad_n in ((CONFIG_PATH, 16), (sampled, None)):
        cfg = fs.load_config(path, omega_n=n_fibers, quad_n=quad_n)
        by_name = {r.name: r.value for r in verify.run_suite(cfg)}
        for name, want in full_stack_checks(cfg).items():
            assert by_name[name] == float(want), (path, name)
    # the drawn probes are compared through a value above 0; one fiber
    # holds ||T|| itself, so the operator-wide rank rule truncates nothing
    # there and every Rayleigh quotient stays inside [m, M]
    if n_fibers > 1:
        assert by_name["rayleigh_bounds"] > 0.0


def test_suite_holds_one_kernel_stack():
    # the checks sample the kernel a chunk of fibers at a time, so the
    # suite holds less than one kernel stack of this grid: whole-stack
    # checks held about 2.5 stacks, and a sampled stack next to its chunks
    # about 2
    small = fs.load_config(CONFIG_PATH, omega_n=32, quad_n=128)
    verify.run_suite(small)  # lazy imports and caches are not the suite's
    tracemalloc.start()
    try:
        verify.run_suite(small)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 32 * 128 * 128 * 8


def left_end_rs(d, g, f, mesh, epsilon, tie_tol):
    """riemann_stieltjes_apply with every value one cell too low: g at the
    left end of its cell.  Its error is still at most mesh * |f|."""
    cuts = _rs_cuts(d, mesh, epsilon)
    g_cuts = fs.evaluate(g, {"lambda": cuts})
    reach = cuts + tie_tol
    h = g_cuts[np.maximum(np.searchsorted(reach, d.eigenvalues) - 1, 0)]
    h0 = g_cuts[max(int(np.searchsorted(reach, 0.0)) - 1, 0)]
    return fs.Section(d.ogrid, d.squad, _multiply(d, f.values, h, h0))


@pytest.mark.parametrize("config", ["trig", "mixed"])
def test_rs_check_catches_a_shifted_cell(tmp_path, monkeypatch, config):
    if config == "trig":
        cfg = fs.load_config(CONFIG_PATH, omega_n=16, quad_n=24)
    else:
        # no sections, so the suite's f0 is a drawn probe
        cfg = fs.load_config(write_separable(tmp_path, 24))
    by_name = {r.name: r for r in verify.run_suite(cfg)}
    assert by_name["rs_error_matches_prediction"].value <= 1e-15
    monkeypatch.setattr(verify, "riemann_stieltjes_apply", left_end_rs)
    by_name = {r.name: r for r in verify.run_suite(cfg)}
    assert by_name["rs_error_matches_prediction"].value > 1e-3
    assert not by_name["rs_error_matches_prediction"].passed
    # the mesh bounds cannot tell a sum one cell off
    assert by_name["rs_mesh_bound_0.04"].passed
    assert by_name["rs_mesh_bound_0.02"].passed


def test_rs_rows_use_the_configured_tie(monkeypatch):
    # as in the projector axioms and the CLI's rs, the tie tolerance of the
    # config reaches every Riemann-Stieltjes sum of the suite
    cfg = fs.load_config(CONFIG_PATH, omega_n=16, quad_n=24, tie_tol=1e-3)
    rs = verify.riemann_stieltjes_apply
    ties = []

    def spy(*args, **kwargs):
        bound = inspect.signature(rs).bind(*args, **kwargs)
        bound.apply_defaults()
        ties.append(bound.arguments["tie_tol"])
        return rs(*args, **kwargs)

    monkeypatch.setattr(verify, "riemann_stieltjes_apply", spy)
    by_name = {r.name: r for r in verify.run_suite(cfg)}
    assert ties == [1e-3] * (1 + len(verify._RS_MESHES))
    assert by_name["rs_error_matches_prediction"].passed


def test_suite_samples_each_kernel_once(cfg, monkeypatch):
    # the three curves and three bases of trig_rank3 are sampled three
    # times: for the decomposition, the refined one and the suite's own
    # checks, the projector axioms included (18 calls).  The four sections
    # and eight evaluations of functions of lambda make 30
    calls = []
    evaluate = fs.expr.evaluate

    def spy(e, env):
        calls.append(e)
        return evaluate(e, env)

    monkeypatch.setattr(fs.expr, "evaluate", spy)
    results = verify.run_suite(cfg)
    assert all(r.passed for r in results)
    assert len(calls) <= 30


@pytest.mark.parametrize("kind", ["separable", "sampled"])
def test_suite_puts_the_kernel_on_its_grids_once(tmp_path, monkeypatch, kind):
    # the projector axioms take the suite's quadrature action instead of
    # placing the kernel again
    if kind == "separable":
        cfg = fs.load_config(write_separable(tmp_path, 24))
    else:
        cfg = fs.load_config(write_truncated_sampled(tmp_path))
    calls = []

    def spy(k, ogrid, squad):
        calls.append(k)
        return _on_grid(k, ogrid, squad)

    monkeypatch.setattr(verify, "_on_grid", spy)
    verify.run_suite(cfg)
    assert len(calls) == 1 and calls[0] is cfg.kernel


def test_mixing_check_reports_a_mix_off_the_spectrum(monkeypatch):
    # every aligned mix lies in the spectrum, so the check fails only on a
    # mix moved off it: here by delta at the node whose spectral values lie
    # farthest apart, far from every other spectral value there
    cfg = fs.load_config(CONFIG_PATH, omega_n=16, quad_n=24)
    by_name = {r.name: r for r in verify.run_suite(cfg)}
    assert by_name["mixing_membership"].value == 0.0
    delta = 1e-6
    mix_field = verify.mix_field

    def shifted(d, p, use_aligned):
        mixed = mix_field(d, p, use_aligned=use_aligned)
        gaps = -np.diff(d._spectra, axis=1)
        i = int(np.argmax(np.min(gaps, axis=1)))
        assert np.min(gaps[i]) > 100 * delta
        values = mixed.values.copy()
        values[i] += delta
        return fs.ScalarField(d.ogrid, values)

    monkeypatch.setattr(verify, "mix_field", shifted)
    check = {r.name: r for r in verify.run_suite(cfg)}["mixing_membership"]
    assert abs(check.value - delta) <= 1e-15
    assert not check.passed


@pytest.mark.xfail(
    strict=True,
    reason="checks against the full operator ignore the spectral mass that "
    "rank_tol discards (ROADMAP items 2 and 22)",
)
def test_suite_passes_when_rank_tol_drops_a_term(tmp_path):
    # trig_rank3 plus a 1e-8 term that rank_tol 1e-6 drops: the retained
    # decomposition is the right one, yet eigenvalues_match_jacobi,
    # two_path_equivalence and mercer_reconstruction compare it with the
    # full operator and fail by about the dropped 1e-8
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["kernel"]["terms"].append({"curve": "1e-8", "basis": "sqrt(2)*sin(4*pi*t)"})
    raw["tolerances"]["rank_tol"] = 1e-6
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    results = verify.run_suite(fs.load_config(str(path)))
    assert [r.name for r in results if not r.passed] == []
