import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberspec as fs
from fiberspec import calculus, errors, expr
from fiberspec.calculus import DEFAULT_TIE_TOL, _interval, _multiply, _project
from fiberspec.fiber import FiberDecomposition
from fiberspec.expr import parse

from conftest import curve1, curve2, random_separable_kernel, tf_ref, t2f_ref


@pytest.fixture(scope="module")
def f_section(cfg):
    return fs.sample_section(
        parse("omega*sin(pi*t)+sin(2*pi*t)"), cfg.ogrid, cfg.squad
    )


def grid_mesh(cfg):
    return cfg.ogrid.nodes[:, None], cfg.squad.nodes[None, :]


def test_apply_quadrature_closed_form(cfg, f_section):
    w, t = grid_mesh(cfg)
    out = fs.apply_quadrature(cfg.kernel, f_section)
    assert np.max(np.abs(out.values - tf_ref(w, t))) < 1e-12


def test_apply_spectral_closed_form(cfg, decomposition, f_section):
    w, t = grid_mesh(cfg)
    out = fs.apply_spectral(decomposition, f_section)
    assert np.max(np.abs(out.values - tf_ref(w, t))) < 1e-10


def test_two_paths_agree(cfg, decomposition, f_section):
    a = fs.apply_quadrature(cfg.kernel, f_section)
    b = fs.apply_spectral(decomposition, f_section)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_apply_quadrature_sampled_matches_separable(cfg, grids):
    # the same kernel through the dense sampled representation, on a small
    # grid because sampling evaluates the expression at every node triple
    ogrid, squad = grids
    dense = fs.sample_kernel(
        parse(
            "2*cos(pi*omega/2)^2*sin(pi*t)*sin(pi*s)"
            "+sin(pi*omega)^2*sin(2*pi*t)*sin(2*pi*s)"
            "+2/3*omega^2*sin(3*pi*t)*sin(3*pi*s)"
        ),
        ogrid,
        squad,
    )
    f = fs.sample_section(parse("omega*sin(pi*t)+sin(2*pi*t)"), ogrid, squad)
    a = fs.apply_quadrature(cfg.kernel, f)
    b = fs.apply_quadrature(dense, f)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_projector_threshold_selection(cfg, decomposition, f_section):
    # at lambda = 0.4 the first curve is kept only where cos^2(pi w/2) <= 0.4
    # and the second only where sin^2(pi w)/2 <= 0.4; f has no third or
    # null component
    w, t = grid_mesh(cfg)
    lam = fs.ThresholdField.constant(cfg.ogrid, 0.4)
    out = fs.projector_apply(decomposition, lam, f_section)
    keep1 = curve1(w) <= 0.4
    keep2 = curve2(w) <= 0.4
    want = keep1 * w * np.sin(np.pi * t) + keep2 * np.sin(2 * np.pi * t)
    assert np.max(np.abs(out.values - want)) < 1e-8


def test_projector_keeps_null_component(cfg, decomposition):
    # sin(4 pi t) is orthogonal to the kernel range, so it sits in the
    # null space: kept whenever lambda >= 0, dropped whenever lambda < 0
    f4 = fs.sample_section(parse("sin(4*pi*t)"), cfg.ogrid, cfg.squad)
    kept = fs.projector_apply(
        decomposition, fs.ThresholdField.constant(cfg.ogrid, 0.01), f4
    )
    assert np.max(np.abs(kept.values - f4.values)) < 1e-10
    dropped = fs.projector_apply(
        decomposition, fs.ThresholdField.constant(cfg.ogrid, -0.01), f4
    )
    assert np.max(np.abs(dropped.values)) < 1e-10


def test_projector_boundaries_are_exact(cfg, decomposition, f_section):
    below = fs.ThresholdField.constant(cfg.ogrid, -1.0)
    out = fs.projector_apply(decomposition, below, f_section)
    assert np.all(out.values == 0.0)
    above = fs.ThresholdField.constant(cfg.ogrid, 2.0)
    out = fs.projector_apply(decomposition, above, f_section)
    assert np.array_equal(out.values, f_section.values)


def test_projector_tie_tolerance(cfg):
    # constant curve 1/2: thresholds within tie_tol of the eigenvalue
    # still include it
    k = fs.SeparableKernel(((parse("1/2"), parse("sqrt(2)*sin(pi*t)")),))
    d = fs.decompose_all_fibers(k, cfg.ogrid, cfg.squad)
    phi1 = fs.sample_section(parse("sqrt(2)*sin(pi*t)"), cfg.ogrid, cfg.squad)
    at = fs.projector_apply(d, fs.ThresholdField.constant(cfg.ogrid, 0.5), phi1)
    assert np.max(np.abs(at.values - phi1.values)) < 1e-10
    grazing = fs.projector_apply(
        d,
        fs.ThresholdField.constant(cfg.ogrid, 0.5 - 1e-13, tie_tol=1e-12),
        phi1,
    )
    assert np.max(np.abs(grazing.values - phi1.values)) < 1e-10
    strictly_under = fs.projector_apply(
        d, fs.ThresholdField.constant(cfg.ogrid, 0.49), phi1
    )
    # phi1 is not in the null space, so its only component is dropped
    assert np.max(np.abs(strictly_under.values)) < 1e-10


def test_threshold_refuses_nan_tie_tol(cfg, decomposition):
    # a nan tie_tol counts no eigenvalue below the threshold and leaves out
    # the null component, so projector_apply would return the zero section
    with pytest.raises(ValueError, match="tie_tol must not be nan"):
        fs.ThresholdField.constant(cfg.ogrid, 0.4, tie_tol=float("nan"))
    with pytest.raises(ValueError, match="tie_tol must not be nan"):
        fs.ThresholdField(decomposition.M, np.nan)


def test_projector_idempotent_and_self_adjoint(cfg, decomposition, f_section):
    lam = fs.ThresholdField.constant(cfg.ogrid, 0.3)
    g = fs.sample_section(parse("t*omega+sin(3*pi*t)"), cfg.ogrid, cfg.squad)
    ef = fs.projector_apply(decomposition, lam, f_section)
    eef = fs.projector_apply(decomposition, lam, ef)
    assert np.max(np.abs(eef.values - ef.values)) < 1e-12
    eg = fs.projector_apply(decomposition, lam, g)
    lhs = fs.fiber_inner_product(ef, g).values
    rhs = fs.fiber_inner_product(f_section, eg).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_funcalc_identity_is_spectral_apply(decomposition, f_section):
    a = fs.functional_calculus(decomposition, parse("lambda"), f_section)
    b = fs.apply_spectral(decomposition, f_section)
    assert np.array_equal(a.values, b.values)


def test_funcalc_constant_one_is_identity(decomposition, f_section):
    out = fs.functional_calculus(decomposition, parse("1"), f_section)
    assert np.array_equal(out.values, f_section.values)


def test_funcalc_square_closed_form(cfg, decomposition, f_section):
    w, t = grid_mesh(cfg)
    out = fs.functional_calculus(decomposition, parse("lambda^2"), f_section)
    assert np.max(np.abs(out.values - t2f_ref(w, t))) < 1e-10


def test_funcalc_affine_combination(decomposition, f_section):
    # g(x) = 2x + 3 must equal 2*Tf + 3*f by linearity of the calculus
    out = fs.functional_calculus(decomposition, parse("2*lambda+3"), f_section)
    tf = fs.apply_spectral(decomposition, f_section)
    want = 2.0 * tf.values + 3.0 * f_section.values
    assert np.max(np.abs(out.values - want)) < 1e-12


def test_funcalc_rejects_stray_variables(decomposition, f_section):
    with pytest.raises(errors.MissingBinding):
        fs.functional_calculus(decomposition, parse("lambda+s"), f_section)


def test_funcalc_domain_probe(decomposition, f_section):
    # log is undefined at the lower end of the spectral interval (0)
    with pytest.raises(errors.DomainError):
        fs.functional_calculus(decomposition, parse("log(lambda)"), f_section)


def test_funcalc_continuous_on_interval(decomposition, f_section):
    out = fs.functional_calculus(
        decomposition, parse("sqrt(abs(lambda))"), f_section
    )
    assert np.all(np.isfinite(out.values))


def test_rs_invalid_mesh(decomposition, f_section):
    # 1e-300 asks for ~1e300 cells and is refused before any cut is built
    for mesh in (0.0, -0.1, float("nan"), float("inf"), 1e-300):
        with pytest.raises(errors.InvalidMesh):
            fs.riemann_stieltjes_apply(
                decomposition, parse("lambda"), f_section, mesh
            )


def test_rs_single_cell_constant(decomposition, f_section):
    # one cell spanning the whole interval: the sum collapses to
    # g(m*) E_{m*} f + g(c_1)(E_top - E_{m*}) f = g * f for constant g
    out = fs.riemann_stieltjes_apply(decomposition, parse("3"), f_section, mesh=5.0)
    assert np.max(np.abs(out.values - 3.0 * f_section.values)) < 1e-12


def test_rs_converges_to_apply(cfg, decomposition, f_section):
    tf = fs.apply_quadrature(cfg.kernel, f_section)
    nf = fs.l22_norm(f_section)
    prev = None
    for mesh in (0.08, 0.04, 0.02):
        out = fs.riemann_stieltjes_apply(
            decomposition, parse("lambda"), f_section, mesh
        )
        err = fs.l22_norm(
            fs.Section(cfg.ogrid, cfg.squad, out.values - tf.values)
        )
        assert err <= mesh * nf
        if prev is not None:
            assert err < prev
        prev = err


RS_FUNCTIONS = (
    "lambda",
    "2",
    "lambda^2",
    "exp(lambda)",
    "sin(3*lambda)+lambda/4",
    "abs(lambda-0.3)",
    "max(lambda,0.1)",
)


def test_rs_refuses_negative_or_nan_tie_tol(decomposition, f_section):
    # a negative tie could leave a spectral value past the last cut
    for tie in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tie_tol must be non-negative"):
            fs.riemann_stieltjes_apply(
                decomposition, parse("lambda"), f_section, 0.02, tie_tol=tie
            )


@settings(max_examples=25, deadline=None)
@given(
    g_text=st.sampled_from(RS_FUNCTIONS),
    mesh_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    tie=st.sampled_from((1e-12, 1e-3, 0.1)),
)
def test_rs_matches_projector_increments(
    decomposition, g_text, mesh_frac, seed, scale, tie
):
    # reference: the defining sum, one projector call per cut at the same
    # tie tolerance, g(c_0) E_{c_0} f + sum_k g(c_k) (E_{c_k} - E_{c_{k-1}}) f
    d, g = decomposition, parse(g_text)
    noise = np.random.default_rng(seed).standard_normal((len(d.ogrid), len(d.squad)))
    f = fs.Section(d.ogrid, d.squad, scale * noise)
    epsilon = 1e-6
    m_star = float(np.min(d.m.values))
    top = float(np.max(d.M.values)) + epsilon
    span = top - m_star
    mesh = 0.005 + mesh_frac * (2.0 * span - 0.005)
    cuts = np.linspace(m_star, top, max(1, int(np.ceil(span / mesh))) + 1)
    ref = np.zeros_like(f.values)
    prev = np.zeros_like(f.values)
    for c in cuts:
        lam = fs.ThresholdField.constant(d.ogrid, float(c), tie_tol=tie)
        cur = fs.projector_apply(d, lam, f)
        ref += fs.evaluate(g, {"lambda": float(c)}) * (cur.values - prev)
        prev = cur.values
    out = fs.riemann_stieltjes_apply(d, g, f, mesh, epsilon=epsilon, tie_tol=tie)
    bound = 1e-12 * max(1.0, float(np.max(np.abs(f.values))))
    assert np.max(np.abs(out.values - ref)) <= bound


def test_grid_mismatch_guard(cfg, decomposition, grids):
    other = fs.build_s_quadrature("gauss_legendre", 32)
    f = fs.sample_section(parse("t"), cfg.ogrid, other)
    with pytest.raises(errors.GridMismatch):
        fs.apply_spectral(decomposition, f)
    # a separable kernel adapts to any grid, only sampled kernels carry one
    ogrid, squad = grids
    sampled = fs.sample_kernel(parse("t*s"), ogrid, squad)
    g = fs.sample_section(parse("t"), ogrid, fs.build_s_quadrature("trapezoid", 9))
    h = fs.sample_section(parse("t"), fs.build_omega_grid(8), squad)
    # the quadrature route shares kernel_matrices' check and its message,
    # which perfbench's known-defect check matches
    text = "^sampled kernel was sampled on different grids$"
    for foreign in (g, h):
        with pytest.raises(errors.GridMismatch, match=text):
            fs.apply_quadrature(sampled, foreign)


def test_spectral_interval_is_computed_once(decomposition):
    d = decomposition
    lo, hi = d._extreme_bounds
    assert (lo, hi) == (float(np.min(d.m.values)), float(np.max(d.M.values)))
    assert d._extreme_bounds is d._extreme_bounds
    assert _interval(d, 1e-6) == (lo, hi + 1e-6)


def _dense_multiply(d, values, h, h0):
    """Reference multiplier from explicit matrices: fiber i applies
    sum_n (h_n - h0) x_n x_n^T diag(w) + h0 I to its section row.  values
    (..., F, n_s), h (..., F, r_max) and h0 (..., F) broadcast."""
    F, n_s = values.shape[-2:]
    lead = np.broadcast_shapes(values.shape[:-2], h.shape[:-2], h0.shape[:-1])
    values = np.broadcast_to(values, lead + (F, n_s))
    h = np.broadcast_to(h, lead + h.shape[-2:])
    h0 = np.broadcast_to(h0, lead + (F,))
    out = np.empty(lead + (F, n_s))
    for idx in np.ndindex(*lead, F):
        X = d.functions[idx[-1]]
        M = X.T @ np.diag(h[idx] - h0[idx]) @ X @ np.diag(d.squad.weights)
        out[idx] = M @ values[idx] + h0[idx] * values[idx]
    return out


def _random_decomposition(rng, sampled):
    ogrid = fs.build_omega_grid(int(rng.integers(1, 7)))
    squad = fs.build_s_quadrature("gauss_legendre", int(rng.integers(1, 13)))
    if sampled:
        a = rng.standard_normal((len(ogrid), len(squad), len(squad)))
        kernel = fs.SampledKernel(ogrid, squad, a + a.transpose(0, 2, 1))
    else:
        kernel = random_separable_kernel(rng)
    return fs.decompose_all_fibers(kernel, ogrid, squad)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sampled=st.booleans(),
    stack=st.integers(0, 3),
    layers=st.integers(0, 3),
)
def test_multiply_matches_dense_reference(seed, sampled, stack, layers):
    rng = np.random.default_rng(seed)
    d = _random_decomposition(rng, sampled)
    F, r_max, n_s = d.functions.shape
    # sections (S, F, n_s) against multipliers (L, 1, F, r_max), as verify
    # stacks probe sections against threshold layers
    values = rng.standard_normal((stack, F, n_s) if stack else (F, n_s))
    lead = (layers, 1) if layers else ()
    h = rng.uniform(-3.0, 3.0, lead + (F, r_max))
    h0 = rng.uniform(-3.0, 3.0, lead + (F,))
    scale = max(1.0, np.max(np.abs(values)), np.max(np.abs(h0)))
    scale = max(scale, np.max(np.abs(h), initial=0.0))
    got = _multiply(d, values, h, h0)
    want = _dense_multiply(d, values, h, h0)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale
    # the projector path: thresholds (L, 1, F) broadcast against the stack
    lam = rng.uniform(-2.0, 2.0, lead + (F,))
    cut = lam + DEFAULT_TIE_TOL
    got = _project(d, values, lam, DEFAULT_TIE_TOL)
    want = _dense_multiply(
        d, values, (d.eigenvalues <= cut[..., None]) * 1.0, (0.0 <= cut) * 1.0
    )
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * max(
        1.0, np.max(np.abs(values))
    )


def test_multiply_exact_cases(cfg, decomposition, f_section):
    d, f = decomposition, f_section
    # g = 1 and a threshold above every bound give f back bit for bit
    one = fs.functional_calculus(d, parse("1"), f)
    assert one.values.tobytes() == f.values.tobytes()
    top = float(np.max(d.M.values)) + 1.0
    above = fs.projector_apply(d, fs.ThresholdField.constant(cfg.ogrid, top), f)
    assert above.values.tobytes() == f.values.tobytes()
    # a threshold below every bound and below 0 gives exact zeros
    bottom = float(np.min(d.m.values)) - 1.0
    below = fs.projector_apply(d, fs.ThresholdField.constant(cfg.ogrid, bottom), f)
    assert np.all(below.values == 0.0)


@pytest.mark.parametrize("sampled", [False, True])
def test_multiply_rank_zero_is_null_multiplier(grids, sampled):
    # the zero kernel retains no slot: T f = 0 and the multiplier is h0 f
    ogrid, squad = grids
    if sampled:
        zeros = np.zeros((len(ogrid), len(squad), len(squad)))
        kernel = fs.SampledKernel(ogrid, squad, zeros)
    else:
        kernel = fs.SeparableKernel(((parse("0"), parse("sin(pi*t)")),))
    d = fs.decompose_all_fibers(kernel, ogrid, squad)
    assert d.functions.shape == (len(ogrid), 0, len(squad))
    f = fs.sample_section(parse("omega*sin(pi*t)+sin(2*pi*t)"), ogrid, squad)
    got = _multiply(d, f.values, d.eigenvalues, 2.5)
    assert got.tobytes() == (2.5 * f.values).tobytes()
    assert np.all(fs.apply_spectral(d, f).values == 0.0)
    g = fs.functional_calculus(d, parse("exp(-lambda)"), f)
    assert g.values.tobytes() == f.values.tobytes()


def test_weighted_factor_is_built_once(cfg, f_section, monkeypatch):
    prop = FiberDecomposition.__dict__["_weighted_functions"]
    build = prop.func
    builds = []

    def counting(d):
        builds.append(d)
        return build(d)

    monkeypatch.setattr(prop, "func", counting)
    d = fs.decompose(cfg)
    # lazy: decomposing does not build it
    assert builds == []
    lam = fs.ThresholdField.constant(cfg.ogrid, 0.4)
    fs.apply_spectral(d, f_section)
    fs.projector_apply(d, lam, f_section)
    fs.functional_calculus(d, parse("exp(-lambda)"), f_section)
    fs.riemann_stieltjes_apply(d, parse("lambda"), f_section, 0.02)
    assert builds == [d]
    factor = d._weighted_functions
    assert factor is d._weighted_functions
    assert factor.tobytes() == (d.functions * d.squad.weights).tobytes()


def test_projector_refuses_threshold_on_another_grid(decomposition, f_section):
    lam = fs.ThresholdField.constant(fs.build_omega_grid(63), 0.5)
    text = "^threshold field lives on a different parameter grid$"
    with pytest.raises(errors.GridMismatch, match=text):
        fs.projector_apply(decomposition, lam, f_section)


# g defined on every real, so on any random decomposition's interval
G_EVERYWHERE = (
    "lambda^2",
    "exp(-lambda)",
    "sin(3*lambda)+lambda/4",
    "abs(lambda-0.3)",
    "1",
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sampled=st.booleans(),
    text=st.sampled_from(G_EVERYWHERE),
    epsilons=st.lists(st.sampled_from([1e-6, 1e-3, 0.5]), min_size=1, max_size=4),
)
def test_kept_multiplier_equals_a_fresh_decomposition(seed, sampled, text, epsilons):
    # one parsed g on several sections and epsilons of one decomposition,
    # each epsilon twice, every result bitwise equal to a first call on a
    # fresh decomposition
    d = _random_decomposition(np.random.default_rng(seed), sampled)
    g = parse(text)
    rng = np.random.default_rng(seed ^ 0x5EED)
    for epsilon in epsilons + epsilons:
        values = rng.standard_normal((d.n_fibers, len(d.squad)))
        f = fs.Section(d.ogrid, d.squad, values)
        got = fs.functional_calculus(d, g, f, epsilon)
        fresh = _random_decomposition(np.random.default_rng(seed), sampled)
        want = fs.functional_calculus(fresh, g, f, epsilon)
        assert got.values.tobytes() == want.values.tobytes()
    assert len(calculus._MULTIPLIERS[d]) == len(set(epsilons))


@pytest.fixture()
def evaluations(monkeypatch):
    """The bindings of every expr.evaluate call, in order."""
    calls = []
    evaluate = expr.evaluate

    def counting(e, bindings):
        calls.append(bindings)
        return evaluate(e, bindings)

    monkeypatch.setattr(expr, "evaluate", counting)
    return calls


def test_multiplier_is_evaluated_once_per_expression_and_epsilon(
    cfg, f_section, evaluations
):
    d = fs.decompose(cfg)
    # decomposing and the other spectral queries keep no multiplier
    fs.apply_spectral(d, f_section)
    fs.projector_apply(d, fs.ThresholdField.constant(cfg.ogrid, 0.4), f_section)
    fs.riemann_stieltjes_apply(d, parse("lambda"), f_section, 0.02)
    assert d not in calculus._MULTIPLIERS
    evaluations.clear()
    g = parse("exp(-lambda)")
    first = fs.functional_calculus(d, g, f_section)
    for _ in range(3):
        again = fs.functional_calculus(d, g, f_section)
        assert again.values.tobytes() == first.values.tobytes()
    assert len(evaluations) == 1
    # a new epsilon and a re-parsed text each evaluate g afresh
    fs.functional_calculus(d, g, f_section, epsilon=1e-3)
    fs.functional_calculus(d, g, f_section, epsilon=1e-3)
    assert len(evaluations) == 2
    same_text = parse("exp(-lambda)")
    fs.functional_calculus(d, same_text, f_section)
    assert len(evaluations) == 3
    assert len(calculus._MULTIPLIERS[d]) == 3


def test_domain_error_raises_every_time_and_keeps_nothing(
    cfg, f_section, evaluations
):
    # every fiber spectrum holds 0, where log is not defined
    d = fs.decompose(cfg)
    g = parse("log(lambda)")
    evaluations.clear()
    for calls in (1, 2):
        with pytest.raises(errors.DomainError):
            fs.functional_calculus(d, g, f_section)
        assert len(evaluations) == calls
    assert d not in calculus._MULTIPLIERS


def test_kept_multiplier_lives_while_expression_and_decomposition_live(
    cfg, f_section
):
    # reference counting alone frees each kept h: no cycle holds it
    gc.disable()
    try:
        d = fs.decompose(cfg)
        g, other = parse("lambda^2"), parse("lambda^2")
        fs.functional_calculus(d, g, f_section)
        fs.functional_calculus(d, other, f_section)
        eps = calculus.DEFAULT_EPSILON
        kept = calculus._MULTIPLIERS[d]
        assert list(kept) == [(id(g), eps), (id(other), eps)]
        h_ref = weakref.ref(kept[id(g), eps][1])
        del g
        assert h_ref() is None and list(kept) == [(id(other), eps)]
        h_ref, d_ref = weakref.ref(kept[id(other), eps][1]), weakref.ref(d)
        del d, kept
        assert d_ref() is None and h_ref() is None
        # other outlives the table, which took its weak reference along
        del other
    finally:
        gc.enable()


def test_kept_multiplier_is_read_only_and_never_returned(decomposition, f_section):
    d = decomposition
    for text in ("exp(-lambda)", "1", "lambda"):
        g = parse(text)
        results = [fs.functional_calculus(d, g, f_section) for _ in range(2)]
        _, h, h0 = calculus._MULTIPLIERS[d][(id(g), calculus.DEFAULT_EPSILON)]
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[...] = 0.0
        assert h.shape == d.eigenvalues.shape and np.ndim(h0) == 0
        for out in results:
            assert not np.shares_memory(out.values, h)
            assert not np.shares_memory(out.values, f_section.values)
