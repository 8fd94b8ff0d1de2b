import numpy as np
import pytest

import fiberspec as fs
from fiberspec import errors
from fiberspec.expr import parse
from fiberspec.grid import _l22


def test_midpoint_grid():
    g = fs.build_omega_grid(4)
    assert np.array_equal(g.nodes, np.array([0.125, 0.375, 0.625, 0.875]))
    assert np.array_equal(g.weights, np.full(4, 0.25))
    assert len(g) == 4


def test_midpoint_rejects_nonpositive():
    with pytest.raises(errors.InvalidCount):
        fs.build_omega_grid(0)


def test_gauss_legendre_two_point_nodes():
    # roots of the degree-2 Legendre polynomial mapped to [0,1]
    q = fs.build_s_quadrature("gauss_legendre", 2)
    shift = 1.0 / (2.0 * np.sqrt(3.0))
    assert np.allclose(q.nodes, [0.5 - shift, 0.5 + shift], atol=1e-15)
    assert np.allclose(q.weights, [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64])
def test_gauss_legendre_polynomial_exactness(n):
    # an n-point rule integrates monomials up to degree 2n-1 exactly;
    # the oracle is the closed form integral of t^k over [0,1]
    q = fs.build_s_quadrature("gauss_legendre", n)
    for k in range(2 * n):
        approx = float((q.nodes**k) @ q.weights)
        assert approx == pytest.approx(1.0 / (k + 1), abs=1e-14)


def test_gauss_legendre_rule_is_numpy_leggauss():
    # the in-package rule follows leggauss step for step, so it is the
    # same rule to the last bit
    from numpy.polynomial.legendre import leggauss

    for n in range(1, 201):
        x, w = leggauss(n)
        q = fs.build_s_quadrature("gauss_legendre", n)
        assert q.nodes.tobytes() == ((x + 1.0) / 2.0).tobytes(), n
        assert q.weights.tobytes() == (w / 2.0).tobytes(), n


def test_gauss_legendre_not_exact_past_order():
    q = fs.build_s_quadrature("gauss_legendre", 2)
    k = 4  # 2n = 4 is the first degree the rule misses
    assert abs(float((q.nodes**k) @ q.weights) - 0.2) > 1e-6


def test_trapezoid_rule():
    q = fs.build_s_quadrature("trapezoid", 5)
    assert np.allclose(q.nodes, np.linspace(0, 1, 5))
    assert np.allclose(q.weights, [0.125, 0.25, 0.25, 0.25, 0.125])
    # exact on affine integrands
    assert float(q.weights.sum()) == pytest.approx(1.0, abs=1e-15)
    assert float(q.nodes @ q.weights) == pytest.approx(0.5, abs=1e-15)


def test_trapezoid_needs_two_nodes():
    with pytest.raises(errors.InvalidCount):
        fs.build_s_quadrature("trapezoid", 1)


def test_unknown_rule():
    with pytest.raises(errors.InvalidQuadratureRule):
        fs.build_s_quadrature("simpson", 4)


def test_weights_sum_to_one():
    for n in (1, 3, 17):
        assert float(fs.build_omega_grid(n).weights.sum()) == pytest.approx(
            1.0, abs=1e-12
        )
    for n in (2, 9, 33):
        q = fs.build_s_quadrature("gauss_legendre", n)
        assert float(q.weights.sum()) == pytest.approx(1.0, abs=1e-12)


def test_sample_field_and_section(grids):
    ogrid, squad = grids
    field = fs.sample_field(parse("omega^2"), ogrid)
    assert np.allclose(field.values, ogrid.nodes**2, atol=1e-15)
    sec = fs.sample_section(parse("omega*t"), ogrid, squad)
    assert sec.values.shape == (16, 24)
    assert np.allclose(sec.values, ogrid.nodes[:, None] * squad.nodes[None, :])


def test_sample_rejects_stray_variables(grids):
    ogrid, squad = grids
    with pytest.raises(errors.MissingBinding):
        fs.sample_field(parse("t"), ogrid)
    with pytest.raises(errors.MissingBinding):
        fs.sample_section(parse("s"), ogrid, squad)


def test_scalar_field_rejects_nonfinite(grids):
    ogrid, _ = grids
    vals = np.zeros(len(ogrid))
    vals[3] = np.inf
    with pytest.raises(errors.DomainError):
        fs.ScalarField(ogrid, vals)


def test_fiber_inner_product_orthonormal_modes(cfg):
    # the sine family is orthonormal in L2[0,1] and Gauss-Legendre at 64
    # nodes resolves these low frequencies to machine precision
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            a = fs.sample_section(
                parse(f"sqrt(2)*sin({n}*pi*t)"), cfg.ogrid, cfg.squad
            )
            b = fs.sample_section(
                parse(f"sqrt(2)*sin({m}*pi*t)"), cfg.ogrid, cfg.squad
            )
            ip = fs.fiber_inner_product(a, b).values
            want = 1.0 if n == m else 0.0
            assert np.max(np.abs(ip - want)) < 1e-14


def test_l22_norm_closed_form(cfg):
    # ||omega*sin(pi t) + sin(2 pi t)||^2 = 1/2 * (1/3) + 1/2 = 2/3, up to
    # the midpoint-rule moment error sum w omega^2 - 1/3 = -1/(12 n^2)
    f = fs.sample_section(parse("omega*sin(pi*t)+sin(2*pi*t)"), cfg.ogrid, cfg.squad)
    n = len(cfg.ogrid)
    discrete = np.sqrt(2.0 / 3.0 - 0.5 / (12.0 * n * n))
    assert fs.l22_norm(f) == pytest.approx(discrete, abs=1e-12)
    assert fs.l22_norm(f) == pytest.approx(np.sqrt(2.0 / 3.0), abs=2e-5)


def test_l22_norm_rescales_only_overflowing_sections(grids):
    # the squares of 1e308 overflow; a power-of-two rescale keeps the norm
    ogrid, squad = grids
    huge = fs.Section(ogrid, squad, np.full((16, 24), 1e308))
    assert fs.l22_norm(huge) == pytest.approx(1e308, rel=1e-14)
    rng = np.random.default_rng(3)
    plain = rng.standard_normal((16, 24))
    stack = np.stack([np.full((16, 24), np.finfo(float).max), plain])
    norms = _l22(ogrid, squad, stack)
    assert norms[0] == pytest.approx(np.finfo(float).max, rel=1e-14)
    # sections that do not overflow keep the plain formula bit for bit
    want = np.sqrt(np.maximum(((plain * plain) @ squad.weights) @ ogrid.weights, 0.0))
    assert norms[1] == want


def test_grid_mismatch_detected(grids):
    ogrid, squad = grids
    other = fs.build_s_quadrature("gauss_legendre", 23)
    a = fs.sample_section(parse("t"), ogrid, squad)
    b = fs.sample_section(parse("t"), ogrid, other)
    with pytest.raises(errors.GridMismatch):
        fs.fiber_inner_product(a, b)


def test_constant_field(grids):
    ogrid, _ = grids
    c = fs.ScalarField.constant(ogrid, 0.4)
    assert np.all(c.values == 0.4)


@pytest.mark.parametrize(
    "nodes, weights, message",
    [
        ([[0.5]], [1.0], "nodes must be one dimensional"),
        ([0.5], [[1.0]], "weights must be one dimensional"),
        ([], [], "nodes and weights must be non-empty and equal length"),
        ([0.25, 0.75], [1.0], "nodes and weights must be non-empty and equal length"),
        ([0.5, 0.5], [0.5, 0.5], "nodes must be strictly increasing"),
        ([-0.5, 0.5], [0.5, 0.5], r"nodes must lie in \[0, 1\]"),
        ([0.5, 1.5], [0.5, 0.5], r"nodes must lie in \[0, 1\]"),
        ([0.25, 0.75], [1.5, -0.5], "weights must be positive"),
        ([0.25, 0.75], [0.5, 0.6], "weights must sum to one"),
    ],
)
def test_rule_constructors_refuse_bad_rules(nodes, weights, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fs.OmegaGrid(nodes, weights)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fs.SQuadrature("gauss_legendre", nodes, weights)


def test_field_and_section_refuse_other_shapes(grids):
    ogrid, squad = grids
    with pytest.raises(ValueError, match="^field length must match the grid$"):
        fs.ScalarField(ogrid, np.zeros(15))
    text = r"^section shape \(16, 23\) does not match grids \(16, 24\)$"
    with pytest.raises(ValueError, match=text):
        fs.Section(ogrid, squad, np.zeros((16, 23)))
