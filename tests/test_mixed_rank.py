"""A kernel whose retained rank changes across the parameter grid.

Curve 1 is the constant 1/2 on sin(pi t); curve 2 is max(0, omega - 1/2)
on sin(2 pi t), so the 16 fibers have rank 1 below omega = 1/2 and rank 2
above it.  The decomposition pads the rank-1 fibers with a null slot, and
every test here checks that the padding stays invisible.
"""

import json

import numpy as np
import pytest

import fiberspec as fs
from fiberspec import errors
from fiberspec.cli import main
from fiberspec.expr import parse
from fiberspec.spectrum import Partition

TERMS = (
    ("1/2", "sqrt(2)*sin(pi*t)"),
    ("max(0,omega-1/2)", "sqrt(2)*sin(2*pi*t)"),
)


@pytest.fixture()
def kernel():
    return fs.SeparableKernel(tuple((parse(c), parse(b)) for c, b in TERMS))


@pytest.fixture()
def d(kernel, grids):
    return fs.decompose_all_fibers(kernel, *grids)


@pytest.fixture()
def f(grids):
    rng = np.random.default_rng(7)
    return fs.Section(*grids, rng.standard_normal((16, 24)))


def write_config(tmp_path, terms=TERMS, n_s=24):
    path = tmp_path / "mixed.json"
    path.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 16},
                "s_quadrature": {"rule": "gauss_legendre", "n": n_s},
                "kernel": {
                    "type": "separable",
                    "terms": [{"curve": c, "basis": b} for c, b in terms],
                },
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def dense_apply(kernel, f, multiplier):
    """h(A) f per fiber from numpy eigh, with eigenvalues below 1e-10 set to 0."""
    sw = np.sqrt(f.squad.weights)
    out = np.empty_like(f.values)
    for i, A in enumerate(fs.fiber_matrices(kernel, f.ogrid, f.squad)):
        vals, vecs = np.linalg.eigh(A)
        vals[np.abs(vals) < 1e-10] = 0.0
        out[i] = vecs @ (multiplier(vals, i) * (vecs.T @ (sw * f.values[i]))) / sw
    return out


def test_padded_layout(d, grids):
    ogrid, _ = grids
    upper = ogrid.nodes > 0.5
    assert np.array_equal(d.ranks, np.where(upper, 2, 1))
    assert d.eigenvalues.shape == (16, 2)
    assert d.functions.shape == (16, 2, 24)
    assert d.num_curves == 2
    assert np.all(d.eigenvalues[~upper, 1] == 0.0)
    assert np.all(d.functions[~upper, 1] == 0.0)
    assert np.all(d.labels[~upper, 1] == -1)
    assert np.array_equal(d.labels[upper], np.tile([0, 1], (8, 1)))
    assert np.allclose(d.aligned_curve(0), 0.5, atol=1e-12)
    curve2 = d.aligned_curve(1)
    assert np.all(np.isnan(curve2[~upper]))
    assert np.allclose(curve2[upper], ogrid.nodes[upper] - 0.5, atol=1e-12)
    # label -1 marks padding, it is not a curve
    assert np.all(np.isnan(d.aligned_curve(-1)))


# The second case adds a third curve above omega = 3/4, so the rank-1 fibers
# carry two padded slots; 32 nodes resolve sin(3 pi t), and the
# eigenvalue_grid_stability check compares them with the doubled rule.
@pytest.mark.parametrize(
    "terms, n_s",
    [(TERMS, 24), (TERMS + (("max(0,omega-3/4)", "sqrt(2)*sin(3*pi*t)"),), 32)],
)
def test_verify_passes(tmp_path, terms, n_s):
    config = write_config(tmp_path, terms, n_s)
    assert main(["verify", "--config", config, "--out", str(tmp_path)]) == 0


def test_cli_row_counts(tmp_path):
    argv = ["--config", write_config(tmp_path), "--out", str(tmp_path)]
    assert main(["decompose", *argv]) == 0
    assert main(["spectrum", *argv]) == 0

    def rows(name):
        return (tmp_path / name).read_text(encoding="ascii").splitlines()[1:]

    assert len(rows("eigencurves.csv")) == 8 * 1 + 8 * 2
    assert len(rows("eigenfunctions.csv")) == (8 * 1 + 8 * 2) * 24
    assert len(rows("spectra.csv")) == 8 * 2 + 8 * 3
    assert {r.split(",")[1] for r in rows("eigencurves.csv")} == {"1", "2"}


def test_apply_spectral_matches_quadrature(kernel, d, f):
    quad = fs.apply_quadrature(kernel, f)
    assert np.max(np.abs(fs.apply_spectral(d, f).values - quad.values)) < 1e-12


@pytest.mark.parametrize("threshold", ["0-0.1", "0.25", "omega-0.6", "omega/2", "0.7"])
def test_projector_matches_dense(kernel, d, f, threshold):
    lam = fs.ThresholdField(fs.sample_field(parse(threshold), f.ogrid))
    cut = lam.field.values + lam.tie_tol
    want = dense_apply(kernel, f, lambda vals, i: (vals <= cut[i]).astype(float))
    assert np.max(np.abs(fs.projector_apply(d, lam, f).values - want)) < 1e-12


@pytest.mark.parametrize(
    "text, g",
    [("exp(lambda)", np.exp), ("1+lambda^2", lambda x: 1.0 + x**2)],
)
def test_funcalc_matches_dense(kernel, d, f, text, g):
    want = dense_apply(kernel, f, lambda vals, i: g(vals))
    got = fs.functional_calculus(d, parse(text), f)
    assert np.max(np.abs(got.values - want)) < 1e-12


def test_padding_is_not_an_eigenvalue(d, grids):
    ogrid, _ = grids
    zero = fs.ScalarField.constant(ogrid, 0.0)
    assert np.all(fs.membership_distances(d, zero) == 0.0)


def test_mix_field_respects_absent_curve(d, grids):
    ogrid, _ = grids
    halves = Partition.from_ranges(ogrid, ((1, 0.0, 0.5), (2, 0.5, 1.5)))
    want = np.where(ogrid.nodes > 0.5, ogrid.nodes - 0.5, 0.5)
    assert np.allclose(fs.mix_field(d, halves).values, want, atol=1e-12)
    sorted_mix = fs.mix_field(d, halves, use_aligned=False)
    assert np.allclose(sorted_mix.values, want, atol=1e-12)
    everywhere = Partition.from_ranges(ogrid, ((2, 0.0, 1.5),))
    for use_aligned in (True, False):
        with pytest.raises(errors.UnknownCurveLabel, match="node 0"):
            fs.mix_field(d, everywhere, use_aligned=use_aligned)


def test_mercer_limited_by_smallest_rank(d, grids):
    with pytest.raises(errors.RankTooLarge):
        fs.mercer_reconstruct(d, 2)
    _, squad = grids
    phi = np.sqrt(2.0) * np.sin(np.pi * squad.nodes)
    rebuilt = fs.mercer_reconstruct(d, 1)
    assert np.allclose(rebuilt.values, 0.5 * np.outer(phi, phi), atol=1e-10)
