import json

import numpy as np
import pytest

import fiberspec as fs
from fiberspec import verify
from fiberspec.cli import main

from conftest import CONFIG_PATH


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
        "rs_halving_ratio",
        "mercer_reconstruction",
    ):
        assert expected in names


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


def test_random_separable_kernels_are_valid():
    rng = np.random.default_rng(verify.SEED)
    ogrid = fs.build_omega_grid(8)
    squad = fs.build_s_quadrature("gauss_legendre", 16)
    for _ in range(5):
        k = verify.random_separable_kernel(rng)
        assert 1 <= len(k.terms) <= 5
        assert fs.hermitian_check(k) == 0.0
        d = fs.decompose_all_fibers(k, ogrid, squad)
        assert d.n_fibers == 8


def test_random_thresholds_span_spectrum(cfg, decomposition):
    rng = np.random.default_rng(3)
    fields = verify.random_threshold_fields(rng, decomposition, 10, 1e-12)
    assert len(fields) == 10
    for lam in fields:
        assert lam.field.values.shape == (64,)
        assert np.all(np.isfinite(lam.field.values))


def test_axiom_residuals_on_random_kernel(cfg):
    rng = np.random.default_rng(21)
    ogrid = fs.build_omega_grid(12)
    squad = fs.build_s_quadrature("gauss_legendre", 24)
    k = verify.random_separable_kernel(rng)
    d = fs.decompose_all_fibers(k, ogrid, squad)
    thresholds = verify.random_threshold_fields(rng, d, 6, 1e-12)
    sections = verify.random_sections(rng, ogrid, squad, 2)
    res = verify.projector_axiom_residuals(k, d, thresholds, sections, 1e-6)
    for name, bound in verify.AXIOM_BOUNDS.items():
        assert res[name] <= bound, (name, res[name])


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
    assert by_name["lowrank_matches_dense"].passed


def test_lowrank_check_only_for_separable(tmp_path):
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
    sampled = {r.name for r in verify.run_suite(fs.load_config(str(path)))}
    separable = verify.run_suite(fs.load_config(write_separable(tmp_path, 16)))
    assert "lowrank_matches_dense" not in sampled
    assert "lowrank_matches_dense" in {r.name for r in separable}
