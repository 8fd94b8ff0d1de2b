"""configs/trig_indefinite.json: trig_rank3 with its second curve negated.

The kernel has eigencurves cos^2(pi omega / 2), -sin^2(pi omega) / 2 and
omega^2 / 3 on the eigenfunctions phi_n = sqrt(2) sin(n pi t), so the
operator is self-adjoint but not positive.  Every subcommand is checked
end to end against these closed forms; verify fails kernel_psd alone.
"""

import os

import numpy as np
import pytest

import fiberspec as fs
from fiberspec.cli import main

INDEFINITE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "configs", "trig_indefinite.json"
)
CURVES = (
    lambda w: np.cos(np.pi * w / 2) ** 2,
    lambda w: -np.sin(np.pi * w) ** 2 / 2,
    lambda w: w**2 / 3,
)


@pytest.fixture(scope="module")
def cfg():
    return fs.load_config(INDEFINITE_PATH)


def run(tmp_path, *args):
    command, *rest = args
    argv = [command, "--config", INDEFINITE_PATH, *rest, "--out", str(tmp_path)]
    assert main(argv) == 0


def read_grid(path, cfg):
    """The value column of an (omega, t, value) CSV as an (F, n_s) array."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    F, n_s = len(cfg.ogrid), len(cfg.squad)
    assert np.array_equal(rows[:, 0].reshape(F, n_s)[:, 0], cfg.ogrid.nodes)
    assert np.array_equal(rows[:, 1].reshape(F, n_s)[0], cfg.squad.nodes)
    return rows[:, 2].reshape(F, n_s)


def mesh(cfg):
    return cfg.ogrid.nodes[:, None], cfg.squad.nodes[None, :]


def test_eigencurves_follow_their_closed_forms(tmp_path, cfg):
    run(tmp_path, "decompose")
    rows = np.loadtxt(tmp_path / "eigencurves.csv", delimiter=",", skiprows=1)
    nodes = cfg.ogrid.nodes
    # every curve is present at every node, in the order its eigenfunction
    # first appears: phi_1, then phi_3, whose eigenvalue is larger than
    # phi_2's at the first node
    for cid, form in zip((1, 3, 2), CURVES):
        curve = rows[rows[:, 1] == cid]
        assert np.array_equal(curve[:, 0], nodes)
        assert np.max(np.abs(curve[:, 2] - form(nodes))) <= 1e-12


def test_negative_threshold_projects_onto_the_negative_curve(tmp_path, cfg):
    # P(-1/4) keeps the eigenvalues <= -1/4: only -sin^2(pi omega)/2, and
    # only where it reaches -1/4; <f, phi_2> phi_2 = sin(2 pi t)
    run(tmp_path, "project", "--threshold", "neg", "--section", "f")
    w, t = mesh(cfg)
    want = np.where(CURVES[1](w) <= -0.25, np.sin(2 * np.pi * t), 0.0)
    got = read_grid(tmp_path / "projected.csv", cfg)
    assert np.any(want != 0.0) and np.any(want == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_square_is_the_squared_series(tmp_path, cfg):
    # f = omega sin(pi t) + sin(2 pi t): <f, phi_1> phi_1 = omega sin(pi t)
    # and <f, phi_2> phi_2 = sin(2 pi t)
    run(tmp_path, "funcalc", "--function", "lambda^2", "--section", "f")
    w, t = mesh(cfg)
    want = CURVES[0](w) ** 2 * w * np.sin(np.pi * t)
    want += CURVES[1](w) ** 2 * np.sin(2 * np.pi * t)
    got = read_grid(tmp_path / "funcalc.csv", cfg)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_rank_three_reconstruction_is_exact(tmp_path):
    run(tmp_path, "reconstruct", "--rank", "3")
    path = tmp_path / "reconstruct_report.csv"
    report = dict(np.loadtxt(path, delimiter=",", skiprows=1, dtype=str))
    assert report["rank"] == "3"
    assert float(report["sup_error"]) <= 1e-12


def test_verify_fails_only_kernel_psd(capsys):
    # the kernel is indefinite by design: its most negative eigenvalue is
    # -sin^2(pi omega)/2 at the node nearest 1/2
    assert main(["verify", "--config", INDEFINITE_PATH]) == 4
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].split()[1] == "kernel_psd"
    assert "36/37 checks passed" in out
