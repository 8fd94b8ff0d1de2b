"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with -s to see the verdict lines; every criterion asserts at its
stated tolerance against closed-form oracles computed in this file.
"""

import math

import numpy as np

import fiberspec as fs
from fiberspec import verify
from fiberspec.cli import main
from fiberspec.expr import parse
from fiberspec.kernel import _on_grid

from conftest import (
    CONFIG_PATH,
    curve1,
    curve2,
    curve3,
    random_separable_kernel,
    t2f_ref,
    tf_ref,
)


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{tag}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def mesh_grids(cfg):
    return cfg.ogrid.nodes[:, None], cfg.squad.nodes[None, :]


def test_criterion_01_operator_application(cfg, decomposition):
    w, t = mesh_grids(cfg)
    f = fs.sample_section(parse("omega*sin(pi*t)+sin(2*pi*t)"), cfg.ogrid, cfg.squad)
    want = tf_ref(w, t)
    worst = 0.0
    for out in (
        fs.apply_quadrature(cfg.kernel, f),
        fs.apply_spectral(decomposition, f),
    ):
        worst = max(worst, float(np.max(np.abs(out.values - want))))
    report(1, "operator application matches the closed form", worst <= 1e-8,
           f"sup error {worst:.3e}")


def test_criterion_02_inner_products(cfg):
    f = fs.sample_section(parse("omega*sin(pi*t)+sin(2*pi*t)"), cfg.ogrid, cfg.squad)
    nodes = cfg.ogrid.nodes
    targets = (nodes / math.sqrt(2.0), np.full(64, 1.0 / math.sqrt(2.0)), np.zeros(64))
    worst = 0.0
    for n, want in zip((1, 2, 3), targets):
        phi = fs.sample_section(
            parse(f"sqrt(2)*sin({n}*pi*t)"), cfg.ogrid, cfg.squad
        )
        got = fs.fiber_inner_product(f, phi).values
        worst = max(worst, float(np.max(np.abs(got - want))))
    report(2, "fiber inner products match the closed forms", worst <= 1e-10,
           f"worst {worst:.3e}")


def test_criterion_03_fiber_spectra(cfg, decomposition):
    nodes = cfg.ogrid.nodes
    set_err = 0.0
    for i, w in enumerate(nodes):
        want = np.sort(np.array([curve1(w), curve2(w), curve3(w)]))[::-1]
        got = decomposition.eigenvalues[i]
        set_err = max(set_err, float(np.max(np.abs(got - want))))
    curve_err = 0.0
    for cid, form in ((0, curve1), (1, curve2), (2, curve3)):
        curve = decomposition.aligned_curve(cid)
        curve_err = max(curve_err, float(np.nanmax(np.abs(curve - form(nodes)))))
        if np.any(np.isnan(curve)):
            curve_err = float("inf")
    ok = set_err <= 1e-8 and curve_err <= 1e-6
    report(3, "fiber spectra and aligned eigencurves match", ok,
           f"set error {set_err:.3e}, curve error {curve_err:.3e}")


def test_criterion_04_functional_calculus_square(cfg, decomposition):
    w, t = mesh_grids(cfg)
    f = fs.sample_section(parse("omega*sin(pi*t)+sin(2*pi*t)"), cfg.ogrid, cfg.squad)
    out = fs.functional_calculus(decomposition, parse("lambda^2"), f)
    closed = float(np.max(np.abs(out.values - t2f_ref(w, t))))
    twice = fs.apply_quadrature(
        cfg.kernel, fs.apply_quadrature(cfg.kernel, f)
    )
    double = float(np.max(np.abs(out.values - twice.values)))
    ok = closed <= 1e-8 and double <= 1e-10
    report(4, "g(T) for g = lambda^2 matches", ok,
           f"closed form {closed:.3e}, vs T(Tf) {double:.3e}")


def test_criterion_05_projector_axiom_suite(cfg):
    rng = np.random.default_rng(verify.SEED)
    stream = verify._SplitMix64(verify.SEED)
    checked = (
        "projector_idempotence",
        "projector_self_adjoint",
        "projector_contraction",
        "projector_monotone",
        "projector_commutes_with_op",
        "projector_order_upper",
        "projector_order_lower",
        "projector_zero_below_bounds",
        "projector_identity_above_bounds",
    )
    kernels = [cfg.kernel] + [
        random_separable_kernel(rng, max_rank=5) for _ in range(5)
    ]
    worst = {name: 0.0 for name in checked}
    for k in kernels:
        d = fs.decompose_all_fibers(k, cfg.ogrid, cfg.squad)
        lams = verify.random_thresholds(stream, d, 20)
        x = verify.random_sections(stream, cfg.ogrid, cfg.squad, 2)
        apply_k = _on_grid(k, cfg.ogrid, cfg.squad)[1]
        res = verify.projector_axiom_residuals(apply_k, d, lams, x, 1e-12, cfg.epsilon)
        for name in checked:
            worst[name] = max(worst[name], res[name])
    peak = max(worst.values())
    report(5, "projector axiom suite on fixture plus 5 random kernels",
           peak <= 1e-9, f"largest residual {peak:.3e}")


def test_criterion_06_riemann_stieltjes_convergence(cfg, decomposition):
    f = fs.sample_section(parse("omega*sin(pi*t)+sin(2*pi*t)"), cfg.ogrid, cfg.squad)
    tf = fs.apply_quadrature(cfg.kernel, f)
    nf = fs.l22_norm(f)
    errs = []
    bounded = True
    for mesh in (0.04, 0.02, 0.01):
        out = fs.riemann_stieltjes_apply(decomposition, parse("lambda"), f, mesh)
        err = fs.l22_norm(fs.Section(cfg.ogrid, cfg.squad, out.values - tf.values))
        bounded = bounded and err <= mesh * nf
        errs.append(err)
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = bounded and all(r >= 1.6 for r in ratios)
    report(6, "Riemann-Stieltjes sums converge at first order", ok,
           f"errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
           f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}")


def test_criterion_07_mercer_reconstruction(cfg, decomposition):
    full = fs.mercer_reconstruct(decomposition, 3)
    err3 = 0.0
    err2 = 0.0
    dropped = 0.0
    two = fs.mercer_reconstruct(decomposition, 2)
    kernel = fs.kernel_matrices(cfg.kernel, cfg.ogrid, cfg.squad)
    for i, orig in enumerate(kernel):
        err3 = max(err3, float(np.max(np.abs(orig - full.values[i]))))
        err2 = max(err2, float(np.max(np.abs(orig - two.values[i]))))
        tail = decomposition.eigenvalues[i][2] * np.outer(
            decomposition.functions[i][2], decomposition.functions[i][2]
        )
        dropped = max(dropped, float(np.max(np.abs(tail))))
    ok = err3 <= 1e-8 and abs(err2 - dropped) <= 1e-8
    report(7, "Mercer reconstruction at ranks 3 and 2", ok,
           f"rank-3 {err3:.3e}, rank-2 vs dropped curve {abs(err2 - dropped):.3e}")


def test_criterion_08_spm_membership(cfg, decomposition):
    p = fs.Partition.from_ranges(
        cfg.ogrid,
        ((1, 0.0, 1.0 / 3.0), (2, 1.0 / 3.0, 2.0 / 3.0), (3, 2.0 / 3.0, 1.0)),
    )
    mixed = fs.mix_field(decomposition, p)
    member, violations = fs.spm_membership(decomposition, mixed, 1e-8)
    constant, bad = fs.spm_membership(
        decomposition, fs.ScalarField.constant(cfg.ogrid, 0.9), 1e-8
    )
    ok = member and not violations and not constant and len(bad) > 0
    report(8, "mixed field membership and rejection", ok,
           f"violations {len(violations)}, rejected nodes {len(bad)}")


def test_criterion_09_eigensolver_oracle():
    rng = np.random.default_rng(515)
    resid = ortho = trace = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        B = rng.standard_normal((n, n))
        A = 0.5 * (B + B.T)
        vals, vecs = fs.jacobi_eigh(A)
        resid = max(resid, float(np.max(np.abs(A @ vecs - vecs * vals))))
        ortho = max(
            ortho, float(np.max(np.abs(vecs.T @ vecs - np.eye(n))))
        )
        trace = max(trace, abs(float(vals.sum()) - float(np.trace(A))))
    closed = 0.0
    for _ in range(50):
        a, b, c = rng.uniform(-3, 3, 3)
        vals, _ = fs.jacobi_eigh(np.array([[a, b], [b, c]]))
        mean, rad = 0.5 * (a + c), math.sqrt((0.5 * (a - c)) ** 2 + b * b)
        closed = max(
            closed, abs(vals[0] - mean - rad), abs(vals[1] - mean + rad)
        )
    for _ in range(50):
        B = rng.uniform(-2, 2, (3, 3))
        A = 0.5 * (B + B.T)
        vals, _ = fs.jacobi_eigh(A)
        q = np.trace(A) / 3.0
        p1 = A[0, 1] ** 2 + A[0, 2] ** 2 + A[1, 2] ** 2
        p = math.sqrt((sum((A[i, i] - q) ** 2 for i in range(3)) + 2 * p1) / 6.0)
        Bm = (A - q * np.eye(3)) / p
        r = min(1.0, max(-1.0, np.linalg.det(Bm) / 2.0))
        phi = math.acos(r) / 3.0
        hi = q + 2 * p * math.cos(phi)
        lo = q + 2 * p * math.cos(phi + 2 * np.pi / 3.0)
        want = np.array([hi, 3 * q - hi - lo, lo])
        closed = max(closed, float(np.max(np.abs(vals - want))))
    ok = resid <= 1e-10 and ortho <= 1e-12 and trace <= 1e-10 and closed <= 1e-12
    report(9, "eigensolver against characteristic-root oracles", ok,
           f"residual {resid:.2e}, orthonormality {ortho:.2e}, "
           f"trace {trace:.2e}, closed-form {closed:.2e}")


def test_criterion_10_eigenspace_module_closure(cfg):
    w, t = mesh_grids(cfg)
    section = fs.Section(
        cfg.ogrid, cfg.squad, w * math.sqrt(2.0) * np.sin(np.pi * t)
    )
    lam = curve1(w)
    t_section = fs.apply_quadrature(cfg.kernel, section)
    gap = fs.l22_norm(
        fs.Section(cfg.ogrid, cfg.squad, lam * section.values - t_section.values)
    )
    report(10, "eigenspace sections stay closed under the operator",
           gap <= 1e-8, f"residual {gap:.3e}")


def test_criterion_11_determinism(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc1 = main(["decompose", "--config", CONFIG_PATH, "--out", str(out_a)])
    rc2 = main(["decompose", "--config", CONFIG_PATH, "--out", str(out_b)])
    same_files = True
    for name in ("eigencurves.csv", "eigenfunctions.csv", "bounds.csv"):
        same_files = same_files and (
            (out_a / name).read_bytes() == (out_b / name).read_bytes()
        )
    capsys.readouterr()
    rcv1 = main(["verify", "--config", CONFIG_PATH])
    first = capsys.readouterr().out
    rcv2 = main(["verify", "--config", CONFIG_PATH])
    second = capsys.readouterr().out
    ok = (
        rc1 == rc2 == rcv1 == rcv2 == 0
        and same_files
        and first == second
        and first.strip()
    )
    report(11, "decompose and verify are byte-deterministic", bool(ok),
           f"verify table {len(first.splitlines())} lines")
