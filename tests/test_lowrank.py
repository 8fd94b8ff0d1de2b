"""The factored route for separable kernels against the dense oracle.

decompose_all_fibers solves a separable kernel through one QR of its
weighted basis matrix and a small LAPACK solve per fiber.  The oracle is
the dense route: jacobi_eigh of the stack of assembled n x n fiber
matrices, with the same truncation rule.  Both must give the same ranks, the same
eigenvalues and the same truncated operator sum_n lambda_n x_n x_n^T, and the
sum of every fiber's eigenvalues must be the trace of its dense matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberspec as fs
from fiberspec.expr import parse
from fiberspec.kernel import _on_grid

from conftest import random_separable_kernel


def dense_oracle(k, ogrid, squad, rank_tol=1e-10):
    """Per fiber: retained eigenvalues and eigenfunction rows, dense route."""
    out = []
    for vals, vecs in zip(*fs.jacobi_eigh(fs.fiber_matrices(k, ogrid, squad))):
        scale = max(1.0, float(np.max(np.abs(vals))))
        keep = np.abs(vals) > rank_tol * scale
        out.append((vals[keep], vecs[:, keep].T / np.sqrt(squad.weights)))
    return out


def assert_matches_oracle(k, ogrid, squad):
    d = fs.decompose_all_fibers(k, ogrid, squad)
    A = fs.fiber_matrices(k, ogrid, squad)
    for i, (vals, funcs) in enumerate(dense_oracle(k, ogrid, squad)):
        r = d.ranks[i]
        assert r == vals.size
        scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
        assert np.max(np.abs(d.eigenvalues[i, :r] - vals), initial=0.0) <= 1e-12 * scale
        got = d.functions[i, :r]
        op = (got.T * d.eigenvalues[i, :r]) @ got
        want = (funcs.T * vals) @ funcs
        assert np.max(np.abs(op - want)) <= 1e-10
        assert abs(d.eigensums[i] - np.trace(A[i])) <= 1e-12 * scale
    return d


def kernel(*terms):
    return fs.SeparableKernel(tuple((parse(c), parse(b)) for c, b in terms))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_omega=st.integers(1, 6),
    rule=st.sampled_from(["gauss_legendre", "trapezoid"]),
    n_s=st.integers(2, 10),
)
def test_random_separable_matches_dense(seed, n_omega, rule, n_s):
    # 1..5 terms with non-orthonormal trigonometric bases; R > n_s and
    # sign-indefinite fibers both occur
    k = random_separable_kernel(np.random.default_rng(seed), max_rank=5)
    assert_matches_oracle(
        k, fs.build_omega_grid(n_omega), fs.build_s_quadrature(rule, n_s)
    )


def test_duplicated_basis_is_rank_deficient(grids):
    k = kernel(
        ("omega", "sqrt(2)*sin(pi*t)"),
        ("1/2", "sqrt(2)*sin(pi*t)"),
        ("1", "cos(pi*t)"),
    )
    d = assert_matches_oracle(k, *grids)
    assert np.all(d.ranks == 2)


def test_more_terms_than_nodes():
    ogrid = fs.build_omega_grid(5)
    squad = fs.build_s_quadrature("trapezoid", 4)
    k = kernel(*((f"1+omega/{n}", f"cos({n}*t)+t^{n}") for n in range(1, 6)))
    d = assert_matches_oracle(k, ogrid, squad)
    assert np.all(d.ranks == 4)


def test_zero_kernel_matches_dense(grids):
    k = kernel(("0", "sin(pi*t)"))
    d = assert_matches_oracle(k, *grids)
    assert np.all(d.ranks == 0)
    A = fs.fiber_matrices(k, *grids)
    assert np.all(d.eigensums == np.trace(A, axis1=1, axis2=2))


def test_negative_curve_matches_dense(grids):
    k = kernel(("0-omega", "sqrt(2)*sin(pi*t)"), ("1/4", "t"))
    d = assert_matches_oracle(k, *grids)
    assert np.all(d.m.values < 0.0)


def test_tiny_curve_is_truncated(grids):
    k = kernel(("1", "sqrt(2)*sin(pi*t)"), ("1e-14", "sqrt(2)*sin(2*pi*t)"))
    d = assert_matches_oracle(k, *grids)
    assert np.all(d.ranks == 1)


def test_nonfinite_basis_is_domain_error(grids):
    with pytest.raises(fs.errors.DomainError):
        fs.decompose_all_fibers(kernel(("1", "1e308*10+t")), *grids)


def test_kernel_matrices_evaluate_each_expression_once(cfg, monkeypatch):
    calls = []
    evaluate = fs.expr.evaluate

    def spy(e, env):
        calls.append(env)
        return evaluate(e, env)

    monkeypatch.setattr(fs.expr, "evaluate", spy)
    values, _, (curves, B) = _on_grid(cfg.kernel, cfg.ogrid, cfg.squad)
    K = values(slice(None))
    # one call per curve on the whole parameter grid, one per basis on the
    # whole quadrature; the fiber values reuse the factors' samples
    omegas = [env["omega"] for env in calls if "omega" in env]
    ts = [env["t"] for env in calls if "t" in env]
    assert len(calls) == 2 * len(cfg.kernel.terms)
    assert all(np.array_equal(w, cfg.ogrid.nodes) for w in omegas)
    assert all(np.array_equal(t, cfg.squad.nodes) for t in ts)
    assert curves.shape == (len(cfg.ogrid), len(cfg.kernel.terms))
    assert B.shape == (len(cfg.kernel.terms), len(cfg.squad))
    # every fiber matrix is bitwise the one built from its own curve values
    for i in (0, 11, 63):
        assert np.array_equal(K[i], (B.T * curves[i]) @ B)
