import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberspec as fs
from fiberspec import errors, fiber
from fiberspec.expr import BinOp, Num, parse
from fiberspec.fiber import DEFAULT_EIG_TOL, _eigh, _jacobi

from conftest import CONFIG_PATH, curve1, curve2, curve3
from test_mixed_rank import TERMS as MIXED_TERMS

BRIDGE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "perfbench", "bridge_sampled.json"
)


def eig2_closed(a, b, c):
    """Roots of the characteristic polynomial of [[a, b], [b, c]]."""
    mean = 0.5 * (a + c)
    rad = math.sqrt((0.5 * (a - c)) ** 2 + b * b)
    return mean + rad, mean - rad


def eig3_closed(A):
    """Trigonometric closed form for a symmetric 3x3 matrix."""
    p1 = A[0, 1] ** 2 + A[0, 2] ** 2 + A[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diag(A))[::-1]
    q = np.trace(A) / 3.0
    p2 = sum((A[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    B = (A - q * np.eye(3)) / p
    r = min(1.0, max(-1.0, np.linalg.det(B) / 2.0))
    phi = math.acos(r) / 3.0
    lo = q + 2.0 * p * math.cos(phi + 2.0 * np.pi / 3.0)
    hi = q + 2.0 * p * math.cos(phi)
    return np.array([hi, 3.0 * q - hi - lo, lo])


def loop_odd_even(n):
    """The reference schedule: one Python list of positions per sweep.

    Round r swaps the labels at positions (o + 2k, o + 2k + 1), o = r % 2;
    returns the label pairs that meet, one list per round, and the final
    order of the labels.
    """
    order, rounds = list(range(n)), []
    for r in range(n):
        rounds.append([])
        for p in range(r % 2, n - 1, 2):
            rounds[-1].append((min(order[p : p + 2]), max(order[p : p + 2])))
            order[p], order[p + 1] = order[p + 1], order[p]
    return rounds, order


def circle_matchings(n):
    """Every pair p < q once, as disjoint pairs: the circle method."""
    m = n + n % 2
    ring, matchings = list(range(1, m)), []
    for _ in range(m - 1):
        players = [0] + ring
        pairs = zip(players[: m // 2], players[::-1])
        matchings.append([(min(a, b), max(a, b)) for a, b in pairs if max(a, b) < n])
        ring = ring[-1:] + ring[:-1]
    return matchings


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8, 15, 64, 65])
def test_round_robin_matches_list_schedule(n):
    # one sweep of odd-even rounds meets every pair p < q exactly once and
    # leaves the positions reversed
    rounds, order = loop_odd_even(n)
    assert all(len(set(sum(pairs, ()))) == 2 * len(pairs) for pairs in rounds)
    pairs = sorted(pair for pairs in rounds for pair in pairs)
    assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert order == list(range(n))[::-1]
    # _sweep keeps that schedule.  No pair rotates when skip_below is
    # infinite, so every round is a plain swap and W ends reversed.  A
    # matrix coupled only along disjoint pairs keeps every other pair at
    # zero, so each coupled pair rotates, exactly to a diagonal, when it
    # meets, and one sweep leaves every matrix diagonal
    d = np.arange(n, dtype=float)
    W = np.eye(n)[None].copy()
    matchings = circle_matchings(n)
    coupled = np.zeros((len(matchings), n, n))
    coupled[:, np.arange(n), np.arange(n)] = d + 1.0
    for a, matching in zip(coupled, matchings):
        for p, q in matching:
            a[p, q] = a[q, p] = 0.25
    # _jacobi runs _sweep with the divisions of skipped pairs silenced
    with np.errstate(divide="ignore", invalid="ignore"):
        swapped = fiber._sweep(np.diag(d)[None], W, np.full((1, 1), np.inf))
        F = len(coupled)
        swept = fiber._sweep(coupled, np.zeros((F, n, 0)), np.zeros((F, 1)))
    assert np.array_equal(W[0], np.eye(n)[::-1])
    assert np.array_equal(swapped[0], np.diag(d[::-1]))
    assert np.count_nonzero(swept * (1.0 - np.eye(n))) == 0


def test_jacobi_2x2_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = rng.uniform(-3, 3, 3)
        vals, vecs = fs.jacobi_eigh(np.array([[a, b], [b, c]]))
        hi, lo = eig2_closed(a, b, c)
        assert abs(vals[0] - hi) < 1e-12
        assert abs(vals[1] - lo) < 1e-12


def test_jacobi_3x3_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(50):
        B = rng.uniform(-2, 2, (3, 3))
        A = 0.5 * (B + B.T)
        vals, _ = fs.jacobi_eigh(A)
        want = eig3_closed(A)
        assert np.max(np.abs(vals - want)) < 1e-12


def test_jacobi_random_residuals():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        B = rng.standard_normal((n, n))
        A = 0.5 * (B + B.T)
        vals, vecs = fs.jacobi_eigh(A)
        # termination is relative to ||A||_F, so the residual scales with it
        anorm = float(np.sqrt(np.sum(A * A)))
        assert np.max(np.abs(A @ vecs - vecs * vals)) < 1e-11 * max(1.0, anorm)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) < 1e-13
        assert abs(vals.sum() - np.trace(A)) < 1e-12
        assert np.all(np.diff(vals) <= 1e-15)  # descending


def test_jacobi_diagonal_and_degenerate():
    vals, vecs = fs.jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(vals, [3.0, 2.0, 1.0])
    vals, vecs = fs.jacobi_eigh(np.eye(4) * 0.5)
    assert np.all(vals == 0.5)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(4))) < 1e-15


def test_jacobi_zero_and_one_by_one():
    vals, _ = fs.jacobi_eigh(np.zeros((3, 3)))
    assert np.all(vals == 0.0)
    vals, vecs = fs.jacobi_eigh(np.array([[4.0]]))
    assert vals[0] == 4.0 and vecs[0, 0] == 1.0


def test_jacobi_rejects_asymmetry():
    A = np.array([[1.0, 2.0], [2.1, 1.0]])
    with pytest.raises(errors.NotSymmetric):
        fs.jacobi_eigh(A)


def test_symmetry_gate_is_relative_to_the_matrix_scale():
    # the same relative asymmetry is refused at any scale, and one unit in
    # the last place of a huge entry (3.3e4 here) passes
    tiny = 1e-20 * np.array([[1.0, 2.0], [2.1, 1.0]])
    huge = 1e20 * np.array([[1.0, 2.0], [np.nextafter(2.0, 3.0), 1.0]])
    assert huge[1, 0] - huge[0, 1] > 1e4
    for solve in (fs.jacobi_eigh, _eigh):
        with pytest.raises(errors.NotSymmetric):
            solve(tiny)
        vals, _ = solve(huge)
        np.testing.assert_allclose(vals, [3e20, -1e20], rtol=1e-15)


def test_jacobi_rejects_nonfinite():
    # NaN fails every comparison, so it must be caught before the symmetry
    # test and the sweeps
    for bad in (np.nan, np.inf):
        A = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(errors.DomainError):
            fs.jacobi_eigh(A)


def test_jacobi_rejects_nonsquare():
    with pytest.raises(ValueError):
        fs.jacobi_eigh(np.zeros((2, 3)))


def test_jacobi_sweep_budget(monkeypatch):
    rng = np.random.default_rng(10)
    B = rng.standard_normal((6, 6))
    A = 0.5 * (B + B.T)
    monkeypatch.setattr(fiber, "MAX_SWEEPS", 0)
    with pytest.raises(errors.NoConvergence):
        fs.jacobi_eigh(A)


def test_jacobi_sweep_budget_covers_every_matrix_of_a_stack(monkeypatch):
    rng = np.random.default_rng(11)
    B = rng.standard_normal((5, 5))
    diagonal = np.diag([4.0, -1.0, 2.0, 0.0, 3.0])
    monkeypatch.setattr(fiber, "MAX_SWEEPS", 0)
    vals, _ = fs.jacobi_eigh(np.stack([diagonal, diagonal]))
    assert np.array_equal(vals[1], [4.0, 3.0, 2.0, 0.0, -1.0])
    with pytest.raises(errors.NoConvergence):
        fs.jacobi_eigh(np.stack([diagonal, B + B.T, diagonal]))


def symmetric_matrix(rng, kind, n):
    """One test matrix: random, diagonal, zero or with repeated eigenvalues."""
    if kind == "random":
        B = rng.standard_normal((n, n))
        return 0.5 * (B + B.T)
    if kind == "diagonal":
        return np.diag(rng.standard_normal(n))
    if kind == "zero":
        return np.zeros((n, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * rng.choice([-1.0, 0.5, 2.0], size=n)) @ Q.T
    return 0.5 * (A + A.T)


KINDS = ("random", "diagonal", "zero", "repeated")


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 65),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_jacobi_matches_numpy(n, kinds, seed):
    rng = np.random.default_rng(seed)
    A = np.stack([symmetric_matrix(rng, kind, n) for kind in kinds])
    vals, vecs = fs.jacobi_eigh(A)
    assert vals.shape == (len(kinds), n) and vecs.shape == A.shape
    want = np.linalg.eigvalsh(A)[:, ::-1]
    for a, v, V, w in zip(A, vals, vecs, want):
        anorm = float(np.sqrt(np.sum(a * a)))
        assert np.max(np.abs(v - w)) <= 1e-12 * max(1.0, anorm)
        assert np.max(np.abs(a @ V - V * v)) < 1e-11 * max(1.0, anorm)
        assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-13
        assert np.all(np.diff(v) <= 0.0)


def test_stacked_solve_bitwise_equal(cfg):
    # dense rank-3 fibers, random and already diagonal matrices: a matrix
    # that converges early must leave the stack untouched by later rounds,
    # and a LAPACK solve must not depend on the matrices beside it; at odd
    # n every round leaves one row unpaired
    rng = np.random.default_rng(12)
    n = len(cfg.squad)
    fibers = fs.fiber_matrices(cfg.kernel, cfg.ogrid, cfg.squad)[[0, 40]]
    others = [symmetric_matrix(rng, kind, n) for kind in KINDS]
    stack = np.concatenate([fibers, others])
    odd = np.stack([symmetric_matrix(rng, kind, 33) for kind in KINDS])
    for solve in (fs.jacobi_eigh, _eigh):
        for matrices in (stack, odd):
            vals, vecs = solve(matrices)
            for A, v, V in zip(matrices, vals, vecs):
                alone_vals, alone_vecs = solve(A)
                assert alone_vals.tobytes() == v.tobytes()
                assert alone_vecs.tobytes() == V.tobytes()
    # verify's oracle skips the eigenvector updates and keeps the values
    vals, vecs = _jacobi(stack, DEFAULT_EIG_TOL, vectors=False)
    assert vals.tobytes() == fs.jacobi_eigh(stack)[0].tobytes()
    assert vecs.shape == (len(stack), 0, n)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 48),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigh_matches_jacobi(n, kinds, seed):
    rng = np.random.default_rng(seed)
    A = np.stack([symmetric_matrix(rng, kind, n) for kind in kinds])
    vals, vecs = _eigh(A)
    assert vals.shape == (len(kinds), n) and vecs.shape == A.shape
    oracle, _ = fs.jacobi_eigh(A)
    for a, v, V, w in zip(A, vals, vecs, oracle):
        scale = max(1.0, float(np.sqrt(np.sum(a * a))))
        assert np.max(np.abs(v - w)) <= 1e-12 * scale
        assert np.max(np.abs(a @ V - V * v)) <= 1e-12 * scale
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-12
        assert np.all(np.diff(v) <= 0.0)


def unit_columns(vecs):
    """Index of the unit vector in every column of a signed permutation."""
    assert np.array_equal(np.abs(vecs).sum(axis=-2), np.ones(vecs.shape[-1]))
    return np.argmax(np.abs(vecs), axis=-2)


def test_equal_eigenvalues_keep_solver_column_order():
    # numpy's default argsort is stable anyway below 16 entries, so the
    # stacks are large; eigenvectors of a diagonal matrix are unit vectors,
    # so the column order inside every group of equal eigenvalues shows
    rng = np.random.default_rng(13)
    for n in (32, 48, 64):
        diagonals = rng.choice([-1.0, 0.5, 2.0, 3.0], size=(3, n))
        stack = np.stack([np.diag(d) for d in diagonals])
        for solve in (fs.jacobi_eigh, _eigh):
            vals, vecs = solve(stack)
            for d, A, v, V in zip(diagonals, stack, vals, vecs):
                assert np.array_equal(v, np.sort(d)[::-1])
                got = unit_columns(V)
                if solve is fs.jacobi_eigh:
                    # the rotations leave a diagonal matrix as it is
                    w, source = d, np.arange(n)
                else:
                    w, raw = np.linalg.eigh(A)
                    source = unit_columns(raw)
                for x in np.unique(d):
                    assert np.array_equal(got[v == x], source[w == x])


def test_eigh_keeps_the_solver_contract(monkeypatch):
    vals, vecs = _eigh(np.full((2, 2), 1e200))
    assert np.array_equal(vals, [2e200, 0.0])
    assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) < 1e-15
    with pytest.raises(ValueError):
        _eigh(np.zeros((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(errors.DomainError):
            _eigh(np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(errors.NotSymmetric):
        _eigh(np.array([[1.0, 2.0], [2.1, 1.0]]))
    # finite entries whose eigenvalue is not a finite double
    with pytest.raises(errors.DomainError):
        _eigh(np.full((2, 2), 1e308))

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(errors.NoConvergence):
        _eigh(np.eye(3))


def test_jacobi_huge_entries_are_scaled_exactly():
    huge = np.full((2, 2), 1e200)
    vals, vecs = fs.jacobi_eigh(huge)
    assert vals[0] == 2e200 and vals[1] == 0.0
    assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) < 1e-15
    ordinary = np.array([[2.0, 1.0], [1.0, -3.0]])
    stacked_vals, stacked_vecs = fs.jacobi_eigh(np.stack([huge, ordinary]))
    alone_vals, alone_vecs = fs.jacobi_eigh(ordinary)
    assert stacked_vals[1].tobytes() == alone_vals.tobytes()
    assert stacked_vecs[1].tobytes() == alone_vecs.tobytes()
    # finite entries whose eigenvalue is not a finite double
    with pytest.raises(errors.DomainError):
        fs.jacobi_eigh(np.full((2, 2), 1e308))


def test_fiber_matrices_are_symmetric(cfg):
    A = fs.fiber_matrices(cfg.kernel, cfg.ogrid, cfg.squad)
    assert A.shape == (64, 64, 64)
    assert np.array_equal(A, A.transpose(0, 2, 1))
    sw = np.sqrt(cfg.squad.weights)
    K = fs.kernel_matrices(cfg.kernel, cfg.ogrid, cfg.squad)
    assert np.max(np.abs(A - sw[:, None] * K * sw[None, :])) < 1e-15


def test_eigenfunctions_quadrature_orthonormal(decomposition):
    w = decomposition.squad.weights
    for i in (0, 31, 63):
        funcs = decomposition.functions[i]
        gram = funcs @ (funcs * w).T
        assert np.max(np.abs(gram - np.eye(funcs.shape[0]))) < 1e-12


def test_fixture_rank_and_eigenvalues(cfg, decomposition):
    assert np.all(decomposition.ranks == 3)
    nodes = cfg.ogrid.nodes
    for i in (0, 20, 45, 63):
        want = np.sort(
            np.array([curve1(nodes[i]), curve2(nodes[i]), curve3(nodes[i])])
        )[::-1]
        assert np.max(np.abs(decomposition.eigenvalues[i] - want)) < 1e-10


def test_fixture_eigenfunctions_match_sines(cfg, decomposition):
    # at the first node curve1 > curve2 > curve3, so sorted order is the
    # sine order; sign convention makes the peak positive, matching the
    # positive sine lobes
    t = cfg.squad.nodes
    funcs = decomposition.functions[0]
    for n in (1, 2, 3):
        want = np.sqrt(2.0) * np.sin(n * np.pi * t)
        got = funcs[n - 1]
        if np.dot(got, want) < 0:
            pytest.fail("sign convention should make the main lobe positive")
        assert np.max(np.abs(got - want)) < 1e-6


@pytest.mark.parametrize("omega_n", [64, 63, 13])
def test_alignment_tracks_through_crossing(omega_n):
    # curve1 and curve2 cross at omega = 1/2, a node of every odd grid;
    # past it the sorted order permutes while aligned ids keep following
    # their curves
    cfg = fs.load_config(CONFIG_PATH, omega_n=omega_n)
    decomposition = fs.decompose(cfg)
    nodes = cfg.ogrid.nodes
    for cid, form in ((0, curve1), (1, curve2), (2, curve3)):
        curve = decomposition.aligned_curve(cid)
        assert not np.any(np.isnan(curve))
        assert np.max(np.abs(curve - form(nodes))) < 1e-10
    past = np.nonzero(nodes > 0.55)[0][0]
    assert decomposition.labels[past][0] == 1  # largest eigenvalue is curve2


def lead_component(row):
    """Index of the first component within 1e-8 of the peak magnitude."""
    mag = np.abs(row)
    return int(np.nonzero(mag >= (1.0 - 1e-8) * mag.max())[0][0])


def test_sign_convention_persists(decomposition):
    for i in (5, 40):
        for row in decomposition.functions[i]:
            assert row[lead_component(row)] > 0


def test_aligned_curves_keep_one_sign(cfg, decomposition):
    # sqrt(2) sin(2 pi t) peaks at t = 1/4 and t = 3/4 with opposite signs
    # and equal magnitudes; the convention must pick the same peak, and so
    # the same sign, in every fiber
    t = cfg.squad.nodes
    for cid in range(decomposition.num_curves):
        rows = decomposition.functions[decomposition._curve_mask(cid)]
        assert rows.shape == (decomposition.n_fibers, len(t))
        leads = {lead_component(row) for row in rows}
        assert len(leads) == 1
        lead = leads.pop()
        assert np.all(rows[:, lead] > 0)
        want = np.sqrt(2.0) * np.sin((cid + 1) * np.pi * t)
        assert np.max(np.abs(rows - want)) < 1e-12


def test_rank_truncation_drops_tiny_curves(grids):
    ogrid, squad = grids
    k = fs.SeparableKernel(
        (
            (parse("1"), parse("sqrt(2)*sin(pi*t)")),
            (parse("1e-14"), parse("sqrt(2)*sin(2*pi*t)")),
        )
    )
    d = fs.decompose_all_fibers(k, ogrid, squad, rank_tol=1e-10)
    assert np.all(d.ranks == 1)


@pytest.mark.parametrize("alpha", [1e-9, 1e-12])
def test_rank_truncation_keeps_a_small_scale_kernel(cfg, alpha):
    # trig_rank3 with every curve scaled by alpha: its three curves are
    # nonzero at every midpoint node, so all three should be kept
    k = fs.SeparableKernel(
        tuple((BinOp("*", Num(alpha), c), b) for c, b in cfg.kernel.terms)
    )
    d = fs.decompose_all_fibers(k, cfg.ogrid, cfg.squad, cfg.tolerances.rank_tol)
    assert d.num_curves == 3
    assert np.all(d.ranks == 3)


def test_zero_kernel_decomposition(grids):
    ogrid, squad = grids
    k = fs.SeparableKernel(((parse("0"), parse("sin(pi*t)")),))
    d = fs.decompose_all_fibers(k, ogrid, squad)
    assert np.all(d.ranks == 0)
    assert d.num_curves == 0
    assert np.all(d.m.values == 0.0)
    assert np.all(d.M.values == 0.0)


@pytest.mark.parametrize("kind", ["separable", "sampled"])
def test_solve_puts_the_kernel_on_its_grids_once(grids, monkeypatch, kind):
    # kernel._on_grid is the one place that knows how each kind is stored:
    # the solve takes the values or the separable factors from one call
    ogrid, squad = grids
    k = fs.SeparableKernel(
        (
            (parse("1+omega"), parse("sqrt(2)*sin(pi*t)")),
            (parse("omega/2"), parse("sqrt(2)*sin(2*pi*t)")),
        )
    )
    if kind == "sampled":
        k = fs.sample_kernel(parse("(1+omega)*t*s+min(t,s)"), ogrid, squad)
    calls = []
    on_grid = fs.kernel._on_grid

    def spy(kernel, og, sq):
        calls.append(kernel)
        return on_grid(kernel, og, sq)

    monkeypatch.setattr(fs.kernel, "_on_grid", spy)
    monkeypatch.setattr(fiber, "_on_grid", spy)
    fs.decompose_all_fibers(k, ogrid, squad)
    assert len(calls) == 1 and calls[0] is k


def test_solve_refuses_a_sampled_kernel_on_another_rule(grids):
    # verify's grid check solves on the doubled rule, which a sampled
    # kernel has no values for
    ogrid, squad = grids
    k = fs.sample_kernel(parse("t*s"), ogrid, squad)
    doubled = fs.build_s_quadrature("gauss_legendre", 2 * len(squad))
    text = "^sampled kernel was sampled on different grids$"
    with pytest.raises(errors.GridMismatch, match=text):
        fiber._solve_fibers(k, ogrid, doubled)


def test_spectral_bounds_cover_zero(decomposition):
    m, M = decomposition.m, decomposition.M
    assert np.all(m.values <= 0.0)
    assert np.all(M.values >= 0.0)
    # PSD fixture: M is the largest eigenvalue, m is exactly 0
    assert np.all(m.values == 0.0)
    top = np.array([v[0] for v in decomposition.eigenvalues])
    assert np.array_equal(M.values, top)


def test_bounds_with_negative_curve(grids):
    ogrid, squad = grids
    k = fs.SeparableKernel(((parse("0-omega"), parse("sqrt(2)*sin(pi*t)")),))
    d = fs.decompose_all_fibers(k, ogrid, squad)
    assert np.allclose(d.m.values, -ogrid.nodes, atol=1e-12)
    assert np.all(d.M.values == 0.0)


def test_degenerate_curves_keep_distinct_ids(grids):
    ogrid, squad = grids
    k = fs.SeparableKernel(
        (
            (parse("1/2"), parse("sqrt(2)*sin(pi*t)")),
            (parse("1/2"), parse("sqrt(2)*sin(2*pi*t)")),
        )
    )
    d = fs.decompose_all_fibers(k, ogrid, squad)
    for labels in d.labels:
        assert sorted(labels.tolist()) == [0, 1]


@pytest.mark.parametrize("case", ["trig_rank3", "bridge_sampled", "mixed_rank"])
def test_derived_fields_match_their_formulas(case):
    if case == "mixed_rank":
        k = fs.SeparableKernel(tuple((parse(c), parse(b)) for c, b in MIXED_TERMS))
        ogrid = fs.build_omega_grid(16)
        squad = fs.build_s_quadrature("gauss_legendre", 24)
    else:
        cfg = fs.load_config(CONFIG_PATH if case == "trig_rank3" else BRIDGE_PATH)
        k, ogrid, squad = cfg.kernel, cfg.ogrid, cfg.squad
    d = fs.decompose_all_fibers(k, ogrid, squad)
    # the ranks the truncation counts
    vals, vecs = fiber._solve_fibers(k, ogrid, squad)
    ranks = fiber._retain(vals, vecs, squad, fiber.DEFAULT_RANK_TOL)[2]
    assert d.ranks.dtype == ranks.dtype and np.array_equal(d.ranks, ranks)
    lam = d.eigenvalues
    assert d.m.values.tobytes() == np.min(lam, axis=1, initial=0.0).tobytes()
    assert d.M.values.tobytes() == np.max(lam, axis=1, initial=0.0).tobytes()
    # fiber by fiber: the retained eigenvalues and 0, descending, then -inf
    # for every padded slot
    pad = lam.shape[1] - ranks
    rows = [
        sorted([*lam[i, :r].tolist(), 0.0], reverse=True) + [-math.inf] * pad[i]
        for i, r in enumerate(ranks.tolist())
    ]
    spectra = d._spectra
    assert spectra.tobytes() == np.array(rows).tobytes()
    assert np.array_equal(d.M.values, spectra[:, 0])
    lowest = np.min(spectra, axis=1, where=spectra > -np.inf, initial=0.0)
    assert np.array_equal(d.m.values, lowest)
    # distances to the spectrum: before the spectrum was cached, the padded
    # zeros and |v| stood in for its 0
    rng = np.random.default_rng(3)
    fields = (
        np.zeros(len(ogrid)),
        d.M.values,
        lam[:, 0] + 1e-3,
        rng.uniform(d.m.values - 1.0, d.M.values + 1.0),
    )
    for v in fields:
        near = np.min(np.abs(lam - v[:, None]), axis=1, initial=np.inf)
        want = np.minimum(np.abs(v), near)
        got = fs.membership_distances(d, fs.ScalarField(ogrid, v))
        assert got.tobytes() == want.tobytes()


def test_trace_equals_eigensum(cfg, decomposition):
    A = fs.fiber_matrices(cfg.kernel, cfg.ogrid, cfg.squad)
    gap = decomposition.eigensums - np.trace(A, axis1=1, axis2=2)
    assert np.max(np.abs(gap)) < 1e-12
