"""Invariant suite behind the verify command.

run_suite measures one value per check, and one loop then compares each
with its row of BOUNDS: a bound that is a sum of coefficient * unit terms
over units computed once per run, with its relation.  The whole suite is
deterministic because the randomized probes come from a seeded in-package
SplitMix64 stream, so verify never loads numpy.random.  A run puts the
kernel on its grids once, and the checks that need its values take them a
chunk of fibers at a time, so the suite never holds the whole
(F, n_s, n_s) kernel stack.  Each intermediate is computed once: the
grid check solves and truncates the doubled rule for its eigenvalues
alone, with no curve alignment, the right-continuity probe reads the
projection of its section that the axiom loop made, and the mixing checks
read the membership distances directly.  The Riemann-Stieltjes sums for
g = lambda are compared with the error the spectral theorem predicts for
them.  The projector axiom block is reusable against any decomposition
and the quadrature action of its kernel.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr
from ._record import Record
from .calculus import (
    _interval,
    _multiply,
    _project,
    functional_calculus,
    riemann_stieltjes_apply,
)
from .config import Config, decompose, section_by_name
from .fiber import FiberDecomposition, _assemble, _jacobi, _retain, _solve_fibers
from .grid import (
    OmegaGrid,
    ScalarField,
    Section,
    SQuadrature,
    _l22,
    _pairing,
    _require_finite,
    build_s_quadrature,
)
from .kernel import _on_grid
from .spectrum import Partition, membership_distances, mix_field

SEED = 1347
# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): word i of a stream is a
# mix of seed + i * _GAMMA, so the stream is a counter
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_WORD = (1 << 64) - 1
# fibers (or random probes) per chunk of the checks that would otherwise
# hold (F, n_s, n_s) stacks: a chunk's kernel values and temporaries stay
# a small part of one stack
_CHUNK = 8

# the Riemann-Stieltjes meshes of the rs_mesh_bound checks
_RS_MESHES = (0.04, 0.02)

# Every check's bound, in print order: name -> (relation, *terms), where
# the bound is the sum of coefficient * unit over the (coefficient, unit)
# terms.  run_suite computes the units once per run:
#   "1"           one;
#   "|f0|"        the L2,2 norm of f0, the probe of the calculus checks;
#   "member_tol"  the configured membership tolerance;
#   "rule"        1 on a Gauss-Legendre s rule and 10 on any other.
BOUNDS = {
    "omega_weights_sum": ("<=", (1e-12, "1")),
    "quadrature_moments": ("<=", (1e-13, "rule")),
    "kernel_symmetry": ("<=", (1e-12, "1")),
    "kernel_psd": ("<=", (1e-12, "1")),
    "eigen_residual": ("<=", (1e-10, "1")),
    "eigen_orthonormality": ("<=", (1e-10, "1")),
    "trace_identity": ("<=", (1e-9, "1")),
    "alignment_distinct_ids": ("<=", (0.5, "1")),
    "eigenvalues_match_jacobi": ("<=", (1e-10, "1")),
    "eigenvalue_grid_stability": ("<=", (1e-10, "1")),
    "rayleigh_bounds": ("<=", (1e-10, "1")),
    "two_path_equivalence": ("<=", (1e-9, "1")),
    "projector_idempotence": ("<=", (1e-10, "1")),
    "projector_self_adjoint": ("<=", (1e-10, "1")),
    "projector_contraction": ("<=", (1e-12, "1")),
    "projector_contraction_equality": ("<=", (1e-12, "1")),
    "projector_monotone": ("<=", (1e-10, "1")),
    "projector_commutes_with_op": ("<=", (1e-9, "1")),
    "projector_order_upper": ("<=", (1e-10, "1")),
    "projector_order_lower": ("<=", (1e-10, "1")),
    "projector_right_sup": ("<=", (1e-10, "1")),
    "projector_zero_below_bounds": ("<=", (1e-12, "1")),
    "projector_identity_above_bounds": ("<=", (1e-12, "1")),
    "funcalc_identity_matches_series": ("<=", (1e-15, "1")),
    "funcalc_constant_one": ("<=", (1e-15, "1")),
    "funcalc_square_vs_double_apply": ("<=", (1e-9, "1")),
    "funcalc_norm_bound": ("<=", (1e-9, "1")),
    "rs_single_cell_constant": ("<=", (1e-12, "1")),
    **{
        f"rs_mesh_bound_{mesh:g}": ("<=", (mesh, "|f0|"), (1e-12, "1"))
        for mesh in _RS_MESHES
    },
    "rs_error_matches_prediction": ("<=", (1e-9, "1")),
    "eigenspace_module_closure": ("<=", (1e-8, "1")),
    "mercer_reconstruction": ("<=", (1e-8, "1")),
    "mixing_membership": ("<=", (1.0, "member_tol")),
    "membership_bounds": ("<=", (1.0, "member_tol")),
    "zero_field_membership": ("<=", (1.0, "member_tol")),
    "membership_rejects_outside": (">=", (1e-3, "1")),
}


class CheckResult(Record):
    __slots__ = ("name", "value", "bound", "relation", "passed", "note")

    def __init__(
        self,
        name: str,
        value: float,
        bound: float,
        relation: str,  # "<=" or ">="
        passed: bool,
        note: str = "",
    ):
        super().__init__(name, value, bound, relation, passed, note)


class _SplitMix64:
    """Seeded probe stream with one draw, _words: a counter, so a split of
    a draw gives the words of one whole draw.  _normals, _uniforms and
    _integers turn words into numbers, one word per number."""

    def __init__(self, seed: int):
        self._seed = seed & _WORD
        self._drawn = 0

    def _words(self, count: int) -> np.ndarray:
        """The next count words; uint64 arithmetic wraps modulo 2**64."""
        z = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._seed)
        t = z >> np.uint64(30)
        z ^= t
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= np.uint64(_MIX2)
        z ^= np.right_shift(z, np.uint64(31), out=t)
        return z


def _normals(z: np.ndarray) -> np.ndarray:
    """Standard normals by Box-Muller, one word each: the radius from its
    high 32 bits, as a uniform in (0, 1], the angle from its low 32 bits.
    Overwrites z."""
    r = (z >> np.uint64(32)).astype(float)
    r += 1.0
    r *= 2.0**-32
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    z &= np.uint64(0xFFFFFFFF)
    angle = z.astype(float)
    angle *= 2.0 * math.pi * 2.0**-32
    r *= np.cos(angle, out=angle)
    return r


def _uniforms(z: np.ndarray, low, high) -> np.ndarray:
    """Uniforms in [low, high) from the top 53 bits of each word; low and
    high broadcast against z."""
    u = (z >> np.uint64(11)).astype(float)
    u *= 2.0**-53
    return low + (high - low) * u


def _integers(z: np.ndarray, low: int, high) -> np.ndarray:
    """int64 integers in [low, high) from the top 32 bits of each word, for
    high - low up to 2**32; high broadcasts against z."""
    span = (np.asarray(high) - low).astype(np.uint64)
    return low + ((z >> np.uint64(32)) * span >> np.uint64(32)).astype(np.int64)


def _results(values: dict, units: dict, notes: dict) -> list:
    """A CheckResult for every row of BOUNDS whose check ran, that is,
    whose name values holds, in table order."""
    results = []
    for name, (relation, *terms) in BOUNDS.items():
        if name in values:
            value = float(values[name])
            bound = float(sum(c * units[unit] for c, unit in terms))
            passed = value <= bound if relation == "<=" else value >= bound
            results.append(
                CheckResult(name, value, bound, relation, passed, notes.get(name, ""))
            )
    return results


def random_sections(rng, ogrid: OmegaGrid, squad: SQuadrature, count: int):
    """count standard normal section values, (count, F, n_s), from one draw
    of count * F * n_s words of the _SplitMix64 stream rng."""
    shape = (count, len(ogrid), len(squad))
    return _normals(rng._words(math.prod(shape))).reshape(shape)


def random_thresholds(rng, d: FiberDecomposition, count: int):
    """count piecewise trigonometric thresholds spanning the spectral
    range, (count, F), from the _SplitMix64 stream rng.  Each takes one word
    for its piece count p in 1..3, then 5p - 1 words: p - 1 inner edges, and
    a base, amplitude, frequency and phase per piece.  A node on an edge
    takes the later piece."""
    lo, hi = _interval(d, 0.0)
    span = max(hi - lo, 1e-3)
    nodes = d.ogrid.nodes
    # low and high of the base, amplitude and phase
    low = np.array([lo - 0.3 * span, 0.0, 0.0])
    high = np.array([hi + 0.3 * span, 0.6 * span, 2.0 * np.pi])
    vals = np.empty((count, nodes.size))
    for row in vals:
        p = int(_integers(rng._words(1), 1, 4)[0])
        z = rng._words(5 * p - 1)
        edges = np.sort(_uniforms(z[: p - 1], 0.0, 1.0))
        draws = z[p - 1 :].reshape(p, 4)
        base, amp, phase = _uniforms(draws[:, [0, 1, 3]], low, high).T
        freq = _integers(draws[:, 2], 1, 4)
        i = np.searchsorted(edges, nodes, side="right")
        row[:] = base[i] + amp[i] * np.cos(freq[i] * np.pi * nodes + phase[i])
    return vals


def _first_curve_data(d: FiberDecomposition):
    """Eigenvalues (F,) and eigenfunction values (F, n_s) of aligned curve 0.

    Fibers where the curve is absent contribute a zero row and value 0, so
    downstream identities stay exact there.
    """
    hit = d._curve_mask(0)
    lam = np.where(hit, d.eigenvalues, 0.0).sum(axis=1)
    psi = np.where(hit[:, :, None], d.functions, 0.0).sum(axis=1)
    return lam, psi


def projector_axiom_residuals(
    apply_k,
    d: FiberDecomposition,
    lams: np.ndarray,
    x: np.ndarray,
    tie: float,
    epsilon: float,
) -> dict:
    """Residuals of the projector family axioms over the thresholds lams
    (count, F), compared with tie, and the section values x (count, F, n_s).

    Keys are the projector rows of BOUNDS, in table order.  The operator
    itself enters through apply_k, the quadrature action of
    kernel._on_grid on d's grids, so the axioms exercise both
    representations.  Each axiom is one array expression per threshold.
    """
    res = {name: 0.0 for name in BOUNDS if name.startswith("projector_")}

    def bump(name, values):
        res[name] = max(res[name], float(np.max(values, initial=0.0)))

    ogrid, squad = d.ogrid, d.squad
    tx = apply_k(x)
    norms = _l22(ogrid, squad, x)
    self_ip = _pairing(squad, x, x)
    tf_ip = _pairing(squad, tx, x)
    # right-continuity surrogate on f = x[0]: approaching the threshold
    # from below reaches the same quadratic form <f, E f> wherever the
    # approach distance clears the local spectral gap
    f = x[0]
    steps = np.array([1.0, 0.5, 0.2, 0.05])
    # fiber spectra; their -inf padding never falls in the window below
    spec = d._spectra

    for lam_vals in lams:
        ex = _project(d, x, lam_vals, tie)
        etx = _project(d, tx, lam_vals, tie)
        eex = _project(d, ex, lam_vals, tie)
        bump("projector_idempotence", _l22(ogrid, squad, eex - ex))
        # each section is paired with the next one, cyclically
        bump(
            "projector_self_adjoint",
            np.abs(
                _pairing(squad, ex, np.roll(x, -1, axis=0))
                - _pairing(squad, x, np.roll(ex, -1, axis=0))
            ),
        )
        bump("projector_contraction", _l22(ogrid, squad, ex) - norms)
        tex = apply_k(ex)
        bump("projector_commutes_with_op", _l22(ogrid, squad, etx - tex))
        ex_ip = _pairing(squad, ex, x)
        etx_ip = _pairing(squad, etx, x)
        # E keeps every eigenvalue up to lambda + tie
        bump("projector_order_upper", etx_ip - (lam_vals + tie) * ex_ip)
        lower = lam_vals * (self_ip - ex_ip) - (tf_ip - etx_ip)
        bump("projector_order_lower", lower)
        # ex_ip[0] is <f, E f> at this threshold
        shifted = lam_vals - steps[:, None]
        cur_ip = _pairing(squad, f, _project(d, f, shifted, tie))
        bump("projector_right_sup", cur_ip - ex_ip[0])
        bump("projector_right_sup", cur_ip[:-1] - cur_ip[1:])
        mu = lam_vals[:, None]
        window = (spec > mu - steps[-1] - 1e-9) & (spec <= mu + tie + 1e-15)
        valid = ~np.any(window, axis=1)
        bump("projector_right_sup", np.abs(cur_ip[-1] - ex_ip[0])[valid])

    # monotonicity over pointwise min/max pairs of consecutive thresholds
    for a, b in zip(lams, lams[1:]):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        e_lo = _project(d, x[:2], lo, tie)
        e_hi = _project(d, x[:2], hi, tie)
        for e in (_project(d, e_lo, hi, tie), _project(d, e_hi, lo, tie)):
            bump("projector_monotone", _l22(ogrid, squad, e - e_lo))

    # boundary thresholds: strictly below every spectral value and above
    # all of them
    below = d.m.values - 1.0
    above = d.M.values + max(epsilon, 1e-9)
    bump(
        "projector_zero_below_bounds",
        _l22(ogrid, squad, _project(d, x, below, tie)),
    )
    bump(
        "projector_identity_above_bounds",
        _l22(ogrid, squad, _project(d, x, above, tie) - x),
    )

    # norm equality on an eigenfunction strictly below its threshold
    lam1, psi = _first_curve_data(d)
    kept = _project(d, psi, lam1 + 1.0, tie)
    gap = _l22(ogrid, squad, kept) - _l22(ogrid, squad, psi)
    bump("projector_contraction_equality", abs(gap))
    return res


def _chunks(count):
    """Consecutive slices of _CHUNK indices that cover range(count); the
    last one may be shorter."""
    return [slice(lo, min(lo + _CHUNK, count)) for lo in range(0, count, _CHUNK)]


def _rs_identity_error(d: FiberDecomposition, f, mesh, epsilon, tie_tol):
    """What the Riemann-Stieltjes sum for g = lambda minus T f must be.

    Each spectral value lambda moves to the right end c_{k(lambda)} of its
    partition cell, the first cut with lambda <= c_k + tie, and the null
    component to c_{k(0)}, so the difference of section values f (F, n_s)
    is sum_n (c_{k(lambda_n)} - lambda_n) <f, x_n> x_n
    + c_{k(0)} (f - sum_n <f, x_n> x_n).  The cuts, the cells and the
    pairings are computed here, apart from the multiplier that both the
    sum and T f use.
    """
    lo, hi = _interval(d, epsilon)
    cuts = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / mesh)) + 1)
    reach = cuts + tie_tol

    def right_end(lam):
        return cuts[np.count_nonzero(reach < lam[..., None], axis=-1)]

    lam = d.eigenvalues
    coeff = _pairing(d.squad, f[:, None, :], d.functions)
    kept = np.einsum("fn,fnj->fj", coeff, d.functions)
    moved = np.einsum("fn,fnj->fj", (right_end(lam) - lam) * coeff, d.functions)
    return moved + right_end(np.asarray(0.0)) * (f - kept)


def _random_node_partition(rng, d: FiberDecomposition) -> Partition:
    """Random partition: node i draws label 0 or one more than one of its
    ranks[i] retained curve ids."""
    picks = _integers(rng._words(d.n_fibers), 0, d.ranks + 1)
    options = np.pad(d.labels + 1, ((0, 0), (1, 0)))
    return Partition(options[np.arange(d.n_fibers), picks])


def _legendre_rows(x, deg):
    """P_k(x) for k = 0..deg, one row per k, by legvander's recurrence."""
    v = np.empty((deg + 1,) + x.shape)
    v[0] = 1.0
    if deg > 0:
        v[1] = x
        for i in range(2, deg + 1):
            v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return v


def _moment_error(squad: SQuadrature) -> float:
    """Worst error of an n-point rule on P_k(2t - 1), k < 2n, which integrate
    to 1 (k = 0) and 0; monomials t^k amplify node rounding by about k."""
    n = len(squad)
    moments = _legendre_rows(2.0 * squad.nodes - 1.0, 2 * n - 1) @ squad.weights
    moments[0] -= 1.0
    return float(np.max(np.abs(moments)))


def run_suite(cfg: Config) -> list:
    """Run every invariant check against a configuration: measure each
    check's value, then compare it with its row of BOUNDS."""
    rng = _SplitMix64(SEED)
    values = {}
    ogrid, squad = cfg.ogrid, cfg.squad
    tol = cfg.tolerances

    # quadrature sanity
    values["omega_weights_sum"] = abs(float(ogrid.weights.sum()) - 1.0)
    gauss = squad.rule == "gauss_legendre"
    if gauss:
        values["quadrature_moments"] = _moment_error(squad)
    else:
        values["quadrature_moments"] = max(
            abs(float(squad.weights.sum()) - 1.0),
            abs(float(squad.nodes @ squad.weights) - 0.5),
        )

    # kernel level
    values["kernel_symmetry"] = cfg.kernel.asymmetry

    d = decompose(cfg)
    lo, hi = _interval(d, cfg.epsilon)
    values["kernel_psd"] = max(0.0, -lo)

    # the kernel is put on the grids once for every check below; the ones
    # on its values take a chunk of fibers at a time, so no whole kernel
    # stack is ever held.  Eigensolver quality on the assembled fibers:
    # padded slots have zero rows, so they leave the residual at 0 and the
    # Gram matrix is compared with the identity on the retained slots only.
    # The sum of every fiber's eigenvalues before truncation is compared
    # with the trace of its assembled matrix.  The kernel reconstruction
    # sum_n lambda_n x_n x_n^T from the retained eigenpairs, whose check is
    # reported further down, uses the same chunks; padded slots add nothing
    kernel, apply_k, _ = _on_grid(cfg.kernel, ogrid, squad)
    funcs = d.functions
    scale = np.maximum(1.0, np.max(np.abs(d.eigenvalues), axis=1, initial=0.0))
    resid = ortho = trace_gap = sup_err = 0.0
    for b in _chunks(d.n_fibers):
        K, f, lam = kernel(b), funcs[b], d.eigenvalues[b]
        vecs = (f * np.sqrt(squad.weights)).transpose(0, 2, 1)
        A = _assemble(K, squad)
        gap = np.abs(d.eigensums[b] - np.trace(A, axis1=1, axis2=2))
        trace_gap = np.maximum(trace_gap, np.max(gap))
        err = np.abs(A @ vecs - vecs * lam[:, None, :])
        del A
        worst = np.max(err.max(axis=(1, 2), initial=0.0) / scale[b])
        resid = np.maximum(resid, worst)
        gram = f @ (f * squad.weights).transpose(0, 2, 1)
        eye = np.eye(f.shape[1]) * (d.labels[b] >= 0)[:, None, :]
        ortho = np.maximum(ortho, np.max(np.abs(gram - eye), initial=0.0))
        err = (f.transpose(0, 2, 1) * lam[:, None, :]) @ f
        err -= K
        sup_err = np.maximum(sup_err, np.max(np.abs(err, out=err)))
    del K, err
    values["eigen_residual"] = resid
    values["eigen_orthonormality"] = ortho
    values["trace_identity"] = trace_gap
    ordered = np.sort(d.labels, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
    values["alignment_distinct_ids"] = float(np.any(repeated))

    # the production eigenvalues, from LAPACK on the factored cores or the
    # assembled fibers, agree with the independent Jacobi solver on the
    # assembled matrices; truncated and padded slots compare as zeros
    picked = sorted({0, d.n_fibers // 2, d.n_fibers - 1})
    A = _assemble(kernel(picked), squad)
    oracle, _ = _jacobi(A, tol.eig_tol, vectors=False)
    del A
    produced = np.zeros(oracle.shape)
    produced[:, : d.eigenvalues.shape[1]] = d.eigenvalues[picked]
    produced = np.sort(produced, axis=1)[:, ::-1]
    scale = np.maximum(1.0, np.max(np.abs(oracle), axis=1))
    values["eigenvalues_match_jacobi"] = np.max(
        np.abs(produced - oracle) / scale[:, None]
    )

    # grid refinement stability of the eigenvalues: the kernel is solved
    # and truncated on the doubled rule, so the drift is the error of this
    # rule; the slots below both ranks are compared
    if gauss and len(squad) >= 8:
        doubled = build_s_quadrature("gauss_legendre", 2 * len(squad))
        ref, _, ref_ranks = _retain(
            *_solve_fibers(cfg.kernel, ogrid, doubled), doubled, tol.rank_tol
        )
        r = min(d.eigenvalues.shape[1], ref.shape[1])
        both = np.arange(r) < np.minimum(d.ranks, ref_ranks)[:, None]
        gap = np.abs(d.eigenvalues[:, :r] - ref[:, :r])
        values["eigenvalue_grid_stability"] = np.max(gap, where=both, initial=0.0)

    # Rayleigh quotients stay inside the spectral bounds; the 50 probes are
    # drawn and applied a chunk at a time, and the stream is a counter, so
    # they are the numbers of one (50, F, n_s) draw
    rayleigh = 0.0
    for b in _chunks(50):
        x = random_sections(rng, ogrid, squad, b.stop - b.start)
        den = _pairing(squad, x, x)
        # the products of <Tx, x> are formed in place
        num = apply_k(x)
        num *= x
        quot = _require_finite(num @ squad.weights, "field") / den
        outside = np.maximum(d.m.values - quot, quot - d.M.values)
        rayleigh = np.maximum(rayleigh, np.max(outside, initial=0.0))
    values["rayleigh_bounds"] = rayleigh

    # two representations of the operator agree
    named = [section_by_name(cfg, name).values for name in cfg.sections]
    x = np.stack([*named, *random_sections(rng, ogrid, squad, 5)])
    quad = apply_k(x)
    series = _multiply(d, x, d.eigenvalues, 0.0)
    gap = _l22(ogrid, squad, quad - series)
    values["two_path_equivalence"] = np.max(gap)
    # row 0 of each is T f0, by quadrature and by the series; the checks
    # below read only that, so copies of it let the stacks go
    quad, series = quad[0].copy(), series[0].copy()

    # projector axioms over randomized thresholds
    lams = random_thresholds(rng, d, 20)
    axiom_x = np.concatenate([x[:2], random_sections(rng, ogrid, squad, 2)])
    values.update(
        projector_axiom_residuals(apply_k, d, lams, axiom_x, tol.tie_tol, cfg.epsilon)
    )

    # functional calculus, on the first probe
    f0 = Section(ogrid, squad, x[0])
    ident = functional_calculus(d, expr.parse("lambda"), f0, cfg.epsilon)
    values["funcalc_identity_matches_series"] = np.max(np.abs(ident.values - series))
    one = functional_calculus(d, expr.parse("1"), f0, cfg.epsilon)
    values["funcalc_constant_one"] = np.max(np.abs(one.values - f0.values))
    square = functional_calculus(d, expr.parse("lambda^2"), f0, cfg.epsilon)
    # Section refuses a non-finite T f0 or T T f0
    tf0 = Section(ogrid, squad, quad)
    twice = Section(ogrid, squad, apply_k(tf0.values))
    values["funcalc_square_vs_double_apply"] = _l22(
        ogrid, squad, square.values - twice.values
    )
    g_bound = expr.parse("sin(3*lambda)+lambda/4")
    grid_l = np.linspace(lo, hi, 2001)
    sup_g = float(np.max(np.abs(expr.evaluate(g_bound, {"lambda": grid_l}))))
    gout = functional_calculus(d, g_bound, f0, cfg.epsilon)
    nf0 = _l22(ogrid, squad, f0.values)
    excess = _l22(ogrid, squad, gout.values) - sup_g * nf0
    values["funcalc_norm_bound"] = max(0.0, excess)

    # Riemann-Stieltjes sums
    span = hi - lo
    single = riemann_stieltjes_apply(
        d, expr.parse("2"), f0, 2.0 * span, cfg.epsilon, tie_tol=tol.tie_tol
    )
    values["rs_single_cell_constant"] = np.max(np.abs(single.values - 2.0 * f0.values))
    mismatch = 0.0
    for mesh in _RS_MESHES:
        rs = riemann_stieltjes_apply(
            d, expr.parse("lambda"), f0, mesh, cfg.epsilon, tie_tol=tol.tie_tol
        )
        err = rs.values - tf0.values
        values[f"rs_mesh_bound_{mesh:g}"] = _l22(ogrid, squad, err)
        predicted = _rs_identity_error(d, f0.values, mesh, cfg.epsilon, tol.tie_tol)
        mismatch = max(mismatch, float(_l22(ogrid, squad, err - predicted)))
    # the two routes to T f0 differ by at most the two-path bound
    values["rs_error_matches_prediction"] = mismatch

    # eigenspace sections generate closed submodules
    lam1, psi = _first_curve_data(d)
    scaled = ogrid.nodes[:, None] * psi
    t_scaled = Section(ogrid, squad, apply_k(scaled))
    values["eigenspace_module_closure"] = _l22(
        ogrid, squad, lam1[:, None] * scaled - t_scaled.values
    )

    # kernel reconstruction, measured with the eigensolver checks above
    values["mercer_reconstruction"] = sup_err

    # mixings of the eigenvalue curves stay inside the spectrum
    mix_worst = 0.0
    bounds_worst = 0.0
    for _ in range(3):
        p = _random_node_partition(rng, d)
        mixed = mix_field(d, p, use_aligned=True)
        dist = membership_distances(d, mixed)
        worst = np.max(dist, where=dist > tol.member_tol, initial=0.0)
        mix_worst = max(mix_worst, float(worst))
        beyond = np.maximum(d.m.values - mixed.values, mixed.values - d.M.values)
        bounds_worst = max(bounds_worst, float(np.max(beyond)))
    values["mixing_membership"] = mix_worst
    values["membership_bounds"] = max(0.0, bounds_worst)
    values["zero_field_membership"] = np.max(
        membership_distances(d, ScalarField.constant(ogrid, 0.0))
    )
    outside = ScalarField.constant(ogrid, _interval(d, 1.0)[1])
    values["membership_rejects_outside"] = np.min(membership_distances(d, outside))

    units = {
        "1": 1.0,
        "|f0|": nf0,
        "member_tol": tol.member_tol,
        "rule": 1.0 if gauss else 10.0,
    }
    return _results(values, units, {"kernel_psd": f"worst={lo:.3e}"})
