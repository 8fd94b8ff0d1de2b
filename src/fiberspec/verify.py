"""Invariant suite behind the verify command.

Each check measures a residual and compares it against a fixed bound; the
whole suite is deterministic because the randomized probes come from a
seeded generator.  The projector axiom block is reusable against any
kernel and decomposition pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .calculus import (
    ThresholdField,
    apply_quadrature,
    apply_spectral,
    functional_calculus,
    projector_apply,
    riemann_stieltjes_apply,
)
from .config import Config, decompose, sample_section
from .fiber import (
    FiberDecomposition,
    assemble_fiber_matrix,
    decompose_all_fibers,
    jacobi_eigh,
)
from .grid import (
    OmegaGrid,
    ScalarField,
    Section,
    SQuadrature,
    fiber_inner_product,
    l22_norm,
)
from .kernel import (
    SeparableKernel,
    fiber_kernel_matrix,
    hermitian_check,
    psd_check,
)
from .spectrum import Partition, membership_distances, mix_field, spm_membership

SEED = 1347

AXIOM_BOUNDS = {
    "projector_idempotence": 1e-10,
    "projector_self_adjoint": 1e-10,
    "projector_contraction": 1e-12,
    "projector_contraction_equality": 1e-12,
    "projector_monotone": 1e-10,
    "projector_commutes_with_op": 1e-9,
    "projector_order_upper": 1e-10,
    "projector_order_lower": 1e-10,
    "projector_right_sup": 1e-10,
    "projector_zero_below_bounds": 1e-12,
    "projector_identity_above_bounds": 1e-12,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    relation: str  # "<=" or ">="
    passed: bool
    note: str = ""


def _check(name, value, bound, relation="<=", note=""):
    value = float(value)
    passed = value <= bound if relation == "<=" else value >= bound
    return CheckResult(name, value, float(bound), relation, passed, note)


def random_sections(rng, ogrid: OmegaGrid, squad: SQuadrature, count: int):
    return [
        Section(ogrid, squad, rng.standard_normal((len(ogrid), len(squad))))
        for _ in range(count)
    ]


def random_threshold_fields(rng, d: FiberDecomposition, count: int, tie_tol: float):
    """Piecewise trigonometric thresholds spanning the spectral range."""
    lo = float(np.min(d.m.values))
    hi = float(np.max(d.M.values))
    span = max(hi - lo, 1e-3)
    nodes = d.ogrid.nodes
    fields = []
    for _ in range(count):
        pieces = int(rng.integers(1, 4))
        edges = np.concatenate(
            ([0.0], np.sort(rng.uniform(0.0, 1.0, pieces - 1)), [1.0])
        )
        vals = np.zeros(nodes.size)
        for p in range(pieces):
            mask = (nodes >= edges[p]) & (nodes <= edges[p + 1])
            base = rng.uniform(lo - 0.3 * span, hi + 0.3 * span)
            amp = rng.uniform(0.0, 0.6 * span)
            freq = int(rng.integers(1, 4))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            vals[mask] = base + amp * np.cos(freq * np.pi * nodes[mask] + phase)
        fields.append(ThresholdField(ScalarField(d.ogrid, vals), tie_tol))
    return fields


def random_separable_kernel(rng, max_rank: int = 5) -> SeparableKernel:
    """Random trigonometric separable kernel with 1..max_rank terms."""
    rank = int(rng.integers(1, max_rank + 1))
    terms = []
    for _ in range(rank):
        a, b, c = (repr(float(x)) for x in rng.uniform(-1.0, 1.0, 3))
        freq = int(rng.integers(1, 4))
        curve = f"{a}+{b}*cos({freq}*pi*omega)+{c}*sin(pi*omega)"
        u, v, z = (repr(float(x)) for x in rng.uniform(-1.0, 1.0, 3))
        k1, k2 = (int(x) for x in rng.integers(1, 7, 2))
        k3 = int(rng.integers(0, 4))
        basis = f"{u}*sin({k1}*pi*t)+{v}*sin({k2}*pi*t)+{z}*cos({k3}*pi*t)"
        terms.append((expr.parse(curve), expr.parse(basis)))
    return SeparableKernel(tuple(terms))


def _first_curve_data(d: FiberDecomposition):
    """Eigenvalue field and eigenfunction section of aligned curve 0.

    Fibers where the curve is absent contribute a zero row and value 0, so
    downstream identities stay exact there.
    """
    hit = d._curve_mask(0)
    lam = np.where(hit, d.eigenvalues, 0.0).sum(axis=1)
    psi = np.where(hit[:, :, None], d.functions, 0.0).sum(axis=1)
    return ScalarField(d.ogrid, lam), Section(d.ogrid, d.squad, psi)


def projector_axiom_residuals(
    k,
    d: FiberDecomposition,
    thresholds,
    sections,
    epsilon: float,
) -> dict:
    """Residuals of the projector family axioms over the given probes.

    Keys match AXIOM_BOUNDS.  The operator itself enters through the
    quadrature route so the axioms exercise both representations.
    """
    res = {name: 0.0 for name in AXIOM_BOUNDS}

    def bump(name, value):
        res[name] = max(res[name], float(value))

    tie = thresholds[0].tie_tol if thresholds else 1e-12
    n_sections = len(sections)
    t_of = [apply_quadrature(k, f) for f in sections]
    norms = [l22_norm(f) for f in sections]
    self_ip = [fiber_inner_product(f, f).values for f in sections]

    for lam in thresholds:
        projected = [projector_apply(d, lam, f) for f in sections]
        for idx, f in enumerate(sections):
            ef = projected[idx]
            g = sections[(idx + 1) % n_sections]
            eg = projected[(idx + 1) % n_sections]
            bump(
                "projector_idempotence",
                l22_norm(
                    Section(
                        f.ogrid,
                        f.squad,
                        projector_apply(d, lam, ef).values - ef.values,
                    )
                ),
            )
            bump(
                "projector_self_adjoint",
                np.max(
                    np.abs(
                        fiber_inner_product(ef, g).values
                        - fiber_inner_product(f, eg).values
                    )
                ),
            )
            bump("projector_contraction", l22_norm(ef) - norms[idx])
            tf = t_of[idx]
            etf = projector_apply(d, lam, tf)
            tef = apply_quadrature(k, ef)
            bump(
                "projector_commutes_with_op",
                l22_norm(Section(f.ogrid, f.squad, etf.values - tef.values)),
            )
            ef_ip = fiber_inner_product(ef, f).values
            etf_ip = fiber_inner_product(etf, f).values
            tf_ip = fiber_inner_product(tf, f).values
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
        lo = ThresholdField(
            ScalarField(d.ogrid, np.minimum(a.field.values, b.field.values)),
            tie,
        )
        hi = ThresholdField(
            ScalarField(d.ogrid, np.maximum(a.field.values, b.field.values)),
            tie,
        )
        for f in sections[:2]:
            e_lo = projector_apply(d, lo, f)
            bump(
                "projector_monotone",
                l22_norm(
                    Section(
                        f.ogrid,
                        f.squad,
                        projector_apply(d, hi, e_lo).values - e_lo.values,
                    )
                ),
            )
            e_hi = projector_apply(d, hi, f)
            bump(
                "projector_monotone",
                l22_norm(
                    Section(
                        f.ogrid,
                        f.squad,
                        projector_apply(d, lo, e_hi).values - e_lo.values,
                    )
                ),
            )

    # right-continuity surrogate: approaching the threshold from below
    # reaches the same quadratic form wherever the approach distance clears
    # the local spectral gap
    f = sections[0]
    for lam in thresholds:
        base_ip = fiber_inner_product(f, projector_apply(d, lam, f)).values
        steps = (1.0, 0.5, 0.2, 0.05)
        prev = None
        closest = None
        for h in steps:
            shifted = ThresholdField(
                ScalarField(d.ogrid, lam.field.values - h), tie
            )
            cur_ip = fiber_inner_product(
                f, projector_apply(d, shifted, f)
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
    below = ThresholdField(
        ScalarField(d.ogrid, d.m.values - 1.0), tie
    )
    above = ThresholdField(
        ScalarField(d.ogrid, d.M.values + max(epsilon, 1e-9)), tie
    )
    for f in sections:
        bump("projector_zero_below_bounds", l22_norm(projector_apply(d, below, f)))
        bump(
            "projector_identity_above_bounds",
            l22_norm(
                Section(
                    f.ogrid,
                    f.squad,
                    projector_apply(d, above, f).values - f.values,
                )
            ),
        )

    # norm equality on an eigenfunction strictly below its threshold
    lam1, psi = _first_curve_data(d)
    lam_above = ThresholdField(ScalarField(d.ogrid, lam1.values + 1.0), tie)
    bump(
        "projector_contraction_equality",
        abs(l22_norm(projector_apply(d, lam_above, psi)) - l22_norm(psi)),
    )
    return res


def _random_node_partition(rng, d: FiberDecomposition) -> Partition:
    """Random labeled partition whose labels are valid at their nodes."""
    groups = {}
    for i in range(d.n_fibers):
        options = [0] + [int(c) + 1 for c in d.labels[i, : d.ranks[i]]]
        label = int(options[int(rng.integers(0, len(options)))])
        groups.setdefault(label, []).append(i)
    return Partition(
        d.n_fibers, tuple((label, tuple(idx)) for label, idx in sorted(groups.items()))
    )


def run_suite(cfg: Config) -> list:
    """Run every invariant check against a configuration."""
    rng = np.random.default_rng(SEED)
    results = []
    ogrid, squad = cfg.ogrid, cfg.squad
    tol = cfg.tolerances

    # quadrature sanity
    results.append(
        _check(
            "omega_weights_sum",
            abs(float(ogrid.weights.sum()) - 1.0),
            1e-12,
        )
    )
    if squad.rule == "gauss_legendre":
        worst = 0.0
        for k_pow in range(2 * len(squad)):
            moment = float((squad.nodes**k_pow) @ squad.weights)
            worst = max(worst, abs(moment - 1.0 / (k_pow + 1)) * (k_pow + 1))
        results.append(_check("quadrature_moments", worst, 1e-13))
    else:
        worst = max(
            abs(float(squad.weights.sum()) - 1.0),
            abs(float(squad.nodes @ squad.weights) - 0.5),
        )
        results.append(_check("quadrature_moments", worst, 1e-12))

    # kernel level
    results.append(_check("kernel_symmetry", hermitian_check(cfg.kernel), 1e-12))

    d = decompose(cfg)
    ok, worst_eig = psd_check(cfg.kernel, d, 1e-12)
    results.append(
        _check("kernel_psd", max(0.0, -worst_eig), 1e-12, note=f"worst={worst_eig:.3e}")
    )

    # eigensolver quality on the assembled fibers; padded slots have zero
    # rows, so they leave the residual at 0 and the Gram matrix is compared
    # with the identity on the retained slots only.  Each assembled matrix
    # is used as soon as it is built, so no (F, n, n) stack is held here or
    # in the Mercer check below.
    fibers = range(d.n_fibers)
    funcs = d.functions
    vecs = (funcs * np.sqrt(squad.weights)).transpose(0, 2, 1)
    scale = np.maximum(1.0, np.max(np.abs(d.eigenvalues), axis=1, initial=0.0))
    A_vecs = np.stack(
        [assemble_fiber_matrix(cfg.kernel, ogrid, squad, i) @ vecs[i] for i in fibers]
    )
    err = np.abs(A_vecs - vecs * d.eigenvalues[:, None, :])
    resid = float(np.max(err.max(axis=(1, 2), initial=0.0) / scale))
    gram = funcs @ (funcs * squad.weights).transpose(0, 2, 1)
    eye = np.eye(funcs.shape[1]) * (d.labels >= 0)[:, None, :]
    ortho = float(np.max(np.abs(gram - eye), initial=0.0))
    results.append(_check("eigen_residual", resid, 1e-10))
    results.append(_check("eigen_orthonormality", ortho, 1e-10))
    results.append(
        _check(
            "trace_identity",
            float(np.max(np.abs(d.eigensums - d.traces))),
            1e-9,
        )
    )
    ordered = np.sort(d.labels, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
    distinct = not np.any(repeated)
    results.append(
        _check("alignment_distinct_ids", 0.0 if distinct else 1.0, 0.5)
    )

    # the factored separable route agrees with a dense Jacobi solve of the
    # assembled matrix; truncated and padded slots compare as zeros
    if isinstance(cfg.kernel, SeparableKernel):
        worst = 0.0
        for i in sorted({0, d.n_fibers // 2, d.n_fibers - 1}):
            dense, _ = jacobi_eigh(
                assemble_fiber_matrix(cfg.kernel, ogrid, squad, i), tol=tol.eig_tol
            )
            factored = np.zeros(len(squad))
            factored[: d.ranks[i]] = d.eigenvalues[i, : d.ranks[i]]
            factored = np.sort(factored)[::-1]
            scale = max(1.0, float(np.max(np.abs(dense))))
            worst = max(worst, float(np.max(np.abs(factored - dense))) / scale)
        results.append(_check("lowrank_matches_dense", worst, 1e-10))

    # grid refinement stability of the eigenvalues: a separable kernel is
    # compared with the doubled rule, so the drift is the error of this
    # rule; a sampled kernel is compared with the halved rule
    if squad.rule == "gauss_legendre" and len(squad) >= 8:
        from .grid import build_s_quadrature

        n_ref = len(squad) // 2
        if isinstance(cfg.kernel, SeparableKernel):
            n_ref = 2 * len(squad)
        d_ref = decompose_all_fibers(
            cfg.kernel,
            ogrid,
            build_s_quadrature("gauss_legendre", n_ref),
            rank_tol=tol.rank_tol,
            eig_tol=tol.eig_tol,
        )
        r = min(d.eigenvalues.shape[1], d_ref.eigenvalues.shape[1])
        both = (d.labels[:, :r] >= 0) & (d_ref.labels[:, :r] >= 0)
        gap = np.abs(d.eigenvalues[:, :r] - d_ref.eigenvalues[:, :r])
        drift = float(np.max(gap, where=both, initial=0.0))
        results.append(_check("eigenvalue_grid_stability", drift, 1e-10))

    # Rayleigh quotients stay inside the spectral bounds
    rayleigh = 0.0
    for f in random_sections(rng, ogrid, squad, 50):
        tf = apply_quadrature(cfg.kernel, f)
        num = fiber_inner_product(tf, f).values
        den = fiber_inner_product(f, f).values
        quot = num / den
        rayleigh = max(
            rayleigh,
            float(np.max(np.maximum(d.m.values - quot, quot - d.M.values))),
        )
    results.append(_check("rayleigh_bounds", max(0.0, rayleigh), 1e-10))

    # two representations of the operator agree
    probes = [sample_section(e, ogrid, squad) for e in cfg.sections.values()]
    probes += random_sections(rng, ogrid, squad, 5)
    two_path = 0.0
    for f in probes:
        quad = apply_quadrature(cfg.kernel, f)
        spec = apply_spectral(d, f)
        two_path = max(
            two_path,
            l22_norm(Section(ogrid, squad, quad.values - spec.values)),
        )
    results.append(_check("two_path_equivalence", two_path, 1e-9))

    # projector axioms over randomized thresholds
    thresholds = random_threshold_fields(rng, d, 20, tol.tie_tol)
    axiom_sections = probes[:2] + random_sections(rng, ogrid, squad, 2)
    axioms = projector_axiom_residuals(
        cfg.kernel, d, thresholds, axiom_sections, cfg.epsilon
    )
    for name, bound in AXIOM_BOUNDS.items():
        results.append(_check(name, axioms[name], bound))

    # functional calculus
    f0 = probes[0] if probes else random_sections(rng, ogrid, squad, 1)[0]
    ident = functional_calculus(d, expr.parse("lambda"), f0, cfg.epsilon)
    spec0 = apply_spectral(d, f0)
    results.append(
        _check(
            "funcalc_identity_matches_series",
            float(np.max(np.abs(ident.values - spec0.values))) if f0.values.size else 0.0,
            1e-15,
        )
    )
    one = functional_calculus(d, expr.parse("1"), f0, cfg.epsilon)
    results.append(
        _check(
            "funcalc_constant_one",
            float(np.max(np.abs(one.values - f0.values))),
            1e-15,
        )
    )
    square = functional_calculus(d, expr.parse("lambda^2"), f0, cfg.epsilon)
    twice = apply_quadrature(cfg.kernel, apply_quadrature(cfg.kernel, f0))
    results.append(
        _check(
            "funcalc_square_vs_double_apply",
            l22_norm(Section(ogrid, squad, square.values - twice.values)),
            1e-9,
        )
    )
    g_bound = expr.parse("sin(3*lambda)+lambda/4")
    lo = float(np.min(d.m.values))
    hi = float(np.max(d.M.values)) + cfg.epsilon
    grid_l = np.linspace(lo, hi, 2001)
    sup_g = float(np.max(np.abs(expr.evaluate(g_bound, {"lambda": grid_l}))))
    gout = functional_calculus(d, g_bound, f0, cfg.epsilon)
    results.append(
        _check(
            "funcalc_norm_bound",
            max(0.0, l22_norm(gout) - sup_g * l22_norm(f0)),
            1e-9,
        )
    )

    # Riemann-Stieltjes sums
    span = hi - lo
    single = riemann_stieltjes_apply(
        d, expr.parse("2"), f0, mesh=2.0 * span, epsilon=cfg.epsilon
    )
    results.append(
        _check(
            "rs_single_cell_constant",
            float(np.max(np.abs(single.values - 2.0 * f0.values))),
            1e-12,
        )
    )
    tf0 = apply_quadrature(cfg.kernel, f0)
    nf0 = l22_norm(f0)
    errs = {}
    for mesh in (0.04, 0.02):
        rs = riemann_stieltjes_apply(
            d, expr.parse("lambda"), f0, mesh=mesh, epsilon=cfg.epsilon
        )
        errs[mesh] = l22_norm(Section(ogrid, squad, rs.values - tf0.values))
        results.append(
            _check(f"rs_mesh_bound_{mesh:g}", errs[mesh], mesh * nf0 + 1e-12)
        )
    if errs[0.02] == 0.0:
        results.append(
            _check(
                "rs_halving_ratio",
                float("inf") if errs[0.04] == 0.0 else 0.0,
                1.6,
                relation=">=",
                note="degenerate: zero error at both meshes"
                if errs[0.04] == 0.0
                else "",
            )
        )
    else:
        results.append(
            _check(
                "rs_halving_ratio", errs[0.04] / errs[0.02], 1.6, relation=">="
            )
        )

    # eigenspace sections generate closed submodules
    lam1, psi = _first_curve_data(d)
    alpha = ogrid.nodes[:, None]
    scaled = Section(ogrid, squad, alpha * psi.values)
    t_scaled = apply_quadrature(cfg.kernel, scaled)
    closure = l22_norm(
        Section(ogrid, squad, lam1.values[:, None] * scaled.values - t_scaled.values)
    )
    results.append(_check("eigenspace_module_closure", closure, 1e-8))

    # kernel reconstruction from the retained eigenpairs (finite-rank route)
    if isinstance(cfg.kernel, SeparableKernel):
        approx = (funcs.transpose(0, 2, 1) * d.eigenvalues[:, None, :]) @ funcs
        sup_err = max(
            float(np.max(np.abs(fiber_kernel_matrix(cfg.kernel, ogrid, squad, i) - a)))
            for i, a in zip(fibers, approx)
        )
        results.append(_check("mercer_reconstruction", sup_err, 1e-8))

    # mixings of the eigenvalue curves stay inside the spectrum
    mix_worst = 0.0
    bounds_worst = 0.0
    for _ in range(3):
        p = _random_node_partition(rng, d)
        mixed = mix_field(d, p, use_aligned=True)
        member, violations = spm_membership(d, mixed, tol.member_tol)
        if not member:
            mix_worst = max(mix_worst, max(v for _, v in violations))
        bounds_worst = max(
            bounds_worst,
            float(
                np.max(
                    np.maximum(
                        d.m.values - mixed.values, mixed.values - d.M.values
                    )
                )
            ),
        )
    results.append(_check("mixing_membership", mix_worst, tol.member_tol))
    results.append(
        _check("membership_bounds", max(0.0, bounds_worst), tol.member_tol)
    )
    zero_dist = float(
        np.max(membership_distances(d, ScalarField.constant(ogrid, 0.0)))
    )
    results.append(_check("zero_field_membership", zero_dist, tol.member_tol))
    outside = ScalarField.constant(ogrid, float(np.max(d.M.values)) + 1.0)
    results.append(
        _check(
            "membership_rejects_outside",
            float(np.min(membership_distances(d, outside))),
            1e-3,
            relation=">=",
        )
    )

    return results
