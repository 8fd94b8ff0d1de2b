"""Operator actions built on a fiber decomposition.

The operator acts fiberwise: (Tf)(omega, t) = integral of
k(omega, t, s) f(omega, s) ds.  Two equivalent routes are kept side by
side, direct quadrature against the kernel and the spectral series
sum_n lambda_n(omega) <f, x_n>(omega) x_n(omega, t).  The quadrature
route is the action kernel._on_grid builds, so this module never looks at
how a kernel is stored.  Thresholded projectors, the functional calculus,
and the Riemann-Stieltjes sums all ride on the spectral route; every
formula carries the complement term that accounts for the kernel (null
space) of each fiber, where the operator acts as 0.  The functional
calculus keeps each g(T)'s multiplier per decomposition and expression
object while both live, so one g applied to many sections is evaluated
once.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from . import expr
from ._record import Record
from .errors import GridMismatch, InvalidMesh
from .fiber import FiberDecomposition
from .grid import OmegaGrid, ScalarField, Section, same_rule
from .kernel import KernelSpec, _on_grid

DEFAULT_TIE_TOL = 1e-12
DEFAULT_EPSILON = 1e-6
# Upper limit on the Riemann-Stieltjes partition size; finer meshes are
# rejected before the cuts are built.
MAX_RS_CELLS = 10**6

# The multipliers functional_calculus has computed: a decomposition maps to
# {(id(g), epsilon): (weak reference to g, h, h0)}, and the reference's
# callback drops the entry once g is collected.  The table lives outside
# the decomposition, so copy and pickle of it never meet a weak reference.
_MULTIPLIERS = weakref.WeakKeyDictionary()


class ThresholdField(Record):
    """Measurable threshold lambda(omega) with its tie tolerance.

    An eigenvalue lambda_n(omega) counts as below the threshold when
    lambda_n(omega) <= lambda(omega) + tie_tol, and the null component is
    included when 0 <= lambda(omega) + tie_tol.  A nan tie_tol is refused:
    it would count no eigenvalue below any threshold.
    """

    __slots__ = ("field", "tie_tol")

    def __init__(self, field: ScalarField, tie_tol: float = DEFAULT_TIE_TOL):
        if math.isnan(tie_tol):
            raise ValueError("tie_tol must not be nan")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "tie_tol", tie_tol)

    @staticmethod
    def constant(grid: OmegaGrid, value: float, tie_tol: float = DEFAULT_TIE_TOL):
        return ThresholdField(ScalarField.constant(grid, value), tie_tol)


def _require_section_on(d: FiberDecomposition, f: Section):
    if not (same_rule(d.ogrid, f.ogrid) and same_rule(d.squad, f.squad)):
        raise GridMismatch("section does not live on the decomposition grids")


def _require_field_on(grid: OmegaGrid, field: ScalarField):
    if not same_rule(grid, field.grid):
        raise GridMismatch("threshold field lives on a different parameter grid")


def apply_quadrature(k: KernelSpec, f: Section) -> Section:
    """Apply the operator by direct quadrature against the kernel."""
    return Section(f.ogrid, f.squad, _on_grid(k, f.ogrid, f.squad)[1](f.values))


def _multiply(d: FiberDecomposition, values, h, h0) -> np.ndarray:
    """Spectral multiplier sum_n (h_n - h0) <f, x_n> x_n + h0 f, fiberwise.

    values holds sections f of shape (..., F, n_s), h multipliers of shape
    (..., F, r_max) and h0 the multiplier on the null component, of shape
    (..., F) or a scalar; the leading axes broadcast.  Padded slots have
    zero eigenfunction rows, so they add nothing whatever h holds there.
    The pairings <f, x_n> and the synthesis are two batched matrix
    products, against d._weighted_functions (built once per decomposition)
    and against d.functions.
    """
    h0 = np.asarray(h0, dtype=float)[..., None]
    coeff = (d._weighted_functions @ values[..., None])[..., 0]
    out = (((h - h0) * coeff)[..., None, :] @ d.functions)[..., 0, :]
    # out already has the broadcast shape of every operand
    out += h0 * values
    return out


def apply_spectral(d: FiberDecomposition, f: Section) -> Section:
    """Apply the operator through its retained eigenpairs."""
    _require_section_on(d, f)
    return Section(d.ogrid, d.squad, _multiply(d, f.values, d.eigenvalues, 0.0))


def _project(d: FiberDecomposition, values, lam, tie_tol) -> np.ndarray:
    """Projector at the threshold values lam (..., F) applied to section
    values (..., F, n_s); the leading axes broadcast."""
    cut = lam + tie_tol
    return _multiply(d, values, d.eigenvalues <= cut[..., None], 0.0 <= cut)


def projector_apply(d: FiberDecomposition, lam: ThresholdField, f: Section) -> Section:
    """Apply the spectral projector for the threshold field lam.

    Fiberwise it keeps the eigencomponents with lambda_n(omega) <=
    lam(omega) + tie_tol and, whenever 0 <= lam(omega) + tie_tol, also the
    component orthogonal to every retained eigenfunction (the operator's
    null direction, eigenvalue 0).  Thresholds below every eigenvalue and
    0 therefore give the zero section, and thresholds above all of them
    give f back unchanged.
    """
    _require_section_on(d, f)
    _require_field_on(d.ogrid, lam.field)
    return Section(
        d.ogrid, d.squad, _project(d, f.values, lam.field.values, lam.tie_tol)
    )


def _interval(d: FiberDecomposition, epsilon: float) -> tuple:
    """Spectral interval [min m, max M + epsilon] over the parameter grid."""
    lo, hi = d._extreme_bounds
    return lo, hi + epsilon


def _functional_multiplier(d: FiberDecomposition, g: expr.Expression, epsilon):
    """g(T)'s multiplier on d: h = g(eigenvalues), (F, r_max) and read-only,
    and h0 = g(0).

    The first call for (d, g, epsilon) evaluates g at the ends of the
    spectral interval [min m, max M + epsilon], at 0 and at every slot, and
    a domain error at any of these points raises and keeps nothing.  Later
    calls with the same expression object and epsilon return the kept pair.
    """
    key = (id(g), epsilon)
    hit = _MULTIPLIERS.get(d, {}).get(key)
    # an id names one object only while it lives, so a hit must still be g
    if hit is not None and hit[0]() is g:
        return hit[1], hit[2]
    lo, hi = _interval(d, epsilon)
    points = np.concatenate(([lo, hi, 0.0], d.eigenvalues.ravel()))
    values = expr.evaluate(g, {"lambda": points})
    h, h0 = values[3:].reshape(d.eigenvalues.shape), values[2]
    h.flags.writeable = False
    d_ref = weakref.ref(d)

    def forget(_):
        owner = d_ref()
        if owner is not None:
            _MULTIPLIERS.get(owner, {}).pop(key, None)

    _MULTIPLIERS.setdefault(d, {})[key] = (weakref.ref(g, forget), h, h0)
    return h, h0


def functional_calculus(
    d: FiberDecomposition,
    g: expr.Expression,
    f: Section,
    epsilon: float = DEFAULT_EPSILON,
) -> Section:
    """Apply g(T) fiberwise: g at the retained eigenvalues plus g(0) on the
    null component.

    g is an expression of lambda and must be evaluable on the spectral
    interval [min m, max M + epsilon].  The first call for d, g and epsilon
    evaluates it at the interval ends first, then at 0 and at every
    eigenvalue slot; a domain error at any of these points raises.  The
    multiplier is then kept while d and the expression object g both live,
    so later calls with the same g apply it without evaluating g again and
    give bitwise the same results as a first call.  A re-parsed text is
    another object and is evaluated afresh.
    """
    _require_section_on(d, f)
    h, h0 = _functional_multiplier(d, g, epsilon)
    return Section(d.ogrid, d.squad, _multiply(d, f.values, h, h0))


def _rs_cuts(d: FiberDecomposition, mesh: float, epsilon: float) -> np.ndarray:
    """Cuts m* = c_0 < ... < c_K = M* + epsilon of the uniform
    Riemann-Stieltjes partition, K = max(1, ceil((c_K - c_0) / mesh)).

    Raises InvalidMesh for a mesh that is not a positive real or that gives
    more than MAX_RS_CELLS cells.
    """
    if not (mesh > 0.0) or not math.isfinite(mesh):
        raise InvalidMesh(f"mesh must be a positive real, got {mesh!r}")
    m_star, top = _interval(d, epsilon)
    cells = (top - m_star) / mesh
    if cells > MAX_RS_CELLS:
        raise InvalidMesh(
            f"mesh {mesh!r} gives more than {MAX_RS_CELLS} partition cells"
        )
    return np.linspace(m_star, top, max(1, math.ceil(cells)) + 1)


def riemann_stieltjes_apply(
    d: FiberDecomposition,
    g: expr.Expression,
    f: Section,
    mesh: float,
    epsilon: float = DEFAULT_EPSILON,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> Section:
    """Riemann-Stieltjes sum over a uniform partition of thresholds.

    The partition runs c_0 = m* < ... < c_K = M* + epsilon with step at
    most mesh and at most MAX_RS_CELLS cells, where m* and M* are the
    extreme spectral bounds over the parameter grid.  The result is

        sum_k g(c_k) (E_{c_k} - E_{c_{k-1}}) f  +  g(m*) E_{m*} f

    with every c_k taken as a constant threshold field of tie tolerance
    tie_tol.  Each spectral value enters exactly one increment, the first
    cell whose cut reaches it (lambda <= c_k + tie_tol), so the sum is
    computed as the functional calculus of the step function
    lambda -> g(c_{k(lambda)}).  g is still evaluated at every cut, so a
    domain error anywhere on the partition raises.  A negative or nan
    tie_tol is refused: it could leave a spectral value past every cut.
    """
    if not tie_tol >= 0.0:
        raise ValueError(f"tie_tol must be non-negative, got {tie_tol!r}")
    _require_section_on(d, f)
    cuts = _rs_cuts(d, mesh, epsilon)
    g_cuts = expr.evaluate(g, {"lambda": cuts})
    reach = cuts + tie_tol
    h = g_cuts[np.searchsorted(reach, d.eigenvalues, side="left")]
    h0 = g_cuts[np.searchsorted(reach, 0.0, side="left")]
    return Section(d.ogrid, d.squad, _multiply(d, f.values, h, h0))

