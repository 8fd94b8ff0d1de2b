"""Grids, quadratures, and fields on the product of the parameter interval
and the integration interval (both [0, 1]).

The parameter grid carries the midpoint rule, so its weights model a
probability measure.  The inner-product helpers implement the fiberwise
pairing <x, y>(omega) = sum_j w_j x(omega, t_j) y(omega, t_j) and the norm
built by integrating it over the parameter grid.
"""

from __future__ import annotations

import numpy as np

from . import expr
from ._record import Record
from .errors import (
    DomainError,
    GridMismatch,
    InvalidCount,
    InvalidQuadratureRule,
    NotSymmetric,
)

_WEIGHT_SUM_TOL = 1e-9
# node counts whose float64 arrays numpy cannot index; they are refused
# before any allocation, as numpy would raise ValueError or OverflowError
_MAX_COUNT = np.iinfo(np.intp).max // 8


def _require_finite(values, what):
    if not np.isfinite(values).all():
        raise DomainError(f"{what} contains non-finite values")
    return values


def _symmetrized(a, out=None):
    """(a + a^T) / 2 of every matrix of a stack, into out when given.

    The sum is halved, which keeps subnormal sums exact; where it overflows
    the halves are added instead, so the largest finite entries keep their
    value.  For finite input the sum is infinite exactly where it overflows.
    """
    swapped = np.swapaxes(a, -1, -2)
    with np.errstate(over="ignore"):
        total = np.add(a, swapped, out=out)
    total *= 0.5
    over = np.isinf(total)
    if over.any():
        total[over] = 0.5 * a[over] + 0.5 * swapped[over]
    return total


def _symmetric_part(a, tol, what):
    """Gate a stack of matrices (F, n, n) and average it with its transpose.

    A non-finite entry is a DomainError, and a matrix asymmetric by more
    than tol times its own largest |entry| is NotSymmetric, named by its
    index.  One new buffer takes |a - a^T|, |a| and then the average, and
    is returned with every matrix's asymmetry and largest |entry|.
    """
    _require_finite(a, what)
    with np.errstate(over="ignore"):
        buf = np.subtract(a, a.transpose(0, 2, 1))
    gaps = np.max(np.abs(buf, out=buf), axis=(1, 2), initial=0.0)
    sizes = np.max(np.abs(a, out=buf), axis=(1, 2), initial=0.0)
    bad = gaps > tol * sizes
    if bad.any():
        i = np.argmax(bad)
        raise NotSymmetric(
            f"{what} fiber {i} asymmetry {gaps[i]:.3e} exceeds "
            f"{tol:.0e} of its largest entry {sizes[i]:.3e}"
        )
    return _symmetrized(a, out=buf), gaps, sizes


def _require_1d_float(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one dimensional")
    return arr


def _checked_rule(nodes, weights):
    """Check the nodes and weights of a grid or quadrature and return them
    as float arrays, for the record's constructor to store."""
    nodes = _require_1d_float(nodes, "nodes")
    weights = _require_1d_float(weights, "weights")
    if nodes.size == 0 or nodes.size != weights.size:
        raise ValueError("nodes and weights must be non-empty and equal length")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be strictly increasing")
    if nodes[0] < 0.0 or nodes[-1] > 1.0:
        raise ValueError("nodes must lie in [0, 1]")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if abs(float(weights.sum()) - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError("weights must sum to one")
    return nodes, weights


class OmegaGrid(Record):
    """Nodes and weights over the parameter interval; weights sum to one."""

    __slots__ = ("nodes", "weights")

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        super().__init__(*_checked_rule(nodes, weights))

    def __len__(self):
        return self.nodes.size


class SQuadrature(Record):
    """Quadrature over the integration interval; weights sum to one."""

    __slots__ = ("rule", "nodes", "weights")

    def __init__(self, rule: str, nodes: np.ndarray, weights: np.ndarray):
        super().__init__(rule, *_checked_rule(nodes, weights))

    def __len__(self):
        return self.nodes.size


def _require_count(n, least, what):
    """Raise InvalidCount below least nodes and MemoryError above _MAX_COUNT."""
    if n < least:
        plural = "s" if least > 1 else ""
        raise InvalidCount(f"{what} needs at least {least} node{plural}, got {n}")
    if n > _MAX_COUNT:
        raise MemoryError(f"{what} of {n} nodes is too large to allocate")


def build_omega_grid(n: int) -> OmegaGrid:
    """Midpoint rule with n cells: nodes (i + 1/2)/n, weights 1/n."""
    _require_count(n, 1, "parameter grid")
    nodes = (np.arange(n) + 0.5) / n
    weights = np.full(n, 1.0 / n)
    return OmegaGrid(nodes, weights)


def _legval(x, c):
    """Legendre series sum_k c[k] P_k(x) by legval's Clenshaw recurrence."""
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _leggauss(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The Golub-Welsch construction (Math. Comp. 23, 1969) in the steps of
    numpy.polynomial.legendre.leggauss, so the rule is bitwise the same
    without importing numpy.polynomial: the eigenvalues of the symmetric
    companion matrix of P_n, one Newton step, then weights from P_n' and
    P_{n-1}, symmetrized about 0 and normalized to sum to 2.
    """
    c = np.zeros(n + 1)
    c[-1] = 1.0
    k = np.arange(n)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    der = np.where((n - 1 - k) % 2 == 0, 2.0 * k + 1.0, 0.0)
    df = _legval(x, der)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def build_s_quadrature(rule: str, n: int) -> SQuadrature:
    """Construct a quadrature over [0, 1].

    trapezoid: n >= 2 uniform nodes including both endpoints, endpoint
    weights halved.  gauss_legendre: n >= 1 Legendre roots and weights
    affinely mapped from [-1, 1] to [0, 1].
    """
    if rule == "trapezoid":
        _require_count(n, 2, "trapezoid rule")
        nodes = np.linspace(0.0, 1.0, n)
        h = 1.0 / (n - 1)
        weights = np.full(n, h)
        weights[0] = h / 2
        weights[-1] = h / 2
        return SQuadrature(rule, nodes, weights)
    if rule == "gauss_legendre":
        _require_count(n, 1, "gauss_legendre rule")
        x, w = _leggauss(n)
        return SQuadrature(rule, (x + 1.0) / 2.0, w / 2.0)
    raise InvalidQuadratureRule(f"unknown quadrature rule {rule!r}")


class ScalarField(Record):
    """Real values attached to the parameter grid nodes."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: OmegaGrid, values: np.ndarray):
        values = _require_1d_float(values, "values")
        if values.size != len(grid):
            raise ValueError("field length must match the grid")
        super().__init__(grid, _require_finite(values, "field"))

    @staticmethod
    def constant(grid: OmegaGrid, value: float) -> "ScalarField":
        return ScalarField(grid, np.full(len(grid), float(value)))


class Section(Record):
    """Node values of a function on the product grid, one row per fiber."""

    __slots__ = ("ogrid", "squad", "values")

    def __init__(self, ogrid: OmegaGrid, squad: SQuadrature, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(ogrid), len(squad)):
            raise ValueError(
                f"section shape {values.shape} does not match grids "
                f"({len(ogrid)}, {len(squad)})"
            )
        super().__init__(ogrid, squad, _require_finite(values, "section"))


def same_rule(a, b) -> bool:
    """Whether two grids or two quadratures have the same nodes and weights."""
    return a is b or (
        np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
    )


def sample_field(e: expr.Expression, grid: OmegaGrid) -> ScalarField:
    """Evaluate an expression of omega at every parameter node."""
    return ScalarField(grid, expr.evaluate(e, {"omega": grid.nodes}))


def sample_section(
    e: expr.Expression, ogrid: OmegaGrid, squad: SQuadrature
) -> Section:
    """Evaluate an expression of omega and t at every product node."""
    values = expr.evaluate(e, {"omega": ogrid.nodes[:, None], "t": squad.nodes})
    return Section(ogrid, squad, values)


def _pairing(squad: SQuadrature, x, y) -> np.ndarray:
    """Fiberwise pairing of stacked section values (..., F, n_s), shape
    (..., F).  Like the ScalarField of fiber_inner_product, it raises
    DomainError where a pairing is not finite."""
    return _require_finite((x * y) @ squad.weights, "field")


def _l22(ogrid: OmegaGrid, squad: SQuadrature, x) -> np.ndarray:
    """l22_norm of every section of a stack (..., F, n_s).  Like building a
    Section of each, it raises DomainError where x is not finite."""
    x = _require_finite(x, "section")
    with np.errstate(over="ignore"):
        ip = (x * x) @ squad.weights
    out = np.sqrt(np.maximum(ip @ ogrid.weights, 0.0))
    overflow = np.isinf(out)
    if np.any(overflow):
        # squares overflowed: rescale exactly by a power of two, as the
        # eigensolvers do
        _, exponent = np.frexp(np.max(np.abs(x), axis=(-2, -1)))
        scaled = _l22(ogrid, squad, np.ldexp(x, -exponent[..., None, None]))
        out = np.where(overflow, np.ldexp(scaled, exponent), out)
    return out


def fiber_inner_product(x: Section, y: Section) -> ScalarField:
    """Pointwise-in-omega quadrature pairing of two sections."""
    if not (same_rule(x.ogrid, y.ogrid) and same_rule(x.squad, y.squad)):
        raise GridMismatch("sections live on different grids")
    return ScalarField(x.ogrid, _pairing(x.squad, x.values, y.values))


def l22_norm(x: Section) -> float:
    """Norm that integrates the squared fiber norms over the parameter grid."""
    return float(_l22(x.ogrid, x.squad, x.values))
