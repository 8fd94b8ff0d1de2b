"""Kernel declarations.

A kernel is either separable, a finite sum of curve(omega) * basis(t) *
basis(s) terms declared through expressions, or sampled, a dense tensor of
node values with one symmetric matrix per parameter node, each gated in
its own scale.  Both carry asymmetry, the worst |k(omega,t,s) -
k(omega,s,t)| of the values they were given: 0 for a separable kernel.
Basis terms do not have to be orthonormal; the per-fiber eigensolver is
the ground truth downstream.
The private _on_grid gives the fiber values, the quadrature action and a
separable kernel's sampled factors from one sampling, and
fiber._solve_fibers takes those factors for its factored cores; nothing
else knows how each kind is stored.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from . import expr
from ._record import Record
from .errors import (
    DomainError,
    GridMismatch,
    InvalidKernel,
    NotSymmetric,
    RankTooLarge,
)
from .grid import OmegaGrid, SQuadrature, same_rule

# A sampled fiber may be asymmetric up to this much of its largest entry
# and still be usable after symmetrization; anything worse is rejected.
SYMMETRIZE_TOL = 1e-9


class SeparableKernel(Record):
    """Finite sum of separable terms (curve in omega, basis in t)."""

    __slots__ = ("terms",)
    asymmetry = 0.0  # every term is symmetric in (t, s) by construction

    def __init__(self, terms: tuple):
        terms = tuple((curve, basis) for curve, basis in terms)
        if not terms:
            raise InvalidKernel("a separable kernel needs at least one term")
        for idx, (curve, basis) in enumerate(terms):
            extra = expr.free_variables(curve) - {"omega"}
            if extra:
                raise InvalidKernel(
                    f"term {idx}: curve may only depend on omega, found {sorted(extra)}"
                )
            extra = expr.free_variables(basis) - {"t"}
            if extra:
                raise InvalidKernel(
                    f"term {idx}: basis may only depend on t, found {sorted(extra)}"
                )
        super().__init__(terms)


class SampledKernel(Record):
    """Dense kernel samples, shape (n_omega, n_s, n_s), averaged with their
    fiberwise transpose; a fiber asymmetric by more than SYMMETRIZE_TOL
    times its largest |entry| is NotSymmetric.  asymmetry keeps the
    absolute max |k(omega,t,s) - k(omega,s,t)| of the input, before the
    averaging."""

    __slots__ = ("ogrid", "squad", "values", "asymmetry")

    def __init__(self, ogrid: OmegaGrid, squad: SQuadrature, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        n_s = len(squad)
        if values.shape != (len(ogrid), n_s, n_s):
            raise ValueError(
                f"sampled kernel shape {values.shape} does not match grids"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("sampled kernel contains non-finite values")
        swapped = values.transpose(0, 2, 1)
        # one buffer of the tensor's size takes |v - v^T|, |v| and the sum
        buf = np.subtract(values, swapped)
        gaps = np.max(np.abs(buf, out=buf), axis=(1, 2), initial=0.0)
        sizes = np.max(np.abs(values, out=buf), axis=(1, 2), initial=0.0)
        bad = gaps > SYMMETRIZE_TOL * sizes
        if bad.any():
            i = np.argmax(bad)
            raise NotSymmetric(
                f"sampled kernel fiber {i} asymmetry {gaps[i]:.3e} exceeds "
                f"{SYMMETRIZE_TOL:.0e} of its largest entry {sizes[i]:.3e}"
            )
        # the sum is exact for subnormals; halving first only where the sum
        # overflows keeps the largest finite samples.  The samples are
        # finite, so their sum is infinite exactly where it overflows.
        with np.errstate(over="ignore"):
            total = np.add(values, swapped, out=buf)
        total *= 0.5
        over = np.isinf(total)
        if over.any():
            total[over] = 0.5 * values[over] + 0.5 * swapped[over]
        super().__init__(ogrid, squad, total, float(np.max(gaps, initial=0.0)))


KernelSpec = Union[SeparableKernel, SampledKernel]


def sample_kernel(
    e: expr.Expression, ogrid: OmegaGrid, squad: SQuadrature
) -> SampledKernel:
    """Sample an expression of omega, t, s on the product grid."""
    nodes = squad.nodes
    values = expr.evaluate(
        e,
        {
            "omega": ogrid.nodes[:, None, None],
            "t": nodes[None, :, None],
            "s": nodes[None, None, :],
        },
    )
    return SampledKernel(ogrid, squad, values)


def _on_grid(k: KernelSpec, ogrid: OmegaGrid, squad: SQuadrature):
    """The kernel on these grids: (values, apply, factors), from one sampling.

    values(index) gives K[index], shape (len, n_s, n_s), with K[i][j][l] =
    k(omega_i, t_j, t_l) for an index of fibers (a slice or a list).
    apply(x) is the quadrature action sum_l K[i][j][l] w_l x[..., i, l] on
    section values x of shape (..., n_omega, n_s).  A sampled kernel must
    have been sampled on these grids (this is the one grid check of sampled
    kernels), gives views of its own tensor for slices and has factors
    None.  A separable kernel samples each curve and basis expression once,
    here, into factors = (curves (n_omega, R), basis (R, n_s)), and forms
    values and apply from those without the (n_omega, n_s, n_s) stack.
    """
    w = squad.weights
    if isinstance(k, SampledKernel):
        if not (same_rule(k.ogrid, ogrid) and same_rule(k.squad, squad)):
            raise GridMismatch("sampled kernel was sampled on different grids")
        K = k.values
        return K.__getitem__, lambda x: np.einsum("ijl,...il->...ij", K, x * w), None
    curves = np.stack(
        [expr.evaluate(c, {"omega": ogrid.nodes}) for c, _ in k.terms], axis=1
    )
    basis = np.stack([expr.evaluate(b, {"t": squad.nodes}) for _, b in k.terms])
    return (
        lambda fibers: (basis.T * curves[fibers, None, :]) @ basis,
        lambda x: (curves * ((x * w) @ basis.T)) @ basis,
        (curves, basis),
    )


def kernel_matrices(
    k: KernelSpec, ogrid: OmegaGrid, squad: SQuadrature
) -> np.ndarray:
    """Kernel values K[i][j][l] = k(omega_i, t_j, t_l) of every fiber.

    Returns shape (n_omega, n_s, n_s): the chunk of all fibers, so a sampled
    kernel gives a view of its own tensor.
    """
    return _on_grid(k, ogrid, squad)[0](slice(None))


def mercer_reconstruct(decomposition, rank: int) -> SampledKernel:
    """Rebuild kernel samples from the dominant eigenpairs of every fiber.

    values[i] = sum_n lambda_n(omega_i) x_n(omega_i) x_n(omega_i)^T over the
    rank retained slots of fiber i with the largest |lambda_n|, ties going
    to the lower slot.  For a symmetric operator that is the best rank-r
    approximation (Eckart-Young-Mirsky); a positive kernel keeps its top
    rank slots.  rank must not exceed the retained rank of any fiber;
    rank 0 gives the zero kernel.
    """
    d = decomposition
    if rank < 0:
        raise RankTooLarge(f"rank must be non-negative, got {rank}")
    min_rank = int(d.ranks.min())
    if rank > min_rank:
        raise RankTooLarge(
            f"rank {rank} exceeds the minimum retained rank {min_rank}"
        )
    # padded slots hold 0, below every retained |lambda|; the chosen slots
    # keep their stored order
    slots = np.argsort(-np.abs(d.eigenvalues), axis=1, kind="stable")[:, :rank]
    slots.sort(axis=1)
    funcs = np.take_along_axis(d.functions, slots[..., None], axis=1)
    vals = np.take_along_axis(d.eigenvalues, slots, axis=1)
    block = (funcs.transpose(0, 2, 1) * vals[:, None, :]) @ funcs
    # exact symmetrization, so the recorded asymmetry is 0 rather than the
    # rounding of the products
    values = 0.5 * (block + block.transpose(0, 2, 1))
    return SampledKernel(d.ogrid, d.squad, values)
