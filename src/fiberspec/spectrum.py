"""Fiber spectra, mixings of eigenvalue curves, and membership tests.

A partition splits the parameter nodes into labeled sets; the mixed field
takes curve n's eigenvalue on the set labeled n, with label 0 reserved for
the constant zero curve.  A field belongs to the operator's spectrum
exactly when at every node it is within tolerance of the fiber spectrum,
the retained eigenvalues together with 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    IncompletePartition,
    IndexOutOfRange,
    UnknownCurveLabel,
)
from .fiber import FiberDecomposition
from .grid import OmegaGrid, ScalarField, same_omega_grid


@dataclass(frozen=True)
class Partition:
    """Labeled sets of parameter node indices covering the grid exactly once."""

    n_nodes: int
    sets: tuple  # ((label, (node indices...)), ...)

    def __post_init__(self):
        seen = np.zeros(self.n_nodes, dtype=int)
        norm = []
        for label, indices in self.sets:
            label = int(label)
            if label < 0:
                raise ValueError(f"labels must be non-negative, got {label}")
            idx = tuple(int(i) for i in indices)
            for i in idx:
                if not 0 <= i < self.n_nodes:
                    raise IndexOutOfRange(f"node index {i} outside the grid")
                seen[i] += 1
            norm.append((label, idx))
        if np.any(seen > 1):
            first = int(np.nonzero(seen > 1)[0][0])
            raise IncompletePartition(
                f"node {first} is covered by more than one set"
            )
        if np.any(seen == 0):
            first = int(np.nonzero(seen == 0)[0][0])
            raise IncompletePartition(f"node {first} is not covered by any set")
        object.__setattr__(self, "sets", tuple(norm))

    @staticmethod
    def from_ranges(ogrid: OmegaGrid, entries) -> "Partition":
        """Build from (label, lo, hi) rows; each set takes the nodes with
        lo <= omega < hi."""
        sets = []
        for label, lo, hi in entries:
            picked = np.nonzero((ogrid.nodes >= lo) & (ogrid.nodes < hi))[0]
            sets.append((int(label), tuple(int(i) for i in picked)))
        return Partition(len(ogrid), tuple(sets))

    def labels_by_node(self) -> np.ndarray:
        out = np.zeros(self.n_nodes, dtype=int)
        for label, indices in self.sets:
            for i in indices:
                out[i] = label
        return out


def _spectra(d: FiberDecomposition) -> np.ndarray:
    """Every fiber spectrum, one row (r_max + 1) per fiber.

    Row i holds the retained eigenvalues of fiber i and 0 in descending
    order, followed by -inf for each padded slot.
    """
    vals = np.where(d.labels >= 0, d.eigenvalues, -np.inf)
    vals = np.append(vals, np.zeros((d.n_fibers, 1)), axis=1)
    return np.sort(vals, axis=1)[:, ::-1]


def fiber_spectrum(d: FiberDecomposition, i: int) -> np.ndarray:
    """Spectrum of one fiber: retained eigenvalues and 0, descending."""
    if not 0 <= i < d.n_fibers:
        raise IndexOutOfRange(f"fiber index {i} outside range [0, {d.n_fibers})")
    vals = np.append(d.eigenvalues[i, : d.ranks[i]], 0.0)
    return np.sort(vals)[::-1]


def mix_field(
    d: FiberDecomposition, p: Partition, use_aligned: bool = True
) -> ScalarField:
    """Mix eigenvalue curves over a partition.

    On the set labeled n > 0 the field takes curve n's eigenvalue (aligned
    curve id by default, descending sorted position otherwise); label 0
    contributes the zero curve.  Raises UnknownCurveLabel when a label
    references a curve missing at one of its nodes.
    """
    if p.n_nodes != d.n_fibers:
        raise GridMismatch("partition does not match the decomposition grid")
    curve = p.labels_by_node() - 1
    if use_aligned:
        hit = d._curve_mask(curve)
    else:
        slots = np.arange(d.eigenvalues.shape[1])
        hit = (slots == curve[:, None]) & (slots < d.ranks[:, None])
    missing = np.nonzero((curve >= 0) & ~hit.any(axis=1))[0]
    if missing.size:
        i = int(missing[0])
        raise UnknownCurveLabel(f"curve {curve[i] + 1} is absent at node {i}")
    return ScalarField(d.ogrid, np.where(hit, d.eigenvalues, 0.0).sum(axis=1))


def membership_distances(d: FiberDecomposition, field: ScalarField) -> np.ndarray:
    """Distance from field(omega) to the fiber spectrum at every node."""
    if not same_omega_grid(d.ogrid, field.grid):
        raise GridMismatch("field lives on a different parameter grid")
    # padded slots hold 0, which belongs to every fiber spectrum anyway
    v = field.values
    nearest = np.min(np.abs(d.eigenvalues - v[:, None]), axis=1, initial=np.inf)
    return np.minimum(np.abs(v), nearest)


def spm_membership(
    d: FiberDecomposition, field: ScalarField, tol: float
) -> tuple:
    """Check whether a field sits inside the fiber spectra everywhere.

    Returns (member, violations) where violations lists (node index,
    distance) for every node whose distance to the fiber spectrum exceeds
    tol.
    """
    distances = membership_distances(d, field)
    (bad,) = np.nonzero(distances > tol)
    violations = list(zip(bad.tolist(), distances[bad].tolist()))
    return len(violations) == 0, violations
