"""Fiber spectra, mixings of eigenvalue curves, and membership tests.

A partition gives every parameter node one curve label; the mixed field
takes curve n's eigenvalue at the nodes labeled n, with label 0 reserved
for the constant zero curve.  A field belongs to the operator's spectrum
exactly when at every node it is within tolerance of the fiber spectrum,
the retained eigenvalues together with 0.
"""

from __future__ import annotations

import numbers

import numpy as np

from ._record import Record
from .errors import GridMismatch, IncompletePartition, UnknownCurveLabel
from .fiber import FiberDecomposition
from .grid import OmegaGrid, ScalarField, same_rule


class Partition(Record):
    """One non-negative curve label per parameter node."""

    __slots__ = ("labels",)

    def __init__(self, labels: np.ndarray):
        labels = np.asarray(labels)
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be a one dimensional integer array")
        if np.any(labels < 0):
            raise ValueError(f"labels must be non-negative, got {labels.min()}")
        # an unsigned label past the int64 range would wrap around below
        if labels.size and labels.max() > np.iinfo(int).max:
            raise ValueError(f"labels must fit in int64, got {labels.max()}")
        # a signed copy: label 0 must become curve -1, not wrap around
        super().__init__(labels.astype(int))

    @staticmethod
    def from_ranges(ogrid: OmegaGrid, entries) -> "Partition":
        """Build from (label, lo, hi) rows; row k labels the nodes with
        lo <= omega < hi, and every node must be covered exactly once.
        A label is an integer (not a bool) within int64."""
        rows = [(_int64(label), lo, hi) for label, lo, hi in entries]
        labels = np.array([label for label, _, _ in rows], dtype=int)
        table = np.array(rows, dtype=float).reshape(len(rows), 3)
        hit = (ogrid.nodes >= table[:, 1:2]) & (ogrid.nodes < table[:, 2:])
        count = hit.sum(axis=0)
        for bad, what in (
            (count > 1, "is covered by more than one set"),
            (count == 0, "is not covered by any set"),
        ):
            if np.any(bad):
                raise IncompletePartition(f"node {np.argmax(bad)} {what}")
        return Partition(labels[np.argmax(hit, axis=0)])


def _int64(label) -> int:
    if isinstance(label, bool) or not isinstance(label, numbers.Integral):
        raise ValueError(f"labels must be integers, got {label!r}")
    if not -(2**63) <= int(label) < 2**63:
        raise ValueError(f"labels must fit in int64, got {label}")
    return int(label)


def mix_field(
    d: FiberDecomposition, p: Partition, use_aligned: bool = True
) -> ScalarField:
    """Mix eigenvalue curves over a partition.

    At a node labeled n > 0 the field takes curve n's eigenvalue (aligned
    curve id n - 1 by default, the n-th largest eigenvalue otherwise);
    label 0 contributes the zero curve.  Raises UnknownCurveLabel when a label
    references a curve missing at one of its nodes.
    """
    if p.labels.size != d.n_fibers:
        raise GridMismatch("partition does not match the decomposition grid")
    curve = p.labels - 1
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
    """Distance from field(omega) to the fiber spectrum at every node: the
    smallest |s - field(omega)| over the row of d._spectra, whose -inf
    padding is infinitely far from every finite value."""
    if not same_rule(d.ogrid, field.grid):
        raise GridMismatch("field lives on a different parameter grid")
    return np.min(np.abs(d._spectra - field.values[:, None]), axis=1)


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
