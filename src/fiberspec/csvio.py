"""Deterministic CSV emission.

Every writer uses a header row, LF line endings, '.' as the decimal
separator, and 17 significant digits for reals, so identical inputs
produce byte-identical files.  A writer of one row per fiber or per
spectral value builds its columns from whole arrays and zips them into
rows.  A writer of a grid whose last axis is a node list (sections,
eigenfunctions, kernel samples) writes one block of rows per leading index
with a single `%` operation on a template built once from the formatted
nodes; '%.17g' % x is byte-for-byte format(x, '.17g').
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .fiber import FiberDecomposition
from .grid import ScalarField, Section
from .kernel import SampledKernel
from .spectrum import _spectra


def _reals(x):
    """Every value of an array as text with 17 significant digits, in C
    order, formatted one by one as the rows are written."""
    return map(format, np.asarray(x, dtype=float).flat, repeat(".17g"))


def write_rows(path, header, rows):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_grid(path, header, prefixes, nodes, values):
    """Rows (prefix, node, value): one block per prefix, one row per node.

    prefixes holds the text of the leading columns of each block, and
    values one row of len(nodes) reals per block.  The blocks are streamed,
    each formatted by one `%` on a template that has every node's text in
    place, so the nodes are formatted once for the whole file.
    """
    values = np.asarray(values, dtype=float).reshape(-1, len(nodes))
    nodes = list(_reals(nodes))
    template = "".join(f"%s,{t},%.17g\n" for t in nodes)
    args = [None] * (2 * len(nodes))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for prefix, row in zip(prefixes, values):
            args[::2] = repeat(prefix, len(nodes))
            args[1::2] = row.tolist()
            fh.write(template % tuple(args))


def write_field(path, field: ScalarField):
    columns = (_reals(field.grid.nodes), _reals(field.values))
    write_rows(path, ("omega", "value"), zip(*columns))


def write_section(path, section: Section):
    omega = _reals(section.ogrid.nodes)
    header = ("omega", "t", "value")
    _write_grid(path, header, omega, section.squad.nodes, section.values)


def _retained_by_curve(d: FiberDecomposition):
    """Retained slots fiber by fiber, each fiber in ascending curve id order.

    Returns the fiber index, the 1-based curve id, the eigenvalue and the
    eigenfunction row of every retained slot; padded slots (label -1) sort
    first and are dropped.
    """
    order = np.argsort(d.labels, axis=1, kind="stable")
    labels = np.take_along_axis(d.labels, order, axis=1)
    keep = labels >= 0
    return (
        np.nonzero(keep)[0],
        labels[keep] + 1,
        np.take_along_axis(d.eigenvalues, order, axis=1)[keep],
        np.take_along_axis(d.functions, order[..., None], axis=1)[keep],
    )


def write_eigencurves(path, d: FiberDecomposition):
    """Rows (omega, curve_id, lambda) with 1-based aligned curve ids."""
    fiber, ids, values, _ = _retained_by_curve(d)
    omega = list(_reals(d.ogrid.nodes))
    columns = ([omega[i] for i in fiber], map(str, ids.tolist()), _reals(values))
    write_rows(path, ("omega", "curve_id", "lambda"), zip(*columns))


def write_eigenfunctions(path, d: FiberDecomposition):
    fiber, ids, _, rows = _retained_by_curve(d)
    omega = list(_reals(d.ogrid.nodes))
    prefixes = (f"{omega[i]},{n}" for i, n in zip(fiber.tolist(), ids.tolist()))
    header = ("omega", "curve_id", "t", "value")
    _write_grid(path, header, prefixes, d.squad.nodes, rows)


def write_bounds(path, d: FiberDecomposition):
    columns = (_reals(d.ogrid.nodes), _reals(d.m.values), _reals(d.M.values))
    write_rows(path, ("omega", "m", "M"), zip(*columns))


def write_spectra(path, d: FiberDecomposition):
    """Rows (omega, lambda) listing each fiber spectrum in descending order."""
    spectra = _spectra(d)
    fiber, slot = np.nonzero(np.isfinite(spectra))
    omega = list(_reals(d.ogrid.nodes))
    columns = ([omega[i] for i in fiber], _reals(spectra[fiber, slot]))
    write_rows(path, ("omega", "lambda"), zip(*columns))


def write_kernel(path, k: SampledKernel):
    t = list(_reals(k.squad.nodes))
    prefixes = (f"{omega},{tj}" for omega in _reals(k.ogrid.nodes) for tj in t)
    header = ("omega", "t", "s", "value")
    _write_grid(path, header, prefixes, k.squad.nodes, k.values)


def write_membership(path, d: FiberDecomposition, field: ScalarField):
    """Rows (omega, lambda, nearest_spectral_value, distance)."""
    spectra = _spectra(d)
    # the -inf padding is infinitely far from every value
    slot = np.argmin(np.abs(spectra - field.values[:, None]), axis=1)
    nearest = spectra[np.arange(d.n_fibers), slot]
    columns = (
        _reals(d.ogrid.nodes),
        _reals(field.values),
        _reals(nearest),
        _reals(np.abs(nearest - field.values)),
    )
    header = ("omega", "lambda", "nearest_spectral_value", "distance")
    write_rows(path, header, zip(*columns))


def write_report(path, pairs):
    """Rows (metric, value) for small numeric summaries."""
    pairs = list(pairs)
    names = [name for name, _ in pairs]
    values = _reals([value for _, value in pairs])
    write_rows(path, ("metric", "value"), zip(names, values))
