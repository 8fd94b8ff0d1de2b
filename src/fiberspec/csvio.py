"""Deterministic CSV emission.

Every writer uses a header row, LF line endings, '.' as the decimal
separator, and 17 significant digits for reals, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .fiber import FiberDecomposition
from .grid import ScalarField, Section
from .kernel import SampledKernel
from .spectrum import fiber_spectrum, membership_distances


def format_real(x: float) -> str:
    return format(float(x), ".17g")


def write_rows(path, header, rows):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def field_rows(field: ScalarField):
    for node, value in zip(field.grid.nodes, field.values):
        yield (format_real(node), format_real(value))


def write_field(path, field: ScalarField):
    write_rows(path, ("omega", "value"), field_rows(field))


def write_section(path, section: Section):
    def rows():
        for i, omega in enumerate(section.ogrid.nodes):
            for j, t in enumerate(section.squad.nodes):
                yield (
                    format_real(omega),
                    format_real(t),
                    format_real(section.values[i, j]),
                )

    write_rows(path, ("omega", "t", "value"), rows())


def _curve_order(d: FiberDecomposition, i: int):
    """Retained slots of fiber i in ascending curve id order."""
    return np.argsort(d.labels[i, : d.ranks[i]], kind="stable")


def write_eigencurves(path, d: FiberDecomposition):
    """Rows (omega, curve_id, lambda) with 1-based aligned curve ids."""

    def rows():
        for i, omega in enumerate(d.ogrid.nodes):
            for pos in _curve_order(d, i):
                yield (
                    format_real(omega),
                    str(int(d.labels[i][pos]) + 1),
                    format_real(d.eigenvalues[i][pos]),
                )

    write_rows(path, ("omega", "curve_id", "lambda"), rows())


def write_eigenfunctions(path, d: FiberDecomposition):
    def rows():
        for i, omega in enumerate(d.ogrid.nodes):
            for pos in _curve_order(d, i):
                cid = str(int(d.labels[i][pos]) + 1)
                for j, t in enumerate(d.squad.nodes):
                    yield (
                        format_real(omega),
                        cid,
                        format_real(t),
                        format_real(d.functions[i][pos, j]),
                    )

    write_rows(path, ("omega", "curve_id", "t", "value"), rows())


def write_bounds(path, d: FiberDecomposition):
    def rows():
        for i, omega in enumerate(d.ogrid.nodes):
            yield (
                format_real(omega),
                format_real(d.m.values[i]),
                format_real(d.M.values[i]),
            )

    write_rows(path, ("omega", "m", "M"), rows())


def write_spectra(path, d: FiberDecomposition):
    """Rows (omega, lambda) listing each fiber spectrum in descending order."""

    def rows():
        for i, omega in enumerate(d.ogrid.nodes):
            for value in fiber_spectrum(d, i):
                yield (format_real(omega), format_real(value))

    write_rows(path, ("omega", "lambda"), rows())


def write_kernel(path, k: SampledKernel):
    def rows():
        for i, omega in enumerate(k.ogrid.nodes):
            for j, t in enumerate(k.squad.nodes):
                for l, s in enumerate(k.squad.nodes):
                    yield (
                        format_real(omega),
                        format_real(t),
                        format_real(s),
                        format_real(k.values[i, j, l]),
                    )

    write_rows(path, ("omega", "t", "s", "value"), rows())


def write_membership(path, d: FiberDecomposition, field: ScalarField):
    """Rows (omega, lambda, nearest_spectral_value, distance)."""
    distances = membership_distances(d, field)

    def rows():
        for i, omega in enumerate(d.ogrid.nodes):
            spec = fiber_spectrum(d, i)
            nearest = spec[int(np.argmin(np.abs(spec - field.values[i])))]
            yield (
                format_real(omega),
                format_real(field.values[i]),
                format_real(nearest),
                format_real(distances[i]),
            )

    write_rows(
        path, ("omega", "lambda", "nearest_spectral_value", "distance"), rows()
    )


def write_report(path, pairs):
    """Rows (metric, value) for small numeric summaries."""
    write_rows(
        path,
        ("metric", "value"),
        ((name, format_real(value)) for name, value in pairs),
    )
