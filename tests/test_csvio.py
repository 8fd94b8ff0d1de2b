"""Column-built CSV writers against the row-loop writers they replaced.

The oracle below formats one value at a time with format(x, ".17g") and
walks fibers, slots and nodes in nested loops.  Every writer of
fiberspec.csvio must produce the same bytes on three inputs: the bundled
rank-3 kernel, a kernel whose rank changes across the grid (padded slots),
and a small sampled kernel whose sections, fields and samples include
-0.0 and subnormal values.
"""

import numpy as np
import pytest

import fiberspec as fs
from fiberspec import csvio
from fiberspec.expr import parse


def format_real(x):
    return format(float(x), ".17g")


def write_rows(path, header, rows):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def fiber_spectrum(d, i):
    return np.sort(np.append(d.eigenvalues[i, : d.ranks[i]], 0.0))[::-1]


def curve_order(d, i):
    return np.argsort(d.labels[i, : d.ranks[i]], kind="stable")


def oracle_field(path, field):
    write_rows(
        path,
        ("omega", "value"),
        (
            (format_real(node), format_real(value))
            for node, value in zip(field.grid.nodes, field.values)
        ),
    )


def oracle_section(path, section):
    def rows():
        for i, omega in enumerate(section.ogrid.nodes):
            for j, t in enumerate(section.squad.nodes):
                yield (
                    format_real(omega),
                    format_real(t),
                    format_real(section.values[i, j]),
                )

    write_rows(path, ("omega", "t", "value"), rows())


def oracle_eigencurves(path, d):
    def rows():
        for i, omega in enumerate(d.ogrid.nodes):
            for pos in curve_order(d, i):
                yield (
                    format_real(omega),
                    str(int(d.labels[i][pos]) + 1),
                    format_real(d.eigenvalues[i][pos]),
                )

    write_rows(path, ("omega", "curve_id", "lambda"), rows())


def oracle_eigenfunctions(path, d):
    def rows():
        for i, omega in enumerate(d.ogrid.nodes):
            for pos in curve_order(d, i):
                cid = str(int(d.labels[i][pos]) + 1)
                for j, t in enumerate(d.squad.nodes):
                    yield (
                        format_real(omega),
                        cid,
                        format_real(t),
                        format_real(d.functions[i][pos, j]),
                    )

    write_rows(path, ("omega", "curve_id", "t", "value"), rows())


def oracle_bounds(path, d):
    def rows():
        for i, omega in enumerate(d.ogrid.nodes):
            yield (
                format_real(omega),
                format_real(d.m.values[i]),
                format_real(d.M.values[i]),
            )

    write_rows(path, ("omega", "m", "M"), rows())


def oracle_spectra(path, d):
    def rows():
        for i, omega in enumerate(d.ogrid.nodes):
            for value in fiber_spectrum(d, i):
                yield (format_real(omega), format_real(value))

    write_rows(path, ("omega", "lambda"), rows())


def oracle_kernel(path, k):
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


def oracle_membership(path, d, field):
    distances = fs.membership_distances(d, field)

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


def oracle_report(path, pairs):
    write_rows(
        path,
        ("metric", "value"),
        ((name, format_real(value)) for name, value in pairs),
    )


def trig_case(cfg, decomposition):
    d = decomposition
    section = fs.sample_section(parse("omega*sin(pi*t)+sin(2*pi*t)"), d.ogrid, d.squad)
    p = fs.Partition.from_ranges(d.ogrid, ((1, 0.0, 0.4), (3, 0.4, 1.0)))
    return d, section, fs.mix_field(d, p), fs.mercer_reconstruct(d, 3)


def mixed_rank_case():
    # the kernel of test_mixed_rank.py: rank 1 below omega = 1/2, 2 above
    kernel = fs.SeparableKernel(
        (
            (parse("1/2"), parse("sqrt(2)*sin(pi*t)")),
            (parse("max(0,omega-1/2)"), parse("sqrt(2)*sin(2*pi*t)")),
        )
    )
    ogrid, squad = fs.build_omega_grid(16), fs.build_s_quadrature("gauss_legendre", 24)
    d = fs.decompose_all_fibers(kernel, ogrid, squad)
    rng = np.random.default_rng(7)
    section = fs.Section(ogrid, squad, rng.standard_normal((16, 24)))
    p = fs.Partition.from_ranges(ogrid, ((1, 0.0, 0.5), (2, 0.5, 1.0)))
    return d, section, fs.mix_field(d, p), fs.mercer_reconstruct(d, 1)


TINY = (-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3.3e-320, 0.0)


def sampled_case():
    ogrid, squad = fs.build_omega_grid(3), fs.build_s_quadrature("trapezoid", 5)
    values = fs.sample_kernel(
        parse("(1+omega)*(min(t,s)-t*s)"), ogrid, squad
    ).values.copy()
    # boundary rows of the bridge are exact zeros; make them signed zeros
    # and subnormals, symmetrically
    for n, x in enumerate(TINY[:4]):
        values[:, 0, n + 1] = values[:, n + 1, 0] = x
    kernel = fs.SampledKernel(ogrid, squad, values)
    d = fs.decompose_all_fibers(kernel, ogrid, squad)
    rows = np.resize(np.array(TINY), (3, 5)) * np.array([[1.0], [-1.0], [1.0]])
    section = fs.Section(ogrid, squad, rows)
    field = fs.ScalarField(ogrid, np.array([-0.0, 5e-324, d.M.values[2]]))
    return d, section, field, kernel


@pytest.fixture(params=["trig_rank3", "mixed_rank", "sampled_tiny"])
def case(request, cfg, decomposition):
    if request.param == "trig_rank3":
        return trig_case(cfg, decomposition)
    if request.param == "mixed_rank":
        return mixed_rank_case()
    return sampled_case()


def test_writers_match_row_oracle(case, tmp_path):
    d, section, field, kernel = case
    report = [("rank", 3.0), ("tiny", 5e-324), ("signed", -0.0), ("big", 1.79e308)]
    pairs = [
        (csvio.write_field, oracle_field, (field,)),
        (csvio.write_section, oracle_section, (section,)),
        (csvio.write_eigencurves, oracle_eigencurves, (d,)),
        (csvio.write_eigenfunctions, oracle_eigenfunctions, (d,)),
        (csvio.write_bounds, oracle_bounds, (d,)),
        (csvio.write_spectra, oracle_spectra, (d,)),
        (csvio.write_kernel, oracle_kernel, (kernel,)),
        (csvio.write_membership, oracle_membership, (d, field)),
        (csvio.write_report, oracle_report, (report,)),
    ]
    for writer, oracle, args in pairs:
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        writer(got, *args)
        oracle(want, *args)
        assert got.read_bytes() == want.read_bytes(), writer.__name__
    # the report writer takes any iterable of pairs, a one-shot one too
    csvio.write_report(got, iter(report))
    assert got.read_bytes() == want.read_bytes()


def test_sampled_case_has_signed_zeros_and_subnormals():
    d, section, field, kernel = sampled_case()
    for values in (section.values, field.values, kernel.values):
        assert np.any((values == 0.0) & np.signbit(values))
        assert np.any((values != 0.0) & (np.abs(values) < 2.2250738585072014e-308))
    assert np.any(d.ranks > 0)
