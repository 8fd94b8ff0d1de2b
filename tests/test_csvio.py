"""Column-built CSV writers against the row-loop writers they replaced,
and the array formatter of reals against format(x, ".17g").

The oracle below formats one value at a time with format(x, ".17g") and
walks fibers, slots and nodes in nested loops.  Every writer of
fiberspec.csvio must produce the same bytes on four inputs: the bundled
rank-3 kernel, a kernel whose rank changes across the grid (padded slots),
a small sampled kernel whose sections, fields and samples include -0.0 and
subnormal values, and the zero kernel (no retained slot), in chunks of the
default size and in small ones.
"""

import os
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberspec as fs
from fiberspec import csvio
from fiberspec.cli import main
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


def zero_case():
    kernel = fs.SeparableKernel(((parse("0"), parse("sin(pi*t)")),))
    ogrid, squad = fs.build_omega_grid(8), fs.build_s_quadrature("gauss_legendre", 8)
    d = fs.decompose_all_fibers(kernel, ogrid, squad)
    # no retained slot: eigencurves.csv and eigenfunctions.csv are headers
    assert not np.any(d.labels >= 0)
    section = fs.Section(ogrid, squad, np.zeros((8, 8)))
    field = fs.mix_field(d, fs.Partition(np.zeros(8, dtype=int)))
    return d, section, field, fs.SampledKernel(ogrid, squad, np.zeros((8, 8, 8)))


@pytest.fixture(params=["trig_rank3", "mixed_rank", "sampled_tiny", "zero_kernel"])
def case(request, cfg, decomposition):
    if request.param == "trig_rank3":
        return trig_case(cfg, decomposition)
    if request.param == "mixed_rank":
        return mixed_rank_case()
    if request.param == "zero_kernel":
        return zero_case()
    return sampled_case()


def assert_writers_match_oracle(case, tmp_path):
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


def test_writers_match_row_oracle(case, tmp_path):
    assert_writers_match_oracle(case, tmp_path)


@pytest.mark.parametrize(
    "case", ["mixed_rank", "sampled_tiny", "zero_kernel"], indirect=True
)
def test_writers_match_row_oracle_in_small_chunks(case, tmp_path, monkeypatch):
    # 37 lines: the one-row-per-line tables end on a partial chunk, and a
    # grid with more nodes than that is written one row per chunk (trig_rank3
    # spans chunks in test_grid_writer_spans_chunks)
    monkeypatch.setattr(csvio, "CHUNK", 37)
    assert_writers_match_oracle(case, tmp_path)


def test_grid_writer_spans_chunks(decomposition, tmp_path, monkeypatch):
    d = decomposition
    n_s = len(d.squad.nodes)
    rows = int(np.sum(d.labels >= 0))
    monkeypatch.setattr(csvio, "CHUNK", 50 * n_s)
    # several chunks of 50 eigenfunction rows each, the last one partial
    assert rows > 50 and rows % 50 != 0
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    csvio.write_eigenfunctions(got, d)
    oracle_eigenfunctions(want, d)
    assert got.read_bytes() == want.read_bytes()


def test_eigenfunction_writer_does_not_hold_the_function_stack(tmp_path):
    # twice the fibers of a full-rank sampled kernel make twice the
    # (F, n_s, n_s) function stack; the writer gathers one chunk of rows at
    # a time, so its peak grows only by the index of the retained rows
    squad = fs.build_s_quadrature("gauss_legendre", 48)
    peaks, stacks = [], []
    for n in (16, 32):
        ogrid = fs.build_omega_grid(n)
        a = np.random.default_rng(n).standard_normal((n, 48, 48))
        k = fs.SampledKernel(ogrid, squad, a + a.transpose(0, 2, 1))
        d = fs.decompose_all_fibers(k, ogrid, squad)
        assert np.all(d.ranks == 48)
        csvio.write_eigenfunctions(tmp_path / "warm.csv", d)
        tracemalloc.start()
        try:
            csvio.write_eigenfunctions(tmp_path / "eigenfunctions.csv", d)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        stacks.append(d.functions.nbytes)
    assert peaks[1] - peaks[0] < (stacks[1] - stacks[0]) / 4


@pytest.mark.parametrize("name", ["eigencurves.csv", "eigenfunctions.csv"])
def test_output_path_that_is_a_directory(name, tmp_path, capsys):
    (tmp_path / name).mkdir()
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "trig_rank3.json")
    assert main(["decompose", "--config", config, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ")
    assert err.endswith(f"Is a directory: {str(tmp_path / name)!r}\n")
    assert err.count("\n") == 1


def test_sampled_case_has_signed_zeros_and_subnormals():
    d, section, field, kernel = sampled_case()
    for values in (section.values, field.values, kernel.values):
        assert np.any((values == 0.0) & np.signbit(values))
        assert np.any((values != 0.0) & (np.abs(values) < 2.2250738585072014e-308))
    assert np.any(d.ranks > 0)


@pytest.mark.parametrize(
    "column",
    [[0], [7, 12, 345], [-1, 0, 9], [2**63 - 1, -(2**63)], [], [[3, -40], [5, 6]]],
)
def test_integer_text_is_as_wide_as_its_longest_value(column):
    column = np.array(column, dtype=np.int64)
    text = csvio._text(column)
    assert text.shape[:-1] == column.shape
    if column.size:
        assert text.shape[-1] == max(len(str(v)) for v in column.ravel().tolist())
    entries = text.reshape(-1, text.shape[-1])
    got = [e.tobytes().translate(None, b"\0").decode() for e in entries]
    assert got == [str(v) for v in column.ravel().tolist()]


def formatted(x):
    """What csvio writes for every value of x, as str."""
    block = csvio._reals(np.asarray(x, dtype=float).ravel())
    return [entry.tobytes().translate(None, b"\0").decode("ascii") for entry in block]


def assert_formats_like_format(x):
    x = np.asarray(x, dtype=float).ravel()
    want = [format(v, ".17g") for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), formatted(x), want) if g != w]
    assert not bad, f"{len(bad)} of {x.size} differ, e.g. {bad[:5]}"


def neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_reals_match_format_on_hypothesis_floats(values):
    assert_formats_like_format(values)


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_reals_of_no_values_is_an_empty_block(shape):
    block = csvio._reals(np.empty(shape))
    assert block.shape == shape + (0,) and block.dtype == np.uint8


def test_reals_match_format_on_bit_patterns():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**63, 100_000, dtype=np.uint64).view(np.float64)
    # both signs of every pattern, nan and inf patterns among them
    assert_formats_like_format(np.concatenate([bits, -bits]))


def test_reals_match_format_at_powers_of_ten():
    powers = neighbours([float(f"1e{m}") for m in range(-320, 309)])
    assert_formats_like_format(np.concatenate([powers, -powers]))


def test_reals_match_format_on_integers_and_dyadics():
    rng = np.random.default_rng(21)
    integers = np.concatenate(
        [rng.integers(0, 2**60, 20_000, endpoint=True), 2 ** np.arange(61)]
    ).astype(float)
    # k/64 has ties at the 18th digit for some k, which take the fallback
    dyadics = np.arange(-64 * 200, 64 * 200) / 64
    assert_formats_like_format(np.concatenate([integers, -integers, dyadics]))


def test_reals_match_format_at_notation_switches_and_long_exponents():
    rng = np.random.default_rng(22)
    switches = neighbours([1e-5, 1e-4, 1e16, 1e17])
    mantissas = rng.uniform(1.0, 10.0, 2000)
    exponents = rng.integers(100, 308, 2000)
    # exponents of three digits in a batch with values of two-digit ones
    scales = 10.0 ** (exponents - 100)
    long = np.concatenate([mantissas * scales * 1e100, mantissas / scales / 1e100])
    mixed = np.concatenate([switches, long, rng.standard_normal(2000) * 1e-30])
    assert_formats_like_format(np.concatenate([mixed, -mixed]))


def needs_fallback(v):
    """Whether csvio must leave v to format(): |v| outside [1e-270, 1e270],
    or y = |v| * 10**(16 - E) within 1e-6 of 1e16 or 1e17 or with frac(y)
    within 1e-9 of 1/2, y computed exactly here."""
    if not 1e-270 <= abs(v) <= 1e270:
        return True
    x = Decimal(abs(v))
    y = x.scaleb(16 - x.adjusted())
    near = Decimal("1e-6")
    return (
        abs(y - 10**16) <= near
        or abs(y - 10**17) <= near
        or abs(y - int(y) - Decimal("0.5")) <= Decimal("1e-9")
    )


def test_format_only_in_the_fallback(monkeypatch):
    calls = []

    def counted(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(csvio, "format", counted, raising=False)
    rng = np.random.default_rng(23)
    # values of 1e11 to 1e17 often tie at the 18th digit: 48681855045100.4375
    scaled = rng.standard_normal(10_000) * 10.0 ** rng.integers(-30, 30, 10_000)
    # zeros, a subnormal, inf, nan, |x| beyond 1e270, powers of ten and a
    # tie at the 18th digit (26215 / 2**18 = 0.100002288818359375)
    fallback = [0.0, -0.0, 5e-324, np.inf, np.nan, 1e300, 1.0, 1e16, 26215 / 2**18]
    # log10 misses the decimal exponent of some neighbours of powers of ten
    powers = neighbours([float(f"1e{m}") for m in range(-30, 31)])
    x = np.concatenate([scaled, powers, fallback, [0.5, 0.25]])
    assert formatted(x) == [format(v, ".17g") for v in x.tolist()]
    assert [repr(v) for v in calls] == [repr(v) for v in x.tolist() if needs_fallback(v)]
    assert len(calls) < 200
