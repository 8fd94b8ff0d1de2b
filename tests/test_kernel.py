import numpy as np
import pytest

import fiberspec as fs
from fiberspec import errors
from fiberspec.expr import parse

from conftest import write_near_max_config


def separable_fixture():
    return fs.SeparableKernel(
        (
            (parse("cos(pi*omega/2)^2"), parse("sqrt(2)*sin(pi*t)")),
            (parse("sin(pi*omega)^2/2"), parse("sqrt(2)*sin(2*pi*t)")),
            (parse("omega^2/3"), parse("sqrt(2)*sin(3*pi*t)")),
        )
    )


def test_separable_variable_discipline():
    with pytest.raises(errors.InvalidKernel):
        fs.SeparableKernel(((parse("t"), parse("sin(pi*t)")),))
    with pytest.raises(errors.InvalidKernel):
        fs.SeparableKernel(((parse("omega"), parse("omega*t")),))
    with pytest.raises(errors.InvalidKernel):
        fs.SeparableKernel(())


def test_kernel_matrices_separable(grids):
    ogrid, squad = grids
    k = separable_fixture()
    w = ogrid.nodes[:, None, None]
    t = squad.nodes

    def outer(n):
        return 2 * np.outer(np.sin(n * np.pi * t), np.sin(n * np.pi * t))

    want = (
        np.cos(np.pi * w / 2) ** 2 * outer(1)
        + 0.5 * np.sin(np.pi * w) ** 2 * outer(2)
        + w**2 / 3 * outer(3)
    )
    got = fs.kernel_matrices(k, ogrid, squad)
    assert got.shape == (16, 24, 24)
    assert np.max(np.abs(got - want)) < 1e-14


def test_kernel_value_pointwise(grids):
    ogrid, squad = grids
    k = separable_fixture()
    i, j, l = 2, 4, 7
    env = {"omega": ogrid.nodes[i]}
    want = sum(
        fs.evaluate(c, env)
        * fs.evaluate(b, {"t": squad.nodes[j]})
        * fs.evaluate(b, {"t": squad.nodes[l]})
        for c, b in k.terms
    )
    K = fs.kernel_matrices(k, ogrid, squad)
    assert K[i, j, l] == pytest.approx(want, abs=1e-15)
    e = parse("(1+omega)*min(t,s)")
    sampled = fs.sample_kernel(e, ogrid, squad)
    point = {"omega": ogrid.nodes[i], "t": squad.nodes[j], "s": squad.nodes[l]}
    assert fs.kernel_matrices(sampled, ogrid, squad)[i, j, l] == fs.evaluate(e, point)


def test_sample_kernel_symmetrizes(grids):
    ogrid, squad = grids
    # min(t,s) is symmetric; sampling keeps it bitwise symmetric
    k = fs.sample_kernel(parse("min(t,s)"), ogrid, squad)
    assert isinstance(k, fs.SampledKernel)
    assert k.asymmetry == 0.0


def test_sample_kernel_rejects_asymmetric(grids):
    ogrid, squad = grids
    with pytest.raises(errors.NotSymmetric):
        fs.sample_kernel(parse("t-s"), ogrid, squad)


def test_sample_kernel_mild_asymmetry_averaged(grids):
    ogrid, squad = grids
    # asymmetry below the 1e-9 gate is averaged away from the stored
    # values; the check reports the asymmetry of the samples
    e = parse("t*s+1e-12*(t-s)")
    raw = fs.evaluate(
        e,
        {
            "omega": ogrid.nodes[:, None, None],
            "t": squad.nodes[None, :, None],
            "s": squad.nodes[None, None, :],
        },
    )
    k = fs.sample_kernel(e, ogrid, squad)
    assert k.values.tobytes() == k.values.transpose(0, 2, 1).copy().tobytes()
    asymmetry = np.max(np.abs(raw - raw.transpose(0, 2, 1)))
    assert 1e-12 < asymmetry < 2e-12
    assert k.asymmetry == asymmetry


def test_sample_kernel_keeps_symmetric_samples_exactly(grids):
    ogrid, squad = grids
    # halving before the sum rounds subnormals, and summing before halving
    # overflows near the top of the float range; neither may change a
    # sample that is already symmetric
    for text in ("5e-324*(1+t*s)", "1.5e308*(1-t*s/2)"):
        e = parse(text)
        raw = fs.evaluate(
            e,
            {
                "omega": ogrid.nodes[:, None, None],
                "t": squad.nodes[None, :, None],
                "s": squad.nodes[None, None, :],
            },
        )
        values = fs.sample_kernel(e, ogrid, squad).values
        assert np.all(values > 0.0)
        assert np.array_equal(values, raw), text


@pytest.mark.parametrize("scale", ["1e-12", "1", "1e8"])
def test_symmetry_gate_is_relative_to_the_kernel_scale(scale):
    # each fiber's asymmetry is compared with its own largest entry: the
    # rounding of a large symmetric kernel passes, and a tiny kernel
    # asymmetric by 2/3 of its size is refused as it is at scale 1
    ogrid, squad = fs.build_omega_grid(8), fs.build_s_quadrature("gauss_legendre", 16)
    k = fs.sample_kernel(parse(f"{scale}*(t*s*s+t*t*s)"), ogrid, squad)
    assert k.values.tobytes() == k.values.transpose(0, 2, 1).copy().tobytes()
    if scale == "1e8":
        # above the gate in absolute terms, where it used to be measured
        assert k.asymmetry > fs.kernel.SYMMETRIZE_TOL
    assert fs.SampledKernel(ogrid, squad, k.values).asymmetry == 0.0
    text = "^sampled kernel fiber 0 asymmetry "
    with pytest.raises(errors.NotSymmetric, match=text):
        fs.sample_kernel(parse(f"{scale}*(t-s+2)"), ogrid, squad)
    t, s = squad.nodes[:, None], squad.nodes[None, :]
    values = np.broadcast_to(float(scale) * (t - s + 2), (8, 16, 16))
    with pytest.raises(errors.NotSymmetric, match=text):
        fs.SampledKernel(ogrid, squad, values)


def test_sampled_kernel_refuses_a_small_asymmetric_fiber():
    # fiber 2 is asymmetric by 1e-13, a few percent of its own largest
    # entry but far less than 1e-9 of the other fibers'; the message names it
    ogrid, squad = fs.build_omega_grid(4), fs.build_s_quadrature("gauss_legendre", 6)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((4, 6, 6))
    values += values.transpose(0, 2, 1)
    values[2] = 1e-12 * (values[2] + np.triu(np.full((6, 6), 0.1), 1))
    asymmetry = np.max(np.abs(values[2] - values[2].T))
    assert asymmetry < 1e-9 * np.max(np.abs(values[0]))
    text = "^sampled kernel fiber 2 asymmetry 1.000e-13 exceeds 1e-09 of its "
    with pytest.raises(errors.NotSymmetric, match=text):
        fs.SampledKernel(ogrid, squad, values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sampled_kernel_refuses_an_overflowing_asymmetry():
    # the difference of 1e308 and -1e308 overflows: the gate measures it
    # as an infinite asymmetry, without a warning
    ogrid, squad = fs.build_omega_grid(1), fs.build_s_quadrature("trapezoid", 2)
    values = np.array([[[1e308, 1e308], [-1e308, 1e308]]])
    text = "^sampled kernel fiber 0 asymmetry inf exceeds 1e-09 of its "
    with pytest.raises(errors.NotSymmetric, match=text):
        fs.SampledKernel(ogrid, squad, values)


def test_sampled_kernel_averages_as_the_where_formula():
    # every stored value equals the two-branch formula: the halved sum, and
    # 0.5 v + 0.5 v^T where the sum overflows.  Fibers 0 and 2 mix pairs
    # near +-1.5e308, one ulp apart, with ordinary entries; fiber 1 is
    # asymmetric below the gate and holds a pair of subnormals, whose two
    # averages differ.  The input is left as it was.
    ogrid, squad = fs.build_omega_grid(3), fs.build_s_quadrature("gauss_legendre", 5)
    rng = np.random.default_rng(11)
    values = rng.standard_normal((3, 5, 5))
    values += values.transpose(0, 2, 1)
    values[1] += rng.uniform(-1e-10, 1e-10, (5, 5))
    values[1, 0, 4], values[1, 4, 0] = 5e-324, 1e-323
    for i, j, l, big in ((0, 0, 1, 1.5e308), (0, 2, 2, -1.5e308), (2, 3, 4, -1.5e308)):
        values[i, j, l] = big
        values[i, l, j] = np.nextafter(big, 0.0) if j != l else big
    before = values.copy()
    swapped = values.transpose(0, 2, 1)
    with np.errstate(over="ignore"):
        total = values + swapped
    assert np.count_nonzero(~np.isfinite(total)) == 5
    halves = 0.5 * values + 0.5 * swapped
    assert halves[1, 0, 4] != 0.5 * total[1, 0, 4]
    want = np.where(np.isfinite(total), 0.5 * total, halves)
    k = fs.SampledKernel(ogrid, squad, values)
    assert k.values.tobytes() == want.tobytes()
    assert k.asymmetry == np.max(np.abs(values - swapped))
    assert values.tobytes() == before.tobytes()


def test_separable_asymmetry_is_exact(grids):
    assert separable_fixture().asymmetry == 0.0


def test_mercer_reconstruct_full_rank(cfg, decomposition):
    rebuilt = fs.mercer_reconstruct(decomposition, 3)
    orig = fs.kernel_matrices(cfg.kernel, cfg.ogrid, cfg.squad)
    assert np.max(np.abs(orig - rebuilt.values)) < 1e-8


def test_mercer_rank_validation(decomposition):
    with pytest.raises(errors.RankTooLarge):
        fs.mercer_reconstruct(decomposition, 4)
    with pytest.raises(errors.RankTooLarge):
        fs.mercer_reconstruct(decomposition, -1)


def test_mercer_rank_zero_is_zero_kernel(decomposition):
    rebuilt = fs.mercer_reconstruct(decomposition, 0)
    assert np.all(rebuilt.values == 0.0)


def test_mercer_reconstruct_keeps_largest_magnitudes(cfg):
    # trig_rank3 with its second curve negated, -sin^2(pi w)/2: at rank 2
    # every fiber keeps its two largest |lambda|, so the error is the
    # dropped eigenpair, |lambda| <= 0.1734 against |x(t) x(s)| <= 2
    terms = list(separable_fixture().terms)
    # unary minus binds tighter than ^, so the square is parenthesized
    terms[1] = (parse("-(sin(pi*omega)^2)/2"), terms[1][1])
    kernel = fs.SeparableKernel(tuple(terms))
    d = fs.decompose_all_fibers(kernel, cfg.ogrid, cfg.squad)
    rebuilt = fs.mercer_reconstruct(d, 2)
    orig = fs.kernel_matrices(kernel, cfg.ogrid, cfg.squad)
    err = float(np.max(np.abs(orig - rebuilt.values)))
    dropped = np.sort(np.abs(d.eigenvalues), axis=1)[:, 0]
    assert abs(float(dropped.max()) - 0.1734) < 1e-3
    # keeping the two largest values instead drops -sin^2(pi w)/2: 0.998
    assert 0.345 < err <= 2.0 * float(dropped.max())
    # the kept slots are summed in their stored (descending) order
    full = fs.mercer_reconstruct(d, 3).values
    assert full.tobytes() == _leading_slots_sum(d, 3).tobytes()


def _leading_slots_sum(d, rank):
    funcs = d.functions[:, :rank]
    block = (funcs.transpose(0, 2, 1) * d.eigenvalues[:, None, :rank]) @ funcs
    return 0.5 * (block + block.transpose(0, 2, 1))


def test_mercer_reconstruct_positive_kernel_keeps_leading_slots(decomposition):
    # every retained eigenvalue of trig_rank3 is positive, so the largest
    # |lambda| are the leading slots, summed in the same order as before
    d = decomposition
    for rank in (1, 2, 3):
        rebuilt = fs.mercer_reconstruct(d, rank).values
        assert rebuilt.tobytes() == _leading_slots_sum(d, rank).tobytes()


def test_sampled_kernel_grid_guard(grids):
    ogrid, squad = grids
    k = fs.sample_kernel(parse("t*s"), ogrid, squad)
    other = fs.build_s_quadrature("gauss_legendre", 23)
    # the chunk of all fibers is a view of the sampled tensor, not a copy
    assert fs.kernel_matrices(k, ogrid, squad).base is k.values
    # perfbench's known-defect check matches this text
    text = "^sampled kernel was sampled on different grids$"
    with pytest.raises(errors.GridMismatch, match=text):
        fs.kernel_matrices(k, ogrid, other)


def test_sampled_kernel_rejects_asymmetric_values():
    # the constructor holds the same gate as sample_kernel: raw values this
    # asymmetric would give a quadrature route that disagrees with the
    # spectral one
    ogrid, squad = fs.build_omega_grid(4), fs.build_s_quadrature("gauss_legendre", 6)
    values = np.random.default_rng(0).standard_normal((4, 6, 6))
    with pytest.raises(errors.NotSymmetric):
        fs.SampledKernel(ogrid, squad, values)


def test_sampled_kernel_averages_mild_asymmetry():
    ogrid, squad = fs.build_omega_grid(4), fs.build_s_quadrature("gauss_legendre", 6)
    rng = np.random.default_rng(1)
    values = rng.standard_normal((4, 6, 6))
    values += values.transpose(0, 2, 1)
    # entries in [-0.5e-9, 0.5e-9] keep the asymmetry below the 1e-9 gate
    values += rng.uniform(-0.5e-9, 0.5e-9, values.shape)
    k = fs.SampledKernel(ogrid, squad, values)
    assert k.values.tobytes() == k.values.transpose(0, 2, 1).copy().tobytes()
    asymmetry = np.max(np.abs(values - values.transpose(0, 2, 1)))
    assert 0.0 < asymmetry <= 1e-9
    assert k.asymmetry == asymmetry
    f = fs.sample_section(parse("omega*sin(pi*t)+t"), ogrid, squad)
    d = fs.decompose_all_fibers(k, ogrid, squad)
    gap = fs.apply_quadrature(k, f).values - fs.apply_spectral(d, f).values
    assert np.max(np.abs(gap)) < 1e-12


@pytest.mark.parametrize("rank", [2, 3])
def test_mercer_reconstruct_records_no_asymmetry(decomposition, rank):
    assert fs.mercer_reconstruct(decomposition, rank).asymmetry == 0.0


def test_mercer_reconstruct_rebuilds_a_near_max_kernel(tmp_path):
    # the rank-1 sum of the one-node kernel is the kernel, 1.5e308, whose
    # doubled value overflows
    cfg = fs.load_config(write_near_max_config(tmp_path, "sampled"))
    d = fs.decompose_all_fibers(cfg.kernel, cfg.ogrid, cfg.squad)
    rebuilt = fs.mercer_reconstruct(d, 1)
    assert np.array_equal(rebuilt.values, cfg.kernel.values)
    assert rebuilt.asymmetry == 0.0


def test_sampled_kernel_refuses_other_shapes_and_non_finite_values(grids):
    ogrid, squad = grids
    text = r"^sampled kernel shape \(16, 24, 23\) does not match grids$"
    with pytest.raises(ValueError, match=text):
        fs.SampledKernel(ogrid, squad, np.zeros((16, 24, 23)))
    values = np.zeros((16, 24, 24))
    values[3, 5, 5] = np.nan
    text = "^sampled kernel contains non-finite values$"
    with pytest.raises(errors.DomainError, match=text):
        fs.SampledKernel(ogrid, squad, values)
