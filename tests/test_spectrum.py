import re
import warnings
from functools import partial

import numpy as np
import pytest

import fiberspec as fs
from fiberspec import csvio, errors
from fiberspec.spectrum import Partition

from conftest import curve1, curve2, curve3


def test_partition_from_ranges_half_open(cfg):
    p = Partition.from_ranges(
        cfg.ogrid, ((1, 0.0, 0.5), (2, 0.5, 1.0))
    )
    labels = p.labels
    nodes = cfg.ogrid.nodes
    assert np.all(labels[nodes < 0.5] == 1)
    assert np.all(labels[nodes >= 0.5] == 2)


def test_partition_gap_rejected(cfg):
    with pytest.raises(errors.IncompletePartition):
        Partition.from_ranges(cfg.ogrid, ((1, 0.0, 0.4),))


def test_partition_overlap_rejected(cfg):
    with pytest.raises(errors.IncompletePartition, match="node 32 is covered"):
        Partition.from_ranges(cfg.ogrid, ((1, 0.0, 0.6), (2, 0.5, 1.0)))


def test_partition_bad_indices():
    with pytest.raises(ValueError, match="non-negative, got -1"):
        Partition(np.array([1, -1]))
    for labels in (np.array([1.0, 2.0]), np.ones((2, 2), dtype=int), 1):
        with pytest.raises(ValueError, match="one dimensional integer array"):
            Partition(labels)


@pytest.mark.parametrize("label", [2**63, 2**64 - 1])
def test_partition_refuses_labels_beyond_int64(cfg, label):
    # the signed copy would wrap them to negative curve ids, and mix_field
    # would then report a curve that no label names, with an overflow
    # warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"fit in int64, got {label}"):
            Partition(np.full(len(cfg.ogrid), label, dtype=np.uint64))


@pytest.mark.parametrize(
    "label,message",
    [
        (1.7, "must be integers, got 1.7"),
        (True, "must be integers, got True"),
        ("2", "must be integers, got '2'"),
        (np.bool_(True), "must be integers, got np.True_"),
        (2**70, f"fit in int64, got {2**70}"),
        (-(2**70), f"fit in int64, got {-(2**70)}"),
        (np.uint64(2**63), f"fit in int64, got {2**63}"),
    ],
    ids=["float", "bool", "str", "numpy_bool", "2**70", "-2**70", "uint64"],
)
def test_partition_from_ranges_refuses_labels_that_are_not_int64(cfg, label, message):
    # int() would truncate the first four to 1 and overflow on the others
    with pytest.raises(ValueError, match=re.escape(message)):
        Partition.from_ranges(cfg.ogrid, ((label, 0.0, 1.0),))


def test_partition_from_ranges_takes_numpy_integer_labels(cfg):
    rows = ((np.int32(1), 0.0, 0.5), (np.uint64(2), 0.5, 1.0))
    want = Partition.from_ranges(cfg.ogrid, ((1, 0.0, 0.5), (2, 0.5, 1.0)))
    got = Partition.from_ranges(cfg.ogrid, rows).labels
    assert got.dtype == np.int64 and np.array_equal(got, want.labels)
    # the largest int64 label passes the range check
    top = Partition.from_ranges(cfg.ogrid, ((2**63 - 1, 0.0, 1.0),)).labels
    assert np.all(top == 2**63 - 1)


def test_partition_takes_unsigned_labels_in_range(cfg, decomposition):
    unsigned = Partition(np.full(len(cfg.ogrid), 1, dtype=np.uint64))
    assert unsigned.labels.dtype == np.int64
    signed = Partition(np.full(len(cfg.ogrid), 1))
    mixed = fs.mix_field(decomposition, unsigned).values
    assert np.array_equal(mixed, fs.mix_field(decomposition, signed).values)


def test_mix_field_thirds_closed_form(cfg, decomposition):
    p = Partition.from_ranges(
        cfg.ogrid,
        ((1, 0.0, 1.0 / 3.0), (2, 1.0 / 3.0, 2.0 / 3.0), (3, 2.0 / 3.0, 1.0)),
    )
    mixed = fs.mix_field(decomposition, p)
    nodes = cfg.ogrid.nodes
    want = np.where(
        nodes < 1.0 / 3.0,
        curve1(nodes),
        np.where(nodes < 2.0 / 3.0, curve2(nodes), curve3(nodes)),
    )
    assert np.max(np.abs(mixed.values - want)) < 1e-10


def test_mix_label_zero_is_null_curve(cfg, decomposition):
    p = Partition.from_ranges(cfg.ogrid, ((0, 0.0, 1.0),))
    mixed = fs.mix_field(decomposition, p)
    assert np.all(mixed.values == 0.0)
    unsigned = fs.mix_field(decomposition, Partition(np.zeros(64, dtype=np.uint8)))
    assert np.all(unsigned.values == 0.0)


def test_mix_unknown_curve(cfg, decomposition):
    p = Partition.from_ranges(cfg.ogrid, ((7, 0.0, 1.0),))
    with pytest.raises(errors.UnknownCurveLabel):
        fs.mix_field(decomposition, p)


def test_mix_sorted_versus_aligned(cfg, decomposition):
    # label 1 means aligned curve 0 when aligned, but the largest
    # eigenvalue when unaligned; they differ past the curve crossing
    p = Partition.from_ranges(cfg.ogrid, ((1, 0.0, 1.0),))
    aligned = fs.mix_field(decomposition, p, use_aligned=True)
    by_rank = fs.mix_field(decomposition, p, use_aligned=False)
    nodes = cfg.ogrid.nodes
    assert np.max(np.abs(aligned.values - curve1(nodes))) < 1e-10
    top = np.maximum(np.maximum(curve1(nodes), curve2(nodes)), curve3(nodes))
    assert np.max(np.abs(by_rank.values - top)) < 1e-10


def test_mix_partition_size_guard(decomposition):
    p = Partition(np.ones(3, dtype=int))
    with pytest.raises(errors.GridMismatch):
        fs.mix_field(decomposition, p)


def test_membership_distances_zero_on_curves(cfg, decomposition):
    field = fs.ScalarField(cfg.ogrid, curve2(cfg.ogrid.nodes))
    dists = fs.membership_distances(decomposition, field)
    assert np.max(dists) < 1e-10


def test_spm_membership_pass_and_fail(cfg, decomposition):
    member, violations = fs.spm_membership(
        decomposition, fs.ScalarField.constant(cfg.ogrid, 0.0), 1e-8
    )
    assert member and violations == []
    member, violations = fs.spm_membership(
        decomposition, fs.ScalarField.constant(cfg.ogrid, 0.9), 1e-8
    )
    assert not member
    assert violations
    node, dist = violations[0]
    assert isinstance(node, int) and dist > 1e-8


def test_membership_respects_tolerance(cfg, decomposition):
    # a field just off a curve passes with a loose tolerance and fails
    # with a tight one
    field = fs.ScalarField(cfg.ogrid, curve1(cfg.ogrid.nodes) + 5e-7)
    ok_loose, _ = fs.spm_membership(decomposition, field, 1e-6)
    ok_tight, _ = fs.spm_membership(decomposition, field, 1e-8)
    assert ok_loose and not ok_tight


def test_membership_refuses_field_on_another_grid(decomposition, tmp_path):
    # a shorter grid, and one of the same length with the left end of each
    # cell: membership.csv would pair the decomposition's nodes with the
    # other grid's values, so the writer refuses before opening the file
    path = tmp_path / "membership.csv"
    for grid in (
        fs.build_omega_grid(63),
        fs.OmegaGrid(np.arange(64) / 64, np.full(64, 1 / 64)),
    ):
        field = fs.ScalarField.constant(grid, 0.0)
        for measure in (fs.membership_distances, partial(csvio.write_membership, path)):
            with pytest.raises(errors.GridMismatch, match="^field lives on a different"):
                measure(decomposition, field)
        assert not path.exists()
