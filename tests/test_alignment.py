"""The batched curve alignment and the per-node Partition against the
ragged implementations they replaced.

loop_align_labels sorts every (n, m) pair of two consecutive fibers with a
Python key and carries the ids forward one fiber at a time, where
_align_labels takes the mutual best overlaps without a sort, again and
again on the rows and columns they leave free, and numbers the chains of
matches by pointer doubling;
TuplePartition holds ((label, (node indices...)), ...) sets and checks
them index by index.  Both are kept here as oracles: labels and error
messages must agree exactly.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberspec as fs
from fiberspec import errors
from fiberspec.expr import parse
from fiberspec.fiber import _align_labels
from fiberspec.spectrum import Partition
from fiberspec.verify import _random_node_partition, _SplitMix64

from conftest import loop_random_node_partition, random_separable_kernel

BRIDGE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "perfbench", "bridge_sampled.json"
)


def loop_align_labels(functions, ranks, weights):
    labels = np.full(functions.shape[:2], -1, dtype=int)
    next_id = 0
    for i, r_cur in enumerate(ranks):
        r_prev = ranks[i - 1] if i else 0
        assigned = np.full(r_cur, -1, dtype=int)
        if r_prev and r_cur:
            prev_funcs = functions[i - 1, :r_prev]
            cur_funcs = functions[i, :r_cur]
            overlap = np.abs(prev_funcs @ (weights * cur_funcs).T)
            pairs = sorted(
                ((n, m) for n in range(r_prev) for m in range(r_cur)),
                key=lambda nm: (-overlap[nm[0], nm[1]], nm[0], nm[1]),
            )
            used_prev = np.zeros(r_prev, dtype=bool)
            for n, m in pairs:
                if used_prev[n] or assigned[m] >= 0:
                    continue
                used_prev[n] = True
                assigned[m] = labels[i - 1, n]
        for m in range(r_cur):
            if assigned[m] < 0:
                assigned[m] = next_id
                next_id += 1
        labels[i, :r_cur] = assigned
    return labels


class TuplePartition:
    def __init__(self, n_nodes, sets):
        seen = np.zeros(n_nodes, dtype=int)
        norm = []
        for label, indices in sets:
            label = int(label)
            if label < 0:
                raise ValueError(f"labels must be non-negative, got {label}")
            idx = tuple(int(i) for i in indices)
            for i in idx:
                if not 0 <= i < n_nodes:
                    raise IndexError(f"node index {i} outside the grid")
                seen[i] += 1
            norm.append((label, idx))
        if np.any(seen > 1):
            first = int(np.nonzero(seen > 1)[0][0])
            raise errors.IncompletePartition(
                f"node {first} is covered by more than one set"
            )
        if np.any(seen == 0):
            first = int(np.nonzero(seen == 0)[0][0])
            raise errors.IncompletePartition(
                f"node {first} is not covered by any set"
            )
        self.n_nodes = n_nodes
        self.sets = tuple(norm)

    @staticmethod
    def from_ranges(ogrid, entries):
        sets = []
        for label, lo, hi in entries:
            picked = np.nonzero((ogrid.nodes >= lo) & (ogrid.nodes < hi))[0]
            sets.append((int(label), tuple(int(i) for i in picked)))
        return TuplePartition(len(ogrid), tuple(sets))

    def labels_by_node(self):
        out = np.zeros(self.n_nodes, dtype=int)
        for label, indices in self.sets:
            for i in indices:
                out[i] = label
        return out


def assert_alignment_matches(d):
    args = (d.functions, d.ranks, d.squad.weights)
    want = loop_align_labels(*args)
    assert np.array_equal(_align_labels(*args), want)
    assert np.array_equal(d.labels, want)


def separable(*terms):
    return fs.SeparableKernel(tuple((parse(c), parse(b)) for c, b in terms))


def test_alignment_matches_loop_on_fixture(decomposition):
    assert decomposition.num_curves == 3
    assert_alignment_matches(decomposition)


@pytest.fixture(scope="module")
def bridge():
    return fs.decompose(fs.load_config(BRIDGE_PATH))


def test_alignment_matches_loop_on_sampled_kernel(bridge):
    assert bridge.eigenvalues.shape[1] > 40
    assert_alignment_matches(bridge)


def test_aligned_curves_stay_on_their_eigenfunctions(bridge):
    # wherever a curve is present at two consecutive fibers, its
    # eigenfunctions there overlap by at least 1/2 in the quadrature inner
    # product, also inside bridge_sampled's near-degenerate pairs
    d = bridge
    f = d.functions
    overlap = np.abs(f[:-1] @ (d.squad.weights * f[1:]).transpose(0, 2, 1))
    labels = d.labels
    same = (labels[:-1, :, None] == labels[1:, None, :]) & (labels[:-1, :, None] >= 0)
    assert same.any()
    assert overlap[same].min() >= 0.5


def test_alignment_sorts_nothing_when_every_slot_has_a_mutual_best(
    decomposition, bridge
):
    for d in (decomposition, bridge):
        args = (d.functions, d.ranks, d.squad.weights)
        assert np.array_equal(_align_labels(*args), d.labels)


def test_alignment_scans_the_rows_left_free():
    # overlaps [[1, 3/4], [1/2, 1/4]]: (0, 0) is the one mutual best entry,
    # and the second step matches (1, 1); a fresh id would give slot 1
    # label 2
    functions = np.array([[[4.0, 0.0], [0.0, 4.0]], [[4.0, 2.0], [3.0, 1.0]]]) / 4
    args = (functions, np.array([2, 2]), np.ones(2))
    assert _align_labels(*args).tolist() == [[0, 1], [0, 1]]
    assert np.array_equal(_align_labels(*args), loop_align_labels(*args))


def test_alignment_matches_a_staircase_one_entry_per_step():
    # overlaps [[4, 3, 2], [3, 2, 1], [2, 1, 0]] / 4: each step finds one
    # mutual best entry, (0, 0), then (1, 1), then (2, 2); stopping early
    # would give the slots left over fresh ids 3 and 4
    overlap = np.array([[4.0, 3.0, 2.0], [3.0, 2.0, 1.0], [2.0, 1.0, 0.0]]) / 4
    col_best = np.argmax(overlap, axis=0)
    assert (np.argmax(overlap, axis=1)[col_best] == np.arange(3)).sum() == 1
    functions = np.stack([np.eye(3), overlap.T])
    args = (functions, np.array([3, 3]), np.ones(3))
    assert _align_labels(*args).tolist() == [[0, 1, 2], [0, 1, 2]]
    assert np.array_equal(_align_labels(*args), loop_align_labels(*args))


@pytest.mark.parametrize(
    "terms",
    [
        # rank 1 below omega = 1/2 and rank 2 above it
        (
            ("1/2", "sqrt(2)*sin(pi*t)"),
            ("max(0,omega-1/2)", "sqrt(2)*sin(2*pi*t)"),
        ),
        # one degenerate pair everywhere
        (("1/2", "sqrt(2)*sin(pi*t)"), ("1/2", "sqrt(2)*sin(2*pi*t)")),
        # the zero kernel retains nothing
        (("0", "sin(pi*t)"),),
    ],
    ids=["mixed_rank", "degenerate", "zero"],
)
def test_alignment_matches_loop_on_small_kernels(grids, terms):
    assert_alignment_matches(fs.decompose_all_fibers(separable(*terms), *grids))


def test_alignment_matches_loop_on_one_fiber():
    ogrid = fs.build_omega_grid(1)
    squad = fs.build_s_quadrature("gauss_legendre", 12)
    k = separable(("1", "sin(pi*t)"), ("omega", "cos(pi*t)"))
    d = fs.decompose_all_fibers(k, ogrid, squad)
    assert d.labels.tolist() == [[0, 1]]
    assert_alignment_matches(d)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_alignment_matches_loop_on_random_kernels(seed):
    ogrid = fs.build_omega_grid(16)
    squad = fs.build_s_quadrature("gauss_legendre", 24)
    k = random_separable_kernel(np.random.default_rng(seed))
    assert_alignment_matches(fs.decompose_all_fibers(k, ogrid, squad))


@st.composite
def tied_inputs(draw):
    """Padded alignment inputs with exact overlap ties: entries in
    {-1, 0, 1}, power-of-two weights.  Up to 8
    slots give 64 overlaps per pair, past the 16 below which numpy's
    default sort happens to be stable."""
    n_fibers = draw(st.integers(1, 6))
    ranks = np.array(
        draw(st.lists(st.integers(0, 8), min_size=n_fibers, max_size=n_fibers))
    )
    r_max = int(ranks.max())
    n_s = 4
    retained = np.arange(r_max) < ranks[:, None]
    entries = draw(
        st.lists(
            st.sampled_from((-1.0, 0.0, 1.0)),
            min_size=n_fibers * r_max * n_s,
            max_size=n_fibers * r_max * n_s,
        )
    )
    funcs = np.array(entries).reshape(n_fibers, r_max, n_s)
    return (
        np.where(retained[..., None], funcs, 0.0),
        ranks,
        np.full(n_s, 1.0 / n_s),
    )


@settings(max_examples=100, deadline=None)
@given(args=tied_inputs())
def test_alignment_breaks_ties_like_loop(args):
    assert np.array_equal(_align_labels(*args), loop_align_labels(*args))


@st.composite
def ragged_inputs(draw):
    """Padded alignment inputs with random overlap magnitudes, ragged ranks
    of up to 12 slots and rows whose largest overlap is tied.  Entries are
    multiples of 1/8 in [-2, 2] and the weights powers of two, so every
    overlap is exact and a tie stays a tie however the products are
    summed.  Some slots copy another slot of their fiber, with either sign,
    which ties the largest overlap of the rows that pair with them.  Rows
    and columns then lose their mutual best entry, so the mutual best
    step reruns on the rows and columns it leaves free."""
    n_fibers = draw(st.integers(1, 6))
    ranks = np.array(
        draw(st.lists(st.integers(0, 12), min_size=n_fibers, max_size=n_fibers))
    )
    r_max = int(ranks.max())
    n_s = 5
    retained = np.arange(r_max) < ranks[:, None]
    size = n_fibers * r_max * n_s
    entries = draw(st.lists(st.integers(-16, 16), min_size=size, max_size=size))
    funcs = np.array(entries, dtype=float).reshape(n_fibers, r_max, n_s) / 8
    if r_max:
        slot = st.integers(0, r_max - 1)
        fiber_index = st.integers(0, n_fibers - 1)
        copies = st.tuples(fiber_index, slot, slot, st.sampled_from((1, -1)))
        for i, source, target, sign in draw(st.lists(copies, max_size=8)):
            funcs[i, target] = sign * funcs[i, source]
    weights = draw(
        st.lists(st.sampled_from((0.5, 0.25, 0.125)), min_size=n_s, max_size=n_s)
    )
    return (
        np.where(retained[..., None], funcs, 0.0),
        ranks,
        np.array(weights),
    )


@settings(max_examples=200, deadline=None)
@given(args=ragged_inputs())
def test_alignment_matches_loop_on_ragged_inputs(args):
    assert np.array_equal(_align_labels(*args), loop_align_labels(*args))


THIRDS = ((1, 0.0, 1.0 / 3.0), (2, 1.0 / 3.0, 2.0 / 3.0), (3, 2.0 / 3.0, 1.0))


def outcome(build):
    try:
        return build()
    except (ValueError, errors.FiberspecError) as exc:
        return type(exc), str(exc)


def assert_partition_matches(ogrid, entries):
    got = outcome(lambda: Partition.from_ranges(ogrid, entries).labels)
    want = outcome(lambda: TuplePartition.from_ranges(ogrid, entries).labels_by_node())
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype


@pytest.mark.parametrize(
    "entries",
    [
        THIRDS,
        ((1, 0.0, 0.5), (2, 0.5, 1.0)),
        ((0, 0.0, 1.0),),
        ((1, 0.0, 0.4),),
        ((1, 0.0, 0.6), (2, 0.5, 1.0)),
        ((1, 0.0, 0.6), (2, 0.5, 0.9)),
        ((2, 0.7, 1.0), (1, 0.0, 0.7)),
        ((1, 0.2, 1.0),),
        ((-1, 0.0, 1.0),),
        (),
        # 32.5 / 64 is node 32: half-open ranges give it to the second row
        ((1, 0.0, 0.5078125), (2, 0.5078125, 1.0)),
    ],
    ids=[
        "thirds", "halves", "null", "gap", "overlap", "overlap_and_gap",
        "unordered", "gap_first", "negative", "empty", "bound_on_node",
    ],
)
def test_partition_matches_tuple_oracle(cfg, entries):
    assert_partition_matches(cfg.ogrid, entries)


# eighths are nodes of the grids with n = 4 and n = 8
bounds = st.floats(-0.2, 1.2) | st.sampled_from([k / 8 for k in range(9)])


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 5), bounds, bounds), max_size=5),
    n=st.integers(1, 20),
)
def test_partition_matches_tuple_oracle_on_random_ranges(rows, n):
    assert_partition_matches(fs.build_omega_grid(n), rows)


@pytest.mark.parametrize(
    "seed", [pytest.param(s, id=f"stream-{s}") for s in (0, 1, 1347)]
)
def test_random_node_partition_keeps_its_stream(decomposition, seed):
    # one array draw gives the picks of one word per fiber
    d = decomposition
    got = _random_node_partition(_SplitMix64(seed), d).labels
    assert got.tolist() == loop_random_node_partition(_SplitMix64(seed), d)
    assert got.min() >= 0 and got.max() == d.num_curves
