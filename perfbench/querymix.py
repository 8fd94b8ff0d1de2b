"""The trig_queries mix: seeded generation, timed execution, dense reference.

Queries come in blocks of 100 with equal shares of the five kinds (SHARES),
shuffled inside the block.  There is no record of how the library is used,
so no kind is weighted over another.  Per query, `riemann_stieltjes_apply`
costs far more than the others: it runs one `projector_apply` per mesh step,
20 to 200 of them, so it takes most of the query time and sets the latency
tail.  The twenty meshes of a block are stratified over MESH_RANGE, one per
twentieth, so that the tail does not depend on how the seed happened to
draw.  The library receives only the generated objects: sections, threshold
fields, parsed g expressions, meshes and partitions.

One query of each kind per block is checked against an independent dense
route: numpy `eigh` of fiber matrices built from the closed form of
configs/trig_rank3.json, and full-basis matrix functions in place of the
library's retained-eigenpair sums.
"""

from __future__ import annotations

import math
import time

import numpy as np

from checks import TRIG_CURVES as CURVES

SHARES = (
    ("projector_apply", 20),
    ("functional_calculus", 20),
    ("riemann_stieltjes_apply", 20),
    ("apply_spectral", 20),
    ("mix_field", 20),
)
BLOCK = sum(n for _, n in SHARES)
MESH_RANGE = (0.005, 0.05)
# g expressions with their numpy twins; all are defined on the spectral
# interval [0, 1 + epsilon] of trig_rank3.
G_FUNCTIONS = (
    ("lambda^2", lambda x: x**2),
    ("sqrt(lambda+1)", lambda x: np.sqrt(x + 1.0)),
    ("exp(-lambda)", lambda x: np.exp(-x)),
    ("sin(3*lambda)+lambda/4", lambda x: np.sin(3.0 * x) + x / 4.0),
    ("1/(1+lambda)", lambda x: 1.0 / (1.0 + x)),
    ("abs(lambda-0.3)", lambda x: np.abs(x - 0.3)),
)
# Sections, threshold fields and partitions per session: enough draws that
# the cost of a run's mix varies little from seed to seed.
POOL = 32
BLOCKS = 200  # blocks generated per session, more than a run uses
CHECK_ATOL = 1e-9  # times max(1, max |f|)


def _basis(k, t):
    return np.sqrt(2.0) * np.sin(k * np.pi * t)


def generate(fs, cfg, seed, n_blocks):
    """Inputs and the query list for one session, from the seed alone."""
    rng = np.random.default_rng(seed)
    ogrid, squad = cfg.ogrid, cfg.squad
    nodes = ogrid.nodes
    sections = [
        fs.Section(ogrid, squad, rng.standard_normal((len(ogrid), len(squad))))
        for _ in range(POOL)
    ]
    thresholds = []
    for _ in range(POOL):
        base = rng.uniform(-0.2, 1.2)
        amp = rng.uniform(0.0, 0.6)
        freq = int(rng.integers(1, 4))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        values = base + amp * np.cos(freq * np.pi * nodes + phase)
        thresholds.append(
            fs.ThresholdField(fs.ScalarField(ogrid, values), cfg.tolerances.tie_tol)
        )
    partitions = []
    for _ in range(POOL):
        cuts = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(0, 4))))
        edges = np.concatenate(([0.0], cuts, [1.0 + 1e-9]))
        labels = rng.integers(0, len(CURVES) + 1, edges.size - 1)
        rows = [(int(l), lo, hi) for l, lo, hi in zip(labels, edges, edges[1:])]
        partitions.append((labels_by_node(nodes, rows), fs.Partition.from_ranges(ogrid, rows)))
    gs = [fs.parse(text) for text, _ in G_FUNCTIONS]

    queries = []
    kinds = [kind for kind, n in SHARES for _ in range(n)]
    lo, hi = MESH_RANGE
    for _ in range(n_blocks):
        order = rng.permutation(kinds)
        n_rs = sum(1 for k in order if k == "riemann_stieltjes_apply")
        strata = rng.permutation(n_rs)
        meshes = iter(lo + (hi - lo) * (strata + rng.uniform(0.0, 1.0, n_rs)) / n_rs)
        checked = set()
        for kind in order:
            f = int(rng.integers(POOL))
            if kind == "projector_apply":
                args = (f, int(rng.integers(POOL)))
            elif kind in ("functional_calculus", "riemann_stieltjes_apply"):
                args = (f, int(rng.integers(len(gs))))
                if kind == "riemann_stieltjes_apply":
                    args += (float(next(meshes)),)
            elif kind == "apply_spectral":
                args = (f,)
            else:
                args = (int(rng.integers(POOL)),)
            check = kind not in checked
            checked.add(kind)
            queries.append((kind, args, check))
    return {
        "sections": sections,
        "thresholds": thresholds,
        "partitions": partitions,
        "gs": gs,
        "queries": queries,
    }


def labels_by_node(nodes, rows):
    out = np.zeros(nodes.size, dtype=int)
    for label, lo, hi in rows:
        out[(nodes >= lo) & (nodes < hi)] = label
    return out


def execute(fs, cfg, d, inputs, kind, args):
    """Run one query through the library; returns what the check compares."""
    sec = inputs["sections"]
    if kind == "projector_apply":
        return fs.projector_apply(d, inputs["thresholds"][args[1]], sec[args[0]])
    if kind == "functional_calculus":
        g = inputs["gs"][args[1]]
        return fs.functional_calculus(d, g, sec[args[0]], epsilon=cfg.epsilon)
    if kind == "riemann_stieltjes_apply":
        g = inputs["gs"][args[1]]
        return fs.riemann_stieltjes_apply(
            d, g, sec[args[0]], mesh=args[2], epsilon=cfg.epsilon
        )
    if kind == "apply_spectral":
        return fs.apply_spectral(d, sec[args[0]])
    _, partition = inputs["partitions"][args[0]]
    mixed = fs.mix_field(d, partition)
    member, violations = fs.spm_membership(d, mixed, cfg.tolerances.member_tol)
    return mixed, member, violations


class DenseReference:
    """Independent dense route for trig_rank3, built from its closed form."""

    def __init__(self, cfg):
        self.cfg = cfg
        t, w = cfg.squad.nodes, cfg.squad.weights
        self.nodes = cfg.ogrid.nodes
        self.w = w
        self.sw = np.sqrt(w)
        basis = np.array([_basis(k + 1, t) for k in range(len(CURVES))])
        curves = np.array([c(self.nodes) for c in CURVES]).T  # (n_omega, 3)
        self.K = np.einsum("ic,cj,cl->ijl", curves, basis, basis)
        A = self.sw[None, :, None] * self.K * self.sw[None, None, :]
        vals, self.V = np.linalg.eigh(0.5 * (A + A.transpose(0, 2, 1)))
        scale = np.maximum(1.0, np.max(np.abs(vals), axis=1, keepdims=True))
        self.retained = np.abs(vals) > cfg.tolerances.rank_tol * scale
        self.vals = np.where(self.retained, vals, 0.0)
        self.lo = float(min(0.0, np.min(self.vals)))
        self.hi = float(max(0.0, np.max(self.vals))) + cfg.epsilon
        self.curves = curves

    def _matrix_function(self, h, f):
        """W^-1/2 V h(lambda) V^T W^1/2 f per fiber, over the full basis."""
        y = np.einsum("ijn,ij->in", self.V, self.sw * f)
        return np.einsum("ijn,in->ij", self.V, h * y) / self.sw

    def expected(self, inputs, kind, args):
        f = inputs["sections"][args[0]].values if kind != "mix_field" else None
        tie = self.cfg.tolerances.tie_tol
        if kind == "projector_apply":
            cut = inputs["thresholds"][args[1]].field.values[:, None] + tie
            return self._matrix_function((self.vals <= cut).astype(float), f)
        if kind == "functional_calculus":
            g = G_FUNCTIONS[args[1]][1]
            return self._matrix_function(g(self.vals), f)
        if kind == "riemann_stieltjes_apply":
            g = G_FUNCTIONS[args[1]][1]
            steps = max(1, math.ceil((self.hi - self.lo) / args[2]))
            cuts = np.linspace(self.lo, self.hi, steps + 1)
            # a value first enters E_c at the cut c_k with value <= c_k + tie
            cell = np.searchsorted(cuts + tie, self.vals, side="left")
            h = np.where(cell <= steps, g(cuts[np.minimum(cell, steps)]), 0.0)
            return self._matrix_function(h, f)
        if kind == "apply_spectral":
            return np.einsum("ijl,il->ij", self.K, self.w * f)
        labels, _ = inputs["partitions"][args[0]]
        rows = np.arange(self.nodes.size)
        values = np.where(labels > 0, self.curves[rows, np.maximum(labels - 1, 0)], 0.0)
        return values

    def check(self, inputs, kind, args, result):
        """None when the library result agrees, else a one-line reason."""
        want = self.expected(inputs, kind, args)
        if kind == "mix_field":
            mixed, member, violations = result
            if not member:
                return f"mix_field: {len(violations)} membership violations"
            got, scale = mixed.values, 1.0
        else:
            got = result.values
            scale = max(1.0, float(np.max(np.abs(inputs["sections"][args[0]].values))))
        err = float(np.max(np.abs(got - want)))
        if not err <= CHECK_ATOL * scale:
            return f"{kind}{args}: max deviation {err:.3e} from the dense route"
        return None


def run(fs, cfg, d, inputs, reference, seconds=0.0, at_least=0):
    """Run whole blocks of queries in order until `seconds` of query time
    have passed and `at_least` queries are done, or the list ends; the time
    spent checking results is not counted.

    Returns (latencies, attempted, failures, cpu_s).  latencies maps each
    kind to the CPU milliseconds of its successful queries; failures lists
    one line per query that raised or failed its check; cpu_s is the CPU
    time of all attempted queries.
    """
    latencies = {kind: [] for kind, _ in SHARES}
    failures = []
    attempted = 0
    queries = inputs["queries"]
    start = time.perf_counter()
    checking = cpu = 0.0
    for kind, args, check in queries:
        if (
            attempted % BLOCK == 0
            and attempted >= at_least
            and time.perf_counter() - start - checking >= seconds
        ):
            break
        attempted += 1
        t0 = time.process_time()
        try:
            result = execute(fs, cfg, d, inputs, kind, args)
        except Exception as exc:  # a failed query is counted, not fatal
            cpu += time.process_time() - t0
            failures.append(f"{kind}{args} raised {type(exc).__name__}: {exc}")
            continue
        t1 = time.process_time()
        cpu += t1 - t0
        w1 = time.perf_counter()
        reason = reference.check(inputs, kind, args, result) if check else None
        checking += time.perf_counter() - w1
        if reason:
            failures.append(reason)
        else:
            latencies[kind].append((t1 - t0) * 1e3)
    return latencies, attempted, failures, cpu


def session(fs, config, seed, seconds=0.0, at_least=0):
    """One library session: load the config and decompose once (the
    set-up), then run the seeded mix against that decomposition for
    `seconds` of query time and at least `at_least` queries.

    Returns a JSON-ready dict.  `setup_s` is the wall time of the
    in-process set-up.  `setup_cpu_s` is the process's CPU time when the
    set-up ended, so it also counts interpreter start and imports.
    `decompose_start`, `ready`, `queries_start` and `queries_end` are
    CLOCK_MONOTONIC times, which a parent process shares.
    """
    t0 = time.perf_counter()
    cfg = fs.load_config(config)
    decompose_start = time.monotonic()
    c1 = time.process_time()
    d = fs.decompose(cfg)
    c2 = time.process_time()
    ready = time.monotonic()
    t2 = time.perf_counter()
    inputs = generate(fs, cfg, seed, n_blocks=BLOCKS)
    reference = DenseReference(cfg)
    queries_start = time.monotonic()
    latencies, attempted, failures, cpu = run(
        fs, cfg, d, inputs, reference, seconds, at_least
    )
    return {
        "setup_s": t2 - t0,
        "setup_cpu_s": c2,
        "decompose_cpu_s": c2 - c1,
        "decompose_start": decompose_start,
        "ready": ready,
        "queries_start": queries_start,
        "queries_end": time.monotonic(),
        "latencies_ms": latencies,
        "attempted": attempted,
        "failures": failures,
        "window_cpu_s": cpu,
    }
