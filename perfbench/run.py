"""fiberspec benchmark: three closed-loop workloads, one caller, one process
at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is trig_session, bridge_sampled, trig_queries, or all (each in turn).
Run it from the root of a source checkout; the package is imported from
./src, so nothing is installed.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment.  Metric definitions are in perfbench/README.md.

- trig_session: `fiberspec decompose` then `fiberspec verify` on
  configs/trig_rank3.json as shipped, each its own `python -m fiberspec`
  process with the default --threads.
- bridge_sampled: the same two commands on perfbench/bridge_sampled.json.
  verify exits 3 there (checks.KNOWN_DEFECT); it is still attempted and
  counted as a failed operation.
- trig_queries: library sessions on trig_rank3 that each decompose once
  and then answer the seeded query mix of querymix.py.

With --trace 0 the commands and sessions run as child processes, untraced,
and the end-to-end metrics are printed; their times are CPU times scaled
by pace.py to a reference host speed.  With --trace 1 the same work runs in
this process with tracer.py's wrappers installed, and the per-layer metrics
are printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRIG = ROOT / "configs" / "trig_rank3.json"
BRIDGE = HERE / "bridge_sampled.json"
WORKLOADS = ("trig_session", "bridge_sampled", "trig_queries")
DEADLINE_S = 170.0  # every run ends within 180 s
SETUP_CODE = "import sys, fiberspec; fiberspec.load_config(sys.argv[1])"
# Set-ups per run, as many as the time all runs may take allows.  A CLI
# set-up is an import and a load_config (about 0.4 s for trig_rank3, 4 s
# for the sampled bridge).  A trig_queries set-up decomposes (about 10 s),
# so a run has two sessions, each with its own set-up and half the queries.
CLI_SETUPS = {"trig_session": 5, "bridge_sampled": 2}
QUERY_SESSIONS = 2
# trig_queries runs at least this many queries, so that p99 has at least
# ten samples beyond it: 500 per session, whole blocks of 100.
MIN_QUERIES = 1000

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from pace import Pace  # noqa: E402

# Times are CPU seconds (user + system) of the process doing the work,
# scaled by pace.py to a reference host speed.  On a shared host, wall time
# also counts the time other tenants hold the cores, and their load changes
# how fast a core runs; both vary from run to run far beyond the bounds.
END_TO_END = (
    ("setup_s", "s"),
    ("decompose_cpu_s", "s"),
    ("op_p50_cpu_ms", "ms"),
    ("op_tail_cpu_ms", "ms"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
CALCULUS = (
    "apply_quadrature",
    "apply_spectral",
    "projector_apply",
    "functional_calculus",
    "riemann_stieltjes_apply",
)
SPANS = (
    ("fiber.jacobi_eigh", ("calls", "busy_s")),
    ("fiber.decompose_all_fibers", ("calls", "busy_s", "self_s")),
    ("fiber.assemble_fiber_matrix", ("calls", "busy_s")),
    ("fiber.extract_eigenfunctions", ("busy_s",)),
    ("kernel.fiber_kernel_matrix", ("calls", "busy_s")),
    ("kernel.sample_kernel", ("busy_s",)),
    ("expr.evaluate", ("calls", "busy_s")),
    ("expr.parse", ("calls",)),
    ("config.load_config", ("calls", "busy_s")),
    ("grid.sample_section", ("calls", "busy_s")),
    ("grid.sample_field", ("calls", "busy_s")),
    *((f"calculus.{f}", ("calls", "busy_s", "self_s")) for f in CALCULUS),
    ("spectrum.mix_field", ("calls", "busy_s")),
    ("spectrum.membership_distances", ("calls", "busy_s")),
    ("spectrum.spm_membership", ("calls", "busy_s")),
    ("csvio.write_rows", ("calls", "busy_s")),
    ("verify.run_suite", ("busy_s", "self_s")),
    ("cli.main", ("self_s",)),
)
PER_LAYER_EXTRA = (
    ("csvio.rows_written", "count"),
    ("csvio.bytes_written", "bytes"),
    ("fiber.retained_rank_sum", "count"),
    ("fiber.curves", "count"),
    ("trace.overhead_s", "s"),
)


def per_layer_names():
    for name, stats in SPANS:
        for stat in stats:
            yield f"{name}.{stat}", "count" if stat == "calls" else "s"
    yield from PER_LAYER_EXTRA


def environment(seed):
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    import numpy

    return {
        "numba": numba_version,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        # cli.main passes os.cpu_count() when --threads is not given
        "cli_threads_default": os.cpu_count(),
        "seed": seed,
    }


class Run:
    """Operations attempted in one run and what went wrong with them."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []
        self.out = WORK / f"{workload}-{os.getpid()}"
        config = BRIDGE if workload == "bridge_sampled" else TRIG
        self.config = config
        digest = checks.tree_digest([SRC / "fiberspec", config])
        self.reference_dir = WORK / "reference" / digest / workload

    def remaining(self):
        return max(1.0, DEADLINE_S - (time.perf_counter() - self.start))

    def fail(self, what, expected=False):
        """Count one failed operation; an unexpected one makes the run
        incorrect."""
        self.failed += 1
        self.notes.append(("known defect: " if expected else "FAILED: ") + what)
        if not expected:
            self.correct = False


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed(run, argv, cwd=ROOT):
    """Run a child process and wait for it.

    Returns (CPU seconds, scaled CPU seconds, wall seconds, CompletedProcess
    or None on timeout).  One child runs at a time, so the growth of the
    reaped children's CPU time is this child's.  The scaled figure is the
    CPU time at pace.REFERENCE_S.
    """
    cpu0 = children_cpu()
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv,
            cwd=cwd,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=run.remaining(),
        )
    except subprocess.TimeoutExpired:
        proc = None
    end = time.monotonic()
    cpu = children_cpu() - cpu0
    return cpu, cpu * run.pace.scale(start, end), end - start, proc


def p99(latencies):
    """p99; with MIN_QUERIES latencies or more, ten or more lie beyond it."""
    return statistics.quantiles(latencies, n=100, method="inclusive")[98]


def decompose_failure(run, code, stderr, bridge_ref):
    """None when decompose exited 0 and its CSVs pass the output checks."""
    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    if run.workload == "bridge_sampled":
        reason = checks.bridge_eigenvalues(run.out, bridge_ref)
    else:
        reason = checks.trig_curves(run.out)
    return reason or checks.same_bytes(run.out, run.reference_dir)


def check_verify(run, code, stdout, stderr):
    """(reason, expected): reason is None when verify passed."""
    if code == 0:
        return checks.verify_passed(stdout), False
    defect_code, defect_message = checks.KNOWN_DEFECT
    expected = (
        run.workload == "bridge_sampled"
        and code == defect_code
        and defect_message in stderr
    )
    return f"verify exit {code}: {stderr.strip()[-300:]}", expected


def cli_session(run):
    py = sys.executable
    setups = []
    setup_start = time.monotonic()
    for _ in range(CLI_SETUPS[run.workload]):
        cpu, _, _, proc = timed(run, [py, "-c", SETUP_CODE, str(run.config)])
        if proc is None or proc.returncode != 0:
            raise SystemExit(f"set-up failed: {proc.stderr if proc else 'timeout'}")
        setups.append(cpu)
    # one scale for all set-ups: one set-up can be shorter than the
    # reference loop needs to sample
    setup_scale = run.pace.scale(setup_start, time.monotonic())
    print(f"  setup_s: CPU {statistics.median(setups):.4f}, scale {setup_scale:.4f}")

    bridge_ref = (
        checks.bridge_reference(run.config) if run.workload == "bridge_sampled" else None
    )
    latencies = {"decompose": [], "verify": []}
    raw = {"decompose": [], "verify": []}  # (CPU, wall) seconds
    busy = 0.0
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        run.attempted += 1
        cpu, seconds, wall, proc = timed(
            run,
            [py, "-m", "fiberspec", "decompose", "--config", str(run.config),
             "--out", str(run.out)],
        )
        busy += seconds
        reason = (
            decompose_failure(run, proc.returncode, proc.stderr, bridge_ref)
            if proc
            else "timeout"
        )
        if reason:
            run.fail(f"decompose: {reason}")
        else:
            latencies["decompose"].append(seconds)
            raw["decompose"].append((cpu, wall))

        run.attempted += 1
        cpu, seconds, wall, proc = timed(
            run, [py, "-m", "fiberspec", "verify", "--config", str(run.config)]
        )
        busy += seconds
        if proc is None:
            run.fail("verify: timeout")
        else:
            reason, expected = check_verify(run, proc.returncode, proc.stdout, proc.stderr)
            if reason:
                run.fail(reason, expected)
            else:
                latencies["verify"].append(seconds)
                raw["verify"].append((cpu, wall))
        # start another cycle only if it should end within --seconds
        now = time.perf_counter()
        if now - loop_start + (now - cycle_start) > run.seconds:
            break

    for kind, v in latencies.items():
        if v:
            cpu, wall = (statistics.median(x) for x in zip(*raw[kind]))
            print(
                f"  {kind}_s: scaled CPU {statistics.median(v):.4f}, CPU {cpu:.4f}, "
                f"wall {wall:.4f} (median of {len(v)})"
            )
    if not latencies["decompose"]:
        return None
    # Medians per command kind, so that the statistic is the same whatever
    # the number of cycles that fit in --seconds.  With no successful
    # verify (the known defect on bridge_sampled) decompose is the slow one.
    decompose_ms = statistics.median(latencies["decompose"]) * 1e3
    verify = latencies["verify"] or latencies["decompose"]
    return {
        "setup_s": statistics.median(setups) * setup_scale,
        "decompose_cpu_s": decompose_ms / 1e3,
        "op_p50_cpu_ms": decompose_ms,
        "op_tail_cpu_ms": statistics.median(verify) * 1e3,
        "ops_per_cpu_s": (len(latencies["decompose"]) + len(latencies["verify"])) / busy,
    }


def query_sessions(run):
    setups, decomposes, query_cpu = [], [], 0.0
    by_kind = {}
    for index in range(QUERY_SESSIONS):
        spawned = time.monotonic()
        _, _, _, proc = timed(
            run,
            [sys.executable, str(HERE / "session.py"), str(run.config),
             str(run.seed * 1000 + index), str(run.seconds / QUERY_SESSIONS),
             str(MIN_QUERIES // QUERY_SESSIONS)],
        )
        if proc is None or proc.returncode != 0:
            raise SystemExit(f"session failed: {proc.stderr if proc else 'timeout'}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ready = result["ready"]
        setup_scale = run.pace.scale(spawned, ready)
        decompose_scale = run.pace.scale(result["decompose_start"], ready)
        query_scale = run.pace.scale(result["queries_start"], result["queries_end"])
        print(
            f"  session {index}: set-up CPU {result['setup_cpu_s']:.4f} s, decompose "
            f"CPU {result['decompose_cpu_s']:.4f} s; scale {setup_scale:.4f}, "
            f"{decompose_scale:.4f}, queries {query_scale:.4f}"
        )
        setups.append(result["setup_cpu_s"] * setup_scale)
        decomposes.append(result["decompose_cpu_s"] * decompose_scale)
        query_cpu += result["window_cpu_s"] * query_scale
        for kind, v in result["latencies_ms"].items():
            by_kind.setdefault(kind, []).extend(ms * query_scale for ms in v)
        run.attempted += result["attempted"]
        for reason in result["failures"]:
            run.fail(f"query: {reason}")
    latencies = [ms for v in by_kind.values() for ms in v]
    if len(latencies) < 2:
        return None
    total = sum(latencies)
    print("  share of query time by kind:")
    for kind, v in by_kind.items():
        print(
            f"    {kind}: {sum(v) / total:.1%} ({len(v)} queries, "
            f"median {statistics.median(v):.4g} ms)"
        )
    p50, tail = statistics.median(latencies), p99(latencies)
    print(
        f"  query scaled CPU p50 = {p50:.6g} ms, p99 = {tail:.6g} ms "
        f"(of {len(latencies)})"
    )
    return {
        "setup_s": statistics.median(setups),
        "decompose_cpu_s": statistics.median(decomposes),
        "op_p50_cpu_ms": p50,
        "op_tail_cpu_ms": tail,
        "ops_per_cpu_s": len(latencies) / query_cpu,
    }


@contextlib.contextmanager
def pinned(cpus):
    """Run the calling thread, and the children it starts, on cpus."""
    if not cpus:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def end_to_end(run):
    if run.workload == "trig_queries":
        # The session does its work on one thread: it and the reference
        # loop share one core, so the loop feels what slows the session.
        measure, cpus = query_sessions, {min(os.sched_getaffinity(0))}
    else:
        measure, cpus = cli_session, None
    with Pace(cpus) as run.pace, pinned(cpus):
        values = measure(run) or {name: None for name, _ in END_TO_END}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return values, END_TO_END


def overhead(run, tracer, untraced, traced):
    """traced() run with the tracer installed, minus untraced().

    Both return the time of the same first operation.  Odd seeds run the
    traced pass first and even seeds the untraced one, so the cold-start
    cost of the first operation in this process does not always land on
    the same side.
    """

    def with_tracer():
        tracer.install()
        try:
            return traced()
        finally:
            tracer.uninstall()

    if run.seed % 2:
        traced_s = with_tracer()
        untraced_s = untraced()
    else:
        untraced_s = untraced()
        traced_s = with_tracer()
    return traced_s - untraced_s


def traced_cli(run, fs, tracer):
    from fiberspec import cli

    bridge_ref = (
        checks.bridge_reference(run.config) if run.workload == "bridge_sampled" else None
    )
    decompose = ["decompose", "--config", str(run.config), "--out", str(run.out)]
    verify = ["verify", "--config", str(run.config)]

    def command(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return time.perf_counter() - t0, code, stdout.getvalue(), stderr.getvalue()

    def checked_decompose():
        run.attempted += 1
        seconds, code, _, err = command(decompose)
        reason = decompose_failure(run, code, err, bridge_ref)
        if reason:
            run.fail(f"decompose: {reason}")
        return seconds

    def checked_verify():
        run.attempted += 1
        _, code, out, err = command(verify)
        reason, expected = check_verify(run, code, out, err)
        if reason:
            run.fail(reason, expected)

    def traced():
        seconds = checked_decompose()
        checked_verify()
        return seconds

    return overhead(run, tracer, checked_decompose, traced)


def traced_queries(run, fs, tracer):
    import querymix

    def session(at_least):
        result = querymix.session(fs, str(run.config), run.seed * 1000, at_least=at_least)
        run.attempted += result["attempted"]
        for reason in result["failures"]:
            run.fail(f"query: {reason}")
        return result["setup_s"]

    # the untraced pass stops after its set-up; the traced one runs queries
    return overhead(run, tracer, lambda: session(0), lambda: session(MIN_QUERIES))


def per_layer(run):
    sys.path.insert(0, str(SRC))
    import fiberspec as fs
    from tracer import Tracer

    tracer = Tracer()
    traced = traced_queries if run.workload == "trig_queries" else traced_cli
    overhead_s = traced(run, fs, tracer)
    d = tracer.decomposition
    values = {}
    for name, stats in SPANS:
        for stat in stats:
            values[f"{name}.{stat}"] = tracer.metric(name, stat)
    values.update(tracer.counters)
    values["fiber.retained_rank_sum"] = int(d.ranks.sum()) if d is not None else None
    values["fiber.curves"] = d.num_curves if d is not None else None
    values["trace.overhead_s"] = overhead_s
    return values, tuple(per_layer_names())


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds)
    try:
        values, names = per_layer(run) if trace else end_to_end(run)
    finally:
        shutil.rmtree(run.out, ignore_errors=True)
    for note in run.notes:
        print(f"  {note}")
    print("env " + json.dumps(environment(seed)))
    result = {
        "correct": run.correct and all(values[n] is not None for n, _ in names),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in names},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "fiberspec" / "__init__.py", TRIG, BRIDGE) if not p.exists()]
    if missing:
        print(f"fiberspec source not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that peak RSS is per workload
        code = 0
        for workload in WORKLOADS:
            code |= subprocess.call([
                sys.executable, __file__, "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ])
        return code
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
