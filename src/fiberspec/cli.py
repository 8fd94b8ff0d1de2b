"""Command line front end.

Every subcommand loads a JSON config, runs one library operation, and
writes CSV files into the output directory.  Exit codes: 0 success,
2 configuration or parse error (an output that cannot be written
included), 3 numerical failure, 4 verification failure.

`main` is the in-process entry: it returns the exit code and leaves the
collector as it found it.  `run` is the process entry of
`python -m fiberspec` and of the `fiberspec` script: it calls `main`,
freezes the collector's objects and exits with the code.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from .calculus import (
    _rs_cuts,
    apply_quadrature,
    apply_spectral,
    functional_calculus,
    projector_apply,
    riemann_stieltjes_apply,
)
from .config import (
    OVERRIDES,
    _parse_named,
    decompose,
    load_config,
    partition_by_name,
    section_by_name,
    threshold_by_name,
)
from .errors import ConfigError, FiberspecError
from .grid import Section, l22_norm
from .kernel import kernel_matrices, mercer_reconstruct
from .spectrum import mix_field, spm_membership


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one diagnostic line: the usage text is left out
        self.exit(2, f"{self.prog}: error: {message}\n")


def _write(args, name, writer, *data):
    """Write the CSV `name` into --out with csvio's `writer`.  csvio is
    imported here, after a subcommand's work, so that verify, which writes
    no CSV, never compiles the writers."""
    from . import csvio

    os.makedirs(args.out, exist_ok=True)
    getattr(csvio, writer)(os.path.join(args.out, name), *data)


def _mixed(cfg, args):
    """The decomposition and its curves mixed over --partition (None
    without one).  The partition is resolved before any work, like every
    named entry, so a config error in it writes no CSV."""
    if args.partition is None:
        return decompose(cfg), None
    p = partition_by_name(cfg, args.partition)
    d = decompose(cfg)
    return d, mix_field(d, p)


def cmd_decompose(cfg, args):
    d = decompose(cfg)
    _write(args, "eigencurves.csv", "write_eigencurves", d)
    _write(args, "eigenfunctions.csv", "write_eigenfunctions", d)
    _write(args, "bounds.csv", "write_bounds", d)
    print(f"decomposed {d.n_fibers} fibers, {d.num_curves} curves")
    return 0


def cmd_apply(cfg, args):
    f = section_by_name(cfg, args.section)
    if args.mode == "quadrature":
        out = apply_quadrature(cfg.kernel, f)
    else:
        out = apply_spectral(decompose(cfg), f)
    _write(args, "applied.csv", "write_section", out)
    print(f"applied kernel to {args.section!r} via {args.mode}")
    return 0


def cmd_project(cfg, args):
    lam = threshold_by_name(cfg, args.threshold)
    f = section_by_name(cfg, args.section)
    out = projector_apply(decompose(cfg), lam, f)
    _write(args, "projected.csv", "write_section", out)
    print(f"projected {args.section!r} at threshold {args.threshold!r}")
    return 0


def cmd_funcalc(cfg, args):
    g = _parse_named(args.function, "--function", {"lambda"})
    f = section_by_name(cfg, args.section)
    out = functional_calculus(decompose(cfg), g, f, epsilon=cfg.epsilon)
    _write(args, "funcalc.csv", "write_section", out)
    print(f"applied g(T) with g = {args.function}")
    return 0


def cmd_rs(cfg, args):
    g = _parse_named(args.function, "--function", {"lambda"})
    f = section_by_name(cfg, args.section)
    d = decompose(cfg)
    out = riemann_stieltjes_apply(
        d, g, f, mesh=args.mesh, epsilon=cfg.epsilon, tie_tol=cfg.tolerances.tie_tol
    )
    _write(args, "rs.csv", "write_section", out)
    exact = functional_calculus(d, g, f, epsilon=cfg.epsilon)
    err = l22_norm(Section(f.ogrid, f.squad, out.values - exact.values))
    steps = len(_rs_cuts(d, args.mesh, cfg.epsilon)) - 1
    report = [
        ("mesh", args.mesh),
        ("steps", float(steps)),
        ("error_vs_funcalc", err),
        ("section_norm", l22_norm(f)),
    ]
    _write(args, "rs_report.csv", "write_report", report)
    print(f"integrated g = {args.function} with mesh {args.mesh:g} ({steps} cells)")
    return 0


def cmd_spectrum(cfg, args):
    d, mixed = _mixed(cfg, args)
    _write(args, "spectra.csv", "write_spectra", d)
    if mixed is None:
        print(f"wrote fiber spectra for {d.n_fibers} fibers")
        return 0
    _write(args, "mixed.csv", "write_field", mixed)
    _write(args, "membership.csv", "write_membership", d, mixed)
    member, violations = spm_membership(d, mixed, cfg.tolerances.member_tol)
    verdict = "member" if member else f"not a member ({len(violations)} violations)"
    print(f"mixed field from {args.partition!r}: {verdict}")
    return 0


def cmd_mix(cfg, args):
    _, mixed = _mixed(cfg, args)
    _write(args, "mixed.csv", "write_field", mixed)
    print(f"wrote mixed field for partition {args.partition!r}")
    return 0


def cmd_reconstruct(cfg, args):
    d = decompose(cfg)
    rebuilt = mercer_reconstruct(d, args.rank)
    _write(args, "kernel.csv", "write_kernel", rebuilt)
    err = kernel_matrices(cfg.kernel, cfg.ogrid, cfg.squad) - rebuilt.values
    sup_err = float(np.max(np.abs(err)))
    report = [("rank", float(args.rank)), ("sup_error", sup_err)]
    _write(args, "reconstruct_report.csv", "write_report", report)
    print(f"reconstructed kernel at rank {args.rank}, sup error {sup_err:.6e}")
    return 0


def cmd_verify(cfg, args):
    # imported here, so that no other subcommand pays for loading the suite
    from .verify import run_suite

    results = run_suite(cfg)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (
            f"[{status}] {r.name:<{width}}  "
            f"value={r.value:.6e} {r.relation} {r.bound:.6e}"
        )
        if r.note:
            line += f"  ({r.note})"
        print(line)
    n_pass = sum(1 for r in results if r.passed)
    print(f"{n_pass}/{len(results)} checks passed")
    if n_pass == len(results):
        return 0
    n_fail = len(results) - n_pass
    print(f"verify failed: {n_fail} of {len(results)} checks", file=sys.stderr)
    return 4


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON configuration file")
    common.add_argument("--out", default=".", help="output directory for CSV files")
    for name, (_, _, kind) in OVERRIDES.items():
        common.add_argument("--" + name.replace("_", "-"), type=kind, default=None)

    parser = _Parser(
        prog="fiberspec",
        description="Fiberwise spectral calculus for partially integral operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common], help="eigencurves, eigenfunctions, bounds")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("apply", parents=[common], help="apply the operator to a section")
    p.add_argument("--section", required=True)
    p.add_argument("--mode", choices=("quadrature", "spectral"), default="spectral")
    p.set_defaults(handler=cmd_apply)

    p = sub.add_parser("project", parents=[common], help="apply a threshold projector")
    p.add_argument("--threshold", required=True)
    p.add_argument("--section", required=True)
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser("funcalc", parents=[common], help="apply g(T) to a section")
    p.add_argument("--function", required=True, help="expression in lambda")
    p.add_argument("--section", required=True)
    p.set_defaults(handler=cmd_funcalc)

    p = sub.add_parser("rs", parents=[common], help="Riemann-Stieltjes sum for g(T)")
    p.add_argument("--function", required=True, help="expression in lambda")
    p.add_argument("--mesh", type=float, required=True)
    p.add_argument("--section", required=True)
    p.set_defaults(handler=cmd_rs)

    p = sub.add_parser("spectrum", parents=[common], help="fiber spectra, optional mixing")
    p.add_argument("--partition", default=None)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("mix", parents=[common], help="mix eigencurves over a partition")
    p.add_argument("--partition", required=True)
    p.set_defaults(handler=cmd_mix)

    p = sub.add_parser("reconstruct", parents=[common], help="rebuild the kernel from eigenpairs")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # floating-point trouble surfaces as one DomainError diagnostic, never
    # as numpy RuntimeWarnings on stderr
    with np.errstate(all="ignore"):
        try:
            overrides = {name: getattr(args, name) for name in OVERRIDES}
            cfg = load_config(args.config, **overrides)
            return args.handler(cfg, args)
        except OSError as exc:
            # load_config turns an unreadable config into a ConfigError, so
            # this is an output: --out names a file, or a CSV path a directory
            error = ConfigError(f"cannot write output: {exc}")
        except (FiberspecError, MemoryError) as exc:
            # a grid too large to allocate is a numerical failure too
            error = exc
    config = isinstance(error, ConfigError)
    # config names may hold line breaks; the diagnostic stays one line
    text = " ".join(str(error).splitlines()) or "out of memory"
    print(f"{'config error' if config else 'error'}: {text}", file=sys.stderr)
    return 2 if config else 3


def run():
    """Run `main` on the command line and end the process with its code.

    The process is about to be discarded, so gc.freeze() first moves every
    object the collector tracks (about 21,700 after a decompose) into its
    permanent generation: interpreter shutdown then skips its cyclic
    collections over them.  The exit is still a SystemExit, so the
    `finally` blocks of callers run (`python -m cProfile -o` writes its
    profile in one), and shutdown still flushes the standard streams and
    runs atexit handlers and reference-count finalizers.  Every file a
    subcommand opens is closed before `main` returns.
    """
    code = main()
    gc.freeze()
    sys.exit(code)
