"""Property test of the CLI contract on mutated configurations.

Each example takes configs/trig_rank3.json or a small sampled-kernel
config, replaces, deletes or adds up to three entries (values of any JSON
type, expression strings built from the grammar's tokens, and numbers,
booleans, numeric strings and integers beyond the float range in the
number slots) and runs one subcommand on a small grid: decompose, verify,
apply in both modes, project, funcalc or rs with a drawn g (and mesh),
spectrum with or without a partition, mix or reconstruct with a drawn
rank, each with none or one drawn value for every override flag of
config.OVERRIDES.  Whatever the input, main() must return 0, 2, 3 or 4 without
raising or warning, write nothing to stderr on exit 0 and exactly one line
otherwise, and every value in a CSV it wrote must be finite (the value
column of a *_report.csv).  A second test draws expressions nested or
chained up to 10,000 deep, as funcalc's g or as a config section: within
the parser's depth bound they run, past it they exit 2.
"""

import csv
import json
import math
import shutil
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fiberspec.cli import main
from fiberspec.config import OVERRIDES
from fiberspec.expr import _Parser

from conftest import CONFIG_PATH

with open(CONFIG_PATH, encoding="utf-8") as fh:
    TRIG = json.load(fh)
# a sampled kernel is evaluated on the whole product grid at load time
SAMPLED = {
    "omega_grid": {"n": 4},
    "s_quadrature": {"rule": "gauss_legendre", "n": 6},
    "kernel": {
        "type": "sampled",
        "expression": "min(t,s)-t*s+omega*sin(pi*t)*sin(pi*s)",
    },
    "sections": {"f": "omega*sin(pi*t)"},
    "thresholds": {"mid": "omega/4"},
    "partitions": {
        "thirds": [
            {"label": 1, "omega_range": [0.0, 0.3]},
            {"label": 2, "omega_range": [0.3, 0.7]},
            {"label": 3, "omega_range": [0.7, 1.0]},
        ]
    },
}
BASES = (TRIG, SAMPLED)


def _paths(node, prefix=()):
    """Every key or index path in the config, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _leaf(node, path):
    for key in path:
        node = node[key]
    return node



TOKENS = (
    "omega", "t", "s", "lambda", "pi", "e", "0", "1", "2", "0.5", "1e308",
    "1e-300", "+", "-", "*", "/", "^", "(", ")", ",", "sin(", "cos(",
    "tan(", "exp(", "log(", "sqrt(", "abs(", "min(", "max(", "pow(", " ",
)
ATOMS = ("omega", "t", "s", "pi", "0", "1", "-1", "0.5", "3", "1e-14", "1e308")


def _combine(inner):
    unary = st.tuples(
        st.sampled_from(("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "-")),
        inner,
    ).map(lambda fa: f"{fa[0]}({fa[1]})")
    binary = st.tuples(
        inner, st.sampled_from(("+", "-", "*", "/", "^", ",")), inner
    ).map(
        lambda l_op_r: f"max({l_op_r[0]},{l_op_r[2]})"
        if l_op_r[1] == ","
        else f"({l_op_r[0]}){l_op_r[1]}({l_op_r[2]})"
    )
    return unary | binary


# token soup is mostly a syntax error; well-formed expressions reach the
# numerics, where domain errors, overflow and indefinite kernels live
expressions = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12).map(
    "".join
) | st.recursive(st.sampled_from(ATOMS), _combine, max_leaves=4)
# what a number slot may hold in JSON: booleans, strings and integers
# beyond the float range, where float() overflows, are config errors
numbers = (
    st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.integers(2**1024, 2**1100)
    | st.integers(-(2**1100), -(2**1024))
    | st.floats()
    | st.sampled_from(("1e-3", "1"))
)
scalars = st.none() | numbers | st.text(max_size=8) | expressions
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


# g for funcalc and rs: well-formed expressions, mostly of lambda alone
functions = st.recursive(
    st.sampled_from(
        ("lambda", "lambda", "0", "1", "-1", "0.5", "1e308", "1e-300", "omega")
    ),
    _combine,
    max_leaves=4,
)
meshes = st.floats(1e-3, 2.0) | st.sampled_from(
    (0.0, -0.5, 1e-9, 1e-300, float("nan"), float("inf"))
)
# every subcommand, equally often; {g}, {mesh} and {rank} are drawn, and
# the config names are those of both bases, which a mutation may remove
COMMANDS = (
    ("decompose",),
    ("verify",),
    ("apply", "--section", "f", "--mode", "quadrature"),
    ("apply", "--section", "f", "--mode", "spectral"),
    ("project", "--threshold", "mid", "--section", "f"),
    ("funcalc", "--function={g}", "--section", "f"),
    ("rs", "--function={g}", "--mesh={mesh!r}", "--section", "f"),
    ("spectrum",),
    ("spectrum", "--partition", "thirds"),
    ("mix", "--partition", "thirds"),
    ("reconstruct", "--rank={rank}"),
)
commands = st.builds(
    lambda template, g, mesh, rank: [
        arg.format(g=g, mesh=mesh, rank=rank) for arg in template
    ],
    st.sampled_from(COMMANDS),
    functions,
    meshes,
    st.integers(-1, 4),
)


# one drawn value or none for each override flag of config.OVERRIDES;
# argparse keeps the last of a repeated flag, so a drawn --omega-n or
# --quad-n replaces the fixed one.  Counts stay tiny or beyond
# grid._MAX_COUNT, so no example allocates a large grid
OVERRIDE_VALUES = {
    int: (-1, 0, 1, 3, 2**70, "x"),
    float: (1e-9, 1e-3, 0, -1e-3, math.nan, math.inf, "x"),
}
overrides = st.tuples(
    *(
        st.just([])
        | st.sampled_from(OVERRIDE_VALUES[kind]).map(
            lambda value, flag="--" + name.replace("_", "-"): [f"{flag}={value}"]
        )
        for name, (_, _, kind) in OVERRIDES.items()
    )
).map(lambda drawn: [arg for flags in drawn for arg in flags])


def _mutations(base):
    paths = sorted(_paths(base), key=repr)
    expression_paths = [p for p in paths if isinstance(_leaf(base, p), str)]
    number_paths = [p for p in paths if type(_leaf(base, p)) in (int, float)]
    return st.lists(
        st.tuples(
            st.sampled_from(("replace", "delete", "add")),
            st.sampled_from(paths),
            values,
            st.sampled_from(("n", "rule", "type", "terms", "curve", "basis", "x")),
        )
        | st.tuples(
            st.just("replace"),
            st.sampled_from(expression_paths),
            expressions,
            st.just(""),
        )
        | st.tuples(
            st.just("replace"), st.sampled_from(number_paths), numbers, st.just("")
        ),
        max_size=3,
    )


cases = st.sampled_from(BASES).flatmap(
    lambda base: st.tuples(st.just(base), _mutations(base))
)


def mutate(raw, ops):
    for op, path, value, new_key in ops:
        parent = raw
        try:
            for key in path[:-1]:
                parent = parent[key]
            if op == "replace":
                parent[path[-1]] = value
            elif op == "delete":
                del parent[path[-1]]
            elif isinstance(parent[path[-1]], dict):
                parent[path[-1]][new_key] = value
            else:
                parent[path[-1]] = [parent[path[-1]], value]
        except (KeyError, IndexError, TypeError):
            # an earlier mutation removed or retyped part of this path
            continue
    return raw


def csv_values_finite(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))[1:]
    if path.name.endswith("_report.csv"):
        # the first column names the metric
        rows = [row[1:] for row in rows]
    return all(math.isfinite(float(v)) for row in rows for v in row)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=cases, command=commands, flags=overrides)
def test_mutated_config_keeps_cli_contract(tmp_path, capsys, case, command, flags):
    base, ops = case
    raw = mutate(json.loads(json.dumps(base)), ops)
    config = tmp_path / "mutated.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    # tmp_path is shared by all examples of one test run
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    # pytest records warnings apart from capsys; raise them here instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            command
            + [
                "--config", str(config),
                "--out", str(out),
                "--omega-n", "8",
                "--quad-n", "12",
            ]
            + flags
        )
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    assert len(err.splitlines()) == (0 if rc == 0 else 1), err
    for written in out.glob("*.csv"):
        assert csv_values_finite(written), written.name


MAX_DEPTH = _Parser.MAX_DEPTH
# an expression n levels deep around a leaf: nested groups or calls, or a
# flat chain of n operators
DEEP = {
    "group": lambda n, leaf: "(" * n + leaf + ")" * n,
    "call": lambda n, leaf: "sin(" * n + leaf + ")" * n,
    "chain": lambda n, leaf: leaf + f"+{leaf}" * n,
}
depths = st.integers(0, 10_000) | st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    shape=st.sampled_from(sorted(DEEP)),
    n=depths,
    where=st.sampled_from(("function", "config")),
)
@example(shape="group", n=10_000, where="function")
@example(shape="group", n=10_000, where="config")
@example(shape="chain", n=10_000, where="function")
@example(shape="chain", n=10_000, where="config")
def test_deep_expressions_keep_cli_contract(tmp_path, capsys, shape, n, where):
    raw = json.loads(json.dumps(TRIG))
    g = "lambda"
    if where == "function":
        g = DEEP[shape](n, "lambda")
    else:
        raw["sections"]["f"] = DEEP[shape](n, "t")
    config = tmp_path / "deep.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            ["funcalc", f"--function={g}", "--section", "f"]
            + ["--config", str(config), "--out", str(out)]
            + ["--omega-n", "4", "--quad-n", "6"]
        )
    err = capsys.readouterr().err
    if n <= MAX_DEPTH:
        assert (rc, err) == (0, "")
    else:
        assert rc == 2
        assert len(err.splitlines()) == 1, err
        assert f"nests deeper than {MAX_DEPTH} levels" in err
        # the diagnostic does not repeat the text
        assert len(err) < 200, len(err)
