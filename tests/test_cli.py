import gc
import importlib
import json
import os
import runpy
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fiberspec
from fiberspec import cli
from fiberspec.calculus import _rs_cuts
from fiberspec.cli import main
from fiberspec.config import OVERRIDES

from conftest import CONFIG_PATH, curve1, tf_ref, write_near_max_config


def read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw  # LF only
    text = raw.decode("ascii")
    lines = text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_decompose_outputs(tmp_path):
    rc = main(["decompose", "--config", CONFIG_PATH, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "eigencurves.csv")
    assert header == ["omega", "curve_id", "lambda"]
    assert len(rows) == 64 * 3
    # first fiber, curve 1 matches the closed form
    first = next(r for r in rows if r[1] == "1")
    w = float(first[0])
    assert abs(float(first[2]) - curve1(w)) < 1e-10
    header, rows = read_csv(tmp_path / "bounds.csv")
    assert header == ["omega", "m", "M"]
    assert all(float(r[1]) == 0.0 for r in rows)
    assert (tmp_path / "eigenfunctions.csv").exists()


def test_csv_values_round_trip(tmp_path):
    # 17 significant digits reproduce the doubles exactly
    main(["decompose", "--config", CONFIG_PATH, "--out", str(tmp_path)])
    _, rows = read_csv(tmp_path / "eigencurves.csv")
    values = np.array([float(r[2]) for r in rows if r[1] == "1"])
    nodes = np.array([float(r[0]) for r in rows if r[1] == "1"])
    assert np.max(np.abs(values - curve1(nodes))) < 1e-10
    texts = [r[2] for r in rows]
    assert all(t == format(float(t), ".17g") for t in texts)


def test_apply_both_modes(tmp_path):
    for mode in ("quadrature", "spectral"):
        out = tmp_path / mode
        rc = main(
            [
                "apply",
                "--config",
                CONFIG_PATH,
                "--section",
                "f",
                "--mode",
                mode,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, rows = read_csv(out / "applied.csv")
        worst = max(
            abs(float(v) - tf_ref(float(w), float(t)))
            for w, t, v in rows
        )
        assert worst < 1e-8


def test_project_and_funcalc(tmp_path):
    rc = main(
        [
            "project",
            "--config",
            CONFIG_PATH,
            "--threshold",
            "mid",
            "--section",
            "f",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "projected.csv").exists()
    rc = main(
        [
            "funcalc",
            "--config",
            CONFIG_PATH,
            "--function",
            "lambda^2",
            "--section",
            "f",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "funcalc.csv").exists()


def test_funcalc_rejects_bad_function(tmp_path, capsys):
    # --function is parsed and scoped like a config expression, and the
    # diagnostic names the flag instead of repeating the text
    for g, line in (
        ("lambda+t", "--function may only depend on ['lambda'], found ['t']"),
        ("sin(", "--function: expected a number, identifier, or '(' (offset 4)"),
    ):
        for sub in (["funcalc"], ["rs", "--mesh", "0.02"]):
            argv = sub + ["--config", CONFIG_PATH, "--function", g]
            assert main(argv + ["--section", "f", "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"config error: {line}\n"


def test_rs_report(tmp_path):
    rc = main(
        [
            "rs",
            "--config",
            CONFIG_PATH,
            "--function",
            "lambda",
            "--mesh",
            "0.05",
            "--section",
            "f",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "rs_report.csv")
    report = {k: float(v) for k, v in rows}
    assert report["mesh"] == 0.05
    assert report["steps"] >= 20
    assert 0.0 < report["error_vs_funcalc"] <= 0.05 * report["section_norm"]


def test_rs_tie_tol_moves_a_cell_boundary(tmp_path):
    # a two-cell partition with g = 1 at its first two cuts and 0 at the
    # last: the sum is then the projector at the middle cut c_1, whose
    # tie tolerance is that of the rs cells
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["omega_grid"]["n"] = 16
    cfg = fiberspec.load_config(CONFIG_PATH, omega_n=16)
    d = fiberspec.decompose(cfg)
    lo, hi = d._extreme_bounds
    mesh = float(hi + cfg.epsilon - lo) / 1.5
    _, c1, c2 = _rs_cuts(d, mesh, cfg.epsilon).tolist()
    # some eigenvalue lies above c_1 but within a tie of 0.1 of it
    assert np.any((d.eigenvalues > c1) & (d.eigenvalues <= c1 + 0.1))
    raw["thresholds"] = {"cut": repr(c1)}
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    g = f"min(1,({c2!r}-lambda)/({c2!r}-{c1!r}))"
    outputs = {}
    for tie in ("1e-12", "0.1"):
        out = tmp_path / tie
        common = ["--config", str(path), "--tie-tol", tie, "--section", "f"]
        common += ["--out", str(out)]
        assert main(["rs", "--function", g, f"--mesh={mesh!r}"] + common) == 0
        assert main(["project", "--threshold", "cut"] + common) == 0
        outputs[tie] = (out / "rs.csv").read_bytes()
        assert outputs[tie] == (out / "projected.csv").read_bytes(), tie
    assert outputs["0.1"] != outputs["1e-12"]


def test_spectrum_with_partition(tmp_path, capsys):
    rc = main(
        [
            "spectrum",
            "--config",
            CONFIG_PATH,
            "--partition",
            "thirds",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert "member" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "membership.csv")
    assert header == ["omega", "lambda", "nearest_spectral_value", "distance"]
    assert all(float(r[3]) <= 1e-8 for r in rows)
    _, spectra = read_csv(tmp_path / "spectra.csv")
    assert len(spectra) == 64 * 4  # three curves plus the null eigenvalue


def test_mix_writes_field(tmp_path):
    rc = main(
        [
            "mix",
            "--config",
            CONFIG_PATH,
            "--partition",
            "thirds",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "mixed.csv")
    assert header == ["omega", "value"]
    assert len(rows) == 64
    # spectrum --partition mixes through the same step
    out = tmp_path / "spectrum"
    rc = main(["spectrum", "--config", CONFIG_PATH, "--partition", "thirds", "--out", str(out)])
    assert rc == 0
    assert (out / "mixed.csv").read_bytes() == (tmp_path / "mixed.csv").read_bytes()


def test_reconstruct_report(tmp_path):
    rc = main(
        [
            "reconstruct",
            "--config",
            CONFIG_PATH,
            "--rank",
            "3",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "reconstruct_report.csv")
    report = {k: float(v) for k, v in rows}
    assert report["sup_error"] < 1e-8
    rc = main(
        [
            "reconstruct",
            "--config",
            CONFIG_PATH,
            "--rank",
            "9",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 3  # more than the retained rank is a numerical failure


def test_rs_report_stays_finite_for_huge_g(tmp_path):
    # the rs error reaches 1e306; squaring it overflowed to inf
    rc = main(
        [
            "rs",
            "--config",
            CONFIG_PATH,
            "--function",
            "1e308*lambda",
            "--mesh",
            "0.05",
            "--section",
            "f",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "rs_report.csv")
    report = {k: float(v) for k, v in rows}
    assert 1e300 < report["error_vs_funcalc"] < 1e308


def test_line_break_in_config_name_gives_one_line(tmp_path, capsys):
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["partitions"]["a\nb"] = []
    path = tmp_path / "named.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    rc = main(["decompose", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "config error: partitions[a b] must be a non-empty list\n"


def test_eigensolver_failure_is_numerical_error(tmp_path, capsys, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    rc = main(["decompose", "--config", CONFIG_PATH, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "did not converge" in err


@pytest.mark.parametrize(
    "flag, count, message",
    [
        # 10**15 nodes need petabytes, beyond the address space, so the
        # allocation is refused at once instead of touching any memory
        pytest.param(
            "--omega-n",
            10**15,
            "error: Unable to allocate ",
            id="--omega-n-error: Unable to allocate ",
        ),
        pytest.param(
            "--quad-n",
            10**15,
            "error: Unable to allocate ",
            id="--quad-n-error: Unable to allocate ",
        ),
        # counts numpy cannot index are refused before numpy is called
        pytest.param(
            "--omega-n",
            10**19,
            "error: parameter grid of 10000000000000000000 nodes is too large",
            id="--omega-n-beyond-intp",
        ),
        pytest.param(
            "--quad-n",
            10**20,
            "error: gauss_legendre rule of 100000000000000000000 nodes is too large",
            id="--quad-n-beyond-intp",
        ),
    ],
)
def test_grid_too_large_to_allocate_is_numerical_error(
    tmp_path, capsys, flag, count, message
):
    argv = ["decompose", "--config", CONFIG_PATH, "--out", str(tmp_path)]
    rc = main(argv + [flag, str(count)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_verify_on_sampled_kernel_stops_at_grid_check(capsys):
    # eigenvalue_grid_stability resamples on the doubled rule, which a
    # sampled kernel cannot give; perfbench counts this exit as the known
    # defect
    root = os.path.dirname(os.path.dirname(CONFIG_PATH))
    bridge = os.path.join(root, "perfbench", "bridge_sampled.json")
    assert main(["verify", "--config", bridge]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "sampled kernel was sampled on different grids" in err


def test_partition_label_beyond_int64_is_config_error(tmp_path, capsys):
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["partitions"]["big"] = [{"label": 2**63, "omega_range": [0.0, 1.0]}]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    rc = main(["mix", "--config", str(path), "--partition", "big"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "config error: partitions[big][0].label must be below 2^63\n"


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(["decompose", "--config", CONFIG_PATH, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ")
    assert err.endswith(f"File exists: {str(out)!r}\n") and err.count("\n") == 1


def test_output_csv_path_that_is_a_directory_is_config_error(tmp_path, capsys):
    (tmp_path / "bounds.csv").mkdir()
    assert main(["decompose", "--config", CONFIG_PATH, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    path = str(tmp_path / "bounds.csv")
    assert err.startswith("config error: cannot write output: ")
    assert err.endswith(f"Is a directory: {path!r}\n") and err.count("\n") == 1


def test_config_error_exit_codes(tmp_path):
    rc = main(["decompose", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["decompose", "--config", str(bad), "--out", str(tmp_path)]) == 2
    malformed = tmp_path / "expr.json"
    malformed.write_text(
        json.dumps(
            {"kernel": {"type": "separable", "terms": [{"curve": "sin(", "basis": "t"}]}}
        ),
        encoding="utf-8",
    )
    assert main(["decompose", "--config", str(malformed), "--out", str(tmp_path)]) == 2
    assert (
        main(
            [
                "apply",
                "--config",
                CONFIG_PATH,
                "--section",
                "ghost",
                "--out",
                str(tmp_path),
            ]
        )
        == 2
    )
    # a non-numeric partition bound, non-string expressions, and sections
    # or thresholds with variables they are not sampled in
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        base = json.load(fh)
    edits = (
        ("partitions", {"thirds": [{"label": 1, "omega_range": ["x", 1.0]}]}),
        ("sections", {"f": 5}),
        ("thresholds", {"mid": [0.4]}),
        ("kernel", {"type": "separable", "terms": [{"curve": 1, "basis": "t"}]}),
        ("kernel", {"type": "sampled", "expression": None}),
        ("sections", {"f": "s*t"}),
        ("thresholds", {"mid": "t"}),
    )
    for key, value in edits:
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**base, key: value}), encoding="utf-8")
        for command in ("decompose", "verify"):
            rc = main([command, "--config", str(edited), "--out", str(tmp_path)])
            assert rc == 2, (key, value, command)


def test_nonfinite_kernel_is_numerical_error(tmp_path, capsys):
    overflow = tmp_path / "overflow.json"
    overflow.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 4},
                "s_quadrature": {"rule": "gauss_legendre", "n": 4},
                "kernel": {
                    "type": "separable",
                    "terms": [{"curve": "1e308*10", "basis": "sin(pi*t)"}],
                },
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["decompose", "--config", str(overflow), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "non-finite" in err
    assert not list(out.glob("*.csv"))


def write_sampled(tmp_path, expression):
    config = tmp_path / "sampled.json"
    config.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 4},
                "s_quadrature": {"rule": "gauss_legendre", "n": 4},
                "kernel": {"type": "sampled", "expression": expression},
            }
        ),
        encoding="utf-8",
    )
    return str(config)


def test_overflowing_sampled_kernel_is_config_error(tmp_path, capsys):
    # the samples themselves overflow
    config = write_sampled(tmp_path, "1e200*1e200*t*s")
    for command in ("decompose", "verify"):
        out = str(tmp_path / "out")
        rc = main([command, "--config", config, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2, command
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: kernel: ") and "non-finite" in err


@pytest.mark.parametrize(
    "expression, code",
    [("1e8*(t*s*s+t*t*s)", 0), ("1e-12*(t-s+2)", 2)],
)
def test_symmetry_gate_follows_the_kernel_scale(tmp_path, capsys, expression, code):
    # a symmetric kernel whose rounding exceeds 1e-9 in absolute terms
    # loads, and a tiny asymmetric one is refused
    config = tmp_path / "scaled.json"
    config.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 8},
                "s_quadrature": {"rule": "gauss_legendre", "n": 16},
                "kernel": {"type": "sampled", "expression": expression},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["decompose", "--config", str(config), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: kernel: sampled kernel fiber 0 asymmetry")
    else:
        assert err == ""


def test_huge_finite_sampled_kernel_is_symmetrized(tmp_path, capsys):
    # k + k^T overflows, so grid._symmetrized adds the halves there
    config = write_sampled(tmp_path, "1.5e308")
    out = tmp_path / "out"
    assert main(["decompose", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "eigencurves.csv").read_text(encoding="ascii").splitlines()[1:]
    values = [float(row.split(",")[2]) for row in rows]
    np.testing.assert_array_max_ulp(values, [1.5e308] * 4, maxulp=4)
    # verify's probes overflow: a numerical failure with one diagnostic
    assert main(["verify", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("kind", ["separable", "sampled"])
def test_near_max_kernels_decompose_and_reconstruct(tmp_path, capsys, kind):
    config = write_near_max_config(tmp_path, kind)
    out = str(tmp_path / "out")
    assert main(["decompose", "--config", config, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    rc = main(["reconstruct", "--rank", "1", "--config", config, "--out", out])
    if kind == "sampled":
        assert rc == 0
        assert "sup error 0.000000e+00" in capsys.readouterr().out
    else:
        # the kernel values themselves reach 2e308 near t = s = 1/2
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_syntax_diagnostic_reaches_stderr(tmp_path, capsys):
    malformed = tmp_path / "expr.json"
    malformed.write_text(
        json.dumps(
            {"kernel": {"type": "separable", "terms": [{"curve": "sin(", "basis": "t"}]}}
        ),
        encoding="utf-8",
    )
    main(["decompose", "--config", str(malformed), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert "offset 4" in err


def test_zero_kernel_decompose(tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(
        json.dumps(
            {
                "omega_grid": {"n": 8},
                "s_quadrature": {"rule": "gauss_legendre", "n": 8},
                "kernel": {
                    "type": "separable",
                    "terms": [{"curve": "0", "basis": "sin(pi*t)"}],
                },
            }
        ),
        encoding="utf-8",
    )
    rc = main(["decompose", "--config", str(zero), "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "eigencurves.csv")
    assert rows == []
    _, bounds = read_csv(tmp_path / "bounds.csv")
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in bounds)


def test_flag_overrides(tmp_path):
    rc = main(
        [
            "decompose",
            "--config",
            CONFIG_PATH,
            "--omega-n",
            "8",
            "--quad-n",
            "16",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "eigencurves.csv")
    assert len(rows) == 8 * 3


# each override's flag text, unlike the shipped config's entry, and where
# its value lands in the loaded config
LANDS = {
    "rank_tol": ("0.25", lambda cfg: cfg.tolerances.rank_tol),
    "tie_tol": ("0.25", lambda cfg: cfg.tolerances.tie_tol),
    "member_tol": ("0.25", lambda cfg: cfg.tolerances.member_tol),
    "epsilon": ("0.25", lambda cfg: cfg.epsilon),
    "quad_n": ("7", lambda cfg: len(cfg.squad)),
    "omega_n": ("7", lambda cfg: len(cfg.ogrid)),
}


def test_overrides_table_drives_keywords_and_flags():
    assert list(LANDS) == list(OVERRIDES)
    parser = cli._build_parser()
    base = fiberspec.load_config(CONFIG_PATH)

    def unchanged(cfg, skip=None):
        others = [read for k, (_, read) in LANDS.items() if k != skip]
        return all(read(cfg) == read(base) for read in others)

    for name, (_, _, kind) in OVERRIDES.items():
        text, read = LANDS[name]
        value = kind(text)
        assert read(base) != value, name
        cfg = fiberspec.load_config(CONFIG_PATH, **{name: value})
        assert read(cfg) == value and unchanged(cfg, skip=name), name
        flag = "--" + name.replace("_", "-")
        args = parser.parse_args(["verify", "--config", CONFIG_PATH, flag, text])
        assert type(getattr(args, name)) is kind and getattr(args, name) == value
        assert all(getattr(args, k) is None for k in OVERRIDES if k != name)
    # None keeps the file value; a keyword outside the table is refused
    assert unchanged(fiberspec.load_config(CONFIG_PATH, **dict.fromkeys(OVERRIDES)))
    with pytest.raises(TypeError, match="eig_tol"):
        fiberspec.load_config(CONFIG_PATH, eig_tol=1e-3)


def test_non_finite_tolerance_is_config_error(tmp_path, capsys):
    # an infinite tolerance would give silently wrong numbers; a flag and a
    # JSON Infinity meet the same check
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["tolerances"]["tie_tol"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = str(tmp_path / "out")
    for config, flags, name in (
        (CONFIG_PATH, ["--rank-tol", "inf"], "rank_tol"),
        (str(path), [], "tie_tol"),
    ):
        assert main(["decompose", "--config", config, "--out", out] + flags) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {name} must be positive and finite, got inf\n"
    assert not os.path.exists(out)
    # a flag replaces the file value before the file value is checked
    argv = ["decompose", "--config", str(path), "--tie-tol", "1e-12", "--out", out]
    assert main(argv) == 0


@pytest.mark.parametrize(
    "value", [True, "1e-3", 10**400], ids=["true", "string", "401_digits"]
)
@pytest.mark.parametrize("slot", ["rank_tol", "epsilon", "omega_range"])
def test_number_slot_takes_only_json_numbers(tmp_path, capsys, slot, value):
    # true would read as 1.0 and "1e-3" as 0.001, silently; a 401-digit
    # integer overflowed float() into a traceback
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    if slot == "rank_tol":
        raw["tolerances"]["rank_tol"] = value
        key = "rank_tol"
    elif slot == "epsilon":
        raw["epsilon"] = value
        key = "epsilon"
    else:
        raw["partitions"]["thirds"][0]["omega_range"][1] = value
        key = "partitions[thirds][0].omega_range[1]"
    path = tmp_path / "number.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["decompose", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: {key} ")
    assert not out.exists()


def test_missing_required_flag_is_config_error(tmp_path):
    assert main(["decompose"]) == 2
    assert main(["mix", "--config", CONFIG_PATH, "--out", str(tmp_path)]) == 2


def test_usage_error_is_one_line(capsys):
    # a value that starts with "-" reads as a flag; argparse's usage text
    # is left out of the diagnostic
    argv = ["funcalc", "--config", CONFIG_PATH, "--function", "-(1)", "--section", "f"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "fiberspec funcalc: error: argument --function: expected one argument\n"


SRC = os.path.dirname(os.path.dirname(fiberspec.__file__))


def run_process(args, threads=None):
    """Run the interpreter on args in a fresh process with fiberspec on its
    path and OPENBLAS_NUM_THREADS set to threads, or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def run_python(args, threads=None):
    """run_process's stdout, for a process that must exit 0."""
    done = run_process(args, threads)
    assert done.returncode == 0, done.stderr
    return done.stdout


PROBE = """
import os
{before}
import fiberspec
tasks = "/proc/self/task"
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print(len(os.listdir(tasks)) if os.path.isdir(tasks) else "no proc")
"""


def test_import_defaults_to_one_blas_thread():
    value, tasks = run_python(["-c", PROBE.format(before="")]).splitlines()
    assert value == "1"
    if tasks == "no proc":
        pytest.skip("no /proc/self/task to count threads in")
    assert tasks == "1"


def test_blas_thread_default_leaves_caller_settings_alone():
    # a value the caller set wins
    value, _ = run_python(["-c", PROBE.format(before="")], threads="2").splitlines()
    assert value == "2"
    # once numpy has loaded its BLAS, the variable would change nothing
    value, _ = run_python(["-c", PROBE.format(before="import numpy")]).splitlines()
    assert value == "None"


def test_decompose_bytes_do_not_depend_on_blas_threads(tmp_path):
    for threads in (None, "2"):
        out = str(tmp_path / f"threads_{threads}")
        argv = ["decompose", "--config", CONFIG_PATH, "--out", out]
        run_python(["-m", "fiberspec", *argv], threads)
    for name in ("bounds", "eigencurves", "eigenfunctions"):
        default = (tmp_path / "threads_None" / f"{name}.csv").read_bytes()
        assert default == (tmp_path / "threads_2" / f"{name}.csv").read_bytes(), name


FOOTPRINT = """
import sys
import fiberspec
print("dataclasses" in sys.modules)
from fiberspec import cli
assert cli.main(["decompose", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print("fiberspec.verify" in sys.modules, "numpy.polynomial" in sys.modules)
assert cli.main(["verify", "--config", sys.argv[1]]) == 0
print("numpy.polynomial" in sys.modules, "numpy.random" in sys.modules)
"""


def test_import_footprint(tmp_path):
    # the records are plain classes, only the verify subcommand loads the
    # invariant suite, the Gauss-Legendre rule and verify's Legendre
    # moments are built without numpy.polynomial, and verify draws its
    # probes without numpy.random
    out = run_python(["-c", FOOTPRINT, CONFIG_PATH, str(tmp_path)]).splitlines()
    assert out[:3] == ["False", "decomposed 64 fibers, 3 curves", "False False"]
    assert out[-2:] == ["37/37 checks passed", "False False"]


VERIFY_FOOTPRINT = """
import sys
from fiberspec import cli
assert cli.main(["verify", "--config", sys.argv[1]]) == 0
print("fiberspec.csvio" in sys.modules)
"""


def test_verify_does_not_load_the_writers():
    # only the subcommands that write CSV files import csvio
    out = run_python(["-c", VERIFY_FOOTPRINT, CONFIG_PATH]).splitlines()
    assert out[-2:] == ["37/37 checks passed", "False"]


@pytest.mark.parametrize(
    "args, line",
    [
        (["apply", "--section", "nope"], "unknown section 'nope'\n"),
        (["project", "--threshold", "nope", "--section", "f"], "unknown threshold 'nope'\n"),
        (["mix", "--partition", "nope"], "unknown partition 'nope'\n"),
        (["apply", "--section", "bad"], "sections[bad]: sqrt of negative value "),
        (
            ["project", "--threshold", "bad", "--section", "f"],
            "thresholds[bad]: log of non-positive value ",
        ),
        (["mix", "--partition", "gap"], "partitions[gap]: node 32 is not covered by any set\n"),
        (["spectrum", "--partition", "nope"], "unknown partition 'nope'\n"),
        (
            ["spectrum", "--partition", "gap"],
            "partitions[gap]: node 32 is not covered by any set\n",
        ),
    ],
)
def test_named_entry_errors(tmp_path, capsys, args, line):
    # a missing name and an entry that fails to build are config errors that
    # name the entry; the partition covers [0, 0.5) of the 64 nodes only.
    # line is the whole diagnostic, or its start where a sampled value
    # follows.  The entries resolve before any work, so no CSV is written
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["sections"]["bad"] = "sqrt(t-2)"
    raw["thresholds"]["bad"] = "log(omega-2)"
    raw["partitions"]["gap"] = [{"label": 1, "omega_range": [0.0, 0.5]}]
    config = tmp_path / "named.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    rc = main([*args, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: {line}")
    assert list((tmp_path / "out").rglob("*.csv")) == []


@pytest.mark.parametrize(
    "args", [["apply", "--section", "f"], ["verify"]], ids=["apply", "verify"]
)
def test_section_that_fails_to_sample_is_config_error(tmp_path, capsys, args):
    # the trapezoid rule has a node at t = 0, where log(t) is undefined;
    # verify samples every section of the config as its probes
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["s_quadrature"] = {"rule": "trapezoid", "n": 33}
    raw["sections"] = {"f": "log(t)"}
    config = tmp_path / "log.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = str(tmp_path / "out")
    rc = main([*args, "--config", str(config), "--out", out])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: sections[f]: log of non-positive value 0.0\n"
    )


@pytest.mark.parametrize(
    "kernel, line",
    [
        (
            {"type": "separable", "terms": [{"curve": "t", "basis": "sin(pi*t)"}]},
            "kernel: term 0: curve may only depend on omega, found ['t']",
        ),
        ({"type": "dense"}, "kernel type must be separable or sampled, got 'dense'"),
    ],
    ids=["curve_uses_t", "dense"],
)
def test_kernel_kind_and_term_scope_are_config_errors(tmp_path, capsys, kernel, line):
    path = tmp_path / "kernel.json"
    raw = {"omega_grid": {"n": 4}, "s_quadrature": {"n": 6}, "kernel": kernel}
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["decompose", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


ROOT = os.path.dirname(os.path.dirname(CONFIG_PATH))

# every subcommand once on trig_rank3, each of its routes
SUBCOMMANDS = [
    ["decompose"],
    ["apply", "--section", "f", "--mode", "quadrature"],
    ["apply", "--section", "f", "--mode", "spectral"],
    ["project", "--threshold", "mid", "--section", "f"],
    ["funcalc", "--function", "exp(-lambda)", "--section", "f"],
    ["rs", "--function", "sin(3*lambda)", "--mesh", "0.02", "--section", "f"],
    ["spectrum"],
    ["spectrum", "--partition", "thirds"],
    ["mix", "--partition", "thirds"],
    ["reconstruct", "--rank", "3"],
    ["verify"],
]


@pytest.mark.parametrize("args", SUBCOMMANDS, ids=" ".join)
def test_every_subcommand_closes_its_files(tmp_path, monkeypatch, args):
    # the process entry skips shutdown's cyclic collections, so a file left
    # open in a reference cycle would never be closed or flushed.  An
    # unclosed file warns when it is finalized, inside a finalizer, where
    # the error reaches sys.unraisablehook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main([*args, "--config", CONFIG_PATH, "--out", str(tmp_path)]) == 0
        gc.collect()
    assert [u.exc_value for u in unraisable] == []


@pytest.mark.parametrize(
    "args, code",
    [
        (["decompose", "--config", CONFIG_PATH], 0),
        (["apply", "--section", "nope", "--config", CONFIG_PATH], 2),
        (["verify", "--config", os.path.join(ROOT, "perfbench", "bridge_sampled.json")], 3),
        (["verify", "--config", os.path.join(ROOT, "configs", "trig_indefinite.json")], 4),
    ],
)
def test_process_entry_matches_main(tmp_path, capsys, args, code):
    # `python -m fiberspec` ends with the code, streams and files that
    # cli.main gives in-process, and main leaves the collector unfrozen
    done = run_process(
        ["-m", "fiberspec", *args, "--out", str(tmp_path / "process")]
    )
    frozen = gc.get_freeze_count()
    assert main([*args, "--out", str(tmp_path / "main")]) == code
    assert gc.get_freeze_count() == frozen
    out, err = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    assert len(err.splitlines()) == (0 if code == 0 else 1)
    written = {}
    for side in ("process", "main"):
        folder = tmp_path / side
        names = sorted(os.listdir(folder)) if folder.exists() else []
        written[side] = {n: (folder / n).read_bytes() for n in names}
    assert written["process"] == written["main"]
    assert len(written["main"]) == (3 if code == 0 else 0)


def test_script_and_module_call_one_entry(monkeypatch):
    # the `fiberspec` script of pyproject.toml names the function that
    # `python -m fiberspec` calls
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["fiberspec"]
    called = []
    monkeypatch.setattr(cli, "run", lambda: called.append("run"))
    runpy.run_module("fiberspec", run_name="__main__")
    assert called == ["run"]
    module, _, name = script.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


ENTRY = """
import atexit, gc, sys
atexit.register(lambda: print("atexit", gc.get_freeze_count() > 0))
sys.argv = ["fiberspec", "verify", "--config", sys.argv[1]]
from fiberspec.cli import run
run()
"""


def test_process_entry_freezes_and_runs_atexit():
    # the collector's objects are frozen before shutdown, which still runs
    # atexit handlers
    done = run_process(["-c", ENTRY, os.path.join(ROOT, "configs", "trig_indefinite.json")])
    assert done.returncode == 4
    assert done.stdout.splitlines()[-1] == "atexit True"
