"""The public surface: what `import fiberspec` exports.

The benchmark scripts under perfbench/ drive the library through
`fs.<name>` attributes, so every such name must stay exported; a removed
name fails here rather than only in a benchmark run.
"""

import importlib
import os
import re

import fiberspec as fs

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")

REMOVED = (
    "Eigenspace",
    "IndexOutOfRange",
    "eigenspace",
    "extract_eigenfunctions",
    "fiber_norm_field",
    "fiber_spectrum",
    "hermitian_check",
    "psd_check",
)


def test_all_is_unique_and_resolves():
    assert len(fs.__all__) == len(set(fs.__all__))
    assert [name for name in fs.__all__ if not hasattr(fs, name)] == []


def test_removed_names_are_gone():
    assert set(REMOVED).isdisjoint(fs.__all__)
    modules = ("calculus", "errors", "fiber", "grid", "kernel", "spectrum", "verify")
    for short in modules:
        module = importlib.import_module(f"fiberspec.{short}")
        assert [name for name in REMOVED if hasattr(module, name)] == [], short
    assert [name for name in REMOVED if hasattr(fs, name)] == []


def test_perfbench_names_are_exported():
    used = set()
    for entry in sorted(os.listdir(PERFBENCH)):
        if entry.endswith(".py"):
            with open(os.path.join(PERFBENCH, entry), encoding="utf-8") as fh:
                text = fh.read()
            used |= set(re.findall(r"\b(?:fs|fiberspec)\.([A-Za-z_]\w*)", text))
    assert "projector_apply" in used and "load_config" in used
    assert sorted(used - set(fs.__all__)) == []
