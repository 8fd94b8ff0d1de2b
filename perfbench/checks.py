"""Output checks for the CLI sessions.

Tolerances are stated, not digests: last-bit changes in a faster path are
allowed when documented, and such a change must still pass these checks.
Byte-identity is checked only between runs of the same source tree.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np

CURVE_ATOL = 1e-10
EIG_ATOL = 1e-10
DECOMPOSE_CSVS = ("eigencurves.csv", "eigenfunctions.csv", "bounds.csv")
BRIDGE_EXPRESSION = "cos(pi*omega/2)^2*2*sin(pi*t)*sin(pi*s)+min(t,s)-t*s"
# `fiberspec verify` on a sampled kernel with the Gauss-Legendre rule and
# n >= 8 re-decomposes the kernel on a half-size quadrature
# (verify.py, eigenvalue_grid_stability), which fiber_kernel_matrix rejects.
KNOWN_DEFECT = (3, "sampled kernel was sampled on different grids")

# closed form of configs/trig_rank3.json; ids follow the descending order
# at the first parameter node, which is how the library numbers curves
TRIG_CURVES = (
    lambda w: np.cos(np.pi * w / 2) ** 2,
    lambda w: np.sin(np.pi * w) ** 2 / 2,
    lambda w: w**2 / 3,
)


def _eigencurves(out_dir):
    with open(Path(out_dir) / "eigencurves.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(float(w), int(c), float(lam)) for w, c, lam in rows]


def trig_curves(out_dir, n_omega=64):
    """Curve n of trig_rank3 must be the n-th closed form at every node."""
    rows = _eigencurves(out_dir)
    ids = sorted({c for _, c, _ in rows})
    if ids != [1, 2, 3] or len(rows) != 3 * n_omega:
        return f"expected 3 curves on {n_omega} nodes, got ids {ids} in {len(rows)} rows"
    for w, c, lam in rows:
        want = float(TRIG_CURVES[c - 1](w))
        if not abs(lam - want) <= CURVE_ATOL:
            return f"curve {c} at omega={w!r} is {lam!r}, closed form {want!r}"
    return None


def bridge_reference(config):
    """Fiber eigenvalues by numpy eigh on the assembled matrices, descending.

    The matrices are sampled here with numpy from the closed form; this is
    a reference only and is never timed.
    """
    raw = json.loads(Path(config).read_text())
    if raw["kernel"]["expression"] != BRIDGE_EXPRESSION:
        raise ValueError("bridge config kernel differs from the reference form")
    n_omega, n_s = raw["omega_grid"]["n"], raw["s_quadrature"]["n"]
    omega = (np.arange(n_omega) + 0.5) / n_omega
    x, w = np.polynomial.legendre.leggauss(n_s)
    t, w = (x + 1.0) / 2.0, w / 2.0
    T, S = t[:, None], t[None, :]
    K = (np.cos(np.pi * omega / 2) ** 2)[:, None, None] * (
        2 * np.sin(np.pi * T) * np.sin(np.pi * S)
    ) + (np.minimum(T, S) - T * S)[None]
    sw = np.sqrt(w)
    A = sw[None, :, None] * K * sw[None, None, :]
    vals = np.linalg.eigvalsh(0.5 * (A + A.transpose(0, 2, 1)))
    return omega, vals[:, ::-1]


def bridge_eigenvalues(out_dir, reference, rank_tol=1e-10):
    omega, ref = reference
    by_node = {}
    for w, _, lam in _eigencurves(out_dir):
        by_node.setdefault(w, []).append(lam)
    if len(by_node) != omega.size:
        return f"expected {omega.size} fibers, got {len(by_node)}"
    for i, w in enumerate(omega):
        got = np.sort(by_node.get(float(w), []))[::-1]
        scale = max(1.0, float(np.max(np.abs(ref[i]))))
        want = ref[i][np.abs(ref[i]) > rank_tol * scale]
        if got.size != want.size:
            return f"omega={float(w)!r}: {got.size} eigenvalues retained, eigh gives {want.size}"
        err = float(np.max(np.abs(got - want)))
        if not err <= EIG_ATOL:
            return f"omega={float(w)!r}: eigenvalues deviate {err:.3e} from eigh"
    return None


def verify_passed(stdout):
    """`fiberspec verify` prints 'k/n checks passed' last; all must pass."""
    lines = stdout.strip().splitlines()
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
    if m is None or m.group(1) != m.group(2):
        return f"verify reported {lines[-1] if lines else 'nothing'!r}"
    return None


def tree_digest(paths):
    """Names a source tree and config, to key the byte-identity reference."""
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(path.parent)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def same_bytes(out_dir, ref_dir):
    """Compare decompose CSVs with the first ones this source tree wrote.

    The first decompose of a tree becomes the reference; every later one,
    in any run or process, must match it byte for byte.
    """
    ref_dir = Path(ref_dir)
    ref_dir.mkdir(parents=True, exist_ok=True)
    for name in DECOMPOSE_CSVS:
        got = (Path(out_dir) / name).read_bytes()
        ref = ref_dir / name
        if ref.exists():
            if ref.read_bytes() != got:
                return f"{name} differs from an earlier decompose of this tree"
        else:
            tmp = ref.with_suffix(f".tmp{os.getpid()}")
            tmp.write_bytes(got)
            os.replace(tmp, ref)
    return None
