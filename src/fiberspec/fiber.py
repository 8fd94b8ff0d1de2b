"""Per-fiber eigenanalysis of a kernel on the product grid.

Every parameter node gets the symmetrized collocation matrix

    A[j][l] = sqrt(w_j) * k(omega_i, t_j, t_l) * sqrt(w_l)

whose eigenvectors v recover quadrature-orthonormal eigenfunction values
x_n(t_j) = v_n[j] / sqrt(w_j).  Eigenpairs come from a cyclic Jacobi
solver implemented here; the matrices are small and dense, and rotations
converge quadratically once the off-diagonal mass is small.  A separable
kernel of R terms has fiber rank at most R, so its fibers are solved as
R x R (at most n x n) cores of one shared QR factorization instead.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, NotSymmetric
from .grid import OmegaGrid, ScalarField, SQuadrature
from .kernel import KernelSpec, SeparableKernel, fiber_kernel_matrix

DEFAULT_EIG_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-10
MAX_SWEEPS = 64
# Eigenvalues closer than this are treated as one degenerate block when
# aligning curves across the parameter grid.
DEGENERACY_TOL = 1e-10
# Components within this relative distance of an eigenfunction's peak
# magnitude count as tied for the sign convention.
SIGN_TIE = 1e-8


def _sweep_loops(A, V, skip_below):
    """One cyclic-by-row pass of Jacobi rotations over all p < q pairs."""
    n = A.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = A[p, q]
            if abs(apq) <= skip_below:
                continue
            app = A[p, p]
            aqq = A[q, q]
            diff = aqq - app
            if abs(apq) < 1e-36 * abs(diff):
                t = apq / diff
            else:
                theta = diff / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for i in range(n):
                aip = A[i, p]
                aiq = A[i, q]
                A[i, p] = c * aip - s * aiq
                A[i, q] = s * aip + c * aiq
            for i in range(n):
                api = A[p, i]
                aqi = A[q, i]
                A[p, i] = c * api - s * aqi
                A[q, i] = s * api + c * aqi
            A[p, q] = 0.0
            A[q, p] = 0.0
            A[p, p] = app - t * apq
            A[q, q] = aqq + t * apq
            for i in range(n):
                vip = V[i, p]
                viq = V[i, q]
                V[i, p] = c * vip - s * viq
                V[i, q] = s * vip + c * viq


def _sweep_numpy(A, V, skip_below):
    """Same pass with vectorized row and column updates."""
    n = A.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = A[p, q]
            if abs(apq) <= skip_below:
                continue
            app = A[p, p]
            aqq = A[q, q]
            diff = aqq - app
            if abs(apq) < 1e-36 * abs(diff):
                t = apq / diff
            else:
                theta = diff / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            col_p = c * A[:, p] - s * A[:, q]
            col_q = s * A[:, p] + c * A[:, q]
            A[:, p] = col_p
            A[:, q] = col_q
            row_p = c * A[p, :] - s * A[q, :]
            row_q = s * A[p, :] + c * A[q, :]
            A[p, :] = row_p
            A[q, :] = row_q
            A[p, q] = 0.0
            A[q, p] = 0.0
            A[p, p] = app - t * apq
            A[q, q] = aqq + t * apq
            vcol_p = c * V[:, p] - s * V[:, q]
            vcol_q = s * V[:, p] + c * V[:, q]
            V[:, p] = vcol_p
            V[:, q] = vcol_q


try:
    from numba import njit
except ImportError:
    njit = None

if njit is not None:
    _sweep = njit(cache=True, nogil=True)(_sweep_loops)
else:
    _sweep = _sweep_numpy


def _off_norm(A):
    # summed directly over the off-diagonal entries; subtracting the
    # diagonal mass from the total would cancel catastrophically once the
    # remainder is near machine precision
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float(np.sum(off * off)))


def jacobi_eigh(a, tol: float = DEFAULT_EIG_TOL, max_sweeps: int = MAX_SWEEPS):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until the Frobenius norm of the off-diagonal part drops to
    tol times the Frobenius norm of the input.  Returns (eigenvalues,
    eigenvectors) with eigenvalues sorted descending and eigenvectors as
    the matching orthonormal columns.  Raises DomainError when an entry is
    not finite, NotSymmetric when the input is asymmetric beyond 1e-12 and
    NoConvergence when the sweep budget runs out.
    """
    A = np.array(a, dtype=float, copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("input must be a square matrix")
    n = A.shape[0]
    if n == 0:
        return np.empty(0), np.empty((0, 0))
    if not np.all(np.isfinite(A)):
        raise DomainError("matrix has non-finite entries")
    asymmetry = float(np.max(np.abs(A - A.T)))
    if asymmetry > 1e-12:
        raise NotSymmetric(f"matrix asymmetry {asymmetry:.3e} exceeds 1e-12")
    A = 0.5 * (A + A.T)
    V = np.eye(n)
    anorm = float(np.sqrt(np.sum(A * A)))
    if anorm == 0.0 or n == 1:
        vals = np.diag(A).copy()
    else:
        skip_below = tol * anorm * 1e-2 / (n * n)
        converged = False
        for _ in range(max_sweeps):
            if _off_norm(A) <= tol * anorm:
                converged = True
                break
            _sweep(A, V, skip_below)
        else:
            converged = _off_norm(A) <= tol * anorm
        if not converged:
            raise NoConvergence(
                f"Jacobi sweeps exhausted ({max_sweeps}) before reaching "
                f"relative off-diagonal mass {tol:.0e}"
            )
        vals = np.diag(A).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], V[:, order]


def assemble_fiber_matrix(
    k: KernelSpec, ogrid: OmegaGrid, squad: SQuadrature, i: int
) -> np.ndarray:
    """Symmetrized collocation matrix of one fiber."""
    K = fiber_kernel_matrix(k, ogrid, squad, i)
    sw = np.sqrt(squad.weights)
    A = sw[:, None] * K * sw[None, :]
    return 0.5 * (A + A.T)


def extract_eigenfunctions(vectors: np.ndarray, squad: SQuadrature) -> np.ndarray:
    """Eigenfunction node values from eigenvector columns.

    Returns one row per mode: x_n(t_j) = v_n[j] / sqrt(w_j), which keeps
    the family orthonormal in the quadrature inner product.
    """
    sw = np.sqrt(squad.weights)
    return (vectors / sw[:, None]).T


@dataclass(frozen=True)
class FiberDecomposition:
    """Retained eigenpairs of every fiber plus alignment and bounds.

    The eigenpairs are stored as zero-padded arrays over F fibers and
    r_max = max(ranks) slots: eigenvalues (F, r_max), descending within
    each fiber; functions (F, r_max, n_s), the matching
    quadrature-orthonormal eigenfunction rows; labels (F, r_max), the
    aligned curve id of each slot; ranks (F,), the retained rank.  Slots
    n >= ranks[i] hold eigenvalue 0.0, a zero function row and label -1,
    so a padded slot is one more null direction and adds nothing to any
    spectral sum; labels >= 0 marks the retained slots.  traces and
    eigensums keep the trace of the assembled matrix and the sum of all its
    eigenvalues before truncation.  m and M are the fiberwise spectral
    bounds min(0, lambda_min) and max(0, lambda_max).
    """

    ogrid: OmegaGrid
    squad: SQuadrature
    eigenvalues: np.ndarray
    functions: np.ndarray
    labels: np.ndarray
    ranks: np.ndarray
    traces: np.ndarray
    eigensums: np.ndarray
    m: ScalarField
    M: ScalarField
    rank_tol: float

    @property
    def n_fibers(self) -> int:
        return len(self.ogrid)

    @property
    def num_curves(self) -> int:
        return int(self.labels.max(initial=-1)) + 1

    def _curve_mask(self, curve_ids) -> np.ndarray:
        """Slot mask (F, r_max) of aligned curve curve_ids[i] in fiber i.

        curve_ids is one id or one per fiber; a row is empty where the
        curve is absent or the id is negative.
        """
        ids = np.broadcast_to(curve_ids, (self.n_fibers,))[:, None]
        return (self.labels == ids) & (ids >= 0)

    def aligned_curve(self, curve_id: int) -> np.ndarray:
        """Eigenvalues of one aligned curve over the parameter grid.

        Fibers where the curve is absent get nan.
        """
        hit = self._curve_mask(curve_id)
        values = np.where(hit, self.eigenvalues, 0.0).sum(axis=1)
        return np.where(hit.any(axis=1), values, np.nan)


def _sign_fix(functions: np.ndarray) -> np.ndarray:
    """Make the first near-peak component of every row positive.

    A component is near-peak when |v_j| >= (1 - SIGN_TIE) * max|v|, so a
    row with two peaks of equal magnitude and opposite sign, like
    sqrt(2) sin(2 pi t), keeps the same sign whichever peak rounding puts
    on top.  Zero rows are left as they are.
    """
    mag = np.abs(functions)
    near_peak = mag >= (1.0 - SIGN_TIE) * mag.max(axis=-1, keepdims=True)
    lead = np.argmax(near_peak, axis=-1)[..., None]
    flip = np.take_along_axis(functions, lead, axis=-1) < 0
    return np.where(flip, -functions, functions)


def _align_labels(
    eigenvalues, functions, ranks, weights, degeneracy_tol=DEGENERACY_TOL
):
    """Greedy eigenvector matching between consecutive fibers.

    Pairs are taken in order of decreasing overlap magnitude with ties
    broken by lower index; curves absent at a fiber keep their ids free,
    and curves that appear get fresh ids.  Near-degenerate eigenvalues are
    relabeled as a block, in descending order, because their individual
    eigenvectors are arbitrary within the eigenspace.  Returns labels in
    the padded layout of FiberDecomposition.
    """
    labels = np.full(eigenvalues.shape, -1, dtype=int)
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
        vals = eigenvalues[i]
        start = 0
        for stop in range(1, r_cur + 1):
            if stop == r_cur or vals[stop - 1] - vals[stop] >= degeneracy_tol:
                if stop - start > 1:
                    block_ids = np.sort(assigned[start:stop])
                    assigned[start:stop] = block_ids
                start = stop
        labels[i, :r_cur] = assigned
    return labels


def _dense_fibers(k, ogrid, squad, eig_tol, threads):
    """Jacobi on every assembled n x n fiber matrix."""

    def solve(i):
        A = assemble_fiber_matrix(k, ogrid, squad, i)
        vals, vecs = jacobi_eigh(A, tol=eig_tol)
        return vals, vecs, float(np.trace(A))

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(solve, range(len(ogrid))))
    return [solve(i) for i in range(len(ogrid))]


def _factored_fibers(k: SeparableKernel, ogrid, squad, eig_tol):
    """Exact eigenpairs of separable fibers through one shared QR.

    Every fiber matrix is C^T diag(c(omega_i)) C with C = B diag(sqrt(w))
    of shape (R, n).  With the reduced QR C^T = Q Rm, the fiber is
    Q (Rm diag(c) Rm^T) Q^T, so its nonzero eigenpairs are those of the
    k x k core (k = min(R, n)) with eigenvectors Q U, and its trace is
    sum_r c_r ||C_r||^2.
    """
    C = k.basis_matrix(squad) * np.sqrt(squad.weights)
    if not np.all(np.isfinite(C)):
        raise DomainError("kernel basis has non-finite values")
    Q, Rm = np.linalg.qr(C.T)
    norms = np.sum(C * C, axis=1)
    solved = []
    for c in k.curve_matrix(ogrid):
        core = (Rm * c) @ Rm.T
        vals, U = jacobi_eigh(0.5 * (core + core.T), tol=eig_tol)
        solved.append((vals, Q @ U, float(c @ norms)))
    return solved


def _retain(vals, vecs, squad, rank_tol):
    """Truncated eigenvalues and sign-fixed eigenfunction rows of a fiber."""
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 0.0)
    keep = np.abs(vals) > rank_tol * scale
    return vals[keep], _sign_fix(extract_eigenfunctions(vecs[:, keep], squad))


def decompose_all_fibers(
    k: KernelSpec,
    ogrid: OmegaGrid,
    squad: SQuadrature,
    rank_tol: float = DEFAULT_RANK_TOL,
    eig_tol: float = DEFAULT_EIG_TOL,
    threads: int = 1,
) -> FiberDecomposition:
    """Decompose every fiber, truncate by rank_tol, and align the curves.

    A separable kernel is solved exactly in the span of its R basis
    functions: one QR shared by all fibers, then a min(R, n_s) square
    Jacobi solve per fiber.  A sampled kernel gets a Jacobi solve of every
    assembled n_s x n_s fiber matrix; threads > 1 runs those concurrently
    with identical results.  The separable route always runs sequentially.

    Eigenvalues with |lambda| <= rank_tol * max(1, |lambda|_max(omega)) are
    dropped.  The eigenfunction sign convention makes the first component
    within SIGN_TIE of the largest magnitude positive; ties inside
    degenerate blocks are resolved during alignment.
    """
    if isinstance(k, SeparableKernel):
        solved = _factored_fibers(k, ogrid, squad, eig_tol)
    else:
        solved = _dense_fibers(k, ogrid, squad, eig_tol, threads)
    results = [_retain(vals, vecs, squad, rank_tol) for vals, vecs, _ in solved]
    ranks = np.array([vals.size for vals, _ in results], dtype=int)
    retained = np.arange(int(ranks.max(initial=0))) < ranks[:, None]
    eigenvalues = np.zeros(retained.shape)
    eigenvalues[retained] = np.concatenate([vals for vals, _ in results])
    functions = np.zeros(retained.shape + (len(squad),))
    functions[retained] = np.concatenate([funcs for _, funcs in results])
    traces = np.array([trace for _, _, trace in solved])
    eigensums = np.array([vals.sum() for vals, _, _ in solved])
    labels = _align_labels(eigenvalues, functions, ranks, squad.weights)
    return FiberDecomposition(
        ogrid=ogrid,
        squad=squad,
        eigenvalues=eigenvalues,
        functions=functions,
        labels=labels,
        ranks=ranks,
        traces=traces,
        eigensums=eigensums,
        m=ScalarField(ogrid, np.min(eigenvalues, axis=1, initial=0.0)),
        M=ScalarField(ogrid, np.max(eigenvalues, axis=1, initial=0.0)),
        rank_tol=rank_tol,
    )


def align_curves(d: FiberDecomposition) -> np.ndarray:
    """Recompute the aligned curve labeling of a decomposition."""
    return _align_labels(d.eigenvalues, d.functions, d.ranks, d.squad.weights)


def spectral_bounds(d: FiberDecomposition) -> tuple:
    """Fiberwise lower and upper spectral bounds (both keep 0 in range)."""
    return d.m, d.M
