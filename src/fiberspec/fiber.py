"""Per-fiber eigenanalysis of a kernel on the product grid.

Every parameter node gets the symmetrized collocation matrix

    A[j][l] = sqrt(w_j) * k(omega_i, t_j, t_l) * sqrt(w_l)

whose eigenvectors v recover quadrature-orthonormal eigenfunction values
x_n(t_j) = v_n[j] / sqrt(w_j).  The fibers are independent, so all of them
are solved as one stack by LAPACK's symmetric eigensolver (np.linalg.eigh),
behind the same input checks, power-of-two prescale and descending stable
order as the Jacobi solver implemented here.  That Jacobi solver, whose
odd-even rounds rotate adjacent rows of every matrix of a stack at once,
is kept as the independent oracle that verify checks the production
eigenvalues against.
A separable kernel of R terms has fiber rank at most R, so its fibers are
solved as R x R (at most n x n) cores of one shared QR factorization
instead.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._record import Record
from .errors import DomainError, NoConvergence, NotSymmetric
from .grid import OmegaGrid, ScalarField, SQuadrature
from .kernel import KernelSpec, _on_grid, kernel_matrices

DEFAULT_EIG_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-10
MAX_SWEEPS = 64
# Components within this relative distance of an eigenfunction's peak
# magnitude count as tied for the sign convention.
SIGN_TIE = 1e-8


def _sweep(A, W, skip_below):
    """One sweep of Jacobi rotations over a stack of matrices.

    A has shape (F, n, n), W (F, n, n) or (F, n, 0) and skip_below (F, 1).
    Round r of the odd-even ordering takes the adjacent pairs
    (o + 2k, o + 2k + 1), o = r % 2, of every matrix at once, rotates each
    pair and swaps its two positions, so the n rounds meet every pair once
    and leave the positions reversed (Luk and Park, 1989).  The
    rotate-and-swap [[s, c], [c, -s]] of every pair is one batched product
    on the pair rows of A, again on the rows of a transposed copy and on
    the rows of W, unless W has no columns; the 2 x 2 blocks are then set
    exactly.  A pair with |a_pq| <= skip_below gets t = 0, a plain swap.
    Returns the swept copy of A; W is updated in place.
    """
    F, n = A.shape[:2]
    for r in range(n):
        o, h = r % 2, (n - r % 2) // 2
        # flat offsets of the entries (p, p), (p, q), (q, p) and (q, q)
        p0, step = o * (n + 1), 2 * n + 2
        at = [slice(p0 + k, p0 + k + step * h, step) for k in (0, 1, n, n + 1)]
        flat = A.reshape(F, n * n)
        app, apq, aqq = flat[:, at[0]], flat[:, at[1]], flat[:, at[3]]
        diff = aqq - app
        rotate = np.abs(apq) > skip_below
        # skipped pairs may divide by zero here; np.where discards them
        theta = diff / (2.0 * apq)
        slope = np.abs(theta)
        t = np.copysign(1.0 / (slope + np.hypot(theta, 1.0)), theta)
        # the overflow guard: where |a_pq| < 1e-36 |a_qq - a_pp|, t is
        # a_pq / (a_qq - a_pp) to working precision
        t = np.where(slope > 0.5e36, apq / diff, t)
        t = np.where(rotate, t, 0.0)
        # the exact new 2 x 2 blocks; the swap puts the rotated q first
        shift = t * apq
        pp, pq, qq = aqq + shift, np.where(rotate, 0.0, apq), app - shift
        # R = [[s, c], [c, -s]], with c and s written in place
        R = np.empty((F, h, 2, 2))
        c = np.divide(1.0, np.hypot(t, 1.0), out=R[..., 0, 1])
        s = np.multiply(t, c, out=R[..., 0, 0])
        np.negative(s, out=R[..., 1, 1])
        R[..., 1, 0] = c
        rows = A[:, o : o + 2 * h].reshape(F, h, 2, n)
        rows[...] = R @ rows
        A = A.transpose(0, 2, 1).copy()
        rows = A[:, o : o + 2 * h].reshape(F, h, 2, n)
        rows[...] = R @ rows
        flat = A.reshape(F, n * n)
        flat[:, at[0]], flat[:, at[3]] = pp, qq
        flat[:, at[1]] = flat[:, at[2]] = pq
        if W.shape[2]:
            rows = W[:, o : o + 2 * h].reshape(F, h, 2, n)
            rows[...] = R @ rows
    return A


def _frobenius(A, off_diagonal=False):
    """Frobenius norm of every matrix of a stack (F, n, n).

    The off-diagonal norm sums the off-diagonal squares directly;
    subtracting the diagonal mass from the total would cancel
    catastrophically once the remainder is near machine precision.
    """
    n = A.shape[-1]
    squares = A * A
    if off_diagonal:
        squares[:, np.arange(n), np.arange(n)] = 0.0
    return np.sqrt(squares.reshape(len(A), n * n).sum(axis=1))


def _prepare(a):
    """Checked, scaled and symmetrized float copy of a matrix stack.

    Returns the stack as (F, n, n), the binary exponent of every matrix's
    largest entry and the leading shape of the input.  Each matrix is
    scaled by the power of two that brings its largest entry into
    [1/2, 1), which is exact and keeps norms from overflowing; a matrix
    asymmetric beyond 1e-12 after the scaling is NotSymmetric.
    """
    A = np.array(a, dtype=float, copy=True)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("input must be a square matrix or a stack of them")
    lead, n = A.shape[:-2], A.shape[-1]
    A = A.reshape((math.prod(lead), n, n))
    if not np.all(np.isfinite(A)):
        raise DomainError("matrix has non-finite entries")
    _, exponent = np.frexp(np.max(np.abs(A), axis=(1, 2), initial=0.0))
    A = np.ldexp(A, -exponent[:, None, None])
    asymmetry = float(np.max(np.abs(A - A.transpose(0, 2, 1)), initial=0.0))
    if asymmetry > 1e-12:
        raise NotSymmetric(f"relative matrix asymmetry {asymmetry:.3e} exceeds 1e-12")
    return 0.5 * (A + A.transpose(0, 2, 1)), exponent, lead


def _finish(vals, vecs, exponent, lead):
    """Undo the prescale and order every matrix's eigenpairs descending.

    The sort is stable, so eigenvectors of equal eigenvalues keep the
    column order the solver gave them.
    """
    with np.errstate(over="ignore"):
        vals = np.ldexp(vals, exponent[:, None])
    if not np.all(np.isfinite(vals)):
        raise DomainError("eigenvalues exceed the floating-point range")
    order = np.argsort(-vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    return vals.reshape(lead + vals.shape[1:]), vecs.reshape(lead + vecs.shape[1:])


def _eigh(a):
    """Production eigendecomposition of symmetric matrices by LAPACK.

    Takes and returns what jacobi_eigh does, with the same checks, prescale
    and order; every matrix of a stack is solved by its own LAPACK call, so
    its result is bitwise the same alone or inside a stack.  Raises
    NoConvergence when LAPACK reports that a matrix did not converge.
    """
    A, exponent, lead = _prepare(a)
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from exc
    return _finish(vals, vecs, exponent, lead)


def jacobi_eigh(a, tol: float = DEFAULT_EIG_TOL):
    """Eigendecomposition of symmetric matrices by Jacobi rotations.

    This is the reference solver that verify compares the production
    LAPACK solve against; decompositions do not call it.  a is one matrix
    (n, n) or a stack (..., n, n); every matrix is solved independently,
    and its result is bitwise the same whether it is solved alone or inside
    a stack.  Each matrix is first scaled by the power of two that brings
    its largest entry into [1/2, 1), which is exact and keeps the norms
    from overflowing.  Up to MAX_SWEEPS sweeps of the odd-even ordering
    (n rounds of adjacent pairs each, see _sweep) run until the Frobenius
    norm of a matrix's off-diagonal part drops to tol times the Frobenius
    norm of the matrix; a matrix that gets there takes no further
    rotations.  Returns (eigenvalues, eigenvectors) of shapes (..., n) and
    (..., n, n), with eigenvalues sorted descending and eigenvectors as the
    matching orthonormal columns.  Raises ValueError
    when the input is not a square matrix or a stack of them, DomainError
    when an entry or an eigenvalue is not finite, NotSymmetric when a
    scaled matrix is asymmetric beyond 1e-12 and NoConvergence when any
    matrix runs out of sweeps.
    """
    return _jacobi(a, tol, vectors=True)


def _jacobi(a, tol, vectors):
    """jacobi_eigh, with or without the eigenvectors.

    The rotations accumulate in W, whose rows are the eigenvectors.
    Without them W has no columns, so _sweep skips its updates, and the
    eigenvectors come back with shape (..., 0, n).  The eigenvalues are
    bitwise the same either way.
    """
    A, exponent, lead = _prepare(a)
    n = A.shape[-1]
    vals = np.empty(A.shape[:-1])
    m = n if vectors else 0
    vecs = np.empty((len(A), m, n))
    live = np.arange(len(A))
    W = np.broadcast_to(np.eye(n)[:, :m], (len(A), n, m)).copy()
    anorm = _frobenius(A)
    limit = tol * anorm
    skip_below = (tol * anorm * 1e-2 / max(1, n * n))[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(MAX_SWEEPS + 1):
            done = _frobenius(A, off_diagonal=True) <= limit
            vals[live[done]] = np.diagonal(A[done], axis1=1, axis2=2)
            vecs[live[done]] = W[done].transpose(0, 2, 1)
            going = ~done
            live, A, W = live[going], A[going], W[going]
            limit, skip_below = limit[going], skip_below[going]
            if not live.size:
                break
            if sweep == MAX_SWEEPS:
                raise NoConvergence(
                    f"Jacobi sweeps exhausted ({MAX_SWEEPS}) before reaching "
                    f"relative off-diagonal mass {tol:.0e}"
                )
            A = _sweep(A, W, skip_below)
    return _finish(vals, vecs, exponent, lead)


def _assemble(K, squad: SQuadrature) -> np.ndarray:
    """Symmetrized collocation matrices 0.5 (A + A^T), A = sqrt(w) K sqrt(w),
    of kernel values K of shape (F, n_s, n_s), for any F fibers.

    The scaled copy of K is scaled and the sum A + A^T halved in place, so
    next to K at most two arrays of its size are alive at a time.
    """
    sw = np.sqrt(squad.weights)
    A = sw[:, None] * K
    A *= sw
    S = A + A.transpose(0, 2, 1)
    S *= 0.5
    return S


def fiber_matrices(
    k: KernelSpec, ogrid: OmegaGrid, squad: SQuadrature
) -> np.ndarray:
    """Symmetrized collocation matrices of every fiber, (n_omega, n_s, n_s)."""
    return _assemble(kernel_matrices(k, ogrid, squad), squad)


class FiberDecomposition(Record):
    """Retained eigenpairs of every fiber and their aligned curve ids.

    The eigenpairs are stored as zero-padded arrays over F fibers and
    r_max slots: eigenvalues (F, r_max), descending within each fiber;
    functions (F, r_max, n_s), the matching quadrature-orthonormal
    eigenfunction rows; labels (F, r_max), the aligned curve id of each
    slot.  labels >= 0 marks the retained slots, and the retained rank of
    fiber i is their count, ranks[i]; slots n >= ranks[i] hold eigenvalue
    0.0, a zero function row and label -1, so a padded slot is one more
    null direction and adds nothing to any spectral sum.  eigensums keeps
    the sum of every fiber's eigenvalues before truncation.

    Everything else is derived from these and kept on first use: ranks;
    the fiber spectra _spectra, the retained eigenvalues together with 0;
    and the fiberwise spectral bounds m = min(0, lambda_min) and
    M = max(0, lambda_max), outside which the projector family is 0 or the
    identity.
    """

    # no __slots__: cached_property keeps its value in the instance __dict__,
    # so _fields gives Record.__init__ the order of the fields
    _fields = ("ogrid", "squad", "eigenvalues", "functions", "labels", "eigensums")

    def __init__(
        self,
        ogrid: OmegaGrid,
        squad: SQuadrature,
        eigenvalues: np.ndarray,
        functions: np.ndarray,
        labels: np.ndarray,
        eigensums: np.ndarray,
    ):
        super().__init__(ogrid, squad, eigenvalues, functions, labels, eigensums)

    @cached_property
    def ranks(self) -> np.ndarray:
        """Retained rank of every fiber, (F,)."""
        return np.count_nonzero(self.labels >= 0, axis=1)

    @cached_property
    def m(self) -> ScalarField:
        """Lower spectral bound min(0, lambda_min) of every fiber; padded
        slots hold 0, which is in every fiber spectrum."""
        return ScalarField(self.ogrid, np.min(self.eigenvalues, axis=1, initial=0.0))

    @cached_property
    def M(self) -> ScalarField:
        """Upper spectral bound max(0, lambda_max) of every fiber."""
        return ScalarField(self.ogrid, np.max(self.eigenvalues, axis=1, initial=0.0))

    @cached_property
    def _spectra(self) -> np.ndarray:
        """Every fiber spectrum, one row (r_max + 1) per fiber.

        Row i holds the retained eigenvalues of fiber i and 0 in
        descending order, followed by -inf for each padded slot, which is
        infinitely far from every finite value.
        """
        vals = np.where(self.labels >= 0, self.eigenvalues, -np.inf)
        vals = np.append(vals, np.zeros((self.n_fibers, 1)), axis=1)
        return np.sort(vals, axis=1)[:, ::-1]

    @cached_property
    def _extreme_bounds(self) -> tuple:
        """(min m, max M) over the parameter grid, as floats.

        Computed on first use and kept, so every query that needs the
        spectral interval reads it without reducing m and M again.
        """
        return float(np.min(self.m.values)), float(np.max(self.M.values))

    @cached_property
    def _weighted_functions(self) -> np.ndarray:
        """functions * squad.weights, shape (F, r_max, n_s).

        Row n of fiber i pairs a section with x_n: (W @ f)[n] = <f, x_n>.
        Built on the first spectral query and kept, like _extreme_bounds.
        """
        return self.functions * self.squad.weights

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
        ids = np.reshape(curve_ids, (-1, 1))
        return (self.labels == ids) & (ids >= 0)

    def aligned_curve(self, curve_id: int) -> np.ndarray:
        """Eigenvalues of one aligned curve over the parameter grid.

        Fibers where the curve is absent get nan.
        """
        hit = self._curve_mask(curve_id)
        values = np.where(hit, self.eigenvalues, 0.0).sum(axis=1)
        return np.where(hit.any(axis=1), values, np.nan)


def _sign_fix(functions: np.ndarray) -> None:
    """Make the first near-peak component of every row positive, in place.

    A component is near-peak when |v_j| >= (1 - SIGN_TIE) * max|v|, so a
    row with two peaks of equal magnitude and opposite sign, like
    sqrt(2) sin(2 pi t), keeps the same sign whichever peak rounding puts
    on top.  Zero rows are left as they are.
    """
    mag = np.abs(functions)
    near_peak = mag >= (1.0 - SIGN_TIE) * mag.max(axis=-1, keepdims=True)
    lead = np.argmax(near_peak, axis=-1)[..., None]
    flip = np.take_along_axis(functions, lead, axis=-1) < 0
    np.negative(functions, out=functions, where=flip)


def _mutual_best(overlap, free):
    """One step of the greedy scan of _align_labels on a stack of overlap
    matrices: the row of every free column's largest entry where it is also
    the largest of its row, else -1.
    """
    col_best = np.argmax(overlap, axis=1)
    row_best = np.argmax(overlap, axis=2)
    slots = np.arange(overlap.shape[2])
    mutual = np.take_along_axis(row_best, col_best, axis=1) == slots
    return np.where(mutual & free, col_best, -1)


def _align_labels(functions, ranks, weights):
    """Greedy eigenvector matching between consecutive fibers.

    The greedy scan takes the overlaps |<x_n(omega_i), x_m(omega_i+1)>| of
    two neighbouring fibers in decreasing order, ties broken by the lower
    flat index n * r_max + m, and matches (n, m) when neither n nor m is
    matched yet.  It must take every entry that comes first in this order
    within both its row and its column, because nothing earlier shares its
    row or its column (Preis, STACS 1999); and it takes no other entry of
    that row or column, as they all come later.  np.argmax over rows and
    over columns keeps the first of equal values, so one step finds these
    mutual best entries of every pair at once, without a sort.  The step
    then repeats on the pairs still short of min(rank) matches, with every
    row and column taken so far set to -1, below every overlap: the first
    free entry in the scan's order is again first in its row and in its
    column, since every earlier entry there lies in a taken row or column,
    so each step takes the scan's next entries and matches at least one
    more entry of every pair.  The ids follow the matching alone: a
    matched slot continues its predecessor's curve, so a curve stays on
    its eigenfunction through a crossing on a node, and every other
    retained slot starts a new curve, numbered in (fiber, slot) order.
    Returns labels in the padded layout of FiberDecomposition.
    """
    F, r_max = functions.shape[:2]
    if not r_max:
        return np.full((F, 0), -1)
    slots = np.arange(r_max)
    retained = slots < ranks[:, None]
    overlap = np.abs(functions[:-1] @ (weights * functions[1:]).transpose(0, 2, 1))
    # a padded slot has a zero row, so its overlaps are 0 and come after
    # the retained slots', which have lower indices, in every row and
    # column; only taken rows and columns need to be set below them
    free = retained[1:] & (ranks[:-1, None] > 0)
    # match[i, m] is the slot of fiber i matched to slot m of fiber i + 1
    match = _mutual_best(overlap, free)
    need = np.minimum(ranks[:-1], ranks[1:])
    todo = np.flatnonzero(np.sum(match >= 0, axis=1) < need)
    while todo.size:
        taken = match[todo]
        i, m = np.nonzero(taken >= 0)
        step = overlap[todo]
        step[i, taken[i, m]] = -1.0
        step[i, :, m] = -1.0
        # the step matches free columns only, so it is -1 wherever taken
        # is not
        found = _mutual_best(step, free[todo] & (taken < 0))
        match[todo] = np.maximum(taken, found)
        todo = todo[np.sum(match[todo] >= 0, axis=1) < need[todo]]
    # every slot points at the flat index of the slot it continues, a
    # chain start at itself; pointer doubling takes every slot to the
    # start of its chain in about log2(F) rounds
    flat = np.arange(F * r_max).reshape(F, r_max)
    pred = flat.copy()
    pred[1:] = np.where(match >= 0, flat[:-1, :1] + match, flat[1:])
    root = pred.ravel()
    while not np.array_equal(jumped := root[root], root):
        root = jumped
    ids = np.cumsum(retained.ravel() & (pred.ravel() == flat.ravel())) - 1
    return np.where(retained, ids[root].reshape(F, r_max), -1)


def _solve_fibers(k: KernelSpec, ogrid, squad):
    """Eigenpairs of every fiber from one stacked LAPACK solve.

    Returns eigenvalues (F, r) and eigenvectors (F, n_s, r).  The kernel is
    put on the grids once, by kernel._on_grid.  A kernel without factors
    (a sampled one) solves the stack of its assembled n_s x n_s fiber
    matrices (r = n_s).  With the factors (curves c, basis B) of a
    separable kernel, every fiber matrix is C^T diag(c(omega_i)) C with
    C = B diag(sqrt(w)) of shape (R, n_s).  With the reduced QR
    C^T = Q Rm, the fiber is Q (Rm diag(c) Rm^T) Q^T, so its nonzero
    eigenpairs are those of the r x r core (r = min(R, n_s)) with
    eigenvectors Q U.
    """
    values, _, factors = _on_grid(k, ogrid, squad)
    if factors is None:
        return _eigh(_assemble(values(slice(None)), squad))
    curves, basis = factors
    Q, Rm = np.linalg.qr((basis * np.sqrt(squad.weights)).T)
    cores = (Rm * curves[:, None, :]) @ Rm.T
    vals, U = _eigh(0.5 * (cores + cores.transpose(0, 2, 1)))
    return vals, Q @ U


def _retain(vals, vecs, squad, rank_tol):
    """Truncate every fiber and pack it into the padded layout.

    Eigenvalues with |lambda| <= rank_tol * ||T|| are dropped, ||T|| the
    largest |lambda| of all fibers, so the rule scales with the kernel and
    a zero kernel keeps nothing; a stable sort moves the kept slots to the
    front in their descending order, and the eigenfunction rows follow,
    sign-fixed: the gathered eigenvector rows v_n become x_n(t_j) =
    v_n[j] / sqrt(w_j), which keeps the family orthonormal in the
    quadrature inner product.
    Returns eigenvalues (F, r_max), functions (F, r_max, n_s) and ranks.
    """
    keep = np.abs(vals) > rank_tol * np.max(np.abs(vals), initial=0.0)
    ranks = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, : ranks.max(initial=0)]
    retained = np.take_along_axis(keep, order, axis=1)
    eigenvalues = np.where(retained, np.take_along_axis(vals, order, axis=1), 0.0)
    # the kept columns are gathered as C-ordered rows and scaled in place
    functions = vecs[np.arange(len(vecs))[:, None], :, order]
    functions /= np.sqrt(squad.weights)
    _sign_fix(functions)
    functions[~retained] = 0.0
    return eigenvalues, functions, ranks


def decompose_all_fibers(
    k: KernelSpec,
    ogrid: OmegaGrid,
    squad: SQuadrature,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> FiberDecomposition:
    """Decompose every fiber, truncate by rank_tol, and align the curves.

    All fibers are solved in one stacked LAPACK call.  A separable kernel
    is solved exactly in the span of its R basis functions: one QR shared
    by all fibers, then a min(R, n_s) square core per fiber.  A sampled
    kernel solves every assembled n_s x n_s fiber matrix.

    Eigenvalues with |lambda| <= rank_tol * ||T|| are dropped, where
    ||T|| = max over omega of |lambda|_max(omega) is the operator norm on
    the grid.  The eigenfunction sign convention makes the first component
    within SIGN_TIE of the largest magnitude positive.  Alignment follows
    the eigenvectors alone and never reads the eigenvalues, so a curve
    keeps its id through a crossing.
    """
    vals, vecs = _solve_fibers(k, ogrid, squad)
    eigenvalues, functions, ranks = _retain(vals, vecs, squad, rank_tol)
    labels = _align_labels(functions, ranks, squad.weights)
    return FiberDecomposition(
        ogrid=ogrid,
        squad=squad,
        eigenvalues=eigenvalues,
        functions=functions,
        labels=labels,
        eigensums=vals.sum(axis=1),
    )

