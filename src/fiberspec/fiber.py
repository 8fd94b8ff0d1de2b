"""Per-fiber eigenanalysis of a kernel on the product grid.

Every parameter node gets the symmetrized collocation matrix

    A[j][l] = sqrt(w_j) * k(omega_i, t_j, t_l) * sqrt(w_l)

whose eigenvectors v recover quadrature-orthonormal eigenfunction values
x_n(t_j) = v_n[j] / sqrt(w_j).  The fibers are independent, so all of them
are solved as one stack by LAPACK's symmetric eigensolver (np.linalg.eigh),
behind the same input checks, power-of-two prescale and descending stable
order as the Jacobi solver implemented here.  That Jacobi solver, whose
rounds of rotations act on every matrix of a stack at once, is kept as the
independent oracle that verify checks the production eigenvalues against.
A separable kernel of R terms has fiber rank at most R, so its fibers are
solved as R x R (at most n x n) cores of one shared QR factorization
instead.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._record import Record
from .errors import DomainError, NoConvergence, NotSymmetric
from .grid import OmegaGrid, ScalarField, SQuadrature
from .kernel import KernelSpec, SeparableKernel, kernel_matrices

DEFAULT_EIG_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-10
MAX_SWEEPS = 64
# Eigenvalues closer than this are treated as one degenerate block when
# aligning curves across the parameter grid.
DEGENERACY_TOL = 1e-10
# Components within this relative distance of an eigenfunction's peak
# magnitude count as tied for the sign convention.
SIGN_TIE = 1e-8


def _round_robin(n):
    """Parallel ordering of Brent and Luk: rounds of disjoint (p, q) pairs.

    The circle method fixes index 0 and turns the others by one place per
    round, so the rounds cover every pair p < q exactly once.  An odd n
    gets a dummy index n whose pairs are dropped.  Returns one (p, q) pair
    of index arrays per round, with p < q elementwise.
    """
    m = n + n % 2
    turn = np.arange(m - 1)[:, None]
    players = np.zeros((turn.size, m), dtype=int)
    players[:, 1:] = (np.arange(m - 1) - turn) % (m - 1) + 1
    a, b = players[:, : m // 2], players[:, ::-1][:, : m // 2]
    p, q = np.minimum(a, b), np.maximum(a, b)
    # an odd n drops the one pair of each round that holds the dummy
    keep, shape = q < n, (turn.size, m // 2 - n % 2)
    return list(zip(p[keep].reshape(shape), q[keep].reshape(shape)))


def _sweep(A, V, skip_below, rounds):
    """One sweep of Jacobi rotations over a stack of matrices, in place.

    A has shape (F, n, n), V (F, n, n) or (F, 0, n) and skip_below
    (F, 1); rounds is _round_robin(n).  Every round rotates its disjoint
    pairs of every matrix at once: columns, then rows, then the exact
    2 x 2 block, then the columns of V, unless V has no rows.  A pair with
    |a_pq| <= skip_below gets t = 0, which leaves its entries as they are.
    """
    for p, q in rounds:
        apq = A[:, p, q]
        app = A[:, p, p]
        aqq = A[:, q, q]
        diff = aqq - app
        rotate = np.abs(apq) > skip_below
        # skipped pairs may divide by zero here; np.where discards them
        theta = diff / (2.0 * apq)
        t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
        t = np.where(theta < 0.0, -t, t)
        t = np.where(np.abs(apq) < 1e-36 * np.abs(diff), apq / diff, t)
        t = np.where(rotate, t, 0.0)
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c
        cc, sc = c[:, None, :], s[:, None, :]
        col_p, col_q = A[:, :, p], A[:, :, q]
        A[:, :, p] = cc * col_p - sc * col_q
        A[:, :, q] = sc * col_p + cc * col_q
        cr, sr = c[:, :, None], s[:, :, None]
        row_p, row_q = A[:, p, :], A[:, q, :]
        A[:, p, :] = cr * row_p - sr * row_q
        A[:, q, :] = sr * row_p + cr * row_q
        A[:, p, q] = A[:, q, p] = np.where(rotate, 0.0, apq)
        A[:, p, p] = np.where(rotate, app - t * apq, app)
        A[:, q, q] = np.where(rotate, aqq + t * apq, aqq)
        if V.shape[1]:
            vcol_p, vcol_q = V[:, :, p], V[:, :, q]
            V[:, :, p] = cc * vcol_p - sc * vcol_q
            V[:, :, q] = sc * vcol_p + cc * vcol_q


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
    from overflowing.  Up to MAX_SWEEPS sweeps of the round-robin ordering
    run until the Frobenius norm of a matrix's off-diagonal part drops to
    tol times the Frobenius norm of the matrix; a matrix that gets there
    takes no further rotations.  Returns (eigenvalues, eigenvectors) of
    shapes (..., n) and (..., n, n), with eigenvalues sorted descending and
    eigenvectors as the matching orthonormal columns.  Raises ValueError
    when the input is not a square matrix or a stack of them, DomainError
    when an entry or an eigenvalue is not finite, NotSymmetric when a
    scaled matrix is asymmetric beyond 1e-12 and NoConvergence when any
    matrix runs out of sweeps.
    """
    return _jacobi(a, tol, vectors=True)


def _jacobi(a, tol, vectors):
    """jacobi_eigh, with or without the eigenvectors.

    Without them the rotation accumulator V has no rows, so _sweep skips
    its updates of V, and the eigenvectors come back with shape
    (..., 0, n).  The eigenvalues are bitwise the same either way.
    """
    A, exponent, lead = _prepare(a)
    n = A.shape[-1]
    vals = np.empty(A.shape[:-1])
    vecs = np.empty((len(A), n if vectors else 0, n))
    live = np.arange(len(A))
    V = np.broadcast_to(np.eye(n)[: vecs.shape[1]], vecs.shape).copy()
    anorm = _frobenius(A)
    limit = tol * anorm
    skip_below = (tol * anorm * 1e-2 / max(1, n * n))[:, None]
    rounds = _round_robin(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(MAX_SWEEPS + 1):
            done = _frobenius(A, off_diagonal=True) <= limit
            vals[live[done]] = np.diagonal(A[done], axis1=1, axis2=2)
            vecs[live[done]] = V[done]
            going = ~done
            live, A, V = live[going], A[going], V[going]
            limit, skip_below = limit[going], skip_below[going]
            if not live.size:
                break
            if sweep == MAX_SWEEPS:
                raise NoConvergence(
                    f"Jacobi sweeps exhausted ({MAX_SWEEPS}) before reaching "
                    f"relative off-diagonal mass {tol:.0e}"
                )
            _sweep(A, V, skip_below, rounds)
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


def _align_labels(eigenvalues, functions, ranks, weights):
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
    more entry of every pair.  Curves absent at a fiber keep their ids
    free, and curves that appear get fresh ids.  Near-degenerate
    eigenvalues are relabeled as a block, in descending order, because
    their individual eigenvectors are arbitrary within the eigenspace.
    Returns labels in the padded layout of FiberDecomposition.
    """
    F, r_max = eigenvalues.shape
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
    gaps = (eigenvalues[:, :-1] - eigenvalues[:, 1:] >= DEGENERACY_TOL).tolist()
    rows = []
    next_id = 0
    ids = []
    for r, pairs, gap in zip(ranks.tolist(), [[-1] * r_max] + match.tolist(), gaps):
        prev, ids = ids, []
        for n in pairs[:r]:
            if n >= 0:
                ids.append(prev[n])
            else:
                ids.append(next_id)
                next_id += 1
        if r > 1 and not all(gap[: r - 1]):
            # sorting (block, id) pairs sorts the ids inside every block
            blocks = accumulate(gap[: r - 1], initial=0)
            ids = [label for _, label in sorted(zip(blocks, ids))]
        rows.append(ids + [-1] * (r_max - r))
    return np.array(rows, dtype=int)


def _solve_fibers(k: KernelSpec, ogrid, squad):
    """Eigenpairs of every fiber from one stacked LAPACK solve.

    Returns eigenvalues (F, r) and eigenvectors (F, n_s, r).  A sampled
    kernel solves the stack of its assembled n_s x n_s fiber matrices
    (r = n_s).  Every fiber matrix of a separable kernel is
    C^T diag(c(omega_i)) C with C = B diag(sqrt(w)) of shape (R, n_s).
    With the reduced QR C^T = Q Rm, the fiber is Q (Rm diag(c) Rm^T) Q^T,
    so its nonzero eigenpairs are those of the r x r core
    (r = min(R, n_s)) with eigenvectors Q U.
    """
    if not isinstance(k, SeparableKernel):
        return _eigh(fiber_matrices(k, ogrid, squad))
    C = k.basis_matrix(squad) * np.sqrt(squad.weights)
    Q, Rm = np.linalg.qr(C.T)
    curves = k.curve_matrix(ogrid)
    cores = (Rm * curves[:, None, :]) @ Rm.T
    vals, U = _eigh(0.5 * (cores + cores.transpose(0, 2, 1)))
    return vals, Q @ U


def _retain(vals, vecs, squad, rank_tol):
    """Truncate every fiber and pack it into the padded layout.

    Eigenvalues with |lambda| <= rank_tol * max(1, |lambda|_max) are
    dropped; a stable sort moves the kept slots to the front in their
    descending order, and the eigenfunction rows follow, sign-fixed: the
    gathered eigenvector rows v_n become x_n(t_j) = v_n[j] / sqrt(w_j),
    which keeps the family orthonormal in the quadrature inner product.
    Returns eigenvalues (F, r_max), functions (F, r_max, n_s) and ranks.
    """
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=1, initial=0.0))
    keep = np.abs(vals) > rank_tol * scale[:, None]
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

    Eigenvalues with |lambda| <= rank_tol * max(1, |lambda|_max(omega)) are
    dropped.  The eigenfunction sign convention makes the first component
    within SIGN_TIE of the largest magnitude positive; ties inside
    degenerate blocks are resolved during alignment.
    """
    vals, vecs = _solve_fibers(k, ogrid, squad)
    eigenvalues, functions, ranks = _retain(vals, vecs, squad, rank_tol)
    labels = _align_labels(eigenvalues, functions, ranks, squad.weights)
    return FiberDecomposition(
        ogrid=ogrid,
        squad=squad,
        eigenvalues=eigenvalues,
        functions=functions,
        labels=labels,
        eigensums=vals.sum(axis=1),
    )

