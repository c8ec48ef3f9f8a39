"""Self-contained dense linear-programming kernel.

Two-phase tableau simplex over either float64 or exact ``Fraction``
arithmetic.  Pivoting uses Dantzig's rule and falls back to Bland's rule
after a stall, which guarantees termination on degenerate problems.  The
problems handled here are desk scale (a few thousand rows at most), so a
dense tableau is both the simplest and the fastest option.

Phase 1 does not read the objective, so it is solved once per
constraint system: :func:`phase1` returns the feasible tableau and
:func:`phase2` re-optimises a copy of it for one objective.
:func:`solve` runs the two in turn; a caller that minimises many
objectives over the same constraints (the global program of
:class:`credalnet.lp.GlobalPolytope`) keeps the feasible tableau and
runs only phase 2 for each.

The solver accepts free variables (split internally into a difference of
non-negatives) because the global polytope of a credal network is posed
without explicit non-negativity rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapabilityError, ConvergenceError

#: Feasibility tolerance used across the library (phase-1 residual and
#: constraint slack checks).
TOL_FEAS = 1e-7

#: Pivot/reduced-cost tolerance of the float kernel.
_TOL_PIVOT = 1e-10

#: Iterations of no objective progress before switching to Bland's rule.
_STALL_LIMIT = 50

_MAX_ITER = 50_000

#: Bound on the phase-1 tableau, (rows + 1) x (columns + rows + 1) float64
#: entries.  Each pivot subtracts an outer product as large as the
#: tableau, so phase 1 holds about twice this at its peak, besides the
#: constraint rows themselves: 256 MiB keeps a solve under 1 GiB.  A
#: pivot then sweeps 2^25 entries (about 0.2 s on a 2-CPU VM) and a solve
#: takes about as many pivots as there are rows, so larger programs
#: would not finish in desk time either.
MAX_TABLEAU_BYTES = 2 ** 28


@dataclass
class SimplexResult:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None        # primal solution in the caller's variables
    objective: float | Fraction | None


@dataclass
class FeasibleTableau:
    """The end of phase 1: a tableau whose basis is feasible for the
    constraints, with the artificial columns removed."""
    T: np.ndarray               # rows, then a zero cost row; rhs last
    basis: list                 # basic column of each row
    n: int                      # number of the caller's variables
    nonneg: bool
    exact: bool
    constraints: tuple          # (A_eq, b_eq, A_ub, b_ub) as given


def _to_fraction_array(a) -> np.ndarray:
    out = np.empty(np.shape(a), dtype=object)
    flat_in = np.asarray(a).ravel()
    flat_out = out.ravel()
    for i, v in enumerate(flat_in):
        flat_out[i] = v if isinstance(v, Fraction) else Fraction(float(v))
    return out


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    piv = T[row, col]
    T[row] = T[row] / piv
    colvals = T[:, col].copy()
    colvals[row] = 0
    T -= np.outer(colvals, T[row])
    # kill drift in the pivot column
    T[:, col] = 0
    T[row, col] = 1


def _run_simplex(T: np.ndarray, basis: list, ncols: int, tol) -> str:
    """Minimize the cost row T[-1] in place.  Columns [0, ncols) may enter.
    Returns "optimal" or "unbounded".

    Dantzig pivoting with a largest-pivot tie-break in the ratio test;
    switches to Bland's rule when the objective stalls (degeneracy), which
    guarantees termination.  The cost-row rhs holds the negated objective,
    so progress means it increases."""
    stall = 0
    best = T[-1, -1]
    bland = False
    for _ in range(_MAX_ITER):
        cost = T[-1, :ncols]
        if not bland:
            col = int(np.argmin(cost))
            if cost[col] >= -tol:
                return "optimal"
        else:
            col = -1
            for j in range(ncols):
                if cost[j] < -tol:
                    col = j
                    break
            if col < 0:
                return "optimal"

        pivots = T[:-1, col]
        best_ratio = None
        for i in range(T.shape[0] - 1):
            if pivots[i] > tol:
                r = T[i, -1] / pivots[i]
                if best_ratio is None or r < best_ratio:
                    best_ratio = r
        if best_ratio is None:
            return "unbounded"
        window = best_ratio + (0 if tol == 0 else 1e-9 * (1.0 + abs(best_ratio)))
        row = -1
        for i in range(T.shape[0] - 1):
            if pivots[i] > tol and T[i, -1] / pivots[i] <= window:
                if row < 0:
                    row = i
                elif bland:
                    if basis[i] < basis[row]:
                        row = i
                elif pivots[i] > pivots[row]:
                    row = i

        _pivot(T, row, col)
        basis[row] = col

        if T[-1, -1] > best + tol:
            best = T[-1, -1]
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
    raise ConvergenceError("simplex iteration limit exceeded")


def phase1(n: int, A_eq=None, b_eq=None, A_ub=None, b_ub=None, *,
           nonneg: bool = False, exact: bool = False) -> FeasibleTableau | None:
    """Phase 1 for ``A_eq x = b_eq``, ``A_ub x >= b_ub`` over ``n``
    variables: a feasible tableau and basis, or ``None`` when the system
    is infeasible.  The objective plays no part, so one phase 1 serves
    every objective over the same constraints (see :func:`phase2`)."""
    constraints = (A_eq, b_eq, A_ub, b_ub)
    conv = _to_fraction_array if exact else (
        lambda a: np.asarray(a, dtype=float))
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    tol = Fraction(0) if exact else _TOL_PIVOT

    rows = []
    n_surplus = 0
    if A_eq is not None and len(A_eq):
        A_eq = conv(A_eq)
        b_eq = conv(b_eq)
        for i in range(A_eq.shape[0]):
            rows.append(("eq", A_eq[i], b_eq[i]))
    if A_ub is not None and len(A_ub):
        A_ub = conv(A_ub)
        b_ub = conv(b_ub)
        n_surplus = A_ub.shape[0]
        for i in range(A_ub.shape[0]):
            rows.append(("ub", A_ub[i], b_ub[i]))
    m = len(rows)

    # Standard-form columns: x (split in two when free), then surpluses,
    # then one artificial per row, then the rhs.
    n_var = n if nonneg else 2 * n
    ncols = n_var + n_surplus
    size = (m + 1) * (ncols + m + 1) * 8
    if size > MAX_TABLEAU_BYTES:
        raise CapabilityError(
            f"simplex tableau of {size / 2**20:.0f} MiB exceeds the "
            f"{MAX_TABLEAU_BYTES // 2**20} MiB bound")
    dtype = object if exact else float
    T = np.zeros((m + 1, ncols + m + 1), dtype=dtype)
    if exact:
        T[:, :] = zero
    A = T[:m, :ncols]
    b = T[:m, -1]
    si = 0
    for i, (kind, arow, bi) in enumerate(rows):
        if nonneg:
            A[i, :n] = arow
        else:
            A[i, :n] = arow
            A[i, n:2 * n] = -arow
        if kind == "ub":
            A[i, n_var + si] = -one
            si += 1
        b[i] = bi

    # Phase 1: flip rows to make rhs non-negative, add artificials.
    for i in range(m):
        if b[i] < zero:
            A[i] = -A[i]
            b[i] = -b[i]

    T[:m, ncols:ncols + m] = np.eye(m, dtype=dtype) if not exact else \
        _to_fraction_array(np.eye(m))
    # phase-1 cost: sum of artificials, expressed over the current basis
    T[-1, :ncols] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = [ncols + i for i in range(m)]

    status = _run_simplex(T, basis, ncols, tol)
    if status != "optimal" or T[-1, -1] < -(zero + (0 if exact else TOL_FEAS)):
        return None

    # Drive lingering artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= ncols:
            for j in range(ncols):
                if (T[i, j] > tol) or (T[i, j] < -tol):
                    _pivot(T, i, j)
                    basis[i] = j
                    break
        # else: redundant row, harmless to keep with its artificial at zero

    # Slice off the artificial columns: none may re-enter in phase 2.  An
    # artificial left on a redundant row keeps its index, which is >= ncols.
    F = np.empty((m + 1, ncols + 1), dtype=dtype)
    F[:, :ncols] = T[:, :ncols]
    F[:, -1] = T[:, -1]
    F[-1, :] = zero
    return FeasibleTableau(F, basis, n, nonneg, exact, constraints)


def phase2(tableau: FeasibleTableau, c) -> SimplexResult:
    """Minimize ``c @ x`` from a feasible tableau of :func:`phase1`,
    which is left unchanged."""
    exact, nonneg, n = tableau.exact, tableau.nonneg, tableau.n
    c = _to_fraction_array(c) if exact else np.asarray(c, dtype=float)
    zero = Fraction(0) if exact else 0.0
    tol = Fraction(0) if exact else _TOL_PIVOT
    T = tableau.T.copy()
    basis = list(tableau.basis)
    m = T.shape[0] - 1
    ncols = T.shape[1] - 1

    # Price in c over the feasible basis.
    T[-1, :n] = c
    if not nonneg:
        T[-1, n:2 * n] = -c
    for i in range(m):
        if basis[i] < ncols and (T[-1, basis[i]] > tol or T[-1, basis[i]] < -tol):
            T[-1] -= T[-1, basis[i]] * T[i]

    status = _run_simplex(T, basis, ncols, tol)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None)

    xs = np.zeros(ncols, dtype=T.dtype)
    if exact:
        xs[:] = zero
    for i in range(m):
        if basis[i] < ncols:
            xs[basis[i]] = T[i, -1]
    x = xs[:n] if nonneg else xs[:n] - xs[n:2 * n]
    if not exact and not _residuals_ok(x, tableau.constraints, nonneg):
        # the float tableau degraded (tiny pivots); redo in exact arithmetic
        return _solve_exact_as_float(c, tableau.constraints, nonneg)
    return SimplexResult("optimal", x, c @ x)


def solve(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, *,
          nonneg: bool = False, exact: bool = False) -> SimplexResult:
    """Minimize ``c @ x`` subject to ``A_eq x = b_eq`` and ``A_ub x >= b_ub``.

    Variables are free unless ``nonneg`` is set.  With ``exact=True`` all
    data is converted to ``Fraction`` and the pivoting is performed in
    exact rational arithmetic (slow; adjudication use only).
    """
    tableau = phase1(len(c), A_eq, b_eq, A_ub, b_ub, nonneg=nonneg,
                     exact=exact)
    if tableau is None:
        return SimplexResult("infeasible", None, None)
    return phase2(tableau, c)


def _residuals_ok(x, constraints, nonneg: bool) -> bool:
    A_eq, b_eq, A_ub, b_ub = constraints
    if nonneg and np.asarray(x, dtype=float).min() < -TOL_FEAS:
        return False
    if A_eq is not None and len(A_eq):
        res = np.asarray(A_eq, dtype=float) @ x - np.asarray(b_eq, dtype=float)
        if np.abs(res).max() > TOL_FEAS:
            return False
    if A_ub is not None and len(A_ub):
        res = np.asarray(A_ub, dtype=float) @ x - np.asarray(b_ub, dtype=float)
        if res.min() < -TOL_FEAS:
            return False
    return True


def _solve_exact_as_float(c, constraints, nonneg: bool) -> SimplexResult:
    res = solve(c, *constraints, nonneg=nonneg, exact=True)
    if res.status != "optimal":
        return res
    x = np.array([float(v) for v in res.x])
    return SimplexResult("optimal", x, float(res.objective))
