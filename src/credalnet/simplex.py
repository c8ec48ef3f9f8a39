"""Self-contained dense linear-programming kernel.

Two-phase simplex over either float64 or exact ``Fraction`` arithmetic
on a condensed (Tucker, or Jordan-exchange) tableau: a row per
constraint, a column per nonbasic variable, and the right-hand side; the
basic columns, unit vectors, are not stored.  ``basis`` and ``nonbasic``
label the rows and columns with their variables, and a pivot exchanges
the two.  Pivoting uses Dantzig's rule and falls back to Bland's rule
after a stall, which guarantees termination on degenerate problems; both
enter the lowest label among their candidates.  The float ratio test is
Harris's, which prefers large pivots.

Phase 1 does not read the objective, so it is solved once per
constraint system: :func:`phase1` returns the feasible tableau and
:func:`phase2` prices one objective over a basis of it and
re-optimises.  :func:`solve` runs the two in turn; a caller that
minimises many objectives over the same constraints (the global program
of :class:`credalnet.lp.GlobalPolytope`) keeps the feasible tableau and
runs only phase 2 for each.  Phase 2 starts either from a copy of the
phase-1 tableau or, warm, from the optimal tableau of an earlier
phase 2, which it re-prices and pivots in place: the steps of a root
search change the objective a little at a time, and the last optimal
basis, feasible for the same rows, is then a few pivots from the next
optimum.  A warm optimum that fails the residual check is dropped for a
phase 2 from a copy of the phase-1 tableau, and only an optimum that
fails it too is redone in exact arithmetic.

Phase 1 starts every ``>=`` row with a right-hand side of at most zero
on its surplus, and adds an artificial variable only to the other rows.
A caller that knows a feasible point hands it over as ``start``: one
column, the constraint matrix times that point, then enters the basis
on an artificial row in one pivot.  The global program has one such
row, its normalisation, and a known point, the Bayesian network built
from one member of each local set, so its phase 1 is that one pivot.

Every program is posed over non-negative variables.  The programs of
this library range over mass functions, so ``x >= 0`` belongs to each
of them, and no caller states it as rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import CapabilityError, ConvergenceError

#: Feasibility tolerance used across the library (phase-1 residual and
#: constraint slack checks).
TOL_FEAS = 1e-7

#: Pivot/reduced-cost tolerance of the float kernel.
_TOL_PIVOT = 1e-10

#: How far below zero the ratio test lets a basic value go, so that it
#: can pick a larger pivot (Harris's ratio test).
_TOL_HARRIS = 1e-9

#: Iterations of no objective progress before switching to Bland's rule.
_STALL_LIMIT = 50

_MAX_ITER = 50_000

#: Bound on the phase-1 tableau, (rows + 1) x (nonbasic + 1) float64
#: entries; on the global program, (rows + 2) x (joint states + 2),
#: about as large as its rows.  On a 2-CPU VM one phase 2 takes 2-5 s on
#: 9-node random binary networks (6-10 MiB) and 15-22 s on 10-node ones
#: (23-29 MiB), beyond the 10 s deadline of the benchmark's conditional
#: queries: 16 MiB lets the first through and refuses the second.
MAX_TABLEAU_BYTES = 2 ** 24


@dataclass
class SimplexResult:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None        # primal solution in the caller's variables
    objective: float | Fraction | None
    #: the optimal tableau of a phase 2, a warm start for the next one
    #: (see :func:`phase2`)
    tableau: FeasibleTableau | None = None


@dataclass
class FeasibleTableau:
    """The end of phase 1: a condensed tableau whose basis is feasible
    for the constraints.  The labels are the caller's ``n`` variables, a
    surplus per ``>=`` row and the start column, if any; an artificial
    left basic on a redundant row has a label of ``ncols`` or more."""
    T: np.ndarray               # rows, then a zero cost row; rhs last
    basis: list                 # variable of each row
    nonbasic: np.ndarray        # variable of each column but the rhs
    ncols: int                  # labels below it may enter the basis
    n: int                      # number of the caller's variables
    exact: bool
    constraints: tuple          # (A_eq, b_eq, A_ub, b_ub) as given
    start: np.ndarray | None    # the start point, labelled ncols - 1


def _to_fraction_array(a) -> np.ndarray:
    out = np.empty(np.shape(a), dtype=object)
    flat_in = np.asarray(a).ravel()
    flat_out = out.ravel()
    for i, v in enumerate(flat_in):
        flat_out[i] = v if isinstance(v, Fraction) else Fraction(float(v))
    return out


def _pivot(T: np.ndarray, basis: list, nonbasic: np.ndarray, ncols: int,
           row: int, col: int) -> None:
    """Exchange the basic variable of ``row`` with the nonbasic one of
    ``col``, whose column then holds the leaving variable.  An artificial
    that leaves gets a zero column instead: no pivot changes it, so its
    reduced cost stays zero and it never re-enters."""
    piv = T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0
    T[:, col] = 0
    T[row, col] = 1
    T[row] /= piv
    T -= colvals[:, None] * T[row]
    basis[row], nonbasic[col] = int(nonbasic[col]), basis[row]
    if nonbasic[col] >= ncols:
        T[:, col] = 0


def _run_simplex(T: np.ndarray, basis: list, nonbasic: np.ndarray,
                 ncols: int, tol) -> str:
    """Minimize the cost row T[-1] in place.  Returns "optimal" or
    "unbounded".

    Dantzig pivoting, switching to Bland's rule when the objective stalls
    (degeneracy), which guarantees termination; each enters the lowest
    label among its candidates.  The ratio test is Harris's: the longest
    step that keeps every basic value above ``-_TOL_HARRIS``, then, among
    the rows that block within it, the largest pivot (Bland: the lowest
    basic label), so that rounding never forces a pivot on a tiny entry.
    In exact arithmetic it is the plain minimum ratio.  The cost-row rhs
    holds the negated objective, so progress means it increases."""
    if T.shape[1] == 1:
        return "optimal"        # every variable is basic
    harris = 0 if tol == 0 else _TOL_HARRIS
    stall = 0
    best = T[-1, -1]
    bland = False
    for _ in range(_MAX_ITER):
        cost = T[-1, :-1]
        if not bland:
            col = int(cost.argmin())
            if cost[col] >= -tol:
                return "optimal"
            ties = (cost == cost[col]).nonzero()[0]
            if len(ties) > 1:
                col = int(ties[nonbasic[ties].argmin()])
        else:
            entering = (cost < -tol).nonzero()[0]
            if not len(entering):
                return "optimal"
            col = int(entering[nonbasic[entering].argmin()])

        column = T[:-1, col]
        rows = (column > tol).nonzero()[0]
        if not len(rows):
            return "unbounded"
        a = column[rows]
        rhs = np.maximum(T[rows, -1], 0)
        step = ((rhs + harris) / a).min()
        within = rhs <= step * a
        blocking = rows[within]
        if bland:
            row = int(blocking[np.argmin([basis[i] for i in blocking])])
        else:
            row = int(blocking[a[within].argmax()])
        if T[row, -1] < 0:
            T[row, -1] = 0      # a basic value rounded below zero
        _pivot(T, basis, nonbasic, ncols, row, col)

        if T[-1, -1] > best + tol:
            best = T[-1, -1]
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
    raise ConvergenceError("simplex iteration limit exceeded")


def phase1(n: int, A_eq=None, b_eq=None, A_ub=None, b_ub=None, *,
           exact: bool = False, start=None) -> FeasibleTableau | None:
    """Phase 1 for ``A_eq x = b_eq``, ``A_ub x >= b_ub`` over ``n``
    non-negative variables: a feasible tableau and basis, or ``None``
    when the system is infeasible.  The objective plays no part, so one
    phase 1 serves every objective over the same constraints (see
    :func:`phase2`).

    A ``>=`` row whose right-hand side is at most zero is negated, so
    that its surplus starts in the basis; only the other rows get an
    artificial variable.  ``start``, a point that satisfies the
    constraints (to ``TOL_FEAS`` in float arithmetic), adds one
    non-negative column, the constraint matrix times ``start``, and one
    pivot moves it into the basis on an artificial row; with a single
    artificial row, as on the global program, phase 1 is then done."""
    constraints = (A_eq, b_eq, A_ub, b_ub)
    conv = _to_fraction_array if exact else (
        lambda a: np.asarray(a, dtype=float))
    start = None if start is None else conv(start)
    dtype = object if exact else float
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    tol = Fraction(0) if exact else _TOL_PIVOT

    def block(A, b):
        if A is None or not len(A):
            return np.zeros((0, n), dtype=dtype), np.zeros(0, dtype=dtype)
        return conv(A).reshape(-1, n), conv(b).reshape(-1)

    A_eq, b_eq = block(A_eq, b_eq)
    A_ub, b_ub = block(A_ub, b_ub)
    m_eq, n_surplus = len(b_eq), len(b_ub)
    m = m_eq + n_surplus
    on_surplus = np.zeros(m, dtype=bool)
    on_surplus[m_eq:] = b_ub <= zero
    art = (~on_surplus).nonzero()[0]

    # Labels below ncols: x, the surpluses, the start column; then an
    # artificial per row of ``art``, which starts on it.  The other rows
    # start on their surplus, and every other variable is nonbasic.
    col_start = n + n_surplus
    ncols = col_start + (start is not None)
    off = art[art >= m_eq]
    free = np.ones(ncols, dtype=bool)
    free[n:col_start] = ~on_surplus[m_eq:]
    nonbasic = free.nonzero()[0]
    k = len(nonbasic)
    size = (m + 1) * (k + 1) * 8
    if size > MAX_TABLEAU_BYTES:
        raise CapabilityError(
            f"simplex tableau of {size / 2**20:.0f} MiB exceeds the "
            f"{MAX_TABLEAU_BYTES // 2**20} MiB bound")
    T = np.zeros((m + 1, k + 1), dtype=dtype)
    if exact:
        T[:, :] = zero
    T[:m_eq, :n] = A_eq
    T[m_eq:m, :n] = A_ub
    T[off, n + np.arange(len(off))] = -one
    if start is not None:
        T[:m, k - 1] = T[:m, :n] @ start
    T[:m_eq, -1] = b_eq
    T[m_eq:m, -1] = b_ub
    # Negate the surplus-basis rows, and flip the others to rhs >= 0, in
    # place: a copy would be as large as the tableau.
    T[:m] *= np.where(on_surplus | (T[:m, -1] < zero), -1, 1)[:, None]
    basis = [n + i - m_eq for i in range(m)]
    for j, i in enumerate(art):
        basis[i] = ncols + j
    # phase-1 cost: sum of artificials, expressed over the current basis
    T[-1, :-1] = -T[art, :-1].sum(axis=0)
    T[-1, -1] = -T[art, -1].sum()

    if start is not None:
        # the ratio test over the artificial rows keeps every row
        # feasible, because start satisfies them all
        rows = art[T[art, k - 1] > tol]
        if len(rows):
            row = rows[np.argmin(T[rows, -1] / T[rows, k - 1])]
            _pivot(T, basis, nonbasic, ncols, int(row), k - 1)

    status = _run_simplex(T, basis, nonbasic, ncols, tol)
    if status != "optimal" or T[-1, -1] < -(zero + (0 if exact else TOL_FEAS)):
        return None

    # Drive lingering artificials out of the basis where possible, each
    # for the lowest label with a nonzero entry in its row.
    for i in range(m):
        if basis[i] >= ncols:
            nz = ((T[i, :-1] > tol) | (T[i, :-1] < -tol)).nonzero()[0]
            if len(nz):
                _pivot(T, basis, nonbasic, ncols, i,
                          int(nz[nonbasic[nz].argmin()]))
        # else: redundant row, harmless to keep with its artificial at zero

    # Drop the artificials' columns: none may re-enter in phase 2.
    keep = nonbasic < ncols
    F = T[:, np.append(keep, True)]
    F[-1, :] = zero
    return FeasibleTableau(F, basis, nonbasic[keep], ncols, n, exact,
                           constraints, start)


def phase2(tableau: FeasibleTableau, c,
           warm: FeasibleTableau | None = None) -> SimplexResult:
    """Minimize ``c @ x`` from a feasible tableau of :func:`phase1`,
    which is left unchanged.

    ``warm``, the :attr:`SimplexResult.tableau` of an earlier float
    phase 2 from the same phase-1 tableau, is re-priced for ``c`` and
    pivoted in place: its basis is feasible for the same rows, so a
    nearby objective is a few pivots away.  A warm solve that ends
    anywhere but at an optimum that passes the residual check is
    dropped, and phase 2 reruns from a copy of ``tableau``; only an
    optimum that fails the check again goes to exact arithmetic.

    A start column is priced at ``c @ start``, and the minimiser is
    ``x' + t * start``, where ``x'`` holds the values of the caller's
    columns and ``t`` that of the start column.  The residual check and
    the exact fallback run against the constraints as given."""
    c = _to_fraction_array(c) if tableau.exact else np.asarray(c, dtype=float)
    if warm is not None:
        res = _optimise(warm, c)
        if res.status == "optimal" and _residuals_ok(res.x,
                                                     tableau.constraints):
            return res
    res = _optimise(replace(tableau, T=tableau.T.copy(),
                            basis=list(tableau.basis),
                            nonbasic=tableau.nonbasic.copy()), c)
    if res.status == "optimal" and not tableau.exact and not _residuals_ok(
            res.x, tableau.constraints):
        # the float tableau degraded (tiny pivots); redo in exact arithmetic
        return _solve_exact_as_float(c, tableau.constraints)
    return res


def _optimise(tableau: FeasibleTableau, c) -> SimplexResult:
    """Price ``c`` over the tableau's basis and run the simplex on it, in
    place."""
    exact, n, ncols = tableau.exact, tableau.n, tableau.ncols
    T, basis, nonbasic = tableau.T, tableau.basis, tableau.nonbasic
    m = T.shape[0] - 1
    # The cost row is the price of each column's variable less c_B times
    # the column.  The price of an artificial, which only a redundant row
    # can hold after phase 1, and of the rhs is the spare last entry of
    # ``cost``, zero; an artificial's value goes to the spare last entry
    # of ``xs``, which is never read.
    zero = Fraction(0) if exact else 0.0
    cost = np.full(ncols + 1, zero, dtype=T.dtype)
    cost[:n] = c
    if tableau.start is not None:
        cost[ncols - 1] = c @ tableau.start
    slots = np.minimum(np.array(basis, dtype=np.intp), ncols)
    T[-1, :-1] = cost[np.minimum(nonbasic, ncols)]
    T[-1, -1] = zero
    T[-1] -= cost[slots] @ T[:m]

    status = _run_simplex(T, basis, nonbasic, ncols,
                          zero if exact else _TOL_PIVOT)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None)

    xs = np.full(ncols + 1, zero, dtype=T.dtype)
    slots = np.minimum(np.array(basis, dtype=np.intp), ncols)
    xs[slots] = T[:m, -1]
    x = xs[:n]
    if tableau.start is not None:
        x = x + xs[ncols - 1] * tableau.start
    return SimplexResult("optimal", x, c @ x, tableau)


def solve(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, *,
          exact: bool = False) -> SimplexResult:
    """Minimize ``c @ x`` subject to ``A_eq x = b_eq``, ``A_ub x >= b_ub``
    and ``x >= 0``.

    With ``exact=True`` all data is converted to ``Fraction`` and the
    pivoting is performed in exact rational arithmetic (slow;
    adjudication use only).
    """
    tableau = phase1(len(c), A_eq, b_eq, A_ub, b_ub, exact=exact)
    if tableau is None:
        return SimplexResult("infeasible", None, None)
    return phase2(tableau, c)


def _residuals_ok(x, constraints) -> bool:
    A_eq, b_eq, A_ub, b_ub = constraints
    if np.asarray(x, dtype=float).min() < -TOL_FEAS:
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


def _solve_exact_as_float(c, constraints) -> SimplexResult:
    res = solve(c, *constraints, exact=True)
    if res.status != "optimal":
        return res
    x = np.array([float(v) for v in res.x])
    return SimplexResult("optimal", x, float(res.objective))
