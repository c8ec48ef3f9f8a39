"""Self-contained dense linear-programming kernel for the one program
this library poses, over a local or a joint state space: minimise
``c @ x`` over the mass functions ``x`` with ``H x >= 0``.

Two-phase simplex in float64 arithmetic on a condensed (Tucker, or
Jordan-exchange) tableau: a row per constraint, a column per nonbasic
variable, and the right-hand side; the basic columns, unit vectors, are
not stored.  ``basis`` and ``nonbasic``
label the rows and columns with their variables, and a pivot exchanges
the two.  Pivoting uses Dantzig's rule and falls back to Bland's rule
after a stall, which guarantees termination on degenerate problems; both
enter the lowest label among their candidates.  The ratio test is
Harris's, which prefers large pivots.

Phase 1 does not read the objective, so it is solved once per set of
rows: :func:`phase1` returns the feasible tableau and :func:`phase2`
prices one objective over a basis of it and re-optimises.
:func:`solve` runs the two in turn; a caller that minimises many
objectives over the same rows (the global program of
:class:`credalnet.lp.GlobalPolytope`) keeps the feasible tableau and
runs only phase 2 for each.  Phase 2 starts either from a copy of the
phase-1 tableau or, warm, from the optimal tableau of an earlier
phase 2, which it re-prices and pivots in place: the steps of a root
search change the objective a little at a time, and the last optimal
basis, feasible for the same rows, is then a few pivots from the next
optimum.  A warm optimum that fails the residual check is dropped for a
phase 2 from a copy of the phase-1 tableau, and an optimum that fails it
too is refused with :class:`CapabilityError`.

Every row of ``H`` starts on its surplus, its right-hand side being
zero, and the normalisation, row 0, on the one artificial variable.  A
caller that knows a feasible point (the global program does) hands it
over as ``start``: one column, the rows times that point, then enters
the basis on row 0 in one pivot, and phase 1 is done.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapabilityError, ConvergenceError

#: Feasibility tolerance used across the library (phase-1 residual and
#: constraint slack checks).
TOL_FEAS = 1e-7

#: Pivot/reduced-cost tolerance.
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
    objective: float | None
    #: the optimal tableau of a phase 2, a warm start for the next one
    #: (see :func:`phase2`)
    tableau: FeasibleTableau | None = None


@dataclass
class FeasibleTableau:
    """The end of phase 1: a condensed tableau whose basis is feasible
    for ``sum x = 1``, ``H x >= 0``.  The labels are the caller's ``n``
    variables, a surplus per row of ``H`` and the start column, if any;
    the artificial, if phase 1 left it basic on row 0, is ``ncols``."""
    T: np.ndarray               # rows, then a zero cost row; rhs last
    basis: list                 # variable of each row
    nonbasic: np.ndarray        # variable of each column but the rhs
    ncols: int                  # labels below it may enter the basis
    n: int                      # number of the caller's variables
    H: np.ndarray               # the rows of H, (rows, n) float64
    start: np.ndarray | None    # the start point, labelled ncols - 1


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
                 ncols: int) -> str:
    """Minimize the cost row T[-1] in place.  Returns "optimal" or
    "unbounded".

    Dantzig pivoting, switching to Bland's rule when the objective stalls
    (degeneracy), which guarantees termination; each enters the lowest
    label among its candidates.  The ratio test is Harris's: the longest
    step that keeps every basic value above ``-_TOL_HARRIS``, then, among
    the rows that block within it, the largest pivot (Bland: the lowest
    basic label), so that rounding never forces a pivot on a tiny entry.
    The cost-row rhs holds the negated objective, so progress means it
    increases."""
    if T.shape[1] == 1:
        return "optimal"        # every variable is basic
    stall = 0
    best = T[-1, -1]
    bland = False
    for _ in range(_MAX_ITER):
        cost = T[-1, :-1]
        if not bland:
            col = int(cost.argmin())
            if cost[col] >= -_TOL_PIVOT:
                return "optimal"
            ties = (cost == cost[col]).nonzero()[0]
            if len(ties) > 1:
                col = int(ties[nonbasic[ties].argmin()])
        else:
            entering = (cost < -_TOL_PIVOT).nonzero()[0]
            if not len(entering):
                return "optimal"
            col = int(entering[nonbasic[entering].argmin()])

        column = T[:-1, col]
        rows = (column > _TOL_PIVOT).nonzero()[0]
        if not len(rows):
            return "unbounded"
        a = column[rows]
        rhs = np.maximum(T[rows, -1], 0)
        step = ((rhs + _TOL_HARRIS) / a).min()
        within = rhs <= step * a
        blocking = rows[within]
        if bland:
            row = int(blocking[np.argmin([basis[i] for i in blocking])])
        else:
            row = int(blocking[a[within].argmax()])
        if T[row, -1] < 0:
            T[row, -1] = 0      # a basic value rounded below zero
        _pivot(T, basis, nonbasic, ncols, row, col)

        if T[-1, -1] > best + _TOL_PIVOT:
            best = T[-1, -1]
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
    raise ConvergenceError("simplex iteration limit exceeded")


def phase1(n: int, H=None, *, start=None) -> FeasibleTableau | None:
    """Phase 1 for ``x >= 0``, ``sum x = 1``, ``H x >= 0`` over ``n``
    variables: a feasible tableau and basis, or ``None`` when the
    program is infeasible.  The objective plays no part, so one phase 1
    serves every objective over the same rows (see :func:`phase2`).

    Row 0, the normalisation, starts on the one artificial variable, and
    every row of ``H`` on its surplus.  ``start``, a point of the program
    (to ``TOL_FEAS``), adds one non-negative column, the rows times
    ``start``, and one pivot moves it into the basis on row 0; phase 1
    is then done."""
    rows = np.asarray(np.zeros((0, n)) if H is None else H,
                      dtype=float).reshape(-1, n)
    start = None if start is None else np.asarray(start, dtype=float)

    # Labels below ncols: x, a surplus per row of H, the start column;
    # the artificial is ncols.  Only x and the start column are nonbasic.
    m = len(rows) + 1
    ncols = n + m - 1 + (start is not None)
    k = n + (start is not None)
    nonbasic = np.arange(k)
    nonbasic[n:] = ncols - 1
    entries = (m + 1) * (k + 1)
    if entries * 8 > MAX_TABLEAU_BYTES:
        raise CapabilityError(
            f"simplex tableau of {entries * 8 / 2**20:.0f} MiB exceeds the "
            f"{MAX_TABLEAU_BYTES // 2**20} MiB bound")
    T = np.zeros((m + 1, k + 1))
    T[0, :n] = T[0, -1] = 1.0
    T[1:m, :n] = rows
    if start is not None:
        T[:m, n] = T[:m, :n] @ start
    # The rows of H start on their surplus: negate them in place, as a
    # copy would be as large as the tableau.
    T[1:m] *= -1
    basis = [ncols, *range(n, n + m - 1)]
    # phase-1 cost: the artificial, expressed over the current basis
    T[-1] = -T[0]

    if start is not None and T[0, n] > _TOL_PIVOT:
        # start satisfies every row, so they all stay feasible
        _pivot(T, basis, nonbasic, ncols, 0, n)

    status = _run_simplex(T, basis, nonbasic, ncols)
    if status != "optimal" or T[-1, -1] < -TOL_FEAS:
        return None

    # Drive a lingering artificial out of the basis where possible, for
    # the lowest label with a nonzero entry in its row: row 0, where it
    # starts, as it never re-enters once it has left.
    if basis[0] >= ncols:
        nz = (abs(T[0, :-1]) > _TOL_PIVOT).nonzero()[0]
        if len(nz):
            _pivot(T, basis, nonbasic, ncols, 0,
                   int(nz[nonbasic[nz].argmin()]))

    # Drop the artificial's column: it may not re-enter in phase 2.
    keep = nonbasic < ncols
    F = T[:, np.append(keep, True)]
    F[-1, :] = 0.0
    return FeasibleTableau(F, basis, nonbasic[keep], ncols, n, rows, start)


def phase2(tableau: FeasibleTableau, c,
           warm: FeasibleTableau | None = None) -> SimplexResult:
    """Minimize ``c @ x`` from a feasible tableau of :func:`phase1`,
    which is left unchanged.

    ``warm``, the :attr:`SimplexResult.tableau` of an earlier phase 2
    from the same phase-1 tableau, is re-priced for ``c`` and pivoted in
    place: its basis is feasible for the same rows, so a nearby
    objective is a few pivots away.  A warm solve that ends anywhere but
    at an optimum that passes the residual check is dropped, and phase 2
    reruns from a copy of ``tableau``; an optimum that fails the check
    again, the tableau having degraded on tiny pivots, is refused with
    :class:`CapabilityError`.

    A start column is priced at ``c @ start``, and the minimiser is
    ``x' + t * start``, where ``x'`` holds the values of the caller's
    columns and ``t`` that of the start column.  The residual check runs
    against the rows of ``H``."""
    c = np.asarray(c, dtype=float)
    if warm is not None:
        res = _optimise(warm, c)
        if res.status == "optimal" and _residuals_ok(res.x, tableau.H):
            return res
    res = _optimise(replace(tableau, T=tableau.T.copy(),
                            basis=list(tableau.basis),
                            nonbasic=tableau.nonbasic.copy()), c)
    if res.status == "optimal" and not _residuals_ok(res.x, tableau.H):
        raise CapabilityError(
            "simplex optimum fails the residual check (a bound or row "
            f"violated by more than {TOL_FEAS:g})")
    return res


def _optimise(tableau: FeasibleTableau, c) -> SimplexResult:
    """Price ``c`` over the tableau's basis and run the simplex on it, in
    place."""
    n, ncols = tableau.n, tableau.ncols
    T, basis, nonbasic = tableau.T, tableau.basis, tableau.nonbasic
    m = T.shape[0] - 1
    # The cost row is the price of each column's variable less c_B times
    # the column.  The price of the artificial, which only row 0 can
    # still hold after phase 1, and of the rhs is the spare last entry of
    # ``cost``, zero; an artificial's value goes to the spare last entry
    # of ``xs``, which is never read.
    cost = np.zeros(ncols + 1)
    cost[:n] = c
    if tableau.start is not None:
        cost[ncols - 1] = c @ tableau.start
    slots = np.minimum(np.array(basis, dtype=np.intp), ncols)
    T[-1, :-1] = cost[np.minimum(nonbasic, ncols)]
    T[-1, -1] = 0.0
    T[-1] -= cost[slots] @ T[:m]

    status = _run_simplex(T, basis, nonbasic, ncols)
    if status == "unbounded":   # on a bounded program, float breakdown
        return SimplexResult("unbounded", None, None)

    xs = np.zeros(ncols + 1)
    slots = np.minimum(np.array(basis, dtype=np.intp), ncols)
    xs[slots] = T[:m, -1]
    x = xs[:n]
    if tableau.start is not None:
        x = x + xs[ncols - 1] * tableau.start
    return SimplexResult("optimal", x, c @ x, tableau)


def solve(c, H=None) -> SimplexResult:
    """Minimize ``c @ x`` over ``x >= 0``, ``sum x = 1``, ``H x >= 0``."""
    tableau = phase1(len(c), H)
    if tableau is None:
        return SimplexResult("infeasible", None, None)
    return phase2(tableau, c)


def _residuals_ok(x: np.ndarray, H: np.ndarray) -> bool:
    return x.min() >= -TOL_FEAS and abs(x.sum() - 1.0) <= TOL_FEAS and (
        not len(H) or (H @ x).min() >= -TOL_FEAS)
