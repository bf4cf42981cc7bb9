"""Dense linear programming by two-phase primal simplex with Bland's rule.

Programs are stated as maximization over variables with individual bounds:

    maximize    objective @ x
    subject to  a_matrix @ x  (<= | == | >=)  rhs,   lower <= x <= upper

solve_lp reduces a program to standard form: finite lower bounds are shifted
to zero, free variables split into nonnegative pairs, finite upper bounds
become rows, and rows are negated to make every rhs nonnegative; it is the
general solver only. One simplex core, _simplex, solves that standard form, and
every stage LP (the minimax value LP and the CE LP) is stated in standard form
by its caller and solved by the core through _solve_standard.
Bland's rule (lowest eligible index for both the entering and the leaving
variable) makes the pivot sequence deterministic and cycle-free.

A basis is one tableau column per row, numbered as _simplex numbers them, and
no other module reads or builds one: _solve_standard returns the basis each
answer came from, and its callers only hand that back on the next solve of a
slightly changed program (the learners keep one per state and stage LP). If
it is still optimal, _basis_solution reads the answer from it with no pivot;
any other basis, and every call without one (solve_lp, a one-shot stage
solve), runs the core from its starting basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SimplexIterationError, SpecError

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9

LESS = "<="
EQUAL = "=="
GREATER = ">="
_SENSES = (LESS, EQUAL, GREATER)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    objective: np.ndarray
    a_matrix: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray | None
    objective_value: float | None
    # one multiplier per constraint row (maximization convention: <= rows
    # yield nonnegative duals); only set when the solve ended optimal
    row_duals: np.ndarray | None = None


@dataclass(frozen=True)
class Violation:
    kind: str  # "row", "lower", or "upper"
    index: int
    amount: float


def linear_program(
    objective,
    a_matrix=None,
    senses=(),
    rhs=(),
    lower=None,
    upper=None,
) -> LinearProgram:
    """Validating constructor. lower defaults to 0, upper to +inf; a lower
    bound of -inf marks a free variable."""
    c = np.asarray(objective, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise SpecError("objective must be a nonempty vector")
    if not np.all(np.isfinite(c)):
        raise SpecError("objective has non-finite coefficients")
    n = c.size
    if a_matrix is None:
        a = np.zeros((0, n))
    else:
        a = np.asarray(a_matrix, dtype=float)
        if a.size == 0:
            a = a.reshape(0, n)
    if a.ndim != 2 or a.shape[1] != n:
        raise SpecError(f"constraint matrix shape {a.shape} does not match {n} vars")
    if not np.all(np.isfinite(a)):
        raise SpecError("constraint matrix has non-finite coefficients")
    senses = tuple(senses)
    if len(senses) != a.shape[0]:
        raise SpecError("one sense per constraint row is required")
    for s in senses:
        if s not in _SENSES:
            raise SpecError(f"unknown sense {s!r}")
    b = np.asarray(rhs, dtype=float)
    if b.shape != (a.shape[0],):
        raise SpecError("rhs length does not match constraint count")
    if not np.all(np.isfinite(b)):
        raise SpecError("rhs has non-finite entries")
    lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if lo.shape != (n,) or hi.shape != (n,):
        raise SpecError("bound vectors must match the variable count")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo == np.inf) or np.any(
        hi == -np.inf
    ):
        raise SpecError("bounds must be finite or the appropriate infinity")
    if np.any(lo > hi):
        raise SpecError("some lower bound exceeds its upper bound")
    return LinearProgram(c, a, senses, b, lo, hi)


def _row_excess(a, senses, b, x) -> np.ndarray:
    """How far a @ x breaks each <=, >= or == row; at most 0 where a row holds."""
    excess = a @ x - b
    if senses.count(LESS) < len(senses):
        kind = np.array(senses)
        excess[kind == GREATER] *= -1.0
        np.abs(excess, out=excess, where=kind == EQUAL)
    return excess


def check_feasible(lp: LinearProgram, x, tol: float = FEAS_TOL) -> list[Violation]:
    """Every constraint broken by more than tol, rows before bounds; empty iff feasible."""
    v = np.asarray(x, dtype=float)
    if v.shape != lp.objective.shape:
        raise SpecError("point dimension does not match the program")
    rows = _row_excess(lp.a_matrix, lp.senses, lp.rhs, v)
    bounds = np.stack([lp.lower - v, v - lp.upper], axis=1)
    return ([Violation("row", int(i), float(rows[i])) for i in np.flatnonzero(rows > tol)]
            + [Violation(("lower", "upper")[k], int(j), float(bounds[j, k]))
               for j, k in np.argwhere(bounds > tol)])


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    # rank-1 elimination of the pivot column everywhere else
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _run_phase(
    tab: np.ndarray,
    basis: np.ndarray,
    obj_row: int,
    nrows: int,
    allowed: np.ndarray,
    budget: list[int],
) -> str:
    """Pivot until the objective row has no eligible entering column."""
    while True:
        obj = tab[obj_row, :-1]
        eligible = np.flatnonzero(allowed & (obj < -PIVOT_TOL))
        if eligible.size == 0:
            return OPTIMAL
        col = int(eligible[0])  # Bland: lowest index enters
        column = tab[:nrows, col]
        rows = np.flatnonzero(column > PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED
        ratios = tab[rows, -1] / column[rows]
        best = ratios.min()
        tied = rows[ratios <= best]
        row = int(tied[np.argmin(basis[tied])])  # Bland: lowest basis index leaves
        _pivot(tab, basis, row, col)
        budget[0] -= 1
        if budget[0] <= 0:
            raise SimplexIterationError(budget[1])


def _simplex(a, senses, b, c, max_iterations: int | None = None) -> tuple:
    """Maximize c @ x subject to a @ x (<= | == | >=) b, x >= 0, for a program
    already in standard form: b >= 0 and no >= row at b = 0.

    The tableau is [a | slack/surplus | artificial | b], with one slack column
    per <= and >= row and one artificial per == and >= row, each in row
    order. Phase 1 runs only when there are artificials. Returns the status,
    x, one multiplier per row, read off the final objective row: z_j - c_j
    at the row's slack (<=), surplus (>=, negated) or artificial (==), or None
    for both unless optimal, and the basis the pivots ended on (the tableau
    column of each row's basic variable). A scalar b or c stands for a
    constant vector."""
    nrows, ns = a.shape
    first_art = ns + nrows - senses.count(EQUAL)
    ncols = first_art + nrows - senses.count(LESS)
    # objective rows below the constraints: phase 2, then phase 1 if needed
    tab = np.zeros((nrows + 1 + (ncols > first_art), ncols + 1))
    tab[:nrows, :ns] = a
    tab[:nrows, -1] = b
    own = []  # each row's slack or surplus column, or its artificial for ==
    basis = []  # the slack of a <= row, the artificial of an == or >= row
    slack, art = ns, first_art
    for i, s in enumerate(senses):
        if s != EQUAL:
            tab[i, slack] = -1.0 if s == GREATER else 1.0
            slack += 1
        if s != LESS:
            tab[i, art] = tab[-1, art] = 1.0
            tab[-1] -= tab[i]  # phase-1 objective: the artificials, priced out
            art += 1
        own.append(art - 1 if s == EQUAL else slack - 1)
        basis.append(slack - 1 if s == LESS else art - 1)
    basis = np.array(basis, dtype=int)
    if max_iterations is None:
        max_iterations = 1000 + 200 * (nrows + ncols)
    budget = [max_iterations, max_iterations]
    allowed = np.ones(ncols, dtype=bool)
    p2, p1 = nrows, nrows + 1

    if ncols > first_art:
        if _run_phase(tab, basis, p1, nrows, allowed, budget) != OPTIMAL:
            raise NumericalError("phase 1 cannot be unbounded")
        if tab[p1, -1] < -FEAS_TOL:
            return INFEASIBLE, None, None, basis
        # drive leftover artificials out of the basis where possible
        for i in range(nrows):
            if basis[i] >= first_art:
                candidates = np.flatnonzero(np.abs(tab[i, :first_art]) > PIVOT_TOL)
                if candidates.size:
                    _pivot(tab, basis, i, int(candidates[0]))
        allowed[first_art:] = False  # artificials may never re-enter

    tab[p2, :ns] = -c
    if ncols > first_art:  # with only slacks in the basis the costs are already priced out
        for i in range(nrows):
            coef = tab[p2, basis[i]]
            if coef != 0.0:
                tab[p2] -= coef * tab[i]
    status = _run_phase(tab, basis, p2, nrows, allowed, budget)
    if status != OPTIMAL:
        return status, None, None, basis
    x = np.zeros(ncols)
    x[basis] = tab[:nrows, -1]
    duals = tab[p2, own]
    if GREATER in senses:
        surplus = [i for i, s in enumerate(senses) if s == GREATER]
        duals[surplus] = -duals[surplus]
    return OPTIMAL, x[:ns], duals, basis


def solve_lp(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Two-phase primal simplex. Returns status optimal/infeasible/unbounded;
    hitting the pivot cap raises SimplexIterationError instead."""
    n = lp.objective.size
    m = len(lp.senses)

    # -- variable transform: shift finite lower bounds, split each free
    # variable into adjacent columns x+ and x-, upper bounds become <= rows
    free = np.isneginf(lp.lower)
    first = np.arange(n) + np.cumsum(free) - free  # each variable's first column
    minus = first[free] + 1
    ub = np.flatnonzero(np.isfinite(lp.upper))
    ns = n + len(minus)
    nrows = m + ub.size
    a = np.zeros((nrows, ns))
    a[:m, first] = lp.a_matrix
    a[:m, minus] = -lp.a_matrix[:, free]
    a[m + np.arange(ub.size), first[ub]] = 1.0
    split_ub = free[ub]
    a[m + np.flatnonzero(split_ub), first[ub[split_ub]] + 1] = -1.0  # x+ - x- <= ub
    c = np.zeros(ns)
    c[first] = lp.objective
    c[minus] = -lp.objective[free]
    b = np.append(lp.rhs, lp.upper[ub] - np.where(split_ub, 0.0, lp.lower[ub]))
    for j in np.flatnonzero(~free & (lp.lower != 0.0)):
        b[:m] -= lp.a_matrix[:, j] * lp.lower[j]
    senses = list(lp.senses) + [LESS] * ub.size

    # -- row normalization: negate each row with rhs < 0 and each >= row at
    # rhs 0, so that b >= 0 and every >= row has a positive artificial
    row_signs = np.ones(nrows)  # -1 where a row was negated
    for i in range(nrows):
        if b[i] < 0.0 or (senses[i] == GREATER and b[i] == 0.0):
            senses[i] = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[senses[i]]
            row_signs[i] = -1.0
    a[row_signs < 0.0] *= -1.0
    b[b < 0.0] *= -1.0  # a zero rhs keeps its sign

    status, x_std, duals, _ = _simplex(a, senses, b, c, max_iterations)
    if status != OPTIMAL:
        return LpSolution(status, None, None)
    x = lp.lower + x_std[first]
    x[free] = x_std[first[free]] - x_std[minus]
    worst = max((v.amount for v in check_feasible(lp, x)), default=0.0)
    if worst > FEAS_TOL:
        raise NumericalError(f"simplex returned an infeasible point (off by {worst:g})")
    return LpSolution(OPTIMAL, x, float(lp.objective @ x), duals[:m] * row_signs[:m])


def _basis_solution(a, senses, b, c, basis) -> tuple[np.ndarray, np.ndarray] | None:
    """x and the row multipliers of max c @ x s.t. a @ x (<= | ==) b, x >= 0
    at a given basis, or None unless that basis is optimal.

    Columns are numbered as in _simplex's tableau: the structural columns,
    then one slack per <= row in row order (an == row has none); a higher
    index is an artificial, and a basis holding one, or of the wrong length
    (carried from another program), is not optimal. The basis matrix is
    built from the original columns and inverted once, so x_B = B^-1 b and
    the multipliers y = c_B B^-1 carry no pivoting history.
    The basis is optimal when x_B >= 0 and every reduced cost (y @ a - c,
    and y itself at the slacks; an == row's multiplier is free) is at least
    -PIVOT_TOL, the test that ends _run_phase; a singular basis matrix is not
    optimal. A scalar b or c stands for a constant vector."""
    m, n = a.shape
    slacks = np.eye(m)
    if EQUAL in senses:
        slacks = slacks[:, [s != EQUAL for s in senses]]
    if len(basis) != m or basis.max() >= n + slacks.shape[1]:
        return None
    columns = np.concatenate((a, slacks), axis=1)
    costs = np.zeros(columns.shape[1])
    costs[:n] = c
    factor = columns[:, basis]
    try:
        inverse = np.linalg.inv(factor)
    except np.linalg.LinAlgError:
        return None
    # one refinement step each keeps the residuals near rounding level even
    # when B is ill-conditioned (nearly equal columns of a near-constant game)
    rhs, c_basic = np.full(m, b), costs[basis]
    x_basic = inverse @ rhs
    x_basic += inverse @ (rhs - factor @ x_basic)
    duals = c_basic @ inverse
    duals += (c_basic - duals @ factor) @ inverse
    x = np.zeros(columns.shape[1])
    x[basis] = x_basic
    if x.min() < 0.0 or (duals @ columns - costs).min() < -PIVOT_TOL:
        return None
    return x[:n], duals


def _solve_standard(a, senses, b, c, what: str, basis=None) -> tuple:
    """_simplex on a program stated directly in standard form with <= and ==
    rows only, as the stage value LP and the CE LP are. Raises unless the
    solve ends optimal at a point within FEAS_TOL of every row and of x >= 0;
    returns x, the row multipliers and the basis the answer came from.

    basis, one returned by an earlier call, is tried first by _basis_solution,
    and _simplex runs only if it is not optimal for this program."""
    found = None if basis is None else _basis_solution(a, senses, b, c, basis)
    if found is not None:
        x, duals = found
    else:
        status, x, duals, basis = _simplex(a, senses, b, c)
        if status != OPTIMAL:
            raise NumericalError(f"{what} ended with status {status}")
    worst = max(float(_row_excess(a, senses, b, x).max()), float((-x).max()))
    if worst > FEAS_TOL:
        raise NumericalError(f"simplex returned an infeasible point (off by {worst:g})")
    return x, duals, basis
