"""Dense linear programming by two-phase primal simplex with Bland's rule.

Programs are stated as maximization over variables with individual bounds:

    maximize    objective @ x
    subject to  a_matrix @ x  (<= | == | >=)  rhs,   lower <= x <= upper

Internally everything is reduced to standard form: finite lower bounds are
shifted to zero, free variables are split into differences of nonnegative
pairs, finite upper bounds become extra rows. Bland's rule (lowest eligible
index for both the entering and the leaving variable) makes the pivot
sequence deterministic and cycle-free.
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


def check_feasible(lp: LinearProgram, x, tol: float = FEAS_TOL) -> list[Violation]:
    """Every constraint violated by strictly more than tol. Empty iff feasible."""
    v = np.asarray(x, dtype=float)
    if v.shape != lp.objective.shape:
        raise SpecError("point dimension does not match the program")
    out: list[Violation] = []
    if lp.a_matrix.shape[0]:
        resid = lp.a_matrix @ v - lp.rhs
        for i, s in enumerate(lp.senses):
            r = resid[i]
            if s == LESS and r > tol:
                out.append(Violation("row", i, float(r)))
            elif s == GREATER and -r > tol:
                out.append(Violation("row", i, float(-r)))
            elif s == EQUAL and abs(r) > tol:
                out.append(Violation("row", i, float(abs(r))))
    for j in range(v.size):
        if lp.lower[j] - v[j] > tol:
            out.append(Violation("lower", j, float(lp.lower[j] - v[j])))
        if v[j] - lp.upper[j] > tol:
            out.append(Violation("upper", j, float(v[j] - lp.upper[j])))
    return out


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


def solve_lp(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Two-phase primal simplex. Returns status optimal/infeasible/unbounded;
    hitting the pivot cap raises SimplexIterationError instead."""
    n = lp.objective.size
    m = len(lp.senses)

    # -- variable transform: shift finite lower bounds, split free variables
    ns = int(np.sum(np.where(np.isneginf(lp.lower), 2, 1)))
    a_s = np.zeros((m, ns))
    c_s = np.zeros(ns)
    b_adj = lp.rhs.astype(float).copy()
    var_map: list[tuple] = []  # ("shift", col, lb) | ("split", col)
    upper_rows: list[tuple[int, float]] = []  # (first col, bound on shifted var)
    col = 0
    for j in range(n):
        aj = lp.a_matrix[:, j] if m else np.zeros(0)
        if np.isneginf(lp.lower[j]):
            a_s[:, col] = aj
            a_s[:, col + 1] = -aj
            c_s[col] = lp.objective[j]
            c_s[col + 1] = -lp.objective[j]
            var_map.append(("split", col))
            if np.isfinite(lp.upper[j]):
                upper_rows.append((col, lp.upper[j]))
            col += 2
        else:
            a_s[:, col] = aj
            c_s[col] = lp.objective[j]
            var_map.append(("shift", col, lp.lower[j]))
            if lp.lower[j] != 0.0 and m:
                b_adj -= aj * lp.lower[j]
            if np.isfinite(lp.upper[j]):
                upper_rows.append((col, lp.upper[j] - lp.lower[j]))
            col += 1

    rows: list[tuple[np.ndarray, str, float]] = [
        (a_s[i], lp.senses[i], float(b_adj[i])) for i in range(m)
    ]
    split_cols = {item[1] for item in var_map if item[0] == "split"}
    for col0, bound in upper_rows:
        coef = np.zeros(ns)
        coef[col0] = 1.0
        if col0 in split_cols:  # a split pair contributes x+ - x- <= ub
            coef[col0 + 1] = -1.0
        rows.append((coef, LESS, float(bound)))

    # -- row normalization: nonnegative rhs, and >= rows at zero become <=
    norm_rows: list[tuple[np.ndarray, str, float]] = []
    row_signs = np.ones(len(rows))  # -1 where a row was negated
    for i, (coef, sense, b) in enumerate(rows):
        if b < 0.0:
            coef = -coef
            b = -b
            sense = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[sense]
            row_signs[i] = -1.0
        if sense == GREATER and b == 0.0:
            coef = -coef
            sense = LESS
            row_signs[i] = -row_signs[i]
        norm_rows.append((coef, sense, b))

    nrows = len(norm_rows)
    slack_rows = [i for i, r in enumerate(norm_rows) if r[1] != EQUAL]
    art_rows = [i for i, r in enumerate(norm_rows) if r[1] != LESS]
    nslack = len(slack_rows)
    nart = len(art_rows)
    ncols = ns + nslack + nart
    tab = np.zeros((nrows + 2, ncols + 1))  # last two rows: phase-2, phase-1 objective
    basis = np.full(nrows, -1, dtype=int)
    slack_col = {r: ns + k for k, r in enumerate(slack_rows)}
    art_col = {r: ns + nslack + k for k, r in enumerate(art_rows)}
    for i, (coef, sense, b) in enumerate(norm_rows):
        tab[i, :ns] = coef
        tab[i, -1] = b
        if sense == LESS:
            tab[i, slack_col[i]] = 1.0
            basis[i] = slack_col[i]
        elif sense == GREATER:
            tab[i, slack_col[i]] = -1.0
            tab[i, art_col[i]] = 1.0
            basis[i] = art_col[i]
        else:
            tab[i, art_col[i]] = 1.0
            basis[i] = art_col[i]

    if max_iterations is None:
        max_iterations = 1000 + 200 * (nrows + ncols)
    budget = [max_iterations, max_iterations]
    allowed = np.ones(ncols, dtype=bool)
    p2, p1 = nrows, nrows + 1

    if nart:
        tab[p1, ns + nslack : ns + nslack + nart] = 1.0
        for i in art_rows:
            tab[p1] -= tab[i]
        status = _run_phase(tab, basis, p1, nrows, allowed, budget)
        if status != OPTIMAL:
            raise NumericalError("phase 1 cannot be unbounded")
        if tab[p1, -1] < -FEAS_TOL:
            return LpSolution(INFEASIBLE, None, None)
        # drive leftover artificials out of the basis where possible
        art_set = set(art_col.values())
        for i in range(nrows):
            if basis[i] in art_set:
                candidates = np.flatnonzero(
                    np.abs(tab[i, : ns + nslack]) > PIVOT_TOL
                )
                if candidates.size:
                    _pivot(tab, basis, i, int(candidates[0]))
        allowed[ns + nslack :] = False  # artificials may never re-enter

    tab[p2, :ns] = -c_s
    for i in range(nrows):
        coef = tab[p2, basis[i]]
        if coef != 0.0:
            tab[p2] -= coef * tab[i]
    status = _run_phase(tab, basis, p2, nrows, allowed, budget)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    x_std = np.zeros(ncols)
    x_std[basis] = tab[:nrows, -1]
    x = np.empty(n)
    for j, item in enumerate(var_map):
        if item[0] == "shift":
            x[j] = item[2] + x_std[item[1]]
        else:
            x[j] = x_std[item[1]] - x_std[item[1] + 1]
    bad = check_feasible(lp, x, FEAS_TOL)
    if bad:
        worst = max(v.amount for v in bad)
        raise NumericalError(f"simplex returned an infeasible point (off by {worst:g})")

    # multipliers for the user's rows, read off the final objective row:
    # z_j - c_j at a row's slack (<=), surplus (>=, negated), or artificial (=)
    duals = np.empty(m)
    obj = tab[p2]
    for i in range(m):
        sense = norm_rows[i][1]
        if sense == LESS:
            duals[i] = obj[slack_col[i]]
        elif sense == GREATER:
            duals[i] = -obj[slack_col[i]]
        else:
            duals[i] = obj[art_col[i]]
        duals[i] *= row_signs[i]
    return LpSolution(OPTIMAL, x, float(lp.objective @ x), duals)


def _solve_value_lp(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """maximize 1'q subject to m @ q <= 1, q >= 0, for a strictly positive
    k1 x k2 matrix m: the normalized value LP of a zero-sum stage game.

    Returns q and the row duals. The slack basis is feasible from the start,
    so the tableau [m | I | 1] with objective row [-1 | 0 | 0] goes straight
    to phase 2. The pivots are the ones solve_lp makes on the same program,
    and so are the results, bit for bit.
    """
    k1, k2 = m.shape
    ncols = k2 + k1
    tab = np.zeros((k1 + 1, ncols + 1))
    tab[:k1, :k2] = m
    tab[:k1, k2:ncols] = np.eye(k1)
    tab[:k1, -1] = 1.0
    tab[k1, :k2] = -1.0
    basis = np.arange(k2, ncols)
    cap = 1000 + 200 * (k1 + ncols)  # solve_lp's default: 1000 + 200 * (rows + cols)
    status = _run_phase(tab, basis, k1, k1, np.ones(ncols, dtype=bool), [cap, cap])
    if status != OPTIMAL:
        raise NumericalError(f"value LP ended with status {status}")
    x_std = np.zeros(ncols)
    x_std[basis] = tab[:k1, -1]
    q = x_std[:k2]
    # the checks solve_lp's check_feasible makes on this program, vectorized
    worst = max(float(np.max(m @ q - 1.0)), float(np.max(-q)))
    if worst > FEAS_TOL:
        raise NumericalError(f"simplex returned an infeasible point (off by {worst:g})")
    return q, tab[k1, k2:ncols].copy()
