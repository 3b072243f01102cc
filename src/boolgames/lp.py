"""Exact-rational linear programming: two-phase simplex with Bland's rule.

All arithmetic is over fractions.Fraction; results are deterministic for a
given input.  Free variables are split into two nonnegative parts.  Phase 1
is shared: ``variable_ranges`` (the range probes behind uniqueness and
equilibrium-payoff questions) runs it once and every bound from its basis.
"""

from __future__ import annotations

from fractions import Fraction


class LpError(Exception):
    pass


class LinearProgram:
    def __init__(self):
        self.variables = []       # names in declaration order
        self.nonneg = {}          # name -> bool
        self.constraints = []     # (coeff dict, rel, rhs)
        self.objective = ({}, "maximize")

    def add_variable(self, name, nonneg=True):
        if name in self.nonneg:
            raise LpError("duplicate variable %s" % name)
        self.variables.append(name)
        self.nonneg[name] = nonneg

    def add_constraint(self, coeffs, rel, rhs):
        if rel not in ("<=", "=", ">="):
            raise LpError("bad relation %r" % (rel,))
        for name in coeffs:
            if name not in self.nonneg:
                raise LpError("undeclared variable %s" % name)
        self.constraints.append(
            ({k: Fraction(v) for k, v in coeffs.items()}, rel, Fraction(rhs))
        )

    def set_objective(self, coeffs, sense):
        if sense not in ("maximize", "minimize"):
            raise LpError("bad sense %r" % (sense,))
        for name in coeffs:
            if name not in self.nonneg:
                raise LpError("undeclared variable %s" % name)
        self.objective = ({k: Fraction(v) for k, v in coeffs.items()}, sense)

    def copy(self):
        lp = LinearProgram()
        lp.variables = list(self.variables)
        lp.nonneg = dict(self.nonneg)
        lp.constraints = [(dict(c), rel, rhs) for c, rel, rhs in self.constraints]
        lp.objective = (dict(self.objective[0]), self.objective[1])
        return lp


class Optimal:
    def __init__(self, solution, value):
        self.solution = solution
        self.value = value

    def __repr__(self):
        return "Optimal(value=%s)" % self.value


class Infeasible:
    def __repr__(self):
        return "Infeasible()"


class Unbounded:
    def __repr__(self):
        return "Unbounded()"


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows, zrow, basis, r, c):
    prow = rows[r]
    inv = _ONE / prow[c]
    if inv != 1:
        rows[r] = prow = [x * inv for x in prow]
    for rr, row in enumerate(rows):
        if rr == r:
            continue
        f = row[c]
        if f:
            rows[rr] = [a - f * b for a, b in zip(row, prow)]
    f = zrow[c]
    if f:
        for j in range(len(zrow)):
            zrow[j] -= f * prow[j]
    basis[r] = c


def _run_simplex(rows, zrow, basis):
    """Minimize; zrow holds reduced costs (last entry: minus objective)."""
    ncols = len(zrow) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best_ratio = None
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(rows, zrow, basis, leave, enter)


def _reduced_costs(rows, basis, costs):
    zrow = list(costs) + [_ZERO]
    for r, b in enumerate(basis):
        # basis columns are identity; subtract cb * row to zero them out
        cb = costs[b]
        if cb:
            row = rows[r]
            for j in range(len(zrow)):
                zrow[j] -= cb * row[j]
    return zrow


def _feasible_tableau(lp):
    """Phase 1: (rows, basis, col_of, ncols), a feasible basis of ``lp`` in
    standard equality form, or None if ``lp`` is infeasible."""
    # column layout: one column per nonneg variable, two per free variable
    columns = []  # (name, sign)
    for name in lp.variables:
        columns.append((name, 1))
        if not lp.nonneg[name]:
            columns.append((name, -1))
    col_of = {}
    for idx, (name, sign) in enumerate(columns):
        col_of.setdefault(name, []).append((idx, sign))

    nstruct = len(columns)
    # build rows in standard equality form with slacks
    raw = []
    slack_count = sum(1 for _, rel, _ in lp.constraints if rel != "=")
    ncols = nstruct + slack_count
    slack_idx = nstruct
    slack_col_of_row = []
    for coeffs, rel, rhs in lp.constraints:
        row = [_ZERO] * ncols + [rhs]
        for name, v in coeffs.items():
            for idx, sign in col_of[name]:
                row[idx] += sign * v
        if rel == "<=":
            row[slack_idx] = _ONE
            slack_col_of_row.append(slack_idx)
            slack_idx += 1
        elif rel == ">=":
            row[slack_idx] = Fraction(-1)
            slack_col_of_row.append(slack_idx)
            slack_idx += 1
        else:
            slack_col_of_row.append(None)
        raw.append(row)

    # normalize rhs >= 0, pick starting basis, add artificials where needed
    rows = []
    basis = []
    art_rows = []
    for r, row in enumerate(raw):
        if row[-1] < 0:
            row = [-x for x in row]
        sc = slack_col_of_row[r]
        if sc is not None and row[sc] == 1:
            basis.append(sc)
        else:
            basis.append(None)
            art_rows.append(r)
        rows.append(row)

    nart = len(art_rows)
    total = ncols + nart
    for row in rows:
        rhs = row.pop()
        row.extend([_ZERO] * nart)
        row.append(rhs)
    for k, r in enumerate(art_rows):
        rows[r][ncols + k] = _ONE
        basis[r] = ncols + k

    # phase 1: minimize sum of artificials
    if nart:
        costs = [_ZERO] * total
        for k in range(nart):
            costs[ncols + k] = _ONE
        zrow = _reduced_costs(rows, basis, costs)
        status = _run_simplex(rows, zrow, basis)
        if status != "optimal" or -zrow[-1] != 0:
            return None
        # drive remaining artificials out of the basis
        for r in range(len(rows)):
            if basis[r] >= ncols:
                pivot_col = -1
                for j in range(ncols):
                    if rows[r][j] != 0:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(rows, zrow, basis, r, pivot_col)
        # drop rows still basic in an artificial (redundant constraints)
        keep = [r for r in range(len(rows)) if basis[r] < ncols]
        rows = [rows[r] for r in keep]
        basis = [basis[r] for r in keep]
        # drop artificial columns
        rows = [row[:ncols] + [row[-1]] for row in rows]
    return rows, basis, col_of, ncols


def _optimize(tab, coeffs, sense):
    """Phase 2 from a ``_feasible_tableau``: Optimal or Unbounded.  Shallow
    copies leave ``tab`` reusable, as ``_pivot`` replaces rows it changes."""
    rows, basis, col_of, ncols = tab
    rows, basis = list(rows), list(basis)
    sign = -1 if sense == "maximize" else 1
    costs = [_ZERO] * ncols
    for name, v in coeffs.items():
        for idx, s in col_of[name]:
            costs[idx] += sign * s * v
    zrow = _reduced_costs(rows, basis, costs)
    if _run_simplex(rows, zrow, basis) == "unbounded":
        return Unbounded()
    values = {b: row[-1] for b, row in zip(basis, rows)}
    solution = {name: sum((s * values.get(idx, _ZERO) for idx, s in cols),
                          _ZERO)
                for name, cols in col_of.items()}
    # internal objective (minimized) sits at -zrow[-1]; undo the sign flip
    internal = -zrow[-1]
    return Optimal(solution, internal if sense == "minimize" else -internal)


def solve_lp(lp):
    """Two-phase simplex.  Returns Optimal, Infeasible, or Unbounded."""
    tab = _feasible_tableau(lp)
    return Infeasible() if tab is None else _optimize(tab, *lp.objective)


def variable_ranges(lp, names):
    """{name: (min, max)} over the feasible region of ``lp``, None for an
    unbounded side; None if ``lp`` is infeasible.

    Phase 1 runs once; each bound is a phase 2 from its feasible basis.
    """
    tab = _feasible_tableau(lp)
    if tab is None:
        return None
    ranges = {}
    for name in names:
        ends = (_optimize(tab, {name: _ONE}, sense)
                for sense in ("minimize", "maximize"))
        ranges[name] = tuple(out.value if isinstance(out, Optimal) else None
                             for out in ends)
    return ranges


def verify_solution(lp, sol):
    """Exact feasibility check of ``sol`` against every constraint and sign."""
    for name in lp.variables:
        if name not in sol:
            raise LpError("solution does not bind %s" % name)
        if lp.nonneg[name] and sol[name] < 0:
            return False
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum((v * sol[name] for name, v in coeffs.items()), _ZERO)
        if rel == "<=" and not lhs <= rhs:
            return False
        if rel == ">=" and not lhs >= rhs:
            return False
        if rel == "=" and lhs != rhs:
            return False
    return True


def objective_value(lp, sol):
    coeffs, _ = lp.objective
    return sum((v * sol[name] for name, v in coeffs.items()), _ZERO)


def solution_unique(lp, sol):
    """True iff ``sol`` is the only optimal solution of ``lp``.

    Pins the objective at its optimal value; unique iff every variable's
    range over the pinned program is the single point sol gives it.
    """
    if not verify_solution(lp, sol):
        raise LpError("solution is not feasible")
    opt = solve_lp(lp)
    if not isinstance(opt, Optimal):
        raise LpError("program has no optimum")
    if objective_value(lp, sol) != opt.value:
        raise LpError("solution is not optimal")
    pinned = lp.copy()
    pinned.add_constraint(lp.objective[0], "=", opt.value)
    ranges = variable_ranges(pinned, lp.variables)
    if ranges is None:
        raise LpError("pinned program unexpectedly infeasible")
    return all(ranges[name] == (sol[name], sol[name]) for name in lp.variables)
