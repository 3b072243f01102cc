"""Exact-rational linear programming: two-phase simplex with Bland's rule.

Coefficients enter and results leave as fractions.Fraction.  In between,
the tableau is fraction-free: rows of Python ints over one common positive
denominator ``d``, updated by the exact integer pivot of Edmonds (1967) and
Bareiss (1968), so no pivot pays for a gcd.  Each stored entry is the
rational tableau's entry times ``d``, so Bland's rule, the ratio test (by
cross-multiplying) and the feasibility test make the choices the rational
simplex makes; results are deterministic for a given input.  Free variables
are split into two nonnegative parts.  Phase 1 is shared:
``variable_ranges`` (the range probes behind uniqueness and
equilibrium-payoff questions) runs it once and every bound from its basis.
"""

from __future__ import annotations

import math
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


def _integer_coeffs(coeffs, rhs=_ZERO):
    """``coeffs`` (a dict of Fractions) and ``rhs`` times the lcm of all
    their denominators, as ints, and that lcm."""
    scale = math.lcm(rhs.denominator, *[v.denominator for v in coeffs.values()])
    return ({k: v.numerator * (scale // v.denominator)
             for k, v in coeffs.items()},
            rhs.numerator * (scale // rhs.denominator), scale)


def _pivot(rows, zrow, basis, d, r, c):
    """Fraction-free pivot on ``rows[r][c]``; returns the new denominator.

    Every row, ``zrow`` included, becomes ``(row * p - row[c] * prow) // d``
    with ``p`` the pivot (Edmonds 1967; Bareiss 1968).  The division is exact:
    ``d`` and ``p`` are the determinants of the old and new basis, and each
    entry is the rational tableau's entry times that determinant.  A negative
    pivot (only the phase-1 drive-out meets one) negates its row first, so
    the denominator stays positive and every sign test keeps its meaning.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        rows[r] = prow = [-x for x in prow]
        p = -p
    for rr, row in enumerate(rows):
        if rr != r:
            rows[rr] = _eliminate(row, prow, p, d, c)
    zrow[:] = _eliminate(zrow, prow, p, d, c)
    basis[r] = c
    return p


def _eliminate(row, prow, p, d, c):
    f = row[c]
    if f:
        return [(a * p - f * b) // d for a, b in zip(row, prow)]
    if p == d:
        return row
    return [a * p // d for a in row]


def _run_simplex(rows, zrow, basis, d):
    """Minimize; zrow holds reduced costs (last entry: minus objective), all
    over the common denominator ``d``.  Returns (status, d)."""
    ncols = len(zrow) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", d
        # Bland's ratio test; rhs/a < best_rhs/best_a by cross-multiplying
        leave = -1
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, best_rhs, best_a = r, row[-1], a
                    continue
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, best_rhs, best_a = r, row[-1], a
        if leave < 0:
            return "unbounded", d
        d = _pivot(rows, zrow, basis, d, leave, enter)


def _reduced_costs(rows, basis, costs, d):
    zrow = [d * x for x in costs] + [0]
    for r, b in enumerate(basis):
        # basis columns are d times identity; subtract cb * row to zero them
        cb = costs[b]
        if cb:
            zrow = [z - cb * x for z, x in zip(zrow, rows[r])]
    return zrow


def _feasible_tableau(lp):
    """Phase 1: (rows, basis, col_of, ncols, d), a feasible basis of ``lp``
    in standard equality form, or None if ``lp`` is infeasible.

    Entries are ints over the common positive denominator ``d``.  Each
    constraint row starts scaled to integers by the lcm of its own
    denominators, its slack and artificial keeping coefficient 1: that only
    rescales those columns' variables, which are never reported, and leaves
    every pivot choice as over the rationals.
    """
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
    scales = []  # each row's lcm of denominators
    slack_count = sum(1 for _, rel, _ in lp.constraints if rel != "=")
    ncols = nstruct + slack_count
    slack_idx = nstruct
    slack_col_of_row = []
    for coeffs, rel, rhs in lp.constraints:
        coeffs, rhs, scale = _integer_coeffs(coeffs, rhs)
        row = [0] * ncols + [rhs]
        for name, v in coeffs.items():
            for idx, sign in col_of[name]:
                row[idx] += sign * v
        if rel == "<=":
            row[slack_idx] = 1
            slack_col_of_row.append(slack_idx)
            slack_idx += 1
        elif rel == ">=":
            row[slack_idx] = -1
            slack_col_of_row.append(slack_idx)
            slack_idx += 1
        else:
            slack_col_of_row.append(None)
        raw.append(row)
        scales.append(scale)

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
        row.extend([0] * nart)
        row.append(rhs)
    for k, r in enumerate(art_rows):
        rows[r][ncols + k] = 1
        basis[r] = ncols + k

    d = 1
    if nart:
        # minimize the sum of the artificials in the unscaled rows' units:
        # row r's artificial carries cost 1/scale_r, times the lcm of those
        costs = [0] * total
        lcm = math.lcm(*[scales[r] for r in art_rows])
        for k, r in enumerate(art_rows):
            costs[ncols + k] = lcm // scales[r]
        zrow = _reduced_costs(rows, basis, costs, d)
        status, d = _run_simplex(rows, zrow, basis, d)
        if status != "optimal" or zrow[-1] != 0:
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
                    d = _pivot(rows, zrow, basis, d, r, pivot_col)
        # drop rows still basic in an artificial (redundant constraints)
        keep = [r for r in range(len(rows)) if basis[r] < ncols]
        rows = [rows[r] for r in keep]
        basis = [basis[r] for r in keep]
        # drop artificial columns
        rows = [row[:ncols] + [row[-1]] for row in rows]
    return rows, basis, col_of, ncols, d


def _optimize(tab, coeffs, sense):
    """Phase 2 from a ``_feasible_tableau``: Optimal or Unbounded.  Shallow
    copies leave ``tab`` reusable, as ``_pivot`` replaces rows it changes."""
    rows, basis, col_of, ncols, d = tab
    rows, basis = list(rows), list(basis)
    sign = -1 if sense == "maximize" else 1
    coeffs, _, scale = _integer_coeffs(coeffs)
    costs = [0] * ncols
    for name, v in coeffs.items():
        for idx, s in col_of[name]:
            costs[idx] += sign * s * v
    zrow = _reduced_costs(rows, basis, costs, d)
    status, d = _run_simplex(rows, zrow, basis, d)
    if status == "unbounded":
        return Unbounded()
    values = {b: row[-1] for b, row in zip(basis, rows)}
    solution = {name: Fraction(sum(s * values.get(idx, 0) for idx, s in cols),
                               d)
                for name, cols in col_of.items()}
    # internal objective (minimized) sits at -zrow[-1]; undo the sign flip
    internal = Fraction(-zrow[-1], d * scale)
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
