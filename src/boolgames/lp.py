"""Exact-rational linear programming: two-phase simplex with Bland's rule.

Coefficients enter as given when they are ``int``s (win-lose payoffs stay
ints) and as fractions.Fraction otherwise; results leave as Fractions.
Variable names are any hashable values.  In between, the tableau is
fraction-free: rows of Python ints over one common positive denominator
``d``, updated by the exact integer pivot of Edmonds (1967) and Bareiss
(1968), so no pivot pays for a gcd.  Each stored entry is the rational
tableau's entry times ``d``, so Bland's rule, the ratio test (by
cross-multiplying) and the feasibility test make the choices the rational
simplex makes; results are deterministic for a given input.  Free variables
are split into two nonnegative parts.  Phase 1 is shared:
``variable_ranges`` (the range probes behind uniqueness questions) runs it
once and every bound from its basis.
"""

from __future__ import annotations

import math
from fractions import Fraction


class LpError(Exception):
    pass


def _exact(v):
    """``v`` itself if an ``int``, else ``Fraction(v)``."""
    return v if type(v) is int else Fraction(v)


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

    def _coeffs(self, coeffs):
        for name in coeffs:
            if name not in self.nonneg:
                raise LpError("undeclared variable %s" % name)
        return {k: _exact(v) for k, v in coeffs.items()}

    def add_constraint(self, coeffs, rel, rhs):
        if rel not in ("<=", "=", ">="):
            raise LpError("bad relation %r" % (rel,))
        self.constraints.append((self._coeffs(coeffs), rel, _exact(rhs)))

    def set_objective(self, coeffs, sense):
        if sense not in ("maximize", "minimize"):
            raise LpError("bad sense %r" % (sense,))
        self.objective = (self._coeffs(coeffs), sense)

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


def _integer_coeffs(coeffs, rhs=0):
    """``coeffs`` (a dict of ints and Fractions) and ``rhs`` times the lcm
    of all their denominators, as ints, and that lcm."""
    scale = math.lcm(rhs.denominator, *[v.denominator for v in coeffs.values()])
    return ({k: v.numerator * (scale // v.denominator)
             for k, v in coeffs.items()},
            rhs.numerator * (scale // rhs.denominator), scale)


def _pivot(rows, zrow, basis, d, r, c):
    """Fraction-free pivot on ``rows[r][c]``; returns the new denominator.

    Every row, ``zrow`` included, becomes ``(row * p - row[c] * prow) //
    d`` with ``p`` the pivot (Edmonds 1967; Bareiss 1968).  The division is
    exact: ``d`` and ``p`` are the determinants of the old and new basis,
    and each entry is the rational tableau's entry times that determinant.
    A negative pivot (met in the phase-1 drive-out) negates its row first,
    so the denominator stays positive and sign tests keep their meaning.
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
    # column layout: one column per nonneg variable, two per free variable,
    # then one slack per inequality, then one artificial per row that does
    # not start basic in its slack
    col_of, nstruct = {}, 0  # name -> [(column, sign)]
    for name in lp.variables:
        signs = (1,) if lp.nonneg[name] else (1, -1)
        col_of[name] = [(nstruct + k, s) for k, s in enumerate(signs)]
        nstruct += len(signs)

    # a row starts basic in its slack if the slack's coefficient is +1 once
    # the row is negated to make its rhs nonnegative
    in_slack = [rel != "=" and (rel == "<=") == (rhs >= 0)
                for _, rel, rhs in lp.constraints]
    ncols = nstruct + sum(rel != "=" for _, rel, _ in lp.constraints)
    # an artificial's cost holds its row's scale until the loop ends
    costs = [0] * (ncols + in_slack.count(False))
    rows, basis = [], []
    slack, art = nstruct, ncols
    for (coeffs, rel, rhs), slack_basic in zip(lp.constraints, in_slack):
        coeffs, rhs, scale = _integer_coeffs(coeffs, rhs)
        sign = -1 if rhs < 0 else 1
        row = [0] * len(costs) + [sign * rhs]
        for name, v in coeffs.items():
            for idx, s in col_of[name]:
                row[idx] += sign * s * v
        if rel != "=":
            row[slack] = sign if rel == "<=" else -sign
            slack += 1
        if slack_basic:
            basis.append(slack - 1)
        else:
            row[art] = 1
            costs[art] = scale
            basis.append(art)
            art += 1
        rows.append(row)

    d = 1
    if art > ncols:  # some row starts basic in an artificial
        # minimize the sum of the artificials in the unscaled rows' units:
        # row r's artificial carries cost 1/scale_r, times the lcm of those
        lcm = math.lcm(*costs[ncols:])
        costs[ncols:] = [lcm // scale for scale in costs[ncols:]]
        zrow = _reduced_costs(rows, basis, costs, d)
        status, d = _run_simplex(rows, zrow, basis, d)
        if status != "optimal" or zrow[-1] != 0:
            return None
        # drive remaining artificials out of the basis, each on its row's
        # first nonzero column
        for r in range(len(rows)):
            if basis[r] >= ncols:
                col = next((j for j in range(ncols) if rows[r][j]), None)
                if col is not None:
                    d = _pivot(rows, zrow, basis, d, r, col)
        # drop rows still basic in an artificial (redundant constraints),
        # then the artificial columns
        keep = [r for r in range(len(rows)) if basis[r] < ncols]
        rows = [rows[r][:ncols] + rows[r][-1:] for r in keep]
        basis = [basis[r] for r in keep]
    return rows, basis, col_of, ncols, d


def _optimize(tab, coeffs, sense):
    """Phase 2 from a ``_feasible_tableau``: (value, rows, basis, d) at the
    optimum, or None if unbounded.  Shallow copies leave ``tab`` reusable,
    as ``_pivot`` replaces rows it changes."""
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
        return None
    # internal objective (minimized) sits at -zrow[-1]; undo the sign flip
    internal = Fraction(-zrow[-1], d * scale)
    return (internal if sense == "minimize" else -internal), rows, basis, d


def solve_lp(lp):
    """Two-phase simplex.  Returns Optimal, Infeasible, or Unbounded."""
    tab = _feasible_tableau(lp)
    if tab is None:
        return Infeasible()
    out = _optimize(tab, *lp.objective)
    if out is None:
        return Unbounded()
    value, rows, basis, d = out
    # a column's value is its row's rhs if basic, else 0
    at = {b: row[-1] for b, row in zip(basis, rows)}
    solution = {name: Fraction(sum(s * at.get(idx, 0) for idx, s in cols), d)
                for name, cols in tab[2].items()}
    return Optimal(solution, value)


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
        ends = (_optimize(tab, {name: 1}, sense)
                for sense in ("minimize", "maximize"))
        ranges[name] = tuple(None if out is None else out[0] for out in ends)
    return ranges


def verify_solution(lp, sol):
    """Exact feasibility check of ``sol`` against every constraint and sign."""
    for name in lp.variables:
        if name not in sol:
            raise LpError("solution does not bind %s" % name)
        if lp.nonneg[name] and sol[name] < 0:
            return False
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum(v * sol[name] for name, v in coeffs.items())
        if rel == "<=" and not lhs <= rhs:
            return False
        if rel == ">=" and not lhs >= rhs:
            return False
        if rel == "=" and lhs != rhs:
            return False
    return True


def objective_value(lp, sol):
    coeffs, _ = lp.objective
    return sum(v * sol[name] for name, v in coeffs.items())


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
