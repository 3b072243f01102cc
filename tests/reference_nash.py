"""Reference equilibrium queries for the solver tests: support enumeration,
and the best-response polytopes' vertices by brute force.

Every equilibrium of a two-player game lies in the support system of its own
supports (X, Y): two reply systems, one per player (``halves``), whose
solutions combine freely.  ``equilibrium_for_support`` solves one pair, and
the queries about every equilibrium read the variables' ranges over each
feasible system of the game itself, no strategy collapsed: ``irrational``,
``unique`` and ``forall_guarantee`` take the list ``systems`` yields.
``boolgames.solver`` answers every query by vertex enumeration on the
collapsed game instead, sharing only the simplex and the pair order of
``solver.support_pairs`` with this module, so the two routes can be checked
against each other.  It costs (2^m - 1)(2^n - 1) systems, each with two
range probes per variable: keep the games small.  ``vertices`` solves
every square system of a polytope by ``Fraction`` elimination, the route
the solver's double description avoids.
"""

import itertools
from fractions import Fraction

from boolgames.formula import eval_formula
from boolgames.game import player_assignments
from boolgames.lp import LinearProgram, Optimal, solve_lp, variable_ranges
from boolgames.solver import (
    EquilibriumWitness,
    SolverError,
    as_normal_form,
    support_pairs,
)


def reply_system(payoff, own, best, bound=None):
    """One player's weights against the opponent's pure replies.

    ``payoff[i][j]`` is the opponent's payoff when it plays i against the
    player's pure strategy j.  The variables are the indices j in ``own``
    (the weight w_j) and then ``u``, free: the opponent's payoff.  Row i
    reads ``sum_j payoff[i][j] w_j - u``, ``= 0`` for i in ``best`` (a best
    reply) and ``<= 0`` otherwise; then come ``sum w = 1`` and, given a
    bound, ``u >= bound``.
    """
    lp = LinearProgram()
    for j in own:
        lp.add_variable(j)
    lp.add_variable("u", nonneg=False)
    for i, row in enumerate(payoff):
        coeffs = {j: row[j] for j in own}
        coeffs["u"] = -1
        lp.add_constraint(coeffs, "=" if i in best else "<=", 0)
    lp.add_constraint(dict.fromkeys(own, 1), "=", 1)
    if bound is not None:
        lp.add_constraint({"u": 1}, ">=", bound)
    return lp


def halves(nf, support, bounds=None):
    """The two reply systems of support pair (X, Y), x-half first, built
    one at a time; the pair's equilibria are their solutions' products.
    The x-half (from B transposed) holds player 1's weights on X that make
    each column in Y a best reply, its ``u`` is beta; the y-half (from A)
    holds player 2's on Y, its ``u`` is alpha.  ``bounds``: lower bounds
    (alpha, beta), either may be None."""
    (a, b), (m, n) = nf.payoffs, nf.shape
    X, Y = [sorted(set(s)) for s in support]
    if not X or not Y or X[0] < 0 or Y[0] < 0 or X[-1] >= m or Y[-1] >= n:
        raise SolverError("malformed support pair")
    alpha, beta = bounds or (None, None)
    yield reply_system(list(zip(*b)), X, set(Y), beta)
    yield reply_system(a, Y, set(X), alpha)


def equilibrium_for_support(nf, support, bounds=None):
    """A witness equilibrium with support within (X, Y), or None."""
    weights, payoffs = [], []
    for lp in halves(nf, support, bounds):
        out = solve_lp(lp)
        if not isinstance(out, Optimal):
            return None
        payoffs.append(out.solution.pop("u"))
        weights.append(out.solution)
    # the x-half's u is player 2's payoff
    return EquilibriumWitness(*weights, payoffs[::-1])


def support_ranges(nf, support, names=(None, None)):
    """Per half, x then y, ``variable_ranges`` over its ``names``
    (strategy indices or ``"u"``; None: every variable of the half); None
    once a half is infeasible."""
    out = []
    for lp, probe in zip(halves(nf, support), names):
        ranges = variable_ranges(lp, lp.variables if probe is None else probe)
        if ranges is None:
            return None
        out.append(ranges)
    return out


def systems(nf):
    """(support pair, ranges of every variable per half) of each feasible
    support system of ``nf``; a half's ``u`` is the opponent's payoff."""
    for sp in support_pairs(nf):
        ranges = support_ranges(nf, sp)
        if ranges is not None:
            yield sp, ranges


def irrational(systems):
    """A continuum: some system's weight or payoff ranges."""
    return any(lo != hi for _, ranges in systems
               for half in ranges for lo, hi in half.values())


def unique(systems):
    """No continuum, and every system gives the same point."""
    points = [[{name: lo for name, (lo, _) in half.items() if lo}
               for half in ranges] for _, ranges in systems]
    return not irrational(systems) and all(p == points[0] for p in points)


def forall_guarantee(systems, v):
    """Every system's least payoffs, player 1's (the y-half's ``u``) and
    player 2's, meet ``v``."""
    return all(y["u"][0] >= v[0] and x["u"][0] >= v[1]
               for _, (x, y) in systems)


def nash_sat(g, phi, mode):
    """Some system solvable with its supports inside phi (exists), or no
    system in which a violating cell can get positive weight on both sides
    (forall), on the expansion of the Boolean game ``g``."""
    nf = as_normal_form(g)
    sat = [[eval_formula(phi, {**a, **b}) for b in player_assignments(g, 1)]
           for a in player_assignments(g, 0)]
    for X, Y in support_pairs(nf):
        bad = [(i, j) for i in X for j in Y if not sat[i][j]]
        if mode == "exists" and not bad:
            if equilibrium_for_support(nf, (X, Y)) is not None:
                return True
        if mode == "forall" and bad:
            ranges = support_ranges(nf, (X, Y))
            if ranges is not None and any(
                    ranges[0][i][1] > 0 and ranges[1][j][1] > 0
                    for i, j in bad):
                return False
    return mode == "forall"


def classes_on(matrix):
    """The rows, then the columns, of ``matrix`` grouped by equal entries:
    ascending index lists, in order of first member."""
    out = []
    for lines in (matrix, list(zip(*matrix))):
        groups = {}
        for s, line in enumerate(lines):
            groups.setdefault(tuple(line), []).append(s)
        out.append(list(groups.values()))
    return out


def fraction_solve(rows):
    """Gauss-Jordan over Fraction on augmented rows; None if singular."""
    rows = [[Fraction(x) for x in row] for row in rows]
    for c in range(len(rows)):
        r = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if r is None:
            return None
        rows[c], rows[r] = rows[r], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for rr in range(len(rows)):
            if rr != c and rows[rr][c]:
                rows[rr] = [a - rows[rr][c] * b
                            for a, b in zip(rows[rr], rows[c])]
    return tuple(row[-1] for row in rows)


def vertices(p):
    """{weights: (payoff, support, tight)} for each nonzero vertex w of {w
    >= 0 : sum_s q[s][c] w_s <= 1 for every column c}, q the matrix ``p``
    plus the constant that makes its least entry 1, as
    ``solver._vertices`` describes them: w normalized, the best column's
    payoff in ``p``, bitmasks of the s with w_s > 0 and of the columns
    holding with equality.  Every such vertex solves sum_{s in X} q[s][c]
    w_s = 1 for c in J, w_s = 0 off X, for some nonsingular block with |X|
    = |J|; each one is solved and kept if w lies in the polytope."""
    shift = 1 - min(map(min, p))
    q = [[x + shift for x in row] for row in p]
    own, cons = len(q), len(q[0])
    found = {}
    for k in range(1, min(own, cons) + 1):
        for X, J in itertools.product(itertools.combinations(range(own), k),
                                      itertools.combinations(range(cons), k)):
            w = fraction_solve([[q[s][c] for s in X] + [1] for c in J])
            if w is None or min(w) < 0:
                continue
            full = [Fraction(0)] * own
            for s, ws in zip(X, w):
                full[s] = ws
            loads = [sum(q[s][c] * full[s] for s in range(own))
                     for c in range(cons)]
            if max(loads) > 1:
                continue
            weights = tuple(x / sum(full) for x in full)
            payoff = max(sum(p[s][c] * weights[s] for s in range(own))
                         for c in range(cons))
            support = sum(1 << s for s in range(own) if full[s])
            tight = sum(1 << c for c in range(cons) if loads[c] == 1)
            found[weights] = (payoff, support, tight)
    return found
