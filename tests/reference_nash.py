"""Reference all-equilibria queries for the solver tests: support enumeration.

Every equilibrium of a two-player game lies in the support system of its own
supports (X, Y): two reply systems, one per player (``solver._halves``),
whose solutions combine freely.  So the queries about every equilibrium
read the variables' ranges over each feasible system of the game itself,
no strategy collapsed: ``irrational``, ``unique`` and ``forall_guarantee``
take the list ``systems`` yields.  ``boolgames.solver`` answers them by
vertex enumeration on the collapsed game instead, sharing only the reply
systems and the simplex with this module, so the two routes can be checked
against each other.  It costs (2^m - 1)(2^n - 1) systems, each with two
range probes per variable: keep the games small.
"""

from boolgames.formula import eval_formula
from boolgames.game import player_assignments
from boolgames.lp import variable_ranges
from boolgames.solver import (
    _halves,
    as_normal_form,
    equilibrium_for_support,
    support_pairs,
)


def support_ranges(nf, support, names=(None, None)):
    """Per half, x then y, ``variable_ranges`` over its ``names``
    (strategy indices or ``"u"``; None: every variable of the half); None
    once a half is infeasible."""
    out = []
    for lp, probe in zip(_halves(nf, support), names):
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
