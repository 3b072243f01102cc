"""Equilibrium computation: zero-sum values, support enumeration with the
indifference/no-deviation linear system, uniqueness, formula-in-equilibrium
queries, equilibrium verification, and irrationality tests.

Two-player operations accept either a BooleanGame (expanded under a cell cap)
or a NormalForm directly.  Player indices are 0-based.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction

from .formula import compile_formula  # noqa: F401 - perfbench patches it here
from .formula import free_vars
from .game import (
    DEFAULT_CELL_CAP,
    DEFAULT_DEVIATION_CAP,
    BooleanGame,
    GameError,
    MixedProfile,
    NormalForm,
    ResourceCapError,
    to_normal_form,
    truth_tables,
    utility_sweep,
    var_mask,
)
from .lp import (LinearProgram, Optimal, solve_lp, solution_unique,
                 variable_ranges)


class SolverError(Exception):
    pass


def as_normal_form(g_or_nf, cap=DEFAULT_CELL_CAP):
    if isinstance(g_or_nf, NormalForm):
        return g_or_nf
    if isinstance(g_or_nf, BooleanGame):
        return to_normal_form(g_or_nf, cap)
    raise SolverError("expected a BooleanGame or NormalForm")


def _require_two_player(nf):
    if nf.players != 2:
        raise SolverError("operation requires a two-player game")
    return nf.payoffs[0], nf.payoffs[1]


def constant_sum(nf):
    """The constant c with A+B = c everywhere, or None if not constant-sum."""
    a, b = _require_two_player(nf)
    c = a[0][0] + b[0][0]
    want = {c}
    for row_a, row_b in zip(a, b):
        if set(map(operator.add, row_a, row_b)) != want:
            return None
    return c


# --- zero-sum value ----------------------------------------------------------


def _value_lp(matrix, m, n):
    """Maxmin LP for the row player of ``matrix`` (m rows, n columns)."""
    lp = LinearProgram()
    lp.add_variable("v", nonneg=False)
    for i in range(m):
        lp.add_variable("x%d" % i)
    for j in range(n):
        coeffs = {"v": Fraction(1)}
        for i in range(m):
            coeffs["x%d" % i] = -matrix[i][j]
        lp.add_constraint(coeffs, "<=", 0)
    lp.add_constraint({"x%d" % i: 1 for i in range(m)}, "=", 1)
    lp.set_objective({"v": 1}, "maximize")
    return lp


def zero_sum_value(nf):
    """(value for player 1, a maxmin weight vector) of a constant-sum game.

    Duplicate pure strategies (identical payoff rows or columns) are
    collapsed before the LP; the returned weight vector is over the
    original rows, with each duplicate class's mass on its first member.
    """
    if constant_sum(nf) is None:
        raise SolverError("game is not constant-sum")
    a, _ = _require_two_player(nf)
    m = nf.shape[0]
    col_seen, cols = set(), []
    for j, key in enumerate(zip(*a)):
        if key not in col_seen:
            col_seen.add(key)
            cols.append(j)
    row_key = operator.itemgetter(*cols)
    row_seen, rows = set(), []
    for i, row in enumerate(a):
        key = row_key(row)
        if key not in row_seen:
            row_seen.add(key)
            rows.append(i)
    matrix = [[a[i][j] for j in cols] for i in rows]
    lp = _value_lp(matrix, len(rows), len(cols))
    out = solve_lp(lp)
    if not isinstance(out, Optimal):
        raise SolverError("value program unexpectedly unsolvable")
    weights = [Fraction(0)] * m
    for pos, i in enumerate(rows):
        weights[i] = out.solution["x%d" % pos]
    return out.value, weights


def dvalue(g, threshold, cap=DEFAULT_CELL_CAP):
    """True iff the zero-sum value of the expanded game is >= threshold."""
    nf = as_normal_form(g, cap)
    value, _ = zero_sum_value(nf)
    return value >= Fraction(threshold)


# --- support enumeration -----------------------------------------------------


class EquilibriumWitness:
    """An equilibrium found by the support linear system.

    x and y map strategy indices to positive weights; payoffs is the
    (player 1, player 2) expected-utility pair.
    """

    def __init__(self, x, y, payoffs):
        self.x = {i: w for i, w in x.items() if w != 0}
        self.y = {j: w for j, w in y.items() if w != 0}
        self.payoffs = tuple(payoffs)

    def weight_vectors(self, shape):
        xs = [self.x.get(i, Fraction(0)) for i in range(shape[0])]
        ys = [self.y.get(j, Fraction(0)) for j in range(shape[1])]
        return xs, ys


def _support_system(nf, support, bounds=None):
    """The indifference/no-deviation LP for support pair (X, Y)."""
    a, b = _require_two_player(nf)
    m, n = nf.shape
    X, Y = [sorted(set(s)) for s in support]
    if not X or not Y or X[0] < 0 or Y[0] < 0 or X[-1] >= m or Y[-1] >= n:
        raise SolverError("malformed support pair")
    lp = LinearProgram()
    for i in X:
        lp.add_variable("x%d" % i)
    for j in Y:
        lp.add_variable("y%d" % j)
    lp.add_variable("alpha", nonneg=False)
    lp.add_variable("beta", nonneg=False)
    xset, yset = set(X), set(Y)
    for i in range(m):
        coeffs = {"y%d" % j: a[i][j] for j in Y}
        coeffs["alpha"] = Fraction(-1)
        lp.add_constraint(coeffs, "=" if i in xset else "<=", 0)
    for j in range(n):
        coeffs = {"x%d" % i: b[i][j] for i in X}
        coeffs["beta"] = Fraction(-1)
        lp.add_constraint(coeffs, "=" if j in yset else "<=", 0)
    lp.add_constraint({"x%d" % i: 1 for i in X}, "=", 1)
    lp.add_constraint({"y%d" % j: 1 for j in Y}, "=", 1)
    if bounds is not None:
        if bounds[0] is not None:
            lp.add_constraint({"alpha": 1}, ">=", Fraction(bounds[0]))
        if bounds[1] is not None:
            lp.add_constraint({"beta": 1}, ">=", Fraction(bounds[1]))
    return lp, X, Y


def _witness_from(sol, X, Y):
    return EquilibriumWitness(
        {i: sol["x%d" % i] for i in X},
        {j: sol["y%d" % j] for j in Y},
        (sol["alpha"], sol["beta"]),
    )


def equilibrium_for_support(nf, support, bounds=None):
    """A witness equilibrium with support within (X, Y), or None."""
    lp, X, Y = _support_system(nf, support, bounds)
    out = solve_lp(lp)
    if isinstance(out, Optimal):
        return _witness_from(out.solution, X, Y)
    return None


def classify_support(nf, support):
    """'none', 'unique', or 'continuum' equilibria for the support system."""
    lp, _, _ = _support_system(nf, support)
    ranges = variable_ranges(lp, lp.variables)
    if ranges is None:
        return "none"
    point = all(lo == hi for lo, hi in ranges.values())
    return "unique" if point else "continuum"


def support_pairs(nf, cap=DEFAULT_DEVIATION_CAP):
    """All support pairs, increasing total size then lexicographic."""
    m, n = nf.shape
    total = ((1 << m) - 1) * ((1 << n) - 1)
    if total > cap:
        raise ResourceCapError(
            "support enumeration needs %d pairs; cap is %d" % (total, cap)
        )
    for t in range(2, m + n + 1):
        for s1 in range(max(1, t - n), min(m, t - 1) + 1):
            s2 = t - s1
            for X in itertools.combinations(range(m), s1):
                for Y in itertools.combinations(range(n), s2):
                    yield X, Y


def exists_guarantee_nash(g_or_nf, v, cap=DEFAULT_DEVIATION_CAP):
    """First equilibrium witness with payoffs at least v, else None.

    ``v`` is a pair of lower bounds, or None for any equilibrium.
    """
    nf = as_normal_form(g_or_nf)
    for sp in support_pairs(nf, cap):
        w = equilibrium_for_support(nf, sp, bounds=v)
        if w is not None:
            return w
    return None


def forall_guarantee_nash(g_or_nf, v, cap=DEFAULT_DEVIATION_CAP):
    """True iff every equilibrium pays every player i at least v[i]."""
    nf = as_normal_form(g_or_nf)
    v = [Fraction(x) for x in v]
    for sp in support_pairs(nf, cap):
        lp, _, _ = _support_system(nf, sp)
        ranges = variable_ranges(lp, ("alpha", "beta"))
        if ranges is not None and (ranges["alpha"][0] < v[0]
                                   or ranges["beta"][0] < v[1]):
            return False
    return True


def unique_nash(g_or_nf, cap=DEFAULT_DEVIATION_CAP):
    """True iff the game has exactly one equilibrium.

    Constant-sum games use the value-program route (each player's optimal
    strategy polytope must be a single point).  Otherwise one pass over the
    support pairs: every solution of a feasible support system is an
    equilibrium, so each such system's weight ranges must all be points,
    and the same point (weights outside a support are zero) as the first
    feasible system's.
    """
    nf = as_normal_form(g_or_nf)
    if constant_sum(nf) is not None:
        return not _zero_sum_continuum(nf)
    first = None
    for sp in support_pairs(nf, cap):
        lp, X, Y = _support_system(nf, sp)
        weights = ["x%d" % i for i in X] + ["y%d" % j for j in Y]
        ranges = variable_ranges(lp, weights)
        if ranges is None:
            continue
        if any(lo != hi for lo, hi in ranges.values()):
            return False
        point = {name: lo for name, (lo, _) in ranges.items() if lo}
        if first is None:
            first = point
        elif point != first:
            return False
    if first is None:
        raise SolverError("no equilibrium found (should be impossible)")
    return True


def _zero_sum_continuum(nf):
    """Whether a constant-sum game has more than one equilibrium.

    Equilibria of a constant-sum game are exactly the pairs of optimal
    maxmin/minmax strategies, so there is a continuum iff either player's
    value program has multiple optima.
    """
    a, b = nf.payoffs
    m, n = nf.shape
    bt = [[b[i][j] for i in range(m)] for j in range(n)]
    for matrix, rows, cols in ((a, m, n), (bt, n, m)):
        lp = _value_lp(matrix, rows, cols)
        out = solve_lp(lp)
        if not isinstance(out, Optimal):
            raise SolverError("value program unexpectedly unsolvable")
        if not solution_unique(lp, out.solution):
            return True
    return False


def irrational_nash(g_or_nf, cap=DEFAULT_DEVIATION_CAP):
    """True iff the game has an irrational equilibrium.

    A two-player game has one exactly when some support system admits a
    continuum of equilibria; constant-sum games reduce to multiplicity of
    the value programs' optima.
    """
    nf = as_normal_form(g_or_nf)
    if constant_sum(nf) is not None:
        return _zero_sum_continuum(nf)
    for sp in support_pairs(nf, cap):
        if classify_support(nf, sp) == "continuum":
            return True
    return False


# --- formula-in-equilibrium ---------------------------------------------------


def nash_sat(g, phi, mode, cap=DEFAULT_DEVIATION_CAP, cell_cap=DEFAULT_CELL_CAP):
    """Whether some (exists) / every (forall) equilibrium realizes phi a.s."""
    if not isinstance(g, BooleanGame):
        raise SolverError("nash_sat needs a BooleanGame")
    if g.players != 2:
        raise SolverError("nash_sat requires two players")
    foreign = free_vars(phi) - set(g.all_vars())
    if foreign:
        raise SolverError("formula uses foreign variables: %s"
                          % ", ".join(sorted(foreign)))
    nf = to_normal_form(g, cell_cap)
    (sat,) = truth_tables(g, [phi])
    if mode == "exists":
        for X, Y in support_pairs(nf, cap):
            if all(sat[i][j] for i in X for j in Y):
                if equilibrium_for_support(nf, (X, Y)) is not None:
                    return True
        return False
    if mode == "forall":
        for X, Y in support_pairs(nf, cap):
            bad = [("x%d" % i, "y%d" % j) for i in X for j in Y
                   if not sat[i][j]]
            if not bad:
                continue
            # a violating pair occurs with positive probability in some
            # equilibrium of this system iff both coordinates can be made
            # positive (the solution set is convex: take the midpoint)
            lp, _, _ = _support_system(nf, (X, Y))
            ranges = variable_ranges(lp, {name for pair in bad
                                          for name in pair})
            if ranges is not None and any(
                    ranges[x][1] > 0 and ranges[y][1] > 0 for x, y in bad):
                return False
        return True
    raise SolverError("mode must be 'exists' or 'forall'")


# --- equilibrium verification -------------------------------------------------


def best_deviation_gain(g, sigma, i, cap=DEFAULT_DEVIATION_CAP, sample=None,
                        seed=0):
    """(baseline EU, best pure-deviation EU) for player i against sigma.

    Deviations range over the player's variables that occur in its goal
    (the others cannot change any utility), exhaustively by default; more
    than ``cap`` of them raise ResourceCapError before any work.  With
    ``sample`` set, that many uniformly random pure strategies are tried
    instead (no-counterexample-found semantics): ``random.Random(seed)``
    draws one ``getrandbits(1)`` per used variable, deviation by deviation,
    each in the goal's first-occurrence order (``formula.var_order``), so a
    seed always names the same deviations.
    """
    used = len(free_vars(g.goals[i]) & set(g.var_sets[i]))
    count = 1 << used if sample is None else max(sample, 0)
    if count > cap:
        raise ResourceCapError(
            "player %d: %d pure deviations to try; cap is %d"
            % (i + 1, count, cap)
        )
    if sample is None:
        masks = [var_mask(t, count) for t in range(used)]
    else:
        bit = random.Random(seed).getrandbits
        draws = bytes(b"01"[bit(1)] for _ in range(count * used))
        # deviation r's bit for variable t is draws[r * used + t]
        masks = [int(b"0" + draws[t::used][::-1], 2) for t in range(used)]
    return utility_sweep(g, sigma, i, count, masks)


def is_nash(g_or_nf, sigma, cap=DEFAULT_DEVIATION_CAP, sample=None, seed=0):
    """True iff no player has a strictly improving pure deviation.

    Exact over all pure deviations by default; with ``sample`` set, each
    player's deviations are checked on that many uniformly random pure
    strategies instead, drawn from ``random.Random(seed)`` in the order
    ``best_deviation_gain`` documents (no-counterexample-found semantics).
    """
    if isinstance(g_or_nf, NormalForm):
        return _is_nash_nf(g_or_nf, sigma)
    for i in range(g_or_nf.players):
        baseline, best = best_deviation_gain(g_or_nf, sigma, i, cap=cap,
                                             sample=sample, seed=seed)
        if best > baseline:
            return False
    return True


def _is_nash_nf(nf, weights):
    """weights: per player, a dict strategy index -> Fraction (support only)."""
    if nf.players != 2:
        raise SolverError("normal-form is_nash implemented for two players")
    a, b = nf.payoffs
    m, n = nf.shape
    x = [Fraction(weights[0].get(i, 0)) for i in range(m)]
    y = [Fraction(weights[1].get(j, 0)) for j in range(n)]
    if sum(x) != 1 or sum(y) != 1 or min(x) < 0 or min(y) < 0:
        raise GameError("weights must be distributions")
    row_pay = [sum(a[i][j] * y[j] for j in range(n)) for i in range(m)]
    col_pay = [sum(b[i][j] * x[i] for i in range(m)) for j in range(n)]
    eu1 = sum(x[i] * row_pay[i] for i in range(m))
    eu2 = sum(y[j] * col_pay[j] for j in range(n))
    return max(row_pay) <= eu1 and max(col_pay) <= eu2


def pure_equilibria(g_or_nf, cap=DEFAULT_CELL_CAP):
    """All pure-strategy equilibria, in strategy enumeration order.

    Returns full assignments for Boolean games, index tuples for normal
    forms.
    """
    boolean = isinstance(g_or_nf, BooleanGame)
    nf = as_normal_form(g_or_nf, cap)
    n = nf.players
    result = []
    for idx in itertools.product(*(range(s) for s in nf.shape)):
        ok = True
        for i in range(n):
            mine = nf.payoff(i, idx)
            for alt in range(nf.shape[i]):
                other = idx[:i] + (alt,) + idx[i + 1:]
                if nf.payoff(i, other) > mine:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            result.append(idx)
    if boolean:
        out = []
        for idx in result:
            merged = {}
            for i, j in enumerate(idx):
                merged.update(nf.strategy_index[i][j])
            out.append(merged)
        return out
    return result


# --- serialization ------------------------------------------------------------


def witness_to_profile(nf, witness):
    """MixedProfile over a Boolean expansion's assignments from a witness."""
    if nf.strategy_index is None:
        raise SolverError("normal form carries no strategy index")
    return MixedProfile(
        [
            [(nf.strategy_index[0][i], w) for i, w in sorted(witness.x.items())],
            [(nf.strategy_index[1][j], w) for j, w in sorted(witness.y.items())],
        ]
    )
