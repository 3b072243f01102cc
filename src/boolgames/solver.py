"""Equilibrium computation: zero-sum values, support enumeration,
uniqueness, formula-in-equilibrium queries, equilibrium verification, and
irrationality tests.

Every two-player query runs on the collapsed game (``NormalForm.collapse``):
one strategy per class of strategies with the same row in both payoff
matrices, which trade weight freely with no payoff changing.  A witness
puts each class's weight on its first member; an equilibrium that weights
a class of two or more is a continuum.

Every LP is a reply system (``_reply_system``): one player's weights
against the opponent's pure replies.  Its variables are the player's
strategy indices (each one's weight) and ``u``, so a solution reads back
with no renaming.  A support pair is two of them, one per player (the
best-response polytopes).  A constant-sum game's value program is one per
player, with no forced best reply and ``u`` minimized.

Two-player operations accept either a BooleanGame (expanded under a cell cap)
or a NormalForm directly.  Player indices are 0-based.
"""

from __future__ import annotations

import itertools
import operator
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
    draw_masks,
    draw_trials,
    to_normal_form,
    truth_tables,
    utility_sweep,
    var_mask,
)
from .lp import LinearProgram, Optimal, solve_lp, variable_ranges
from .lp import solution_unique  # noqa: F401 - perfbench patches it here


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


# --- reply systems and the zero-sum value ------------------------------------


def _reply_system(payoff, own, best, bound=None):
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


def _value_program(nf, player):
    """(program, solution): ``player``'s value program in the collapsed
    constant-sum game ``nf``, solved (``u`` ends at minus the value), and
    pinned at that optimum: its feasible set is the optimal strategies."""
    payoff = list(zip(*nf.payoffs[0])) if player == 0 else nf.payoffs[1]
    lp = _reply_system([[-x for x in row] for row in payoff],
                       range(nf.shape[player]), ())
    lp.set_objective({"u": 1}, "minimize")
    out = solve_lp(lp)
    if not isinstance(out, Optimal):
        raise SolverError("value program unexpectedly unsolvable")
    lp.add_constraint({"u": 1}, "=", out.solution["u"])
    return lp, out.solution


def zero_sum_value(nf):
    """(value for player 1, a maxmin weight vector) of a constant-sum game:
    player 1's value program's optimum on the collapsed game, each class
    of identical rows weighted on its first member."""
    if constant_sum(nf) is None:
        raise SolverError("game is not constant-sum")
    small, classes = nf.collapse(nf.payoffs[:1])
    _, sol = _value_program(small, 0)
    weights = [Fraction(0)] * nf.shape[0]
    for k, c in enumerate(classes[0]):
        weights[c[0]] = sol[k]
    return -sol["u"], weights


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


def _halves(nf, support, bounds=None):
    """The two reply systems of support pair (X, Y), x-half first, built
    one at a time; the pair's equilibria are their solutions' products.
    The x-half (from B transposed) holds player 1's weights on X that make
    each column in Y a best reply, its ``u`` is beta; the y-half (from A)
    holds player 2's on Y, its ``u`` is alpha.  ``bounds``: lower bounds
    (alpha, beta), either may be None."""
    a, b = _require_two_player(nf)
    m, n = nf.shape
    X, Y = [sorted(set(s)) for s in support]
    if not X or not Y or X[0] < 0 or Y[0] < 0 or X[-1] >= m or Y[-1] >= n:
        raise SolverError("malformed support pair")
    alpha, beta = bounds or (None, None)
    yield _reply_system(list(zip(*b)), X, set(Y), beta)
    yield _reply_system(a, Y, set(X), alpha)


def equilibrium_for_support(nf, support, bounds=None):
    """A witness equilibrium with support within (X, Y), or None."""
    weights, payoffs = [], []
    for lp in _halves(nf, support, bounds):
        out = solve_lp(lp)
        if not isinstance(out, Optimal):
            return None
        payoffs.append(out.solution.pop("u"))
        weights.append(out.solution)
    # the x-half's u is player 2's payoff
    return EquilibriumWitness(*weights, payoffs[::-1])


def _support_ranges(nf, support, names=(None, None)):
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


def support_pairs(nf, cap=DEFAULT_DEVIATION_CAP):
    """All support pairs, increasing total size then lexicographic."""
    _require_two_player(nf)
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
    """First equilibrium witness with payoffs at least v (a pair of lower
    bounds, or None for any equilibrium), else None: the collapsed game's
    first, each class's weight on its first member."""
    nf = as_normal_form(g_or_nf)
    small, classes = nf.collapse(nf.payoffs)
    for sp in support_pairs(small, cap):
        w = equilibrium_for_support(small, sp, bounds=v)
        if w is not None:
            x, y = ({side[k][0]: p for k, p in weights.items()}
                    for side, weights in zip(classes, (w.x, w.y)))
            return EquilibriumWitness(x, y, w.payoffs)
    return None


def forall_guarantee_nash(g_or_nf, v, cap=DEFAULT_DEVIATION_CAP):
    """True iff every equilibrium pays every player i at least v[i]."""
    nf = as_normal_form(g_or_nf)
    nf, _ = nf.collapse(nf.payoffs)
    v = [Fraction(x) for x in v]
    for sp in support_pairs(nf, cap):
        # the x-half's u is beta, the y-half's alpha
        ranges = _support_ranges(nf, sp, (["u"], ["u"]))
        if ranges is not None and (ranges[1]["u"][0] < v[0]
                                   or ranges[0]["u"][0] < v[1]):
            return False
    return True


def _equilibrium_points(nf, cap):
    """Each feasible system's one equilibrium, as nonzero weights per
    player, ending with None at the first system with a continuum: a
    weight that ranges, or weight on a class of two or more strategies.
    A system is two polytopes whose product is a set of the collapsed
    game's equilibria: a support pair's halves, or in a constant-sum game
    (classes keyed on A alone, as B = c - A) the optimal-strategy sets."""
    c = constant_sum(nf)
    small, classes = nf.collapse(nf.payoffs[:1] if c is not None
                                 else nf.payoffs)
    if c is None:  # per system, its weights' ranges, or None if infeasible
        systems = (_support_ranges(small, sp, sp)
                   for sp in support_pairs(small, cap))
    else:
        programs = (_value_program(small, p)[0] for p in (0, 1))
        systems = [[variable_ranges(lp, lp.variables[:-1]) for lp in programs]]
    for ranges in filter(None, systems):
        if any(lo != hi or (lo and len(side[j]) > 1)
               for half, side in zip(ranges, classes)
               for j, (lo, hi) in half.items()):
            yield None
            return
        yield [{j: lo for j, (lo, _) in half.items() if lo}
               for half in ranges]


def unique_nash(g_or_nf, cap=DEFAULT_DEVIATION_CAP):
    """True iff the game has exactly one equilibrium: every system of the
    collapsed game gives the same point, and none a continuum."""
    first = None
    for point in _equilibrium_points(as_normal_form(g_or_nf), cap):
        if point is None or first not in (None, point):
            return False
        first = point
    if first is None:
        raise SolverError("no equilibrium found (should be impossible)")
    return True


def irrational_nash(g_or_nf, cap=DEFAULT_DEVIATION_CAP):
    """True iff the game has an irrational equilibrium: a two-player game
    has one exactly when it has a continuum of equilibria."""
    return any(point is None for point in
               _equilibrium_points(as_normal_form(g_or_nf), cap))


# --- formula-in-equilibrium ---------------------------------------------------


def nash_sat(g, phi, mode, cap=DEFAULT_DEVIATION_CAP, nf=None):
    """Whether some (exists) / every (forall) equilibrium realizes phi a.s.
    ``nf``: the expansion of ``g``, if the caller has it already."""
    if not isinstance(g, BooleanGame):
        raise SolverError("nash_sat needs a BooleanGame")
    if g.players != 2:
        raise SolverError("nash_sat requires two players")
    foreign = free_vars(phi) - set(g.all_vars())
    if foreign:
        raise SolverError("formula uses foreign variables: %s"
                          % ", ".join(sorted(foreign)))
    nf = to_normal_form(g) if nf is None else nf
    (sat,) = truth_tables(g, [phi])
    # two strategies are interchangeable only if they also agree on phi
    nf, classes = nf.collapse([*nf.payoffs, sat])
    sat = [[sat[r[0]][c[0]] for c in classes[1]] for r in classes[0]]
    if mode == "exists":
        for X, Y in support_pairs(nf, cap):
            if all(sat[i][j] for i in X for j in Y):
                if equilibrium_for_support(nf, (X, Y)) is not None:
                    return True
        return False
    if mode == "forall":
        for X, Y in support_pairs(nf, cap):
            bad = [(i, j) for i in X for j in Y if not sat[i][j]]
            if not bad:
                continue
            # a violating pair occurs with positive probability in some
            # equilibrium of this system iff x_i and y_j can each be made
            # positive (the halves' solutions combine freely)
            ranges = _support_ranges(nf, (X, Y), [set(s) for s in zip(*bad)])
            if ranges is not None and any(
                    ranges[0][i][1] > 0 and ranges[1][j][1] > 0
                    for i, j in bad):
                return False
        return True
    raise SolverError("mode must be 'exists' or 'forall'")


# --- equilibrium verification -------------------------------------------------


def check_deviation_cap(g, i, cap=DEFAULT_DEVIATION_CAP, sample=None):
    """(used, count): player i's variables in its goal (the others change
    no utility) and the pure deviations ``best_deviation_gain`` tries,
    2^used or ``sample``; a count over ``cap`` raises ResourceCapError."""
    used = len(free_vars(g.goals[i]) & set(g.var_sets[i]))
    count = 1 << used if sample is None else max(sample, 0)
    if count > cap:
        raise ResourceCapError(
            "player %d: %d pure deviations to try; cap is %d"
            % (i + 1, count, cap)
        )
    return used, count


def best_deviation_gain(g, sigma, i, cap=DEFAULT_DEVIATION_CAP, sample=None,
                        seed=0):
    """(baseline EU, best pure-deviation EU) for player i against sigma.

    Deviations range over the player's variables that occur in its goal,
    exhaustively by default; more than ``cap`` of them raise
    ResourceCapError before any work (``check_deviation_cap``).  With
    ``sample`` set, that many uniformly random pure strategies are tried
    instead (no-counterexample-found semantics): deviation r takes the r-th
    ``used`` bytes of ``game.draw_trials(seed, sample * used)``, one per used
    variable in the goal's first-occurrence order (``formula.var_order``).
    """
    used, count = check_deviation_cap(g, i, cap, sample)
    if sample is None:
        masks = [var_mask(t, count) for t in range(used)]
    else:
        masks = draw_masks(draw_trials(seed, count * used), used)
    return utility_sweep(g, sigma, i, count, masks)


def is_nash(g_or_nf, sigma, cap=DEFAULT_DEVIATION_CAP, sample=None, seed=0):
    """True iff no player has a strictly improving pure deviation.

    Exact over all pure deviations by default; with ``sample`` set, each
    player's deviations are checked on that many uniformly random pure
    strategies instead, drawn for each player from ``seed`` as
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
    a, b = _require_two_player(nf)
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
    """All pure-strategy equilibria, in strategy enumeration order: full
    assignments when the normal form has a strategy index (a Boolean game
    or its expansion), else index tuples."""
    nf = as_normal_form(g_or_nf, cap)

    def stable(idx):
        return all(nf.payoff(i, idx[:i] + (alt,) + idx[i + 1:])
                   <= nf.payoff(i, idx)
                   for i in range(nf.players) for alt in range(nf.shape[i]))

    result = [idx for idx in itertools.product(*map(range, nf.shape))
              if stable(idx)]
    if nf.strategy_index is not None:
        return [{k: v for i, j in enumerate(idx)
                 for k, v in nf.strategy_index[i][j].items()}
                for idx in result]
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
