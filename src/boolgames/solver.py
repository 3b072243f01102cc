"""Equilibrium computation: zero-sum values, support enumeration, vertex
enumeration, uniqueness, formula-in-equilibrium queries, equilibrium
verification, and irrationality tests.

Every two-player query runs on the collapsed game: one strategy per class
of strategies with the same row in both payoff matrices, which trade
weight freely with no payoff changing.  A witness puts each class's weight
on its first member; an equilibrium that weights a class of two or more is
a continuum.  A Boolean game's expansion (``game.Expansion``) answers the
constant-sum test with bit operations on its goal masks and collapses
with ``Expansion.collapse_masks``, so no query builds its nested payoff
tables; a JSON normal form collapses with ``NormalForm.collapse``.

The queries about every equilibrium (``unique_nash``, ``irrational_nash``,
``forall_guarantee_nash``, ``nash_sat``) read one list of the collapsed
game's extreme equilibria: the completely labelled pairs of vertices of the
two best-response polytopes, found by solving each square system of
best-reply equations exactly (Avis, Rosenberg, Savani & von Stengel,
"Enumeration of Nash equilibria for two-player games", Economic Theory 42,
2010).  On a constant-sum game, ``unique_nash``, ``irrational_nash`` and
``forall_guarantee_nash`` read the value programs instead.

Every LP is a reply system (``_reply_system``): one player's weights
against the opponent's pure replies.  Its variables are the player's
strategy indices (each one's weight) and ``u``, so a solution reads back
with no renaming.  A support pair is two of them, one per player; support
enumeration over them finds the witnesses of ``exists_guarantee_nash``.  A
constant-sum game's value program is one per player, with no forced best
reply and ``u`` minimized.

Two-player operations accept either a BooleanGame (expanded under a cell cap)
or a NormalForm directly.  Player indices are 0-based.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .formula import compile_formula  # noqa: F401 - perfbench patches it here
from .formula import free_vars
from .game import (
    DEFAULT_CELL_CAP,
    DEFAULT_DEVIATION_CAP,
    BooleanGame,
    Expansion,
    GameError,
    MixedProfile,
    NormalForm,
    ResourceCapError,
    draw_masks,
    draw_trials,
    profile_masks,
    to_normal_form,
    utility_sweep,
    var_mask,
)
from .lp import (
    LinearProgram,
    Optimal,
    solve_lp,
    square_solutions,
    variable_ranges,
)
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
    """The constant c with A+B = c everywhere, or None if not constant-sum.
    An expansion's goal masks answer with bit operations: c is 1 when the
    masks are complements, 0 or 2 when both are empty or full."""
    if isinstance(nf, Expansion) and nf.players == 2:
        a, b = nf.masks
        full = (1 << math.prod(nf.shape)) - 1
        if a ^ b == full:
            return 1
        if a == b and a in (0, full):
            return 2 if a else 0
        return None
    a, b = _require_two_player(nf)
    c = a[0][0] + b[0][0]
    want = {c}
    for row_a, row_b in zip(a, b):
        if set(map(operator.add, row_a, row_b)) != want:
            return None
    return c


def _collapse(nf, keyed):
    """``nf.collapse`` keyed on its first ``keyed`` payoff matrices; an
    expansion's classes are read from its goal masks."""
    if isinstance(nf, Expansion):
        return nf.collapse_masks(nf.masks[:keyed])
    return nf.collapse(nf.payoffs[:keyed])


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
    small, classes = _collapse(nf, 1)
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
    small, classes = _collapse(nf, 2)
    for sp in support_pairs(small, cap):
        w = equilibrium_for_support(small, sp, bounds=v)
        if w is not None:
            x, y = ({side[k][0]: p for k, p in weights.items()}
                    for side, weights in zip(classes, (w.x, w.y)))
            return EquilibriumWitness(x, y, w.payoffs)
    return None


# --- vertex enumeration ------------------------------------------------------


def _positive_ints(p):
    """``p`` times the lcm of its denominators, plus the constant that
    makes every entry at least 1: the same best replies, so the same
    equilibria."""
    scale = math.lcm(*[x.denominator for row in p for x in row])
    q = [[x.numerator * (scale // x.denominator) for x in row] for row in p]
    shift = 1 - min(map(min, q))
    return [[x + shift for x in row] for row in q]


def _vertices(q):
    """{vertex: (support, tight)} over the nonzero vertices of the polytope
    {w >= 0 : sum_s q[s][c] w_s <= 1 for every column c} of the int matrix
    ``q``, whose entries are positive.  A vertex w = (w_0, ...) / d is the
    int tuple (w_0, ..., d) reduced by its gcd; ``support`` and ``tight``
    are bitmasks of the s with w_s > 0 and of the columns whose constraint
    holds with equality, read from the exact point (a degenerate vertex
    solves several systems).

    Every nonzero vertex solves sum_{s in X} q[s][c] w_s = 1 for c in J,
    w_s = 0 off X, for some nonsingular block with |X| = |J|; each such
    square system is solved and its solution kept when feasible."""
    own, cons = len(q), len(q[0])
    vertices = {}
    for k in range(1, min(own, cons) + 1):
        for X in itertools.combinations(range(own), k):
            cols = [[q[s][c] for s in X] for c in range(cons)]
            for w, d in square_solutions([col + [1] for col in cols], k):
                if min(w) < 0:
                    continue
                tight = 0
                for c, col in enumerate(cols):
                    load = sum(map(operator.mul, col, w))
                    if load > d:
                        break
                    if load == d:
                        tight |= 1 << c
                else:
                    full = [0] * own
                    for s, ws in zip(X, w):
                        full[s] = ws
                    g = math.gcd(d, *full)
                    support = sum(1 << s for s, ws in zip(X, w) if ws)
                    vertices[tuple(x // g for x in full + [d])] = (support,
                                                                  tight)
    return vertices


def _extreme_equilibria(nf, cap=DEFAULT_DEVIATION_CAP):
    """Every extreme equilibrium of the two-player game ``nf`` as (x, y),
    tuples of Fraction weights: the completely labelled pairs of nonzero
    vertices of P = {x >= 0 : B'^T x <= 1} and Q = {y >= 0 : A'y <= 1}, A'
    and B' the payoffs made positive integers, normalized.  In such a pair
    every strategy of each player is unplayed or a best reply.  The
    equilibria are the union, over the maximal bicliques of these pairs, of
    the products of the two sides' convex hulls.  The 2 (C(m + n, m) - 1)
    square systems this solves on an m x n game are checked against ``cap``
    before any work."""
    a, b = _require_two_player(nf)
    m, n = nf.shape
    count = 2 * (math.comb(m + n, m) - 1)
    if count > cap:
        raise ResourceCapError(
            "vertex enumeration on the %dx%d collapsed game solves %d square "
            "systems; cap is %d" % (m, n, count, cap))
    xs = _vertices(_positive_ints(b))
    ys = _vertices(_positive_ints(list(zip(*a))))
    pairs = [(x, y) for x, (x_support, x_tight) in xs.items()
             for y, (y_support, y_tight) in ys.items()
             if not x_support & ~y_tight and not y_support & ~x_tight]
    if not pairs:
        raise SolverError("no equilibrium found (should be impossible)")
    return [tuple(tuple(Fraction(w, sum(v[:-1])) for w in v[:-1])
                  for v in pair) for pair in pairs]


def _best_reply_payoff(payoff, w):
    """The payoff of the best pure reply, a row of ``payoff``, to ``w``."""
    return max(sum(map(operator.mul, row, w)) for row in payoff)


def _equilibrium_count(nf, cap):
    """The number of extreme equilibria of the collapsed game, or None if
    the game has a continuum of equilibria: a vertex in two extreme
    equilibria (an edge of a maximal Nash subset), or weight on a class of
    two or more strategies.  A constant-sum game (classes keyed on A alone,
    as B = c - A) has one equilibrium set, the product of the two
    optimal-strategy sets, a continuum if a weight ranges over it."""
    c = constant_sum(nf)
    small, classes = _collapse(nf, 2 if c is None else 1)
    if c is None:
        pairs = _extreme_equilibria(small, cap)
    else:
        programs = (_value_program(small, p)[0] for p in (0, 1))
        ranges = [variable_ranges(lp, lp.variables[:-1]) for lp in programs]
        if any(lo != hi for half in ranges for lo, hi in half.values()):
            return None
        pairs = [tuple(tuple(lo for lo, _ in half.values())
                       for half in ranges)]
    for vertices, side in zip(zip(*pairs), classes):
        if len(set(vertices)) < len(vertices) or any(
                w and len(side[s]) > 1 for v in vertices
                for s, w in enumerate(v)):
            return None
    return len(pairs)


def forall_guarantee_nash(g_or_nf, v, cap=DEFAULT_DEVIATION_CAP):
    """True iff every equilibrium pays every player i at least v[i]: in a
    constant-sum game every one pays (value, c - value); otherwise each
    player's payoff is linear on each maximal Nash subset, so the extreme
    equilibria decide."""
    nf = as_normal_form(g_or_nf)
    v = [Fraction(x) for x in v]
    c = constant_sum(nf)
    if c is not None:
        value, _ = zero_sum_value(nf)
        return value >= v[0] and c - value >= v[1]
    small, _ = _collapse(nf, 2)
    a, b = small.payoffs
    b_cols = list(zip(*b))
    return all(_best_reply_payoff(a, y) >= v[0]
               and _best_reply_payoff(b_cols, x) >= v[1]
               for x, y in _extreme_equilibria(small, cap))


def unique_nash(g_or_nf, cap=DEFAULT_DEVIATION_CAP):
    """True iff the game has exactly one equilibrium."""
    return _equilibrium_count(as_normal_form(g_or_nf), cap) == 1


def irrational_nash(g_or_nf, cap=DEFAULT_DEVIATION_CAP):
    """True iff the game has an irrational equilibrium: a two-player game
    has one exactly when it has a continuum of equilibria."""
    return _equilibrium_count(as_normal_form(g_or_nf), cap) is None


# --- formula-in-equilibrium ---------------------------------------------------


def nash_sat(g, phi, mode, cap=DEFAULT_DEVIATION_CAP, nf=None):
    """Whether some (exists) / every (forall) equilibrium realizes phi a.s.
    ``nf``: the expansion of ``g``, if the caller has it already."""
    if not isinstance(g, BooleanGame):
        raise SolverError("nash_sat needs a BooleanGame")
    if mode not in ("exists", "forall"):
        raise SolverError("mode must be 'exists' or 'forall'")
    if g.players != 2:
        raise SolverError("nash_sat requires two players")
    foreign = free_vars(phi) - set(g.all_vars())
    if foreign:
        raise SolverError("formula uses foreign variables: %s"
                          % ", ".join(sorted(foreign)))
    nf = to_normal_form(g) if nf is None else nf
    (sat,) = profile_masks(g, [phi])
    # two strategies are interchangeable only if they also agree on phi
    small, classes = nf.collapse_masks([*nf.masks, sat])
    sat = nf.restrict(sat, classes)
    # phi holds a.s. in some equilibrium of a maximal Nash subset iff it
    # holds on the supports of one of its extreme equilibria, and fails in
    # some iff it fails on the supports of one
    holds = (all(sat[i][j] for i, xi in enumerate(x) if xi
                 for j, yj in enumerate(y) if yj)
             for x, y in _extreme_equilibria(small, cap))
    return any(holds) if mode == "exists" else all(holds)


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
