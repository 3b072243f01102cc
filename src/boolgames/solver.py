"""Equilibrium computation: zero-sum values, vertex enumeration of the
extreme equilibria, uniqueness, formula-in-equilibrium queries, equilibrium
verification, and irrationality tests.

Every two-player query runs on the collapsed game: one strategy per class
of strategies with the same row in both payoff matrices, which trade
weight freely with no payoff changing.  A witness puts each class's weight
on its first member; an equilibrium that weights a class of two or more is
a continuum.  Classes group by both payoff matrices
(``NormalForm.collapse``), also if A + B = c, where rows agree in A
exactly when they agree in B.  A Boolean game's expansion answers the
constant-sum test and finds the pure equilibria with bit operations on its
goal masks, and collapses from them (``game.Expansion``), so no query
builds its nested payoff tables.

The guarantee, uniqueness and irrationality queries read one stream of
equilibria of the collapsed game (``_equilibria``).  In a general-sum game
it is the extreme equilibria, which ``nash_sat`` reads in every game: the
completely labelled pairs of vertices of the two best-response polytopes
(Avis, Rosenberg, Savani & von Stengel, Economic Theory 42, 2010), found
by the double description method and yielded as they are matched, so the
exists and forall queries stop at the first pair that decides them.  In a constant-sum game it
is the two players' value programs' optima (``_value_program``).

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


# --- the zero-sum value -------------------------------------------------------


def _value_program(nf, player):
    """(program, weights, value): ``player``'s value program in the
    collapsed constant-sum game ``nf``, pinned at its optimum so that its
    feasible set is the optimal strategies; an optimal strategy, by
    strategy index; and the player's value.

    Its variables are the player's strategy indices j (the weight w_j) and
    ``u``, free; each opponent reply i adds ``-sum_j payoff[i][j] w_j - u
    <= 0``, ``payoff[i][j]`` the player's payoff at j against i; then comes
    ``sum w = 1``, and ``u`` is minimized."""
    payoff = list(zip(*nf.payoffs[0])) if player == 0 else nf.payoffs[1]
    own = range(nf.shape[player])
    lp = LinearProgram()
    for j in own:
        lp.add_variable(j)
    lp.add_variable("u", nonneg=False)
    for row in payoff:
        coeffs = {j: -row[j] for j in own}
        coeffs["u"] = -1
        lp.add_constraint(coeffs, "<=", 0)
    lp.add_constraint(dict.fromkeys(own, 1), "=", 1)
    lp.set_objective({"u": 1}, "minimize")
    out = solve_lp(lp)
    if not isinstance(out, Optimal):
        raise SolverError("value program unexpectedly unsolvable")
    u = out.solution["u"]  # minus the value
    lp.add_constraint({"u": 1}, "=", u)
    return lp, tuple(out.solution[j] for j in own), -u


def zero_sum_value(nf):
    """(value for player 1, a maxmin weight vector) of a constant-sum game:
    player 1's value program's optimum on the collapsed game, each class
    of identical rows weighted on its first member."""
    if constant_sum(nf) is None:
        raise SolverError("game is not constant-sum")
    small, classes, _ = nf.collapse()
    _, x, value = _value_program(small, 0)
    weights = [Fraction(0)] * nf.shape[0]
    for c, w in zip(classes[0], x):
        weights[c[0]] = w
    return value, weights


# --- vertex enumeration ------------------------------------------------------


class EquilibriumWitness:
    """An equilibrium: an extreme equilibrium of the collapsed game, or a
    constant-sum game's pair of optimal strategies.  x and y map strategy
    indices to positive weights; payoffs is the (player 1, player 2)
    expected-utility pair."""

    def __init__(self, x, y, payoffs):
        self.x = {i: w for i, w in x.items() if w != 0}
        self.y = {j: w for j, w in y.items() if w != 0}
        self.payoffs = tuple(payoffs)


# no library caller: perfbench's tracer patches and counts it here, and it
# is the pair order of the support-enumeration oracle, tests/reference_nash.py
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


def _bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _holders(masks, width):
    """Per label below ``width``, the bitset of the i whose masks[i] has it."""
    # one string of bits per mask, lowest label first, read column by column
    rows = [format(mask, "0%db" % width)[::-1] for mask in masks]
    return [int("".join(column)[::-1], 2) for column in zip(*rows)]


def _vertices(payoff, cap=DEFAULT_DEVIATION_CAP, where="the polytope"):
    """Each nonzero vertex w of {w >= 0 : sum_s q[s][c] w_s <= 1 for every
    column c}, q = ``payoff`` times the lcm of its denominators plus the
    shift that makes its least entry 1 (the same best replies), as
    (weights, value, support, tight) in order of support size: w
    normalized, the payoff of its best replies (the columns c that hold
    with equality), and bitmasks of the s with w_s > 0 and of those
    columns.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) of the
    cone {(w, t) >= 0 : t - sum_s q[s][c] w_s >= 0}, whose extreme rays
    are the vertices w / t, as int tuples reduced by their gcd: from the
    orthant's unit rays each column is added in turn, keeping the rays that
    meet it and joining each adjacent pair across its hyperplane.  Zero
    sets are bitmasks of labels (w_s = 0, t = 0, then the columns); two
    rays are adjacent iff no third one's zero set holds their common one.
    More than ``cap`` rays held at once raise ResourceCapError."""
    scale = math.lcm(*[x.denominator for row in payoff for x in row])
    ints = [[x.numerator * (scale // x.denominator) for x in row]
            for row in payoff]
    shift = 1 - min(map(min, ints))
    own, cons = len(ints), len(ints[0])
    dim = own + 1
    # the origin's ray (0, ..., 0, 1) first: every column keeps it there
    rays = [tuple(int(s == k) for s in range(dim)) for k in (own, *range(own))]
    zeros = [((1 << dim) - 1) ^ (1 << k) for k in (own, *range(own))]
    for c in range(cons):
        a = [-ints[s][c] - shift for s in range(own)] + [1]
        side = [sum(map(operator.mul, a, r)) for r in rays]
        new = 1 << (dim + c)
        out = [(r, z | new * (v == 0))
               for r, z, v in zip(rays, zeros, side) if v >= 0]
        neg = [(n, zeros[n]) for n, v in enumerate(side) if v < 0]
        pos = [p for p, v in enumerate(side) if v > 0] if neg else []
        has = _holders(zeros, dim + c) if pos else None
        everyone = (1 << len(rays)) - 1
        for p in pos:
            # adjacent rays of a dim-dimensional cone share dim - 2 zeros
            for n, common in [(n, common) for n, z in neg
                              if (common := zeros[p] & z).bit_count()
                              >= dim - 2]:
                held = everyone
                for label in _bits(common):
                    held &= has[label]
                if held != (1 << p) | (1 << n):
                    continue
                ray = [side[p] * x - side[n] * y
                       for x, y in zip(rays[n], rays[p])]
                g = math.gcd(*ray)
                out.append((tuple(x // g for x in ray), common | new))
                if len(out) > cap:
                    raise ResourceCapError(
                        "vertex enumeration on %s holds %d rays at "
                        "constraint %d of %d; cap is %d"
                        % (where, len(out), c + 1, cons, cap))
        rays, zeros = (list(half) for half in zip(*out))
    found = []
    for ray, z in zip(rays[1:], zeros[1:]):
        total = sum(ray[:-1])
        found.append((tuple(Fraction(w, total) for w in ray[:-1]),
                      (Fraction(ray[-1], total) - shift) / scale,
                      ~z & ((1 << own) - 1), z >> dim))
    return sorted(found, key=lambda v: v[2].bit_count())


def _extreme_equilibria(nf, cap=DEFAULT_DEVIATION_CAP):
    """Each extreme equilibrium of the two-player game ``nf`` once, as (x,
    y, payoffs): the completely labelled pairs of vertices of P = {x >= 0 :
    B^T x <= 1} and Q = {y >= 0 : A y <= 1}, payoffs made positive ints
    (``_vertices``), in which each player plays only best replies.  The
    equilibria are the union, over the maximal bicliques of these pairs, of
    the products of the two sides' convex hulls.  Labels are the rows, then
    the columns: a y has the rows that are best replies and the columns it
    leaves unplayed, and an x pairs with the y that have every label x
    lacks.  Pairs are yielded x by x; ``cap`` bounds each polytope's rays."""
    a, b = _require_two_player(nf)
    m, n = nf.shape
    where = "the %dx%d collapsed game's polytope of player %%d" % (m, n)
    xs = _vertices(b, cap, where % 1)
    ys = _vertices(list(zip(*a)), cap, where % 2)
    cols = (1 << n) - 1
    has = _holders([tight | (~support & cols) << m
                    for *_, support, tight in ys], m + n)
    paired = False
    for x, beta, support, tight in xs:
        partners = (1 << len(ys)) - 1
        for label in _bits(support | (~tight & cols) << m):
            partners &= has[label]
        for k in _bits(partners):
            paired = True
            y, alpha, _, _ = ys[k]
            yield x, y, (alpha, beta)
    if not paired:
        raise SolverError("no equilibrium found (should be impossible)")


def _equilibria(nf, cap):
    """(classes, programs, found) of the two-player game ``nf``: the classes
    of its collapse (``NormalForm.collapse``), and ``found``, (x, y,
    payoffs) over equilibria of the collapsed game that decide the
    guarantee, uniqueness and irrationality queries.  In a general-sum game
    these are the extreme equilibria, yielded as they are matched, and
    ``programs`` is None.  A constant-sum game's equilibria are the product
    of the two optimal-strategy sets, every one paying (value, c - value),
    so ``found`` is one pair, the two value programs' optima, and
    ``programs`` are those programs pinned at their optima."""
    c = constant_sum(nf)
    small, classes, _ = nf.collapse()
    if c is None:
        return classes, None, _extreme_equilibria(small, cap)
    (p, x, value), (q, y, _) = (_value_program(small, k) for k in (0, 1))
    return classes, (p, q), [(x, y, (value, c - value))]


def _equilibrium_count(nf, cap):
    """The number of extreme equilibria of the collapsed game, or None if
    the game has a continuum of equilibria: a vertex in two extreme
    equilibria (an edge of a maximal Nash subset), weight on a class of two
    or more strategies, or, in a constant-sum game, a weight that ranges
    over an optimal-strategy set."""
    classes, programs, found = _equilibria(nf, cap)
    pairs = [(x, y) for x, y, _ in found]
    if programs and any(lo != hi for lp in programs for lo, hi in
                        variable_ranges(lp, lp.variables[:-1]).values()):
        return None
    for vertices, side in zip(zip(*pairs), classes):
        if len(set(vertices)) < len(vertices) or any(
                w and len(side[s]) > 1 for v in vertices
                for s, w in enumerate(v)):
            return None
    return len(pairs)


def exists_guarantee_nash(g_or_nf, v, cap=DEFAULT_DEVIATION_CAP):
    """An equilibrium witness paying every player i at least v[i] (v None:
    any equilibrium), each class's weight on its first member, else None.
    On a maximal Nash subset each player's payoff is linear in the
    opponent's strategy alone, so if some equilibrium meets v an extreme
    one does: the first found that meets it is returned (``_equilibria``)."""
    classes, _, found = _equilibria(as_normal_form(g_or_nf), cap)
    for x, y, payoffs in found:
        if v is None or (payoffs[0] >= v[0] and payoffs[1] >= v[1]):
            x, y = ({side[k][0]: w[k] for k in range(len(side))}
                    for side, w in zip(classes, (x, y)))
            return EquilibriumWitness(x, y, payoffs)
    return None


def forall_guarantee_nash(g_or_nf, v, cap=DEFAULT_DEVIATION_CAP):
    """True iff every equilibrium pays every player i at least v[i]: each
    player's payoff is linear on each maximal Nash subset, and the same on
    every equilibrium of a constant-sum game, so ``_equilibria`` decide."""
    v = [Fraction(x) for x in v]
    _, _, found = _equilibria(as_normal_form(g_or_nf), cap)
    return all(p1 >= v[0] and p2 >= v[1] for _, _, (p1, p2) in found)


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
    small, _, (sat,) = nf.collapse((sat,))
    # phi holds a.s. in some equilibrium of a maximal Nash subset iff it
    # holds on the supports of one of its extreme equilibria, and fails in
    # some iff it fails on the supports of one
    holds = (all(sat[i][j] for i, xi in enumerate(x) if xi
                 for j, yj in enumerate(y) if yj)
             for x, y, _ in _extreme_equilibria(small, cap))
    return any(holds) if mode == "exists" else all(holds)


# --- equilibrium verification -------------------------------------------------


def check_deviation_cap(g, i, cap=DEFAULT_DEVIATION_CAP, sample=None):
    """(used, count): player i's variables in its goal (the others change
    no utility) and the pure deviations ``best_deviation_gain`` tries,
    2^used or ``sample``; a count over ``cap`` raises ResourceCapError."""
    owners = g.owners
    used = sum(1 for v in g.goal_vars[i] if owners[v] == i)
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
    assignments for a Boolean game or its expansion, else index tuples.
    An expansion folds each goal mask over its player's variable bits into
    ``wins``, the profiles from which that player can win, and keeps the
    profiles where every player wins already or ``wins`` is clear."""
    nf = as_normal_form(g_or_nf, cap)
    if isinstance(nf, Expansion):
        cells = math.prod(nf.shape)
        stable, top = (1 << cells) - 1, len(nf.names)
        for sat, size in zip(nf.masks, nf.shape):
            wins, low = sat, top - size.bit_length() + 1
            for b in range(low, top):  # the player's bits
                high, step = var_mask(b, cells), 1 << b
                wins |= (wins & high) >> step | (wins & ~high) << step
            stable &= sat | ~wins
            top = low
        bits = "0%db" % len(nf.names)
        return [dict(zip(nf.names, (c == "1" for c in format(p, bits))))
                for p in _bits(stable)]
    return [idx for idx in itertools.product(*map(range, nf.shape))
            if all(nf.payoff(i, idx[:i] + (alt,) + idx[i + 1:])
                   <= nf.payoff(i, idx)
                   for i in range(nf.players) for alt in range(nf.shape[i]))]
