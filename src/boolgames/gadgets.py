"""Fixed-value and parametric zero-sum gadget games, the game algebra over
them, and the quadratic scoring function used by the equilibrium-testing
construction.

The fixed-value game G(a/b) is an interval-covering contest: player 1 names
an a-element cyclic interval of Z_b (plus bookkeeping values s, t that pin
down the wrap-around case), player 2 names a point; player 1 wins iff the
point is covered or out of range.  Its value is exactly a/b and, away from
the 0/1 boundary, its equilibrium (both sides uniform) is unique.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .encodings import (
    assign_bits,
    build_arithmetic,
    build_comparison,
    const_bits,
    var_bits,
)
from .formula import FALSE, TRUE, Not, Or, conj, disj, rename_vars
from .game import BooleanGame, MixedProfile, namespaced, product_profile


class GadgetError(Exception):
    pass


class GadgetBundle:
    """A constructed gadget game with its metadata.

    role_vars maps role names ("p", "q", "s", "t", "r", and "u" for the
    parametric game) to variable-name sequences; equilibrium is a bundled
    MixedProfile where one is known (else None), built by the function
    build_equilibrium the first time it is read.
    """

    def __init__(self, game, role_vars, value=None, build_equilibrium=None):
        self.game = game
        self.role_vars = role_vars
        self.value = value
        self.build_equilibrium = build_equilibrium

    @functools.cached_property
    def equilibrium(self):
        return self.build_equilibrium and self.build_equilibrium()


def _assign_all(pairs):
    """One assignment setting each (sequence, value) pair's bits."""
    return {name: bit for seq, value in pairs
            for name, bit in assign_bits(seq, value).items()}


def fixed_value_roles(v, namespace):
    """(role_vars, var_sets) of ``fixed_value_game(v, namespace)``, without
    building its goals: player 1 owns p, q, s and t, player 2 owns r."""
    v = Fraction(v)
    if v < 0 or v > 1:
        raise GadgetError("value must lie in [0, 1]")
    m = max(1, (v.denominator - 1).bit_length())
    role_vars = {x: var_bits("%s.%s" % (namespace, x), m) for x in "pqstr"}
    p, q, s, t, r = role_vars.values()
    return role_vars, [list(p) + list(q) + list(s) + list(t), list(r)]


def fixed_value_game(v, namespace):
    """The zero-sum game G(a/b) with value exactly v = a/b."""
    v = Fraction(v)
    role_vars, var_sets = fixed_value_roles(v, namespace)
    a, b = v.numerator, v.denominator
    p, q, s, t, r = role_vars.values()
    m = len(r)

    if a == 0 or a == b:
        # boundary games: one side's goal is unsatisfiable; the variable
        # scaffold is kept so the shape matches the general construction
        gamma1 = FALSE if a == 0 else TRUE
        game = BooleanGame(var_sets, [gamma1, Not(gamma1)])
        return GadgetBundle(game, role_vars, value=v, build_equilibrium=(
            lambda: MixedProfile([
                [(_assign_all(((p, 0), (q, 0), (s, 0), (t, 0))), Fraction(1))],
                [(assign_bits(r, 0), Fraction(1))],
            ])))

    top = const_bits(b - 1, m)
    zero = const_bits(0, m)
    # straight interval [p, p+a-1], all within range, bookkeeping zeroed
    d1 = conj([
        build_arithmetic("sub", q, p, const_bits(a - 1, m)),
        build_comparison("less_eq", q, top),
        build_comparison("less_eq", r, q),
        build_comparison("less_eq", p, r),
        build_comparison("equal", s, zero),
        build_comparison("equal", t, zero),
    ])
    disjuncts = [d1]
    if a >= 2:
        # wrapped interval [p, b-1] u [0, q] with q = p + a - 1 - b,
        # certified by s = q, t = b-1-p, s + t = a - 2
        d2 = conj([
            build_arithmetic("add", s, t, const_bits(a - 2, m)),
            build_arithmetic("sub", q, zero, s),
            build_arithmetic("sub", top, p, t),
            Or((
                build_comparison("less_eq", r, q),
                build_comparison("less_eq", p, r),
            )),
        ])
        disjuncts.append(d2)
    if b - 1 < (1 << m) - 1:
        # player 2 named a point outside Z_b
        disjuncts.append(build_comparison("less", top, r))
    gamma1 = disj(disjuncts)
    game = BooleanGame(var_sets, [gamma1, Not(gamma1)])

    def equilibrium():
        support1 = []
        for c1 in range(b):
            if c1 + a - 1 <= b - 1:
                end, head, tail = c1 + a - 1, 0, 0
            else:
                end = head = c1 + a - 1 - b
                tail = b - 1 - c1
            assign = _assign_all(((p, c1), (q, end), (s, head), (t, tail)))
            support1.append((assign, Fraction(1, b)))
        support2 = [(assign_bits(r, j), Fraction(1, b)) for j in range(b)]
        return MixedProfile([support1, support2])

    return GadgetBundle(game, role_vars, value=v,
                        build_equilibrium=equilibrium)


def parametric_value_game(namespace, n):
    """The game G(u) whose value, once u is fixed, is u / 2^n.

    Player 1 owns p, q, s, t and the n-bit parameter u; player 2 owns r.
    The intervals here are half-open so each strategy covers exactly u of
    the 2^n points.
    """
    if n < 1:
        raise GadgetError("width must be at least 1")
    ns = namespace
    p = var_bits(ns + ".p", n)
    q = var_bits(ns + ".q", n)
    s = var_bits(ns + ".s", n)
    t = var_bits(ns + ".t", n)
    w = var_bits(ns + ".w", n)
    u = var_bits(ns + ".u", n)
    r = var_bits(ns + ".r", n)
    role_vars = {"p": p, "q": q, "s": s, "t": t, "w": w, "u": u, "r": r}
    var_sets = [
        list(p) + list(q) + list(s) + list(t) + list(w) + list(u),
        list(r),
    ]
    gamma1 = _parametric_goal(p, q, s, t, w, u, r, n)
    game = BooleanGame(var_sets, [gamma1, Not(gamma1)])
    return GadgetBundle(game, role_vars)


def _parametric_goal(p, q, s, t, w, u, r, n):
    top = const_bits((1 << n) - 1, n)
    zero = const_bits(0, n)
    # straight window [p, p+u)
    d1 = conj([
        build_arithmetic("sub", q, p, u),
        build_comparison("less_eq", q, top),
        build_comparison("less", r, q),
        build_comparison("less_eq", p, r),
    ])
    # wrapped window [p, 2^n-1] u [0, q): head count s = q, tail count
    # t = 2^n - p certified via w = 2^n-1-p and t = w+1, with s + t = u
    d2 = conj([
        build_arithmetic("add", s, t, u),
        build_arithmetic("sub", q, zero, s),
        build_arithmetic("sub", top, p, w),
        build_comparison("succ", w, t),
        Or((
            build_comparison("less", r, q),
            build_comparison("less_eq", p, r),
        )),
    ])
    return Or((d1, d2))


def fix_parameter(bundle, value):
    """Pin a parametric gadget's u to a constant.

    Returns (game, equilibrium): the game conjoins u = value onto player 1's
    goal (equivalent to substitution, since playing anything else loses),
    and the equilibrium has player 1 uniform over the 2^n windows and every
    r-owner uniform.
    """
    u = bundle.role_vars.get("u")
    if u is None:
        raise GadgetError("bundle has no parameter to fix")
    n = len(u)
    size = 1 << n
    if not 0 <= value < size:
        raise GadgetError("parameter %d does not fit in %d bits" % (value, n))
    g = bundle.game
    pin = build_comparison("equal", u, const_bits(value, n))
    gamma1 = conj([g.goals[0], pin])
    goals = [gamma1] + [Not(gamma1) for _ in range(g.players - 1)]
    game = BooleanGame(g.var_sets, goals)

    p, q, s, t, w = (bundle.role_vars[k] for k in ("p", "q", "s", "t", "w"))
    support1 = []
    for c1 in range(size):
        if c1 + value <= size - 1:
            end, head, tail, last = c1 + value, 0, 0, 0
        else:
            end = head = c1 + value - size
            tail, last = size - c1, size - 1 - c1
        assign = _assign_all(((p, c1), (u, value), (q, end), (s, head),
                              (t, tail), (w, last)))
        support1.append((assign, Fraction(1, size)))
    strategies = [support1]
    r = bundle.role_vars["r"]
    if g.players == 2:
        strategies.append(
            [(assign_bits(r, j), Fraction(1, size)) for j in range(size)]
        )
    else:
        for i in range(1, g.players):
            bit = g.var_sets[i][0]
            strategies.append(
                [({bit: False}, Fraction(1, 2)), ({bit: True}, Fraction(1, 2))]
            )
    return game, MixedProfile(strategies)


def split_opponent_game(namespace, n):
    """As the parametric game, but each r bit belongs to its own player."""
    bundle = parametric_value_game(namespace, n)
    g = bundle.game
    gamma1 = g.goals[0]
    r = bundle.role_vars["r"]
    var_sets = [g.var_sets[0]] + [[bit] for bit in r]
    goals = [gamma1] + [Not(gamma1) for _ in r]
    game = BooleanGame(var_sets, goals)
    return GadgetBundle(game, bundle.role_vars)


# --- game algebra -------------------------------------------------------------


def _namespaced_copy(bundle, namespace):
    """The operand's variable sets, goals and role vars renamed into
    ``namespace``, and a function that builds its renamed equilibrium (None
    if it has none)."""
    g = bundle.game
    mapping = {v: namespaced(namespace, v) for v in g.all_vars()}
    var_sets = [[mapping[v] for v in vs] for vs in g.var_sets]
    goals = [rename_vars(goal, mapping) for goal in g.goals]
    role_vars = {
        k: tuple(mapping[v] for v in seq) for k, seq in bundle.role_vars.items()
    }
    build = None if bundle.build_equilibrium is None else (
        lambda: MixedProfile([
            [({mapping[k]: b for k, b in a.items()}, w) for a, w in support]
            for support in bundle.equilibrium.strategies
        ]))
    return var_sets, goals, role_vars, build


def _check_zero_sum_bundle(bundle):
    if bundle.game.players != 2:
        raise GadgetError("algebra operands must be two-player")
    # a complement's goals are (~goal, goal)
    goal1, goal2 = bundle.game.goals
    if goal2 != Not(goal1) and goal1 != Not(goal2):
        raise GadgetError("algebra operands must be zero-sum (goal2 = ~goal1)")


def combine_games(kind, g1, g2=None, namespace="c"):
    """sum / product / complement of zero-sum gadget bundles.

    Values combine as v+w-vw, vw, and 1-v respectively; complement is a
    role switch (the players trade variable sets and goals).
    """
    _check_zero_sum_bundle(g1)
    if kind == "complement":
        if g2 is not None:
            raise GadgetError("complement takes one operand")
        var_sets, goals, role_vars, build = _namespaced_copy(g1, namespace)
        swapped = BooleanGame(var_sets[::-1], goals[::-1])
        value = None if g1.value is None else 1 - g1.value
        return GadgetBundle(swapped, role_vars, value=value, build_equilibrium=(
            None if build is None
            else lambda: MixedProfile(build().strategies[::-1])))
    if g2 is None:
        raise GadgetError("%s needs two operands" % kind)
    _check_zero_sum_bundle(g2)
    vars1, goals1, roles1, build1 = _namespaced_copy(g1, namespace + ".a")
    vars2, goals2, roles2, build2 = _namespaced_copy(g2, namespace + ".b")
    var_sets = [vars1[i] + vars2[i] for i in range(2)]
    if kind == "sum":
        gamma1 = Or((goals1[0], goals2[0]))
        value = None
        if g1.value is not None and g2.value is not None:
            value = g1.value + g2.value - g1.value * g2.value
    elif kind == "product":
        gamma1 = conj([goals1[0], goals2[0]])
        value = None
        if g1.value is not None and g2.value is not None:
            value = g1.value * g2.value
    else:
        raise GadgetError("unknown combination kind %r" % (kind,))
    game = BooleanGame(var_sets, [gamma1, Not(gamma1)])
    role_vars = {"a": roles1, "b": roles2}
    return GadgetBundle(game, role_vars, value=value, build_equilibrium=(
        None if build1 is None or build2 is None
        else lambda: product_profile(build1(), build2())))


# --- quadratic scoring ---------------------------------------------------------


def g_payoff(R, a_sat, b_sat, k):
    """The quadratic count-scoring payoff for a guessed count R.

    Over uniformly random independent assignment pairs for a formula with m
    models, the expectation is (2^(2k+1) - (m-R)^2) / 2^(2k+2), maximized
    at R = m.
    """
    if not 0 <= R <= (1 << k):
        raise GadgetError("count out of range")
    denom = 1 << (2 * k + 2)
    base = 1 << (2 * k + 1)
    if a_sat and b_sat:
        num = base - (R * R - (1 << (k + 1)) * R + (1 << (2 * k)))
    elif a_sat or b_sat:
        num = base - (R * R - (1 << k) * R)
    else:
        num = base - R * R
    return Fraction(num, denom)
