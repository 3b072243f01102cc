import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from boolgames import solver
from boolgames.formula import Not, Var, disj, parse_formula
from boolgames.game import (
    BooleanGame,
    MixedProfile,
    NormalForm,
    ResourceCapError,
    characteristic_formula,
    parse_game,
    player_assignments,
    truth_tables,
)
from boolgames.lp import LinearProgram, Optimal, solve_lp, variable_ranges
from boolgames.solver import (
    SolverError,
    _support_ranges,
    as_normal_form,
    best_deviation_gain,
    constant_sum,
    equilibrium_for_support,
    exists_guarantee_nash,
    forall_guarantee_nash,
    irrational_nash,
    is_nash,
    nash_sat,
    pure_equilibria,
    support_pairs,
    unique_nash,
    witness_to_profile,
    zero_sum_value,
)

MP = parse_game("players: 2\nvars 1: x\nvars 2: y\n"
                "goal 1: ~(x <-> y)\ngoal 2: x <-> y\n")

BOS = NormalForm([[[3, 0], [0, 2]], [[2, 0], [0, 3]]])


def test_constant_sum_detection():
    nf = as_normal_form(MP)
    assert constant_sum(nf) == 1
    assert constant_sum(BOS) is None


def test_zero_sum_value_mp():
    value, weights = zero_sum_value(as_normal_form(MP))
    assert value == Fraction(1, 2)
    assert sum(weights) == 1


def test_zero_sum_value_dominated():
    # row 0 dominates: value is the best response payoff
    nf = NormalForm([[[1, 1], [0, 0]], [[0, 0], [1, 1]]])
    value, weights = zero_sum_value(nf)
    assert value == 1
    assert weights[0] == 1


def test_zero_sum_value_rejects_general_sum():
    with pytest.raises(SolverError):
        zero_sum_value(BOS)


def test_zero_sum_value_thresholds():
    value, _ = zero_sum_value(as_normal_form(MP))
    assert value >= Fraction(1, 2)
    assert not value >= Fraction(1, 2) + Fraction(1, 100)


def test_support_pairs_order_and_cap():
    nf = as_normal_form(MP)
    pairs = list(support_pairs(nf))
    assert pairs[0] == ((0,), (0,))
    assert len(pairs) == 9
    with pytest.raises(ResourceCapError):
        list(support_pairs(nf, cap=4))


def test_equilibrium_for_support_mp():
    nf = as_normal_form(MP)
    w = equilibrium_for_support(nf, ((0, 1), (0, 1)))
    assert w is not None
    assert w.x == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert w.payoffs == (Fraction(1, 2), Fraction(1, 2))
    assert equilibrium_for_support(nf, ((0,), (0,))) is None


def test_support_ranges():
    half = Fraction(1, 2)
    point = {"w0": (half, half), "w1": (half, half), "u": (half, half)}
    nf = as_normal_form(MP)
    assert _support_ranges(nf, ((0, 1), (0, 1))) == [point, point]
    assert _support_ranges(nf, ((0,), (0,))) is None
    # duplicated rows produce a continuum on the full support; ``names``
    # picks the probed variables per half
    dup = NormalForm([[[1, 0], [0, 1], [1, 0]],
                      [[0, 1], [1, 0], [0, 1]]])
    x, y = _support_ranges(dup, ((0, 1, 2), (0, 1)))
    assert x == {"w0": (0, half), "w1": (half, half), "w2": (0, half),
                 "u": (half, half)}
    assert y == point
    assert _support_ranges(dup, ((0, 1, 2), (0, 1)), (["w2"], ["u"])) == [
        {"w2": (0, half)}, {"u": (half, half)}]


def test_support_enumeration_needs_two_players():
    three = NormalForm([[[[1]]], [[[1]]], [[[1]]]])
    with pytest.raises(SolverError, match="two-player"):
        next(support_pairs(three))


def test_exists_and_forall_guarantee():
    w = exists_guarantee_nash(BOS, (Fraction(2), Fraction(0)))
    assert w is not None and w.payoffs[0] >= 2
    assert exists_guarantee_nash(BOS, (Fraction(4), Fraction(0))) is None
    assert forall_guarantee_nash(BOS, (Fraction(6, 5), Fraction(6, 5)))
    assert not forall_guarantee_nash(BOS, (Fraction(2), Fraction(0)))


def test_unique_nash():
    assert unique_nash(MP)
    assert not unique_nash(BOS)


def test_irrational_nash_support_path():
    assert not irrational_nash(as_normal_form(MP))
    assert not irrational_nash(BOS)


def test_nash_sat_modes():
    phi_agree = parse_formula("x <-> y")
    # the unique MP equilibrium mixes, so no formula holds almost surely
    assert not nash_sat(MP, phi_agree, "exists")
    assert not nash_sat(MP, phi_agree, "forall")
    assert nash_sat(MP, parse_formula("x | ~x"), "forall")


def test_nash_sat_pure_example():
    g = parse_game("players: 2\nvars 1: x\nvars 2: y\n"
                   "goal 1: x & y\ngoal 2: x & y\n")
    # (T, T) is an equilibrium realizing x & y; (F, *) equilibria do not
    assert nash_sat(g, parse_formula("x & y"), "exists")
    assert not nash_sat(g, parse_formula("x & y"), "forall")


def test_nash_sat_forall_maximizes_violating_weights():
    # player 2 is indifferent; player 1 plays x = T iff P(y & z) >= P(~y & z)
    g = parse_game("players: 2\nvars 1: x\nvars 2: y z\n"
                   "goal 1: (x & y & z) | (~x & ~y & z)\ngoal 2: y | ~y\n")
    # x = T with y & z and ~y & z at 1/2 each puts mass on the violating
    # cell, yet in every support system containing it x or P(~y & z) can
    # be zero: only the maxima of the weights see the violation
    phi = parse_formula("~(x & ~y & z)")
    assert nash_sat(g, phi, "exists")
    assert not nash_sat(g, phi, "forall")


def test_pure_equilibria_boolean_and_nf():
    g = parse_game("players: 2\nvars 1: x\nvars 2: y\n"
                   "goal 1: x & y\ngoal 2: x & y\n")
    eqs = pure_equilibria(g)
    assert {"x": True, "y": True} in eqs
    assert pure_equilibria(as_normal_form(MP)) == []
    assert pure_equilibria(BOS) == [(0, 0), (1, 1)]


def test_is_nash_boolean():
    half = Fraction(1, 2)
    eq = MixedProfile([
        [({"x": False}, half), ({"x": True}, half)],
        [({"y": False}, half), ({"y": True}, half)],
    ])
    assert is_nash(MP, eq)
    biased = MixedProfile([
        [({"x": False}, Fraction(1, 3)), ({"x": True}, Fraction(2, 3))],
        [({"y": False}, half), ({"y": True}, half)],
    ])
    # player 2 can now exploit the bias
    assert not is_nash(MP, biased)


def test_is_nash_normal_form():
    assert is_nash(BOS, [{0: Fraction(1)}, {0: Fraction(1)}])
    assert not is_nash(BOS, [{0: Fraction(1)}, {1: Fraction(1)}])


def test_best_deviation_gain_exhaustive_vs_sampled():
    half = Fraction(1, 2)
    biased = MixedProfile([
        [({"x": True}, Fraction(1))],
        [({"y": False}, half), ({"y": True}, half)],
    ])
    base, best = best_deviation_gain(MP, biased, 1)
    assert (base, best) == (half, Fraction(1))
    base_s, best_s = best_deviation_gain(MP, biased, 1, sample=50, seed=3)
    assert base_s == half and best_s == Fraction(1)


def test_witness_to_profile():
    nf = as_normal_form(MP)
    w = equilibrium_for_support(nf, ((0, 1), (0, 1)))
    prof = witness_to_profile(nf, w)
    assert is_nash(MP, prof)


def test_max_payoff_reduces_to_guarantee():
    # "some equilibrium pays player 1 at least u" via the guarantee query,
    # cross-checked by direct support enumeration
    for u in (Fraction(0), Fraction(6, 5), Fraction(2), Fraction(3)):
        expect = False
        for sp in support_pairs(BOS):
            w = equilibrium_for_support(BOS, sp)
            if w is not None and w.payoffs[0] >= u:
                expect = True
                break
        got = exists_guarantee_nash(BOS, (u, Fraction(0))) is not None
        assert got == expect


def test_nash_in_subset_reduces_to_sat():
    g = parse_game("players: 2\nvars 1: x\nvars 2: y\n"
                   "goal 1: x & y\ngoal 2: x & y\n")
    # is there an equilibrium supported inside T = {(T,T)}?
    phi = characteristic_formula({"x": True, "y": True})
    assert nash_sat(g, phi, "exists")
    # T = {(T,F)} contains no equilibrium
    phi2 = characteristic_formula({"x": True, "y": False})
    assert not nash_sat(g, phi2, "exists")


@st.composite
def repeated_games(draw, constant=st.booleans(), size=3):
    """Games whose rows and columns repeat those of a base game of up to
    3x3, up to ``size`` of each, so that classes of identical strategies
    and continua of equilibria occur; constant-sum when drawn so."""
    cell = st.integers(min_value=0, max_value=2)
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base = [[draw(cell) for _ in range(l)] for _ in range(k)]
    rows = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=size))
    cols = draw(st.lists(st.integers(0, l - 1), min_size=1, max_size=size))
    if draw(constant):
        c = draw(cell)
        other = [[c - x for x in row] for row in base]
    else:
        other = [[draw(cell) for _ in range(l)] for _ in range(k)]
    return NormalForm([[[m[i][j] for j in cols] for i in rows]
                       for m in (base, other)])


@settings(deadline=None)
@given(repeated_games(st.just(True)))
def test_zero_sum_routes_match_support_routes(nf):
    # adding a column constant to A and a row constant to B keeps every
    # equilibrium; the shifted game is not constant-sum, so its answers
    # come from support enumeration
    (a, b), (m, n) = nf.payoffs, nf.shape
    shifted = NormalForm([
        [[a[i][j] + j for j in range(n)] for i in range(m)],
        [[b[i][j] + i for j in range(n)] for i in range(m)],
    ])
    assume(constant_sum(shifted) is None)
    assert unique_nash(nf) == unique_nash(shifted)
    assert irrational_nash(nf) == irrational_nash(shifted)


def test_constant_sum_games_skip_support_enumeration(monkeypatch):
    def no_enumeration(nf, cap=None):
        raise AssertionError("support enumeration on a constant-sum game")
    monkeypatch.setattr(solver, "support_pairs", no_enumeration)
    rng = random.Random(5)
    games = [as_normal_form(MP)]
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
        games.append(NormalForm([a, [[2 - x for x in row] for row in a]]))
    for nf in games:
        assert unique_nash(nf) != irrational_nash(nf)


@st.composite
def small_games(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cell = st.integers(min_value=0, max_value=3)
    return NormalForm([[[draw(cell) for _ in range(n)] for _ in range(m)]
                       for _ in range(2)])


@settings(deadline=None)
@given(small_games(),
       st.none() | st.tuples(*[st.fractions(0, 3, max_denominator=3)] * 2))
def test_guarantee_witness_is_equilibrium(nf, v):
    w = exists_guarantee_nash(nf, v)
    if w is None:
        # every finite game has an equilibrium, and none pays v
        assert v is not None and not forall_guarantee_nash(nf, v)
        return
    assert is_nash(nf, [w.x, w.y])
    xs, ys = w.weight_vectors(nf.shape)
    assert w.payoffs == tuple(
        sum(xs[i] * p[i][j] * ys[j] for i in range(nf.shape[0])
            for j in range(nf.shape[1])) for p in nf.payoffs)
    if v is not None:
        assert w.payoffs[0] >= v[0] and w.payoffs[1] >= v[1]


def joint_support_system(nf, X, Y, bounds=None):
    """Support pair (X, Y)'s indifference/no-deviation program with both
    players in one LP: x and y weights, then alpha and beta; player 1's
    rows, player 2's rows, the two sum rows, then the bounds."""
    (a, b), (m, n) = nf.payoffs, nf.shape
    lp = LinearProgram()
    for name in ["x%d" % i for i in X] + ["y%d" % j for j in Y]:
        lp.add_variable(name)
    lp.add_variable("alpha", nonneg=False)
    lp.add_variable("beta", nonneg=False)
    for i in range(m):
        coeffs = {"y%d" % j: a[i][j] for j in Y}
        coeffs["alpha"] = -1
        lp.add_constraint(coeffs, "=" if i in X else "<=", 0)
    for j in range(n):
        coeffs = {"x%d" % i: b[i][j] for i in X}
        coeffs["beta"] = -1
        lp.add_constraint(coeffs, "=" if j in Y else "<=", 0)
    lp.add_constraint({"x%d" % i: 1 for i in X}, "=", 1)
    lp.add_constraint({"y%d" % j: 1 for j in Y}, "=", 1)
    for name, low in zip(("alpha", "beta"), bounds or (None, None)):
        if low is not None:
            lp.add_constraint({name: 1}, ">=", low)
    return lp


@st.composite
def mixed_kind_games(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def matrix(top):
        cell = st.integers(min_value=0, max_value=top)
        return [[draw(cell) for _ in range(n)] for _ in range(m)]

    kind = draw(st.sampled_from(["win-lose", "constant-sum", "general-sum"]))
    if kind == "win-lose":
        return NormalForm([matrix(1), matrix(1)])
    if kind == "constant-sum":
        a, c = matrix(3), draw(st.integers(0, 3))
        return NormalForm([a, [[c - x for x in row] for row in a]])
    return NormalForm([matrix(9), matrix(9)])


LOW = st.none() | st.fractions(0, 6, max_denominator=3)


@settings(deadline=None, max_examples=60)
@given(mixed_kind_games(), st.none() | st.tuples(LOW, LOW))
def test_support_halves_match_joint_program(nf, bounds):
    # the joint program is block-diagonal, so Bland's rule pivots each
    # block as it would alone: the two per-player systems must give the
    # same feasibility, the same vertex and the same variable ranges
    for X, Y in support_pairs(nf):
        out = solve_lp(joint_support_system(nf, X, Y, bounds))
        w = equilibrium_for_support(nf, (X, Y), bounds)
        if not isinstance(out, Optimal):
            assert w is None
        else:
            sol = out.solution
            assert w is not None
            assert w.x == {i: sol["x%d" % i] for i in X if sol["x%d" % i]}
            assert w.y == {j: sol["y%d" % j] for j in Y if sol["y%d" % j]}
            assert w.payoffs == (sol["alpha"], sol["beta"])
        lp = joint_support_system(nf, X, Y)
        ranges = variable_ranges(lp, lp.variables)
        halves = _support_ranges(nf, (X, Y))
        if ranges is None:
            assert halves is None
            continue
        x, y = halves
        assert ranges == {**{"x%d" % i: x["w%d" % i] for i in X},
                          **{"y%d" % j: y["w%d" % j] for j in Y},
                          "alpha": y["u"], "beta": x["u"]}


def full_game_systems(nf):
    """(support pair, ranges of every variable) of each feasible support
    system of ``nf`` itself, with no strategy collapsed."""
    for sp in support_pairs(nf):
        ranges = _support_ranges(nf, sp)
        if ranges is not None:
            yield sp, ranges


# a duplicated strategy weighted in the one equilibrium of the collapsed
# game: the class rule alone makes these continua (matching pennies,
# constant-sum; the prisoner's dilemma, general-sum)
DUPLICATED_MP = NormalForm([[[1, 0], [0, 1], [1, 0]],
                            [[0, 1], [1, 0], [0, 1]]])
DUPLICATED_PD = NormalForm([[[1, 3], [1, 3], [0, 2]],
                            [[1, 0], [1, 0], [3, 2]]])


@settings(deadline=None, max_examples=150)
@given(repeated_games(size=4),
       st.tuples(*[st.fractions(0, 2, max_denominator=3)] * 2))
@example(DUPLICATED_MP, (Fraction(1, 2), Fraction(1, 2)))
@example(DUPLICATED_PD, (Fraction(1), Fraction(1)))
def test_collapsed_queries_match_full_game(nf, v):
    systems = list(full_game_systems(nf))
    continuum = any(lo != hi for _, ranges in systems
                    for half in ranges for lo, hi in half.values())
    points = [[{name: lo for name, (lo, _) in half.items() if lo}
               for half in ranges] for _, ranges in systems]
    assert irrational_nash(nf) == continuum
    assert unique_nash(nf) == (not continuum and all(p == points[0]
                                                     for p in points))
    assert forall_guarantee_nash(nf, v) == all(
        y["u"][0] >= v[0] and x["u"][0] >= v[1] for _, (x, y) in systems)
    w = exists_guarantee_nash(nf, v)
    assert (w is not None) == any(
        equilibrium_for_support(nf, sp, v) is not None for sp, _ in systems)
    if w is not None:
        # each class's weight sits on its first member
        firsts = [{c[0] for c in side} for side in nf.collapse(nf.payoffs)[1]]
        assert set(w.x) <= firsts[0] and set(w.y) <= firsts[1]
        assert is_nash(nf, [w.x, w.y])
        assert w.payoffs[0] >= v[0] and w.payoffs[1] >= v[1]
    if constant_sum(nf) is not None:
        value, x = zero_sum_value(nf)
        a, (m, n) = nf.payoffs[0], nf.shape
        assert value == equilibrium_for_support(nf, systems[0][0]).payoffs[0]
        assert min(sum(x[i] * a[i][j] for i in range(m))
                   for j in range(n)) == value


def test_collapse_decides_duplicated_games():
    assert constant_sum(DUPLICATED_MP) == 1
    assert constant_sum(DUPLICATED_PD) is None
    for nf, rows in ((DUPLICATED_MP, [[0, 2], [1]]),
                     (DUPLICATED_PD, [[0, 1], [2]])):
        small, classes = nf.collapse(nf.payoffs)
        assert small.shape == (2, 2) and classes == [rows, [[0], [1]]]
        assert unique_nash(small) and not unique_nash(nf)
        assert irrational_nash(nf) and not irrational_nash(small)


@st.composite
def sat_games(draw):
    """Games over x, z (player 1) and y, w (player 2) whose goals read only
    some of the variables, so that strategies share payoffs, and a formula
    phi that may tell them apart."""
    names = ["x", "z", "y", "w"]

    def formula():
        over = draw(st.lists(st.sampled_from(names), min_size=1,
                             max_size=4, unique=True))
        cells = itertools.product((False, True), repeat=len(over))
        return disj(characteristic_formula(dict(zip(over, bits)))
                    for bits in cells if draw(st.booleans()))

    return BooleanGame([["x", "z"], ["y", "w"]], [formula(), formula()]), \
        formula()


def full_game_sat(g, phi, mode):
    """``nash_sat`` by support enumeration on the uncollapsed expansion."""
    nf = as_normal_form(g)
    (sat,) = truth_tables(g, [phi])
    for X, Y in support_pairs(nf):
        bad = [(i, j) for i in X for j in Y if not sat[i][j]]
        if mode == "exists" and not bad:
            if equilibrium_for_support(nf, (X, Y)) is not None:
                return True
        if mode == "forall" and bad:
            ranges = _support_ranges(nf, (X, Y))
            if ranges is not None and any(
                    ranges[0]["w%d" % i][1] > 0 and ranges[1]["w%d" % j][1] > 0
                    for i, j in bad):
                return False
    return mode == "forall"


# player 1's z changes no payoff, but phi = z tells its two values apart:
# "z in some equilibrium" holds, "z in every equilibrium" does not
Z_ONLY_IN_PHI = (parse_game("players: 2\nvars 1: x z\nvars 2: y w\n"
                            "goal 1: ~(x <-> y)\ngoal 2: x <-> y\n"),
                 Var("z"))


@settings(deadline=None, max_examples=100)
@given(sat_games())
@example(Z_ONLY_IN_PHI)
def test_collapsed_nash_sat_matches_full_game(game):
    g, phi = game
    for mode in ("exists", "forall"):
        assert nash_sat(g, phi, mode) == full_game_sat(g, phi, mode)
