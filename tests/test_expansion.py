"""Differential checks of the bit-parallel normal-form expansion.

Every cell of ``to_normal_form`` and every bit of ``profile_masks`` is
compared with per-cell evaluation of the same formula by the independent
reference evaluator (the masks also by ``eval_formula``); the goal-mask
route of the two-player queries (constant-sum test, classes, collapsed
payoffs and the sat matrix of ``nash_sat``) is compared with
``NormalForm.collapse`` on nested lists of those cells; and the zero-sum
route is run on an expansion and on the same payoffs loaded as a JSON
normal form.
"""

import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from reference import truth

from boolgames.formula import (
    FALSE,
    TRUE,
    And,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    eval_formula,
    parse_formula,
)
from boolgames.game import (
    BooleanGame,
    NormalForm,
    ResourceCapError,
    parse_game,
    player_assignments,
    profile_masks,
    to_normal_form,
)
from boolgames.solver import constant_sum, nash_sat, zero_sum_value

VARS = ["a", "b", "c", "d", "e", "f"]


def formulas(names):
    leaf = st.one_of(st.sampled_from([TRUE, FALSE]),
                     st.sampled_from(names).map(Var))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(Not),
            st.lists(sub, min_size=2, max_size=3).map(lambda fs: And(tuple(fs))),
            st.lists(sub, min_size=2, max_size=3).map(lambda fs: Or(tuple(fs))),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            st.tuples(sub, sub).map(lambda t: Iff(*t)),
        ),
        max_leaves=8,
    )


@st.composite
def games(draw, players):
    """A game with at most six variables, each player owning at least one;
    two-player games are win-lose zero-sum about half of the time."""
    n = draw(st.integers(min_value=players, max_value=len(VARS)))
    owners = list(range(players)) + draw(st.lists(
        st.integers(min_value=0, max_value=players - 1),
        min_size=n - players, max_size=n - players))
    owners = draw(st.permutations(owners))
    names = VARS[:n]
    var_sets = [[v for v, o in zip(names, owners) if o == i]
                for i in range(players)]
    goals = [draw(formulas(names)) for _ in range(players)]
    if players == 2 and draw(st.booleans()):
        goals[1] = Not(goals[0])
    return BooleanGame(var_sets, goals)


def profiles(g):
    """(index tuple, merged assignment) for every pure profile, in order."""
    for combo in itertools.product(*(
            enumerate(player_assignments(g, i)) for i in range(g.players))):
        idx = tuple(j for j, _ in combo)
        merged = {}
        for _, a in combo:
            merged.update(a)
        yield idx, merged


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=3).flatmap(games))
def test_expansion_cells_match_pure_utilities(g):
    nf = to_normal_form(g)
    assert nf.shape == tuple(1 << len(vs) for vs in g.var_sets)
    for idx, merged in profiles(g):
        for i in range(g.players):
            got = nf.payoff(i, idx)
            assert type(got) is int
            assert got == truth(g.goals[i], merged)
    for i in range(g.players):
        index = nf.strategy_index[i]
        assert list(index) == player_assignments(g, i)
        with pytest.raises(IndexError):
            index[len(index)]


@settings(deadline=None)
@given(st.data())
def test_truth_tables_match_eval_formula(data):
    g = data.draw(st.integers(min_value=2, max_value=3).flatmap(games))
    phi = data.draw(formulas(g.all_vars()))
    # a profile mask is a truth table: bit p is the profile of index p
    (mask,) = profile_masks(g, [phi])
    for p, (_, merged) in enumerate(profiles(g)):
        assert mask >> p & 1 == eval_formula(phi, merged) \
            == truth(phi, merged)


@st.composite
def mask_route_games(draw):
    """A two-player game whose players own one to four variables each, so
    a row (one cell per player-2 strategy) is 2 to 16 bits, narrower than
    a byte to two bytes wide; its goals and a formula phi need not read
    every variable, so strategies repeat.  Player 2's goal is player 1's
    negated about half of the time (constant sum 1)."""
    var_sets = [["x%d" % t for t in range(draw(st.integers(1, 4)))],
                ["y%d" % t for t in range(draw(st.integers(1, 4)))]]
    names = var_sets[0] + var_sets[1]
    goals = [draw(formulas(names)) for _ in range(2)]
    if draw(st.booleans()):
        goals[1] = Not(goals[0])
    return BooleanGame(var_sets, goals), draw(formulas(names))


def constant_game(goal, sizes=(3, 1)):
    """Both players' goal is ``goal``, a constant: constant sum 0 or 2."""
    var_sets = [["x%d" % t for t in range(sizes[0])],
                ["y%d" % t for t in range(sizes[1])]]
    return BooleanGame(var_sets, [goal, goal]), Var("x0")


@settings(deadline=None)
@given(mask_route_games())
@example(constant_game(FALSE))
@example(constant_game(TRUE, (2, 3)))
def test_mask_route_matches_nested_collapse(game):
    g, phi = game
    nf = to_normal_form(g)
    # the reference: nested lists of per-cell evaluations
    m, n = nf.shape
    cells = [[int(truth(f, merged)) for _, merged in profiles(g)]
             for f in (*g.goals, phi)]
    nested = [[t[s * n:(s + 1) * n] for s in range(m)] for t in cells]
    reference = NormalForm(nested[:2])
    assert constant_sum(nf) == constant_sum(reference)
    masks = [*nf.masks, *profile_masks(g, [phi])]
    for keyed in (1, 2, 3):
        small, classes = nf.collapse_masks(masks[:keyed])
        want_small, want_classes = reference.collapse(nested[:keyed])
        assert classes == want_classes
        assert small.shape == want_small.shape
        assert small.payoffs == want_small.payoffs
        assert nf.restrict(masks[2], classes) == [
            [nested[2][r[0]][c[0]] for c in classes[1]] for r in classes[0]]
    # no query above read the nested payoffs
    assert "payoffs" not in vars(nf)


@settings(deadline=None)
@given(games(2))
def test_zero_sum_route_agrees_on_expansion_and_json(g):
    nf = to_normal_form(g)
    # the same payoffs as a JSON file would give them: plain ints, and
    # integral fractions written as "2/2"
    loaded = NormalForm(json.loads(json.dumps({"payoffs": nf.payoffs}))
                        ["payoffs"])
    halves = NormalForm([[["%d/2" % (2 * x) for x in row] for row in t]
                         for t in nf.payoffs])
    assert loaded.payoffs == nf.payoffs == halves.payoffs
    assert all(type(x) is int for t in halves.payoffs for row in t
               for x in row)
    sums = {truth(g.goals[0], merged) + truth(g.goals[1], merged)
            for _, merged in profiles(g)}
    c = sums.pop() if len(sums) == 1 else None
    assert constant_sum(nf) == c == constant_sum(loaded) \
        == constant_sum(halves)
    if c is not None:
        value, x = zero_sum_value(nf)
        assert zero_sum_value(loaded) == zero_sum_value(halves) == (value, x)
        # the maxmin strategy secures exactly the value
        a = nf.payoffs[0]
        assert min(sum(w * row[j] for w, row in zip(x, a))
                   for j in range(nf.shape[1])) == value


def test_normal_form_keeps_fractions_that_are_not_integral():
    nf = NormalForm([[["1/2", "4/2"]], [["1/2", 0]]])
    assert nf.payoffs == [[[Fraction(1, 2), 2]], [[Fraction(1, 2), 0]]]
    assert type(nf.payoffs[0][0][1]) is int


def test_nash_sat_reads_the_truth_table():
    # matching pennies: the only equilibrium mixes uniformly, so every cell
    # has positive weight and only a formula true in all four holds
    mp = parse_game("players: 2\nvars 1: x\nvars 2: y\n"
                    "goal 1: ~(x <-> y)\ngoal 2: x <-> y\n")
    for phi in ("x <-> y", "~(x <-> y)", "x"):
        assert not nash_sat(mp, parse_formula(phi), "exists")
    for mode in ("exists", "forall"):
        assert nash_sat(mp, parse_formula("x | ~x"), mode)


def test_huge_expansion_trips_cap_without_allocating():
    # 2^40 cells; the cap is checked before any mask is built
    g = BooleanGame([["a%d" % i for i in range(20)],
                     ["b%d" % i for i in range(20)]],
                    [Var("a0"), Iff(Var("a0"), Var("b19"))])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            to_normal_form(g)
        with pytest.raises(ResourceCapError):
            nash_sat(g, Var("b0"), "exists")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
