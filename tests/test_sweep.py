"""Differential checks of the bit-parallel utility sweep.

``expected_utility`` and ``best_deviation_gain`` (exhaustive and sampled)
are compared with a brute force written here from the reference evaluator
(``tests/reference.py``, independent of ``eval_bits``): one
evaluation per (own strategy, opponent support combination), weights
multiplied as Fractions.  Supports carry non-uniform weights with different
denominators per player, and most drawn profiles are not equilibria, so a
wrong merge, weight or maximum shows as a different exact value.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference import truth

from boolgames import game
from boolgames.formula import (And, Iff, Not, Or, Var, compile_formula,
                               free_vars)
from boolgames.game import (
    BooleanGame,
    MixedProfile,
    ResourceCapError,
    draw_masks,
    draw_trials,
    expected_utility,
    player_assignments,
)
from boolgames.reductions import (
    build_guarantee_game,
    immediate_acceptor,
    simulate_tm,
    witness_profile,
)
from boolgames.solver import best_deviation_gain, is_nash

from test_expansion import formulas, games
from test_reductions import two_step_acceptor


@st.composite
def game_and_profile(draw):
    g = draw(st.integers(min_value=2, max_value=3).flatmap(games))
    return g, draw_profile(draw, g)


def draw_profile(draw, g):
    strategies = []
    for i in range(g.players):
        pure = player_assignments(g, i)
        picks = draw(st.lists(st.integers(0, len(pure) - 1), min_size=1,
                              max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(picks),
                                max_size=len(picks)))
        strategies.append([(pure[k], Fraction(w, sum(weights)))
                           for k, w in zip(picks, weights)])
    return MixedProfile(strategies)


def brute_eu(g, profile, i, own=None):
    """Player i's expected utility over every support combination; with
    ``own`` given, player i plays that pure assignment instead."""
    supports = list(profile.strategies)
    if own is not None:
        supports[i] = [(own, Fraction(1))]
    total = Fraction(0)
    for combo in itertools.product(*supports):
        merged, weight = {}, Fraction(1)
        for a, w in combo:
            merged.update(a)
            weight *= w
        if truth(g.goals[i], merged):
            total += weight
    return total


def sampled_deviations(g, i, sample, seed):
    """The pure deviations a sampled sweep tries: one ``getrandbits(1)``
    per own goal variable, in the goal's first-occurrence order (the
    argument order of ``compile_formula``), unused variables left False."""
    own = set(g.var_sets[i])
    used = [v for v in compile_formula(g.goals[i]).keys if v in own]
    rng = random.Random(seed)
    for _ in range(sample):
        a = dict.fromkeys(g.var_sets[i], False)
        a.update({v: bool(rng.getrandbits(1)) for v in used})
        yield a


def check_sweep(g, profile, sample, seed):
    for i in range(g.players):
        base = brute_eu(g, profile, i)
        assert expected_utility(g, profile, i) == base
        best = max([base] + [brute_eu(g, profile, i, a)
                             for a in player_assignments(g, i)])
        assert best_deviation_gain(g, profile, i) == (base, best)
        sampled = max([base] + [brute_eu(g, profile, i, a) for a in
                                sampled_deviations(g, i, sample, seed)])
        assert best_deviation_gain(g, profile, i, sample=sample,
                                   seed=seed) == (base, sampled)


@settings(deadline=None, max_examples=150)
@given(game_and_profile(), st.integers(0, 4), st.integers(0, 99))
def test_sweep_matches_brute_force(gp, sample, seed):
    check_sweep(*gp, sample, seed)


# budget 1: every opponent combination is a chunk of its own.  Budget 24:
# three one-byte blocks per chunk, as in every expected-utility and sampled
# sweep here (at most 4 support entries and 4 samples), so 2 combinations
# fill part of a chunk and 4, 8 or 16 end on a partial one
@pytest.mark.parametrize("budget", [1, 24])
@settings(deadline=None, max_examples=100)
@given(game_and_profile(), st.integers(0, 4), st.integers(0, 99))
def test_sweep_chunks_match_brute_force(budget, gp, sample, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game, "SWEEP_BUDGET", budget)
        check_sweep(*gp, sample, seed)


@st.composite
def conjunct_games(draw):
    """A game whose goals are root ``And``s of conjuncts over the player's
    own variables and conjuncts that read an opponent's, in any order; or
    ``And``s of own-only conjuncts; or any formula (mostly not an ``And``).
    Each player owns one or two variables, so an own conjunct is often a
    single variable or a constant."""
    players = draw(st.integers(min_value=2, max_value=3))
    var_sets = [["v%d%s" % (i, c) for c in "ab"[:draw(st.integers(1, 2))]]
                for i in range(players)]
    names = [v for vs in var_sets for v in vs]
    goals = []
    for i, own in enumerate(var_sets):
        kind = draw(st.sampled_from(["mixed", "own", "any"]))
        if kind == "any":
            goals.append(draw(formulas(names)))
            continue
        parts = draw(st.lists(formulas(own), min_size=1 if kind == "mixed"
                              else 2, max_size=3))
        if kind == "mixed":
            others = [v for v in names if v not in own]
            # an Iff with an opponent's variable reads it whatever f is
            parts += [Iff(f, Var(v)) for f, v in draw(st.lists(
                st.tuples(formulas(names), st.sampled_from(others)),
                min_size=1, max_size=2))]
        goals.append(And(tuple(draw(st.permutations(parts)))))
    g = BooleanGame(var_sets, goals)
    return g, draw_profile(draw, g)


# the own-only conjuncts of a goal are evaluated once per sweep and tiled
# across each chunk: budget 1 tiles them over one block, 24 over up to three
@pytest.mark.parametrize("budget", [1, 24])
@settings(deadline=None, max_examples=100)
@given(conjunct_games(), st.integers(0, 4), st.integers(0, 99))
def test_sweep_own_conjuncts_match_brute_force(budget, gp, sample, seed):
    g, profile = gp
    for i, (own, _) in enumerate(g.own_parts):
        assert all(g.owners[v] == i for v in free_vars(own))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game, "SWEEP_BUDGET", budget)
        check_sweep(g, profile, sample, seed)


def test_sweep_exact_gain_off_equilibrium():
    # player 1 wins with a when c, with b when not c; playing only a
    # against c weighted 2/3 pays 2/3, and a & b pays 1
    g = BooleanGame([["a", "b"], ["c"]],
                    [Or((And((Var("a"), Var("c"))),
                         And((Var("b"), Not(Var("c")))))), Var("c")])
    profile = MixedProfile([
        [({"a": True, "b": False}, Fraction(1))],
        [({"c": True}, Fraction(2, 3)), ({"c": False}, Fraction(1, 3))],
    ])
    assert expected_utility(g, profile, 0) == Fraction(2, 3)
    assert best_deviation_gain(g, profile, 0) == (Fraction(2, 3), 1)
    assert best_deviation_gain(g, profile, 1) == (Fraction(2, 3), 1)
    assert not is_nash(g, profile)
    # seed 3 draws (a, b) = (0, 1), (1, 0), (0, 1) and misses the gain;
    # seed 0 draws (1, 0), (1, 1), (0, 0) and finds it
    assert best_deviation_gain(g, profile, 0, sample=3, seed=3) == (
        Fraction(2, 3), Fraction(2, 3))
    assert best_deviation_gain(g, profile, 0, sample=3, seed=0) == (
        Fraction(2, 3), 1)


@pytest.mark.parametrize("seed", range(5))
def test_draw_trials_match_one_bit_draws(seed):
    # whole-word draws read as one-bit draws, across word and call edges
    for n in (0, 1, 31, 32, 33, 84000):
        rng = random.Random(seed)
        want = bytes(b"01"[rng.getrandbits(1)] for _ in range(n))
        assert draw_trials(seed, n) == want, n


def test_draw_masks_read_trial_by_trial():
    # trial 0 draws 1, 0, 1 and trial 1 draws 0, 1, 1: bit r is trial r
    assert draw_masks(b"101011", 3) == [0b01, 0b10, 0b11]
    assert draw_masks(b"", 2) == [0, 0]


def test_sampled_draw_order_is_first_occurrence():
    # the goal names b before a, so a deviation's first bit sets b; only
    # a = 1, b = 0 wins.  Seed 1 draws (0, 1) and seed 5 draws (1, 0): in
    # sorted order (a first) the verdicts would swap
    g = BooleanGame([["a", "b"], ["c"]],
                    [And((Not(Var("b")), Var("a"))), Var("c")])
    profile = MixedProfile([[({"a": False, "b": False}, Fraction(1))],
                            [({"c": True}, Fraction(1))]])
    assert best_deviation_gain(g, profile, 0, sample=1, seed=1) == (0, 1)
    assert best_deviation_gain(g, profile, 0, sample=1, seed=5) == (0, 0)
    assert is_nash(g, profile, sample=1, seed=5)
    assert not is_nash(g, profile, sample=1, seed=1)


@pytest.mark.parametrize("machine", [immediate_acceptor, two_step_acceptor])
def test_bound_4_witness_player_1_sweep(machine):
    m = machine()
    ro = build_guarantee_game(m, "", 4)
    assert ro.k == 2
    table = simulate_tm(m, "", 4, 4, accept_row=3)
    wp = witness_profile(ro, table)
    assert best_deviation_gain(ro.game, wp, 0) == (Fraction(57, 64),
                                                   Fraction(57, 64))
    assert expected_utility(ro.game, wp, 1) == ro.payoff[1]


def test_bound_8_player_1_sweep_memory():
    # 256 opponent combinations of 256 + 2^14 rows each: side by side in
    # one evaluation, every mask would be 4.3 million bits (a 21.6 MB
    # traced peak); in chunks of SWEEP_BUDGET bits the peak is under 2 MB
    m = immediate_acceptor()
    ro = build_guarantee_game(m, "", 8)
    size = 1 << ro.k
    wp = witness_profile(ro, simulate_tm(m, "", size, size, accept_row=7))
    tracemalloc.start()
    try:
        got = best_deviation_gain(ro.game, wp, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (Fraction(249, 256), Fraction(249, 256))
    assert peak < 4 << 20


def test_deviation_cap_trips_before_allocating():
    # 2^40 deviations; the cap is checked before any mask is built
    names = ["a%d" % t for t in range(40)]
    g = BooleanGame([names, ["b"]],
                    [And(tuple(map(Var, names))), Var("b")])
    profile = MixedProfile([[(dict.fromkeys(names, True), Fraction(1))],
                            [({"b": True}, Fraction(1))]])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            best_deviation_gain(g, profile, 0, cap=1 << 39)
        with pytest.raises(ResourceCapError):
            is_nash(g, profile)
        # sampled deviations are masks as long as the sample
        with pytest.raises(ResourceCapError):
            best_deviation_gain(g, profile, 0, cap=1 << 20,
                                sample=(1 << 20) + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
