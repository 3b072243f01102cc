import itertools
from fractions import Fraction

import pytest

from boolgames.encodings import decode_bits
from boolgames.formula import compile_formula
from boolgames.game import expected_utility, validate_game, validate_profile
from boolgames.gadgets import (
    GadgetError,
    combine_games,
    fix_parameter,
    fixed_value_game,
    g_payoff,
    parametric_value_game,
    split_opponent_game,
)
from boolgames.solver import as_normal_form, is_nash, unique_nash


def interval_covers(start, length, point, modulus):
    return any((start + off) % modulus == point for off in range(length))


def test_fixed_value_goal_matches_interval_oracle():
    # a valid strategy for 5/6 covers 5 of the 6 points; out-of-range points
    # of the 8-point bit space always count as covered
    b = fixed_value_game(Fraction(5, 6), "g")
    goal = compile_formula(b.game.goals[0])
    p, q, s, t, r = (b.role_vars[k] for k in ("p", "q", "s", "t", "r"))
    for a1, w in b.equilibrium.strategies[0]:
        start = decode_bits(p, a1)
        for point in range(8):
            a = dict(a1)
            for name, bit in zip(r, [bool(point >> i & 1)
                                     for i in reversed(range(3))]):
                a[name] = bit
            expect = point > 5 or interval_covers(start, 5, point, 6)
            assert goal(a) == expect


def test_fixed_value_bundles():
    for v in (Fraction(1, 2), Fraction(2, 5), Fraction(3, 4), Fraction(1, 6)):
        b = fixed_value_game(v, "g")
        validate_game(b.game)
        validate_profile(b.game, b.equilibrium)
        assert b.value == v
        assert unique_nash(as_normal_form(b.game)), v
        assert expected_utility(b.game, b.equilibrium, 0) == v
        assert is_nash(b.game, b.equilibrium)


def test_fixed_value_boundaries():
    for v in (Fraction(0), Fraction(1)):
        b = fixed_value_game(v, "g")
        assert not unique_nash(as_normal_form(b.game))
        assert expected_utility(b.game, b.equilibrium, 0) == v
        assert is_nash(b.game, b.equilibrium)
    with pytest.raises(GadgetError):
        fixed_value_game(Fraction(3, 2), "g")


def test_parametric_fix_all_values():
    n = 2
    bundle = parametric_value_game("u", n)
    for value in range(1 << n):
        game, eq = fix_parameter(bundle, value)
        validate_profile(game, eq)
        assert expected_utility(game, eq, 0) == Fraction(value, 1 << n)
        assert is_nash(game, eq)
    with pytest.raises(GadgetError):
        fix_parameter(bundle, 1 << n)


def test_fix_parameter_requires_parametric_bundle():
    with pytest.raises(GadgetError):
        fix_parameter(fixed_value_game(Fraction(1, 2), "g"), 1)


def test_split_opponent_game():
    n = 2
    bundle = split_opponent_game("u", n)
    assert bundle.game.players == 1 + n
    game, eq = fix_parameter(bundle, 3)
    validate_profile(game, eq)
    assert expected_utility(game, eq, 0) == Fraction(3, 4)
    assert is_nash(game, eq)


def test_combine_sum_product_complement():
    a = fixed_value_game(Fraction(1, 2), "x")
    b = fixed_value_game(Fraction(1, 3), "y")
    s = combine_games("sum", a, b)
    assert s.value == Fraction(1, 2) + Fraction(1, 3) - Fraction(1, 6)
    assert expected_utility(s.game, s.equilibrium, 0) == s.value
    assert is_nash(s.game, s.equilibrium)

    p = combine_games("product", a, b)
    assert p.value == Fraction(1, 6)
    assert expected_utility(p.game, p.equilibrium, 0) == p.value
    assert is_nash(p.game, p.equilibrium)

    c = combine_games("complement", a)
    assert c.value == Fraction(1, 2)
    assert c.equilibrium is c.equilibrium  # built once, when first read
    assert expected_utility(c.game, c.equilibrium, 0) == c.value
    assert is_nash(c.game, c.equilibrium)
    # complement swaps the roles
    assert set(c.game.var_sets[0]) == {"c.%s" % v for v in a.game.var_sets[1]}


def test_combine_validates_operands():
    a = fixed_value_game(Fraction(1, 2), "x")
    with pytest.raises(GadgetError):
        combine_games("sum", a, None)
    with pytest.raises(GadgetError):
        combine_games("xor", a, a)


def test_g_payoff_range_and_errors():
    k = 2
    for r_guess in range(5):
        for sa, sb in itertools.product([False, True], repeat=2):
            val = g_payoff(r_guess, sa, sb, k)
            assert 0 <= val <= 1
    with pytest.raises(GadgetError):
        g_payoff(5, True, True, 2)


def test_g_payoff_expectation_identity():
    # averaging over independent assignment pairs for an m-model formula
    # yields (2^(2k+1) - (m-R)^2) / 2^(2k+2)
    k = 2
    n = 1 << k
    for m in range(n + 1):
        for r_guess in range(n + 1):
            total = Fraction(0)
            for a, b in itertools.product(range(n), repeat=2):
                total += g_payoff(r_guess, a < m, b < m, k)
            assert total / (n * n) == Fraction(
                (1 << (2 * k + 1)) - (m - r_guess) ** 2, 1 << (2 * k + 2))
