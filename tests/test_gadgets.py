import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from boolgames.encodings import decode_bits
from boolgames.formula import compile_formula
from boolgames.game import (
    expected_utility,
    profile_to_json,
    render_game,
    validate_game,
    validate_profile,
)
from boolgames.gadgets import (
    GadgetError,
    combine_games,
    fix_parameter,
    fixed_value_game,
    g_payoff,
    parametric_value_game,
    split_opponent_game,
)
from boolgames.solver import (
    as_normal_form,
    is_nash,
    unique_nash,
    zero_sum_value,
)


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


@pytest.mark.parametrize("kind,other,value", [
    ("sum", Fraction(1, 2), Fraction(5, 6)),
    ("product", Fraction(1, 2), Fraction(1, 3)),
    ("complement", None, Fraction(1, 3)),
], ids=["sum", "product", "complement"])
def test_complement_is_an_operand(kind, other, value):
    # a complement's goals are (~goal, goal): zero-sum all the same
    third = combine_games("complement", fixed_value_game(Fraction(1, 3), "x"))
    c = combine_games(kind, third,
                      None if other is None else fixed_value_game(other, "y"))
    assert c.value == value
    assert zero_sum_value(as_normal_form(c.game))[0] == value
    assert expected_utility(c.game, c.equilibrium, 0) == value
    assert is_nash(c.game, c.equilibrium)


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


# sha256 of render_game, profile_to_json(equilibrium) and the role vars,
# joined by newlines; for the algebra, of those digests over every operand
# pair (each b <= 4, in increasing order) as the command line names them
GADGET_TEXT = {
    Fraction(0): "54cefab56f46850ea1bd76cac9ad1d7bf6a9c17991a1993eea23523492b7ed16",
    Fraction(1, 6): "97f7f505d236de19ca9d6b35d87f92a9d035a839db303f507fb90b1ce6884722",
    Fraction(1, 5): "30466d53c17781cc87ec729c2b10a9d117289a615b927aad8de6ad08a2bf47e6",
    Fraction(1, 4): "b4c202e23dcdb15ca8534d6c81dfdac018e2d8556f7919583130443b0a89aa7e",
    Fraction(1, 3): "1cd18e3c20d81d679107c2ad340daf96bbbbc8034f09f5d9d8443221494f90a4",
    Fraction(2, 5): "8acf725f011987182b2efa10961862abd6756c26124b17a7650c684207aa8dcf",
    Fraction(1, 2): "4b2e5ed7ebef5c18b24440f965ecd2089660bf6e4c696ef88c2f0eb13fb5c19e",
    Fraction(3, 5): "1ab8dc490070d6d89626df9653be0d8e4a03dee894bca47594c600c53643f2d7",
    Fraction(2, 3): "76c93ee23aa0122dfe2eb087d83227531fc6aa44100b0aca6e6b81aa20a4c02b",
    Fraction(3, 4): "8199be086d3153e411032ea1c3f5e795b6f63859b447da62babc4929eb93d6f6",
    Fraction(4, 5): "05ade10a1106eff82277bf1d6877573892297eeec8bd4c51579d39ed31708dc7",
    Fraction(5, 6): "2c7915724ddbc7070b25dcc4e94bea66b05695f5c664faa472257e77151104af",
    Fraction(1): "acc4167a561451cd5e2e615e2a1dc5f5d837185771a3250e339c3a8eac415ac8",
}
ALGEBRA_TEXT = {
    "sum": "f9a39286d6541197e278cc8a48c77b8f18977f9c367222c03adc3a722a99935a",
    "product": "9870f18fe0104e420a330295a2f81b3e7e81528cb480cb79c54ba98aedd7126b",
    "complement": "b5483e2046306abd353c960776939b7881c2634585d5921041f268000b61c52f",
}


def bundle_digest(b):
    eq = "" if b.equilibrium is None else profile_to_json(b.equilibrium)
    texts = (render_game(b.game), eq, json.dumps(b.role_vars, sort_keys=True))
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


@pytest.mark.parametrize("v", list(GADGET_TEXT))
def test_gadget_text_is_pinned(v):
    assert bundle_digest(fixed_value_game(v, "g")) == GADGET_TEXT[v]


@pytest.mark.parametrize("kind", list(ALGEBRA_TEXT))
def test_algebra_text_is_pinned(kind):
    operands = [v for v in GADGET_TEXT if v.denominator <= 4]
    digest = hashlib.sha256()
    for v in operands:
        for w in operands if kind != "complement" else [None]:
            b = combine_games(kind, fixed_value_game(v, "a"),
                              w if w is None else fixed_value_game(w, "b"))
            digest.update(bundle_digest(b).encode())
    assert digest.hexdigest() == ALGEBRA_TEXT[kind]
