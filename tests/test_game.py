import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from reference import truth

from boolgames.formula import Iff, Not, Var, parse_formula
from boolgames.game import (
    BooleanGame,
    GameError,
    MixedProfile,
    NormalForm,
    ResourceCapError,
    ValidationError,
    characteristic_formula,
    compose_disjoint,
    expected_utility,
    marginalize,
    parse_game,
    player_assignments,
    profile_from_json,
    profile_to_json,
    render_game,
    to_normal_form,
    validate_game,
    validate_profile,
)

MP_TEXT = """\
# matching pennies, boolean form
players: 2
vars 1: x
vars 2: y
goal 1: ~(x <-> y)
goal 2: x <-> y
"""


def matching_pennies():
    return parse_game(MP_TEXT)


def uniform_profile(g):
    strategies = []
    for i in range(g.players):
        assigns = player_assignments(g, i)
        w = Fraction(1, len(assigns))
        strategies.append([(a, w) for a in assigns])
    return MixedProfile(strategies)


def test_parse_render_round_trip():
    g = matching_pennies()
    assert g.players == 2
    assert g.var_sets == (("x",), ("y",))
    g2 = parse_game(render_game(g))
    assert g2.var_sets == g.var_sets
    assert g2.goals == g.goals


def test_parse_rejects_overlapping_vars():
    bad = "players: 2\nvars 1: x\nvars 2: x\ngoal 1: x\ngoal 2: ~x\n"
    with pytest.raises(GameError):
        validate_game(parse_game(bad))


@pytest.mark.parametrize("extra, lineno", [
    ("vars 3: z", 4),   # a player the game does not have
    ("goal 3: x", 4),
    ("vars 1: z", 4),   # a repeated line: the first would be dropped
    ("goal 2: x", 6),
])
def test_parse_rejects_inconsistent_lines(extra, lineno):
    text = "players: 2\nvars 1: x\nvars 2: y\n%s\ngoal 1: x\ngoal 2: y\n"
    with pytest.raises(GameError, match="line %d:" % lineno):
        parse_game(text % extra)


def test_parse_rejects_goal_over_unknown_vars():
    bad = "players: 2\nvars 1: x\nvars 2: y\ngoal 1: z\ngoal 2: ~y\n"
    with pytest.raises(GameError):
        validate_game(parse_game(bad))


def test_expected_utility_pure_win_lose():
    g = matching_pennies()

    def pure(x, y):
        return MixedProfile([[({"x": x}, Fraction(1))],
                             [({"y": y}, Fraction(1))]])

    assert expected_utility(g, pure(True, False), 0) == 1
    assert expected_utility(g, pure(True, True), 0) == 0
    assert expected_utility(g, pure(True, True), 1) == 1


def test_player_assignments_order():
    g = matching_pennies()
    assert player_assignments(g, 0) == [{"x": False}, {"x": True}]


def test_expected_utility_uniform():
    g = matching_pennies()
    prof = uniform_profile(g)
    assert expected_utility(g, prof, 0) == Fraction(1, 2)
    assert expected_utility(g, prof, 1) == Fraction(1, 2)


def test_expected_utility_matches_brute_force():
    text = ("players: 2\nvars 1: a b\nvars 2: c\n"
            "goal 1: a & (b | c)\ngoal 2: ~c | a\n")
    g = parse_game(text)
    prof = MixedProfile([
        [({"a": True, "b": False}, Fraction(1, 3)),
         ({"a": False, "b": True}, Fraction(2, 3))],
        [({"c": True}, Fraction(1, 4)), ({"c": False}, Fraction(3, 4))],
    ])
    validate_profile(g, prof)
    for i in range(2):
        direct = Fraction(0)
        for a1, w1 in prof.strategies[0]:
            for a2, w2 in prof.strategies[1]:
                full = dict(a1)
                full.update(a2)
                direct += w1 * w2 * truth(g.goals[i], full)
        assert expected_utility(g, prof, i) == direct


def test_validate_profile_rejects_bad_weights():
    g = matching_pennies()
    bad = MixedProfile([
        [({"x": True}, Fraction(1, 2))],
        [({"y": True}, Fraction(1))],
    ])
    with pytest.raises(GameError):
        validate_profile(g, bad)


def test_validate_profile_rejects_wrong_vars():
    g = matching_pennies()
    bad = MixedProfile([
        [({"y": True}, Fraction(1))],
        [({"y": True}, Fraction(1))],
    ])
    with pytest.raises(GameError):
        validate_profile(g, bad)


def test_to_normal_form_matches_pure_utilities():
    g = parse_game("players: 2\nvars 1: a b\nvars 2: c\n"
                   "goal 1: a <-> (b & c)\ngoal 2: c\n")
    nf = to_normal_form(g)
    assert nf.shape == (4, 2)
    for i1, a1 in enumerate(player_assignments(g, 0)):
        for i2, a2 in enumerate(player_assignments(g, 1)):
            full = dict(a1)
            full.update(a2)
            for p in range(2):
                assert nf.payoff(p, (i1, i2)) == truth(g.goals[p], full)


def test_to_normal_form_cap():
    g = parse_game("players: 2\nvars 1: a b c d e\nvars 2: f\n"
                   "goal 1: a\ngoal 2: f\n")
    with pytest.raises(ResourceCapError):
        to_normal_form(g, cap=16)


def test_normal_form_validates_shape():
    with pytest.raises(GameError):
        NormalForm([[[1, 2]], [[1]]])


def test_normal_form_rejects_float_cells():
    # a float is not exact: 0.1 would read as 3602879701896397/2^55
    for cell in (0.1, 1.0, float("nan")):
        with pytest.raises(ValidationError):
            NormalForm([[[cell, 0]], [[0, 0]]])
    assert NormalForm([[[Fraction("0.1"), 0]], [[0, 0]]]).payoffs[0] == [
        [Fraction(1, 10), 0]]


def test_marginalize_product_structure():
    g = matching_pennies()
    prof = MixedProfile([
        [({"x": True}, Fraction(1, 3)), ({"x": False}, Fraction(2, 3))],
        [({"y": True}, Fraction(1, 2)), ({"y": False}, Fraction(1, 2))],
    ])
    marg = marginalize(prof, ["x"])
    assert marg[(("x", True),)] == Fraction(1, 3)
    both = marginalize(prof, ["x", "y"])
    assert both[(("x", True), ("y", False))] == Fraction(1, 6)
    assert sum(both.values()) == 1


def test_marginalize_unknown_variable():
    g = matching_pennies()
    with pytest.raises(GameError):
        marginalize(uniform_profile(g), ["zzz"])


def test_profile_json_round_trip():
    g = matching_pennies()
    prof = MixedProfile([
        [({"x": True}, Fraction(1, 3)), ({"x": False}, Fraction(2, 3))],
        [({"y": False}, Fraction(1))],
    ])
    back = profile_from_json(profile_to_json(prof), g)
    assert back.strategies == prof.strategies


def test_profile_json_validates_against_game():
    g = matching_pennies()
    prof = MixedProfile([
        [({"z": True}, Fraction(1))],
        [({"y": False}, Fraction(1))],
    ])
    text = profile_to_json(prof)
    with pytest.raises(GameError):
        profile_from_json(text, g)


def test_characteristic_formula():
    f = characteristic_formula({"a": True, "b": False})
    assert f == parse_formula("a & ~b")
    with pytest.raises(GameError):
        characteristic_formula({})


def test_compose_disjoint_namespaces():
    g = matching_pennies()
    out = compose_disjoint(
        [(g, "l"), (g, "r")],
        {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1},
        lambda goals: [goals[0][0], goals[1][1]],
        2,
    )
    assert set(out.var_sets[0]) == {"l.x", "r.x"}
    assert set(out.var_sets[1]) == {"l.y", "r.y"}
    validate_game(out)


def test_compose_rejects_duplicate_namespace():
    g = matching_pennies()
    with pytest.raises(GameError):
        compose_disjoint(
            [(g, "n"), (g, "n")],
            {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1},
            lambda goals: [goals[0][0], goals[1][1]],
            2,
        )


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_three_player_expected_utility_factorizes(num1, num2):
    g = parse_game("players: 3\nvars 1: a\nvars 2: b\nvars 3: c\n"
                   "goal 1: a & b\ngoal 2: b | c\ngoal 3: ~c\n")
    w1 = Fraction(num1, 4)
    w2 = Fraction(num2, 4)
    prof = MixedProfile([
        [({"a": True}, w1), ({"a": False}, 1 - w1)] if 0 < w1 < 1 else
        [({"a": w1 == 1}, Fraction(1))],
        [({"b": True}, w2), ({"b": False}, 1 - w2)] if 0 < w2 < 1 else
        [({"b": w2 == 1}, Fraction(1))],
        [({"c": False}, Fraction(1))],
    ])
    validate_profile(g, prof)
    assert expected_utility(g, prof, 0) == w1 * w2
    assert expected_utility(g, prof, 2) == 1
