import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from reference import truth

from boolgames.formula import FALSE, TRUE, Not, Or, Var
from boolgames.game import (
    BooleanGame,
    GameError,
    MixedProfile,
    NormalForm,
    ResourceCapError,
    ValidationError,
    expected_utility,
    parse_game,
    player_assignments,
    product_profile,
    profile_from_json,
    profile_to_json,
    render_game,
    to_normal_form,
    validate_game,
    validate_profile,
)

from boolgames.reductions import (
    build_guarantee_game,
    immediate_acceptor,
    simulate_tm,
    witness_profile,
)

from test_reductions import two_step_acceptor

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


@pytest.mark.parametrize("goal, message", [
    ("goal 1: x & & y", "line 4, column 13: expected a formula, got '&'"),
    ("  goal 1:\tx & & y  # two", "line 4, column 15: expected a formula, "
                                  "got '&'"),
    ("goal 1: (x | y", "line 4, column 15: expected ')'"),
    ("goal 1: x <- y", "line 4, column 11: unexpected character '<'"),
])
def test_parse_goal_syntax_error_names_the_file_position(goal, message):
    text = "players: 2\nvars 1: x\nvars 2: y\n%s\ngoal 2: y\n" % goal
    with pytest.raises(GameError) as err:
        parse_game(text)
    assert str(err.value) == message


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


def test_normal_form_needs_two_players():
    for payoffs in ([[1, 2]], []):
        with pytest.raises(ValidationError, match="at least two players"):
            NormalForm(payoffs)


def test_normal_form_rejects_float_cells():
    # a float is not exact: 0.1 would read as 3602879701896397/2^55
    for cell in (0.1, 1.0, float("nan")):
        with pytest.raises(ValidationError):
            NormalForm([[[cell, 0]], [[0, 0]]])
    assert NormalForm([[[Fraction("0.1"), 0]], [[0, 0]]]).payoffs[0] == [
        [Fraction(1, 10), 0]]


@pytest.mark.parametrize("payoffs", [
    [[[1, 2], [3]], [[1, 2], [3, 4]]],      # a short row in the first tensor
    [[[1, 2], [3, 4]], [[1, 2], [3, 4, 5]]],  # a long row in the second
    [[[1, 2], [3, [4]]], [[1, 2], [3, 4]]],   # a list where a cell belongs
    [[[1, 2], 3], [[1, 2], [3, 4]]],          # a cell where a row belongs
    [[[]], [[]]],                             # player 2 has no strategy
])
def test_normal_form_rejects_ragged_or_empty_tensors(payoffs):
    with pytest.raises(ValidationError):
        NormalForm(payoffs)


def test_own_parts_of_a_goal_that_is_not_a_conjunction():
    # one conjunct: the goal itself is on the side of its variables' owner
    own, mixed = Or((Var("x"), Not(Var("z")))), Or((Var("x"), Var("y")))
    g = BooleanGame([["x", "z"], ["y"]], [own, mixed])
    assert g.own_parts == ((own, TRUE), (TRUE, mixed))
    assert g.goal_vars == (("x", "z"), ("x", "y"))
    # a constant goal reads no variable: it is its player's own
    g = BooleanGame([["x"], ["y"]], [FALSE, Not(FALSE)])
    assert g.own_parts == ((FALSE, TRUE), (Not(FALSE), TRUE))


def test_product_profile_pairs_entries_row_major():
    p1 = MixedProfile([
        [({"x": True}, Fraction(1, 3)), ({"x": False}, Fraction(2, 3))],
        [({"y": False}, Fraction(1))],
    ])
    p2 = MixedProfile([
        [({"u": False}, Fraction(1, 2)), ({"u": True}, Fraction(1, 2))],
        [({"v": True}, Fraction(1, 4)), ({"v": False}, Fraction(3, 4))],
    ])
    prod = product_profile(p1, p2)
    assert prod.strategies[0] == (
        ({"x": True, "u": False}, Fraction(1, 6)),
        ({"x": True, "u": True}, Fraction(1, 6)),
        ({"x": False, "u": False}, Fraction(1, 3)),
        ({"x": False, "u": True}, Fraction(1, 3)),
    )
    assert prod.strategies[1] == (
        ({"y": False, "v": True}, Fraction(1, 4)),
        ({"y": False, "v": False}, Fraction(3, 4)),
    )


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


def profile_text(x="true", w='"1"'):
    """A matching-pennies profile whose first x value and y weight are given
    as JSON text."""
    return ('{"players": [{"support": [{"assign": {"x": %s}, "weight": "1/2"},'
            ' {"assign": {"x": false}, "weight": "1/2"}]}, '
            '{"support": [{"assign": {"y": true}, "weight": %s}]}]}' % (x, w))


@pytest.mark.parametrize("x", ['"false"', '"true"', "null", "0", "1"])
def test_profile_json_assignments_are_booleans(x):
    with pytest.raises(ValidationError):
        profile_from_json(profile_text(x=x))


@pytest.mark.parametrize("w", ["true", "NaN", "Infinity"])
def test_profile_json_weights_are_rationals(w):
    with pytest.raises(ValidationError):
        profile_from_json(profile_text(w=w))


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


@pytest.mark.parametrize("machine", [immediate_acceptor, two_step_acceptor])
def test_profile_to_json_sorts_as_a_sorted_dict_per_entry(machine):
    # json's sort_keys against a sorted dict built for every entry, on the
    # bound-4 witness, whose entries list their variables unsorted
    # (player 2's 64 windows start Time21, Time22, Tape21)
    m = machine()
    ro = build_guarantee_game(m, "", 4)
    wp = witness_profile(ro, simulate_tm(m, "", 4, 4, accept_row=3))
    old = json.dumps({"players": [
        {"support": [{"assign": {k: v for k, v in sorted(a.items())},
                      "weight": str(w)} for a, w in support]}
        for support in wp.strategies]})
    assert profile_to_json(wp) == old
