import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from reference import rule_patterns, simulate_dfs
from windows import entries_decode, perturbed_windows, random_table

from boolgames.encodings import decode_bits
from boolgames.formula import (And, Iff, Not, Var, compile_formula,
                               eval_bits, render_formula)
from boolgames.game import (
    BooleanGame,
    ResourceCapError,
    expected_utility,
    profile_to_json,
    render_game,
    validate_game,
    validate_profile,
)
from boolgames.reductions import (
    LEFT,
    RIGHT,
    SYMBOLS,
    CellDescriptor,
    ReductionError,
    Square2x2,
    Transition,
    TuringMachine,
    _require_parts,
    admissible_squares,
    build_forall_guarantee_game,
    build_guarantee_game,
    build_require,
    cover_matrix_check,
    decode_square,
    decodable_trials,
    immediate_acceptor,
    oracle_requires,
    simulate_tm,
    square_oracle,
    table_window,
    transform_exists_nash_sat,
    transform_game,
    witness_profile,
)
from boolgames.solver import best_deviation_gain, is_nash

MP = BooleanGame(
    [["x"], ["y"]],
    [Not(Iff(Var("x"), Var("y"))), Iff(Var("x"), Var("y"))],
)


def test_machine_validation():
    m = immediate_acceptor()
    m.validate()
    with pytest.raises(ReductionError):
        TuringMachine(["q0"], "q0", "qa", [])
    # accept state must loop in place on every symbol
    with pytest.raises(ReductionError):
        TuringMachine(
            ["q0", "qa"], "q0", "qa",
            [Transition("q0", "_", "0", "L", "qa")],
        )


def acceptor_rules(q0, qa):
    """``immediate_acceptor``'s rules with its states renamed ``q0`` and
    ``qa``, which need not be valid state names."""
    return [Transition(q0, "_", "0", "L", qa),
            *(Transition(qa, x, x, "L", qa) for x in SYMBOLS)]


# (q0, qa) pairs in which q0 is no state name: not text, text that names
# no variable after "State1.", or a head marker
BAD_STATES = [(None, "qa"), (True, "qa"), (1, "1"), ("q-0", "qa"),
              (LEFT, "qa")]


@pytest.mark.parametrize("q0,qa", BAD_STATES)
def test_machine_states_must_be_names(q0, qa):
    with pytest.raises(ReductionError) as err:
        TuringMachine([q0, qa], q0, qa, acceptor_rules(q0, qa))
    assert str(err.value).startswith("state %r is not a name" % (q0,))
    # "." and digits may follow "State1."
    TuringMachine(["0", "q.a"], "0", "q.a", acceptor_rules("0", "q.a"))


def machine_json(m):
    """The machine file of ``m``, as ``bg --machine`` reads it."""
    return json.dumps({
        "states": list(m.states), "start": m.start, "accept": m.accept,
        "transitions": [{"from": t.frm, "read": t.read, "write": t.write,
                         "move": t.move, "to": t.to} for t in m.transitions],
    })


def test_machine_json_round_trip():
    m = immediate_acceptor()
    m2 = TuringMachine.from_json(machine_json(m))
    assert m2.states == m.states
    assert (m2.start, m2.accept) == (m.start, m.accept)
    assert m2.transitions == m.transitions


def test_simulate_immediate_acceptor():
    m = immediate_acceptor()
    table = simulate_tm(m, "", 2, 2)
    assert table is not None
    assert table[0][0].head == "q0"
    assert table[1][0].head == "qa"
    # demanding acceptance at row 0 is impossible
    assert simulate_tm(m, "", 2, 2, accept_row=0) is None


def one_reader():
    """Accepts immediately when the input starts with a 1."""
    accept_loops = [Transition("qa", x, x, "L", "qa") for x in ("0", "1", "_")]
    return TuringMachine(
        ["q0", "qa"], "q0", "qa",
        [Transition("q0", "1", "1", "L", "qa")] + accept_loops,
    )


def test_simulate_respects_input_word():
    m = one_reader()
    table = simulate_tm(m, "10", 4, 4)
    assert table is not None
    assert table[0][0].content == "1"
    assert table[0][1].content == "0"
    assert table[0][2].content == "_"
    # a word longer than the tape has no run
    assert simulate_tm(m, "101", 4, 2) is None


def test_simulate_cuts_right_moves_past_the_width():
    # q0 first tries a right move into the accept state, which needs one
    # more row to step back to cell 0; on a one-cell tape that move falls
    # off, and the second rule, accepting in place, is all that is left
    halt = [Transition("qa", s, s, "L", "qa") for s in SYMBOLS]
    m = TuringMachine(["q0", "qa"], "q0", "qa",
                      [Transition("q0", "_", "0", "R", "qa"),
                       Transition("q0", "_", "1", "L", "qa")] + halt)
    assert simulate_tm(m, "", 3, 2)[2][0] == CellDescriptor("0", "qa")
    assert simulate_tm(m, "", 3, 1) == [[CellDescriptor("_", "q0")]] + \
        [[CellDescriptor("1", "qa")]] * 2
    # at width 2 the right move reaches the accept state on cell 1 at row
    # 1, not cell 0: acceptance at row 1 backtracks to the second rule
    assert simulate_tm(m, "", 3, 2, accept_row=1)[1] == [
        CellDescriptor("1", "qa"), CellDescriptor("_", LEFT)]


def test_simulate_searches_a_1024_row_table():
    # every bound from 513 to 1024 has a 1024 x 1024 table; a recursive
    # search one call deep per row exceeds Python's default recursion limit
    table = simulate_tm(immediate_acceptor(), "", 1024, 1024, accept_row=999)
    assert len(table) == 1024
    assert table[0][:2] == [CellDescriptor("_", "q0"),
                            CellDescriptor("_", LEFT)]
    assert all(row == table[1] for row in table[1:])
    assert table[999][0] == CellDescriptor("0", "qa")


@pytest.mark.parametrize("word", ["2", "0a", "1 "])
def test_input_word_must_be_binary(word):
    m = immediate_acceptor()
    for build in (lambda: simulate_tm(m, word, 4, 4),
                  lambda: build_guarantee_game(m, word, 2),
                  lambda: build_forall_guarantee_game(m, word, 4),
                  lambda: transform_exists_nash_sat(m, word, 2)):
        with pytest.raises(ReductionError, match="over"):
            build()


def test_table_window_wraparound():
    m = immediate_acceptor()
    table = simulate_tm(m, "", 2, 2)
    sq = table_window(table, 1, 1, 1)
    assert sq.row == 1 and sq.col == 1
    assert sq.br == table[0][0]  # wraps both axes


def test_square_oracle_accepting_table():
    m = immediate_acceptor()
    table = simulate_tm(m, "", 2, 2)
    for i in range(2):
        for j in range(2):
            assert square_oracle(table_window(table, i, j, 1), m, "", 2)


def test_square_oracle_rejects_corruption():
    m = immediate_acceptor()
    table = simulate_tm(m, "", 2, 2)
    bad = [row[:] for row in table]
    bad[1][0] = CellDescriptor("1", "<")
    fails = [(i, j) for i in range(2) for j in range(2)
             if not square_oracle(table_window(bad, i, j, 1), m, "", 2)]
    assert fails


def test_admissible_squares_pass_oracle():
    m = immediate_acceptor()
    patterns = admissible_squares(m)
    assert patterns
    for pat in patterns:
        sq = Square2x2(*pat, row=1, col=1, k=2)
        assert square_oracle(sq, m, "", 4)


def test_guarantee_game_shape_and_payoff():
    m = immediate_acceptor()
    ro = build_guarantee_game(m, "", 2)
    validate_game(ro.game)
    assert ro.k == 1
    assert ro.mode == "exists"
    assert ro.payoff[1] == Fraction(7, 16)
    assert len(ro.game.var_sets[0]) == 16
    assert len(ro.game.var_sets[1]) == 34
    parsed = json.loads(ro.var_index.to_json())
    assert parsed  # the published index round-trips as JSON


def test_witness_profile_payoffs():
    m = immediate_acceptor()
    ro = build_guarantee_game(m, "", 2)
    table = simulate_tm(m, "", 2, 2)
    wp = witness_profile(ro, table)
    validate_profile(ro.game, wp)
    assert expected_utility(ro.game, wp, 0) == Fraction(9, 16)
    assert expected_utility(ro.game, wp, 1) == Fraction(7, 16)
    base, best = best_deviation_gain(ro.game, wp, 0)
    assert best <= base


def test_decode_square_and_oracle_agreement():
    m = immediate_acceptor()
    ro = build_guarantee_game(m, "", 2)
    req = compile_formula(ro.require)
    rng = random.Random(11)
    names = ro.game.var_sets[1]
    for _ in range(500):
        a = {v: bool(rng.getrandbits(1)) for v in names}
        assert req(a) == oracle_requires(ro, a)
    verdicts = set()
    for a in perturbed_windows(ro, rng, 500):
        verdicts.add(req(a))
        assert req(a) == oracle_requires(ro, a)
    assert verdicts == {False, True}


def test_forall_variant_needs_wider_tables():
    m = immediate_acceptor()
    with pytest.raises(ReductionError):
        build_forall_guarantee_game(m, "", 2)
    ro = build_forall_guarantee_game(m, "", 4)
    assert ro.k == 2 and ro.mode == "forall"
    n2k, n2k2 = 1 << 4, 1 << 6
    delta = Fraction(1, n2k2) - Fraction(1, n2k2 * n2k)
    want = (Fraction(1, n2k) + delta / (n2k - 4) + Fraction(2, n2k2)
            + 2 * delta / (n2k2 - 16))
    assert ro.payoff[1] == want


def test_cover_matrix_check():
    from boolgames.game import ResourceCapError
    assert cover_matrix_check(2)
    with pytest.raises(ResourceCapError):
        cover_matrix_check(200, cap=64)


def cover_determinant(m):
    """The determinant of the cover-weight system of ``cover_matrix_check``
    (4 x[i][j] + x[i-1][j] + x[i][j-1] + x[i-1][j-1], indices mod m), by
    Gaussian elimination over Fractions with row swaps."""
    n = m * m
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            for di, dj, w in ((0, 0, 4), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
                rows[i * m + j][(i - di) % m * m + (j - dj) % m] += w
    det = Fraction(1)
    for c in range(n):
        r = next(r for r in range(c, n) if rows[r][c])
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        det *= rows[c][c]
        for rr in range(c + 1, n):
            f = rows[rr][c] / rows[c][c]
            rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[c])]
    return det


@pytest.mark.parametrize("m,det", [(2, 189), (3, 283024), (4, 4184332425)])
def test_cover_matrix_check_eliminates(monkeypatch, m, det):
    # the matrix is nonsingular for every m, so a bare "yes" cannot tell an
    # elimination from none: count its pivots and read its last
    # denominator, the determinant up to sign
    from boolgames import reductions
    pivot, denominators = reductions._pivot, []

    def spy(*args):
        denominators.append(pivot(*args))
        return denominators[-1]
    monkeypatch.setattr(reductions, "_pivot", spy)
    assert cover_matrix_check(m)
    assert abs(cover_determinant(m)) == det
    assert len(denominators) == m * m
    assert denominators[-1] == det


def test_transform_unique_nash_shape():
    g2, phi = transform_game("unique_nash", MP, (Fraction(1, 2), Fraction(1, 2)))
    assert phi is None
    validate_game(g2)
    assert "t.Play1" in g2.var_sets[0]
    assert "t.Dummy2" in g2.var_sets[1]


def test_transform_forall_sat_formula():
    g2, phi = transform_game("forall_nash_sat", MP,
                             (Fraction(1, 2), Fraction(1, 2)))
    from boolgames.formula import render_formula
    assert render_formula(phi) == "t.Play1 | t.Play2"
    validate_game(g2)


def test_transform_irrational_rejects_value_1():
    # at v = 1 every profile of the side game G(1) is an equilibrium, so
    # "player 1 falls back, player 2 mixes t.Choice2" would be a continuum
    # of equilibria even for a game that never pays player 1
    never = BooleanGame([["x"], ["y"]],
                        [And((Var("x"), Not(Var("x")))), Var("y")])
    for g in (MP, never):
        for v in (1, Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ReductionError, match=r"\[0, 1\)"):
                transform_game("irrational", g, v)
        transform_game("irrational", g, 0)


def test_transform_rejects_variable_collisions():
    g = BooleanGame([["t.Play1"], ["y"]],
                    [Var("t.Play1"), Var("y")])
    with pytest.raises(ReductionError):
        transform_game("unique_nash", g, (Fraction(1, 2), Fraction(1, 2)))


@pytest.mark.parametrize("kind,v,name", [
    ("unique_nash", (Fraction(1, 2), Fraction(1, 2)), "t.Dummy2"),
    ("forall_nash_sat", (Fraction(1, 2), Fraction(1, 2)), "t.Play1"),
    ("irrational", Fraction(1, 2), "t.Choice2"),
], ids=["unique_nash", "forall_nash_sat", "irrational"])
def test_every_transform_names_its_variable_collision(kind, v, name):
    # the colliding name is player 1's here, whichever player adds it
    g = BooleanGame([[name], ["y"]], [Var(name), Var("y")])
    with pytest.raises(ReductionError,
                       match="variable collision: %s$" % name):
        transform_game(kind, g, v)


# sha256 of render_game of each transform of matching pennies, and of
# transform_exists_nash_sat at bound 2, each followed by phi's text if any
TRANSFORM_TEXT = {
    "unique_nash":
        "83b016206bfd4861adee47dad8dd76dcb03688134087733cb11401faa64dce19",
    "forall_nash_sat":
        "a48935ada0b5a48d7fc3e111941ed52cff9d7a812a019f57a277d742d65d1c47",
    "irrational":
        "23ff67c7a0f30d562562da0f445eb1054d5404e519a90ff6d39e646cdc61d13c",
    "exists_nash_sat":
        "a21088374895c11e15c7ef19abf23baa0df46a1d5c98291c0278baddd096e1d5",
}


@pytest.mark.parametrize("kind", list(TRANSFORM_TEXT))
def test_transform_text_is_pinned(kind):
    half = Fraction(1, 2)
    if kind == "exists_nash_sat":
        g, phi = transform_exists_nash_sat(immediate_acceptor(), "", 2)
    else:
        g, phi = transform_game(kind, MP,
                                half if kind == "irrational" else (half, half))
    text = render_game(g) + ("" if phi is None else render_formula(phi))
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSFORM_TEXT[kind]


def test_transform_exists_nash_sat_structure():
    m = immediate_acceptor()
    g, phi = transform_exists_nash_sat(m, "", 2)
    validate_game(g)
    ro = build_guarantee_game(m, "", 2)
    assert set(ro.game.var_sets[0]) <= set(g.var_sets[0])
    assert set(ro.game.var_sets[1]) <= set(g.var_sets[1])
    assert phi is not None


def two_step_acceptor():
    """Writes 0 and steps right, writes 1 and steps back, accepting at
    step 2: too late for bound 2, in time for bound 4."""
    halt = [Transition("qa", s, s, "L", "qa") for s in ("0", "1", "_")]
    return TuringMachine(
        ["q0", "q1", "qa"], "q0", "qa",
        [Transition("q0", "_", "0", "R", "q1"),
         Transition("q1", "_", "1", "L", "qa")] + halt)


def never_acceptor():
    """Runs right over blanks and never enters the accept state."""
    halt = [Transition("qa", s, s, "L", "qa") for s in ("0", "1", "_")]
    return TuringMachine(["q0", "qa"], "q0", "qa",
                         [Transition("q0", "_", "1", "R", "q0")] + halt)


def round_trip_acceptor():
    """Writes 0 and 1 stepping right, then steps back left twice, reading
    the 1, and accepts at step 4 (bound 5, k = 3).  Its head moves right
    from the right column of a window, which no other test machine does."""
    halt = [Transition("qa", s, s, "L", "qa") for s in SYMBOLS]
    return TuringMachine(
        ["q0", "q1", "q2", "q3", "qa"], "q0", "qa",
        [Transition("q0", "_", "0", "R", "q1"),
         Transition("q1", "_", "1", "R", "q2"),
         Transition("q2", "_", "_", "L", "q3"),
         Transition("q3", "1", "1", "L", "qa")] + halt)


@st.composite
def searches(draw):
    """A machine of two to four states (the accept state last) with zero to
    two rules for each working state and symbol, in a drawn order, and a
    search of at most 8 x 8 for it: a word of up to three bits and an
    accept row that may be out of range."""
    states = ["q%d" % i for i in range(draw(st.integers(1, 3)))] + ["qa"]
    rule = st.tuples(st.sampled_from(SYMBOLS), st.sampled_from("LR"),
                     st.sampled_from(states))
    rules = [Transition(q, s, *r) for q in states[:-1] for s in SYMBOLS
             for r in draw(st.lists(rule, max_size=2))]
    halt = [Transition("qa", s, s, "L", "qa") for s in SYMBOLS]
    m = TuringMachine(states, draw(st.sampled_from(states)), "qa",
                      draw(st.permutations(rules + halt)))
    return (m, draw(st.text("01", max_size=3)), draw(st.integers(0, 8)),
            draw(st.integers(0, 8)), draw(st.none() | st.integers(-1, 8)))


def search_outcome(search, case):
    """The table ``search`` returns on ``case``, or the type it raises."""
    try:
        return search(*case)
    except (ReductionError, ResourceCapError) as e:
        return type(e)


@settings(deadline=None, max_examples=500)
@given(searches())
@example((round_trip_acceptor(), "", 8, 8, 4))
@example((round_trip_acceptor(), "1", 8, 8, 4))
def test_simulate_is_the_recursive_search(case):
    # the same first accepting run (declared transition order), the same
    # padding after its accept row, None or the same error
    assert search_outcome(simulate_tm, case) == \
        search_outcome(simulate_dfs, case)


@pytest.mark.parametrize("machine,accepts_at", [
    (immediate_acceptor, 1), (two_step_acceptor, 2), (never_acceptor, None),
    (round_trip_acceptor, 4)])
@pytest.mark.parametrize("size", [2, 4, 8])
def test_simulate_matches_the_reference_on_every_accept_row(machine,
                                                            accepts_at, size):
    m = machine()
    tables = [simulate_tm(m, "", size, size, row) for row in range(size)]
    assert tables == [simulate_dfs(m, "", size, size, row)
                      for row in range(size)]
    assert [t is not None for t in tables] == [
        accepts_at is not None and row >= accepts_at for row in range(size)]


# sha256 of render_game(ro.game), of render_formula(ro.require) and of
# ro.var_index.to_json() followed, when the machine accepts within the
# bound, by profile_to_json of its witness profile
REDUCTION_TEXT = {
    (immediate_acceptor, 2, "exists"): (
        "8350ef36ffd97834ada629a2400028d4fbd48f082819ee0e36514f2c286f0cd4",
        "95cfcee64a1f3093413bb6d236056d9a783144594a1602a28ed3f2f20ded5072",
        "39532225d7d57fd348180e060808d097b0f0730ec2ad3c1a7f292792b7a5c06d"),
    (immediate_acceptor, 4, "exists"): (
        "ae2169a2d30a9b728035674daeb2355c5271516d9b63545570df72d5ec6ea846",
        "bac3cbb25c03efc3c699e9814ca3b17523aa61ec60e2c70e56278fcd7c22f66b",
        "fb5246525d648c6027a968be60802f1d8e3e971f0a12f84ac46c433c14b7071c"),
    (immediate_acceptor, 4, "forall"): (
        "a5f9c437b114c2c7c4bc008a11eb247e676f1f253a1fee3113f82885a93ee492",
        "63b61b75b954ed9fd503cac1347a70d1a37b2dddb124a56cda598e77f65f4735",
        "fb5246525d648c6027a968be60802f1d8e3e971f0a12f84ac46c433c14b7071c"),
    (two_step_acceptor, 2, "exists"): (
        "726179c631d3b07a643c9a15d929af021e0d51532ebd6109303c14121f3d75fa",
        "77e1ba4521b1548b8ba0dd9748ab1c2b696a99f0a4319198e08c59daeaa08eb9",
        "8149dff5e991e73dfe296ab0024aee1571237c839c5b4e1bb5700a28edce0f22"),
    (two_step_acceptor, 4, "exists"): (
        "9a5a575a817f11b2d58a10a4a2b0e0890077e88a2836a1c15e1d37a9c41def39",
        "aff04f6bceed7bd36832342788eefcdf94cd1a75df1a9f5b5d5f772e0fa88e95",
        "35cb34c7e2dcd6741fd66da823e374855030feb4eadf172688feff57b79275bc"),
    (two_step_acceptor, 4, "forall"): (
        "afb383dfa9fdb53e33fa229f8e07ae9a93e69d117699baf1fa1e9dd6586aa336",
        "a678a5a65b5793653f78dc5585f5f0753b65bfa89a9a043ad56489028b4acf09",
        "35cb34c7e2dcd6741fd66da823e374855030feb4eadf172688feff57b79275bc"),
    (never_acceptor, 2, "exists"): (
        "375a92d41a1c710a3fe176749dd8c6047583ce99a3eec7d8274b2388720c328a",
        "3c5f1d0b40f5d1f6ae27afcdd7dc4b74436482db014fa08d4285535bd33b638c",
        "8e53ac06fe63a849b627807e605752092eb427b205b8590ddf6746007d4df533"),
    (never_acceptor, 4, "exists"): (
        "3c9fadeaf8047411092536d5bc53e3ed1a0c797a9cff04a4c145bba0c8e64197",
        "46afb8f045f1db142813aab0487172157dddf090c509e78fd658cf465b5b9f8e",
        "cb3712a1e65803eedf705d961e6620bd5573c309632cd4c09a68bc8c2f478bce"),
    (never_acceptor, 4, "forall"): (
        "b6bd16a5ce77616bc1511f9253f3795d080e413bac9720797d2d7e65dd8753aa",
        "1d67657f46515b6015bd1442948743abe7313bc0a936c7c85149eb99bc4a2b57",
        "cb3712a1e65803eedf705d961e6620bd5573c309632cd4c09a68bc8c2f478bce"),
}


def random_machine(rng):
    """A machine of one to three working states and one to six transition
    rules drawn at random besides the accept state's own."""
    states = ["q%d" % i for i in range(rng.randint(1, 3))]
    rules = [Transition(rng.choice(states), rng.choice(SYMBOLS),
                        rng.choice(SYMBOLS), rng.choice("LR"),
                        rng.choice(states + ["qa"]))
             for _ in range(rng.randint(1, 6))]
    halt = [Transition("qa", s, s, "L", "qa") for s in SYMBOLS]
    return TuringMachine(states + ["qa"], "q0", "qa", rules + halt)


def test_admissible_squares_match_the_per_rule_reference():
    # the patterns that hold whatever the rule are added once; the set
    # must be the one generated rule by rule
    machines = [immediate_acceptor(), two_step_acceptor(), never_acceptor(),
                *(random_machine(random.Random(seed)) for seed in range(8))]
    for m in machines:
        assert admissible_squares(m) == rule_patterns(m), m.transitions


@pytest.mark.parametrize("machine", [immediate_acceptor, two_step_acceptor,
                                     never_acceptor])
@pytest.mark.parametrize("bound", [2, 4, 8])
@pytest.mark.parametrize("mode", ["exists", "forall"])
def test_build_require_is_the_games_require(machine, bound, mode):
    # verify squares reads Require and player 2's variables from
    # build_require alone: they must be the full build's
    m = machine()
    build = build_guarantee_game if mode == "exists" else \
        build_forall_guarantee_game
    if (bound, mode) == (2, "forall"):
        # a 2x2 table is too small for the forall payoff: both refuse it
        with pytest.raises(ReductionError) as full:
            build(m, "", bound)
        with pytest.raises(ReductionError) as alone:
            build_require(m, "", bound, mode)
        assert str(alone.value) == str(full.value)
        return
    ro = build(m, "", bound)
    req = build_require(m, "", bound, mode)
    assert req.require == ro.require
    assert req.player2_vars == ro.game.var_sets[1]
    assert (req.k, req.mode, req.bound, req.word) == (ro.k, mode, bound, "")
    assert req.var_index.to_json() == ro.var_index.to_json()


SCREEN_CASES = [(machine, bound, mode)
                for machine in (immediate_acceptor, two_step_acceptor,
                                never_acceptor)
                for bound in (2, 4, 8)
                for mode in ("exists", "forall")
                if (bound, mode) != (2, "forall")]


@pytest.mark.parametrize("machine,bound,mode", SCREEN_CASES)
def test_decodable_trials_is_the_decoders_rule(machine, bound, mode):
    # the bit-parallel screen of verify squares against _decode_entry run
    # trial by trial, on windows a few bits from well-formed ones (of the
    # accepting run, or of a random table where there is none) and on
    # uniform draws; Require (or Illegal) holds only inside the screen
    build = build_guarantee_game if mode == "exists" else \
        build_forall_guarantee_game
    ro = build(machine(), "", bound)
    rng = random.Random(bound)
    size = 1 << ro.k
    table = simulate_tm(ro.machine, "", size, size) or random_table(ro, rng)
    names = ro.game.var_sets[1]
    trials = list(perturbed_windows(ro, rng, 300, table))
    trials += [{v: bool(rng.getrandbits(1)) for v in names}
               for _ in range(300)]
    masks = {v: sum(a[v] << r for r, a in enumerate(trials)) for v in names}
    full = (1 << len(trials)) - 1
    screen = decodable_trials(ro, masks, full)
    decodes = [entries_decode(ro, a) for a in trials]
    assert [bool(screen >> r & 1) for r in range(len(trials))] == decodes
    assert set(decodes) == {False, True}
    assert eval_bits(ro.require, masks, full) & ~screen == 0


@pytest.mark.parametrize("machine,bound,mode", list(REDUCTION_TEXT))
def test_reduction_text_is_pinned(machine, bound, mode):
    # the same formulas with the same disjunct order, byte for byte: the
    # texts of the benchmark's three machines, hashed
    build = build_guarantee_game if mode == "exists" else \
        build_forall_guarantee_game
    ro = build(machine(), "", bound)
    size = 1 << ro.k
    table = simulate_tm(ro.machine, "", size, size, accept_row=bound - 1)
    published = ro.var_index.to_json() + (
        "" if table is None else profile_to_json(witness_profile(ro, table)))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in
                    (render_game(ro.game), render_formula(ro.require),
                     published))
    assert digests == REDUCTION_TEXT[machine, bound, mode]


@pytest.mark.parametrize("machine", [immediate_acceptor, two_step_acceptor,
                                     one_reader])
@pytest.mark.parametrize("bound", [2, 4])
def test_window_rules_sorted_by_their_text(machine, bound):
    # the rules of the window disjunction are sorted on a key read from
    # their entries' variable names; the order, and so every rendered game,
    # must be that of sorting the rules on their own text
    m = machine()
    ro = build_guarantee_game(m, "", bound)
    consistency = _require_parts(m, "", bound, ro.k, ro.var_index)[3]
    rules = consistency.children[2].children[1].children
    assert len(rules) > 1
    assert list(rules) == sorted(rules, key=str)


def check_witness_windows(machine, build, bound):
    # every window of a genuine accepting run is legal: Require holds on all
    # of them (exists mode) and Illegal on none (forall mode), and the
    # decoding oracle must say the same window by window; each window with
    # one descriptor flag or position bit flipped must get the same verdict
    # from both.  Require is evaluated over all cases in one eval_bits pass
    # (bit p is case p).
    m = machine()
    ro = build(m, "", bound)
    size = 1 << ro.k
    table = simulate_tm(m, "", size, size, accept_row=bound - 1)
    assert table is not None
    windows = [a for a, _ in witness_profile(ro, table).strategies[1]]
    assert len(windows) == 4 * size * size
    legal = ro.mode == "exists"
    vi = ro.var_index
    flips = [v for e in vi.entry2.values()
             for v in (*e.flags, *e.time, *e.tape)]
    cases = []
    for a in windows:
        assert oracle_requires(ro, a) == legal
        cases.append(a)
        for v in flips:
            b = dict(a)
            b[v] = not b[v]
            cases.append(b)

    def mask(bits):
        return int("".join("01"[bit] for bit in reversed(bits)), 2)

    masks = {v: mask([c[v] for c in cases]) for v in ro.game.var_sets[1]}
    req = eval_bits(ro.require, masks, (1 << len(cases)) - 1)
    oracle = mask([oracle_requires(ro, c) for c in cases])
    assert req == oracle, [p for p in range(len(cases))
                           if (req ^ oracle) >> p & 1][:5]


@pytest.mark.parametrize("machine", [immediate_acceptor, two_step_acceptor])
@pytest.mark.parametrize("build", [build_guarantee_game,
                                   build_forall_guarantee_game])
def test_oracle_agrees_with_require_on_witness_windows_k2(machine, build):
    check_witness_windows(machine, build, 4)


@pytest.mark.parametrize("machine", [immediate_acceptor, two_step_acceptor])
@pytest.mark.parametrize("build", [build_guarantee_game,
                                   build_forall_guarantee_game])
def test_oracle_agrees_with_require_on_witness_windows_k3(machine, build):
    check_witness_windows(machine, build, 8)


@pytest.mark.parametrize("build", [build_guarantee_game,
                                   build_forall_guarantee_game])
def test_oracle_agrees_with_require_on_a_right_moving_head(build):
    # the witness windows of a head moving right from a window's right
    # column, and windows a few bits from them
    check_witness_windows(round_trip_acceptor, build, 5)
    ro = build(round_trip_acceptor(), "", 5)
    req = compile_formula(ro.require)
    verdicts = set()
    for a in perturbed_windows(ro, random.Random(5), 300):
        verdicts.add(req(a))
        assert req(a) == oracle_requires(ro, a)
    assert verdicts == {False, True}


def flag_entry(assign, entry):
    """The descriptor that an entry's one-hot flag block spells, read
    directly."""
    content = "0" if assign[entry.zero] else (
        "1" if assign[entry.one] else "_")
    heads = [h for h, v in entry.heads.items() if assign[v]]
    assert len(heads) == 1
    return CellDescriptor(content, heads[0])


@pytest.mark.parametrize("machine", [immediate_acceptor, two_step_acceptor])
@pytest.mark.parametrize("bound", [2, 4, 8])
def test_witness_profile_is_table_times_gadget(machine, bound):
    # any table of the right size describes a profile, so a seeded random
    # one tests every descriptor, not only those of an accepting run
    m = machine()
    ro = build_guarantee_game(m, "", bound)
    size = 1 << ro.k
    rng = random.Random(bound)
    heads = [LEFT, RIGHT] + list(m.states)
    table = [[CellDescriptor(rng.choice(SYMBOLS), rng.choice(heads))
              for _ in range(size)] for _ in range(size)]
    wp = witness_profile(ro, table)
    vi, g_eq = ro.var_index, ro.gadget.equilibrium.strategies
    cells = [(i, j) for i in range(size) for j in range(size)]
    for player, support in enumerate(wp.strategies):
        gadget = g_eq[player]
        assert len(support) == len(cells) * len(gadget)
        for n, (i, j) in enumerate(cells):
            block = support[n * len(gadget):(n + 1) * len(gadget)]
            for (a, w), (g_a, g_w) in zip(block, gadget):
                assert w == Fraction(1, size * size) * g_w
                assert all(a[v] == b for v, b in g_a.items())
                if player == 0:
                    assert decode_bits(vi.entry1.time, a) == i
                    assert decode_bits(vi.entry1.tape, a) == j
                    assert flag_entry(a, vi.entry1) == table[i][j]
                else:
                    assert decode_square(ro, a) == table_window(table, i, j,
                                                                ro.k)
            # the side game's part is the only one that varies in a block
            rest = [{v: b for v, b in a.items() if v not in g_a}
                    for (a, _), (g_a, _) in zip(block, gadget)]
            assert all(r == rest[0] for r in rest)
    validate_profile(ro.game, wp)
