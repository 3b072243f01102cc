import json
import random
from fractions import Fraction

import pytest
from windows import perturbed_windows

from boolgames.encodings import decode_bits
from boolgames.formula import (And, Iff, Not, Var, compile_formula,
                               eval_bits)
from boolgames.game import (
    BooleanGame,
    expected_utility,
    validate_game,
    validate_profile,
)
from boolgames.reductions import (
    ENTRY_PREFIXES,
    LEFT,
    RIGHT,
    SYMBOLS,
    CellDescriptor,
    ReductionError,
    Square2x2,
    Transition,
    TuringMachine,
    _build_require,
    admissible_squares,
    build_forall_guarantee_game,
    build_guarantee_game,
    cover_matrix_check,
    decode_square,
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
    total = 0
    for rule, patterns in admissible_squares(m).items():
        for pat in patterns:
            sq = Square2x2(*pat, row=1, col=1, k=2)
            assert square_oracle(sq, m, "", 4)
            total += 1
    assert total > 0


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


@pytest.mark.parametrize("machine", [immediate_acceptor, two_step_acceptor,
                                     one_reader])
@pytest.mark.parametrize("bound", [2, 4])
def test_window_rules_sorted_by_their_text(machine, bound):
    # the rules of the window disjunction are sorted on their entries'
    # cached reprs; the order, and so every rendered game, must be that of
    # sorting the rules on their own text
    m = machine()
    ro = build_guarantee_game(m, "", bound)
    consistency = _build_require(m, "", bound, ro.k, ro.var_index)[3]
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
    table = simulate_tm(m, "", size, size, accept_row=3)
    assert table is not None
    windows = [a for a, _ in witness_profile(ro, table).strategies[1]]
    assert len(windows) == 4 * size * size
    legal = ro.mode == "exists"
    vi = ro.var_index
    flips = [v for p in ENTRY_PREFIXES
             for v in vi.entry2_vars(p) + list(vi.time2[p] + vi.tape2[p])]
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


def flag_entry(assign, flags, states):
    """The descriptor that a one-hot flag block spells, read directly."""
    content = "0" if assign[flags["zero"]] else (
        "1" if assign[flags["one"]] else "_")
    heads = [h for h, v in [(LEFT, flags["left"]), (RIGHT, flags["right"])]
             + [(q, flags["state"][q]) for q in states] if assign[v]]
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
                    assert decode_bits(vi.time1, a) == i
                    assert decode_bits(vi.tape1, a) == j
                    assert flag_entry(a, vi.flags1, m.states) == table[i][j]
                else:
                    assert decode_square(ro, a) == table_window(table, i, j,
                                                                ro.k)
            # the side game's part is the only one that varies in a block
            rest = [{v: b for v, b in a.items() if v not in g_a}
                    for (a, _), (g_a, _) in zip(block, gadget)]
            assert all(r == rest[0] for r in rest)
    validate_profile(ro.game, wp)
