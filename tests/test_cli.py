import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from boolgames import cli, gadgets, reductions, solver
from boolgames.cli import run
from boolgames.formula import eval_formula, parse_formula
from boolgames.game import (MixedProfile, draw_trials, parse_game,
                            profile_from_json, profile_to_json, render_game,
                            to_normal_form)
from boolgames.reductions import (build_forall_guarantee_game,
                                  build_guarantee_game, immediate_acceptor,
                                  oracle_requires, simulate_tm,
                                  transform_game, witness_profile)
from test_reductions import machine_json, two_step_acceptor
from windows import entries_decode, perturbed_windows

MP_TEXT = """\
players: 2
vars 1: x
vars 2: y
goal 1: ~(x <-> y)
goal 2: x <-> y
"""

BOS_JSON = json.dumps(
    {"payoffs": [[[3, 0], [0, 2]], [[2, 0], [0, 3]]]}
)


@pytest.fixture
def mp_file(tmp_path):
    path = tmp_path / "mp.bg"
    path.write_text(MP_TEXT)
    return str(path)


@pytest.fixture
def bos_file(tmp_path):
    path = tmp_path / "bos.nf"
    path.write_text(BOS_JSON)
    return str(path)


@pytest.fixture
def machine_file(tmp_path):
    path = tmp_path / "acc.json"
    path.write_text(machine_json(immediate_acceptor()))
    return str(path)


# the flags a nash sub-verb needs besides --game, where it needs any
NASH_FLAGS = {"guarantee": ["--payoffs", "0,0"],
              "forall-guarantee": ["--payoffs", "0,0"],
              "sat": ["--formula", "x"]}


def run_json(argv, capsys, expect_code=0):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect_code, out
    return json.loads(out)


def test_value(mp_file, capsys):
    data = run_json(["value", "--game", mp_file], capsys)
    assert data["value"] == "1/2"


def test_check(mp_file, capsys):
    data = run_json(["check", "--game", mp_file], capsys)
    assert data["ok"] and data["players"] == 2


def test_nash_unique_answers_match_exit_codes(mp_file, bos_file, capsys):
    data = run_json(["nash", "unique", "--game", mp_file], capsys, 0)
    assert data["answer"] == "yes"
    data = run_json(["nash", "unique", "--game", bos_file], capsys, 1)
    assert data["answer"] == "no"


def test_nash_find_and_guarantee(bos_file, capsys):
    data = run_json(["nash", "find", "--game", bos_file], capsys)
    assert data["answer"] == "yes" and data["witness"] is not None
    data = run_json(["nash", "guarantee", "--game", bos_file,
                     "--payoffs", "4,0"], capsys, 1)
    assert data["answer"] == "no"


def test_nash_pure(bos_file, capsys):
    data = run_json(["nash", "pure", "--game", bos_file], capsys)
    assert data["equilibria"] == [[0, 0], [1, 1]]


def test_nash_pure_reads_goal_masks_on_2_20_cells(tmp_path, monkeypatch,
                                                   capsys):
    # the win-lose game with ten variables a player: player 2 wins where
    # b = a, and player 1 then wins by setting some a_t where b_t is 0, so
    # the one equilibrium is everything true; no nested table is built
    def nested(*args):
        raise AssertionError("nash pure built a nested payoff table")
    monkeypatch.setattr(cli.game, "_nested", nested)
    n = 10
    path = tmp_path / "winlose.bg"
    path.write_text(
        "players: 2\nvars 1: %s\nvars 2: %s\ngoal 1: %s\ngoal 2: %s\n" % (
            " ".join("a%d" % t for t in range(n)),
            " ".join("b%d" % t for t in range(n)),
            " | ".join("(a%d & ~b%d)" % (t, t) for t in range(n)),
            " & ".join("(a%d <-> b%d)" % (t, t) for t in range(n))))
    data = run_json(["nash", "pure", "--game", str(path)], capsys)
    assert data["answer"] == "yes"
    assert data["equilibria"] == [dict.fromkeys(sorted(
        ["a%d" % t for t in range(n)] + ["b%d" % t for t in range(n)]),
        True)]


def test_normal_form_payoffs_as_strings(mp_file, capsys):
    data = run_json(["normal-form", "--game", mp_file], capsys)
    assert data["shape"] == [2, 2]
    assert data["payoffs"][0][0][0] == "0"


def test_eval_formula(capsys):
    data = run_json(["eval", "--formula", "p -> q", "--assign", "p=1,q=1"],
                    capsys)
    assert data["value"] is True


@pytest.mark.parametrize("assign", ["p=1,=1", "p=1,p=0", "p=1, p=1",
                                    "1p=1", "T=1", "p=1,q r=0"])
def test_eval_rejects_malformed_assign(capsys, assign):
    assert run(["eval", "--formula", "p", "--assign", assign]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--assign" in captured.err


@pytest.mark.parametrize("deep", ["~" * 1000 + "x",
                                  "(" * 1000 + "x" + ")" * 1000,
                                  " <-> ".join(["x"] * 1000)],
                         ids=["not", "parens", "iff"])
def test_deeply_nested_formula_exits_2(mp_file, tmp_path, capsys, deep):
    game = tmp_path / "deep.bg"
    game.write_text(MP_TEXT.replace("goal 2: x <-> y", "goal 2: " + deep))
    for argv in (["eval", "--formula", deep, "--assign", "x=1"],
                 ["nash", "sat", "--game", mp_file, "--formula", deep],
                 ["check", "--game", str(game)],
                 ["normal-form", "--game", str(game)]):
        assert run(argv) == 2, argv[:2]
        captured = capsys.readouterr()
        assert captured.out == "" and "nested too deeply" in captured.err


def test_gadget_build_artifact_reparses(capsys):
    data = run_json(["gadget", "build", "--value", "2/5"], capsys)
    g = parse_game(data["game"])
    assert g.players == 2
    # bundled equilibrium re-validates against the re-parsed game
    profile_from_json(json.dumps(data["equilibrium"]), g)
    assert data["value"] == "2/5"


def test_gadget_value_and_combine_build_no_profile(monkeypatch, capsys):
    # neither verb prints an equilibrium, so neither may build one: at
    # b = 1000 the product of two profiles has a million entries
    def no_profile(*args):
        raise AssertionError("an equilibrium profile was built")
    monkeypatch.setattr(gadgets, "MixedProfile", no_profile)
    monkeypatch.setattr(gadgets, "product_profile", no_profile)
    for kind, value, b in (("sum", "2/3", ["--b", "1/3"]),
                           ("product", "1/6", ["--b", "1/3"]),
                           ("complement", "1/2", [])):
        data = run_json(["gadget", "combine", "--kind", kind, "--a", "1/2"]
                        + b, capsys)
        assert data["value"] == value
    for value in ("0", "2/5", "1"):
        data = run_json(["gadget", "value", "--value", value], capsys)
        assert data == {"answer": "yes", "mode": "exact", "value": value}


def test_complement_takes_one_operand(capsys):
    assert run(["gadget", "combine", "--kind", "complement", "--a", "1/2",
                "--b", "1/3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "complement takes one operand" in captured.err


def test_encode_output_reparses(capsys):
    from boolgames.formula import parse_formula
    data = run_json(["encode", "less", "--width", "3", "--args", "x,y"],
                    capsys)
    parse_formula(data["formula"])
    assert "x1" in data["vars"]


def num(a, prefix, width):
    """The number an MSB-first bit sequence prefix1..prefixwidth holds."""
    return sum(a[prefix + str(i)] << (width - i) for i in range(1, width + 1))


@pytest.mark.parametrize("argv,spec", [
    # README's example: x + y = 5 (the sum fits in 3 bits)
    ("add --width 3 --args x,y,5",
     lambda a: num(a, "x", 3) + num(a, "y", 3) == 5),
    ("add --width 2 --args x,y,z",
     lambda a: num(a, "x", 2) + num(a, "y", 2) == num(a, "z", 2)),
    ("sub --width 3 --args x,2,z",
     lambda a: num(a, "x", 3) - 2 == num(a, "z", 3)),
    ("sub --width 2 --args x,y,z",
     lambda a: num(a, "x", 2) - num(a, "y", 2) == num(a, "z", 2)),
    # summand S0 holds R when R's one bit is set, and the partial sums
    # chain 0 = P0, P1 = P0 + S0 = Rsq
    ("square --k 1",
     lambda a: num(a, "S0", 2) == a["R1"] and num(a, "P0", 2) == 0
     and num(a, "P1", 2) == num(a, "S0", 2) == num(a, "Rsq", 2)),
    ("oneof --names a,b,c", lambda a: a["a"] + a["b"] + a["c"] == 1),
    ("noneof --names a,b", lambda a: a["a"] + a["b"] == 0),
])
def test_encode_formulas_match_integer_arithmetic(capsys, argv, spec):
    data = run_json(["encode"] + argv.split(), capsys)
    f = parse_formula(data["formula"])
    satisfied = 0
    for bits in range(1 << len(data["vars"])):
        a = {v: bool(bits >> t & 1) for t, v in enumerate(data["vars"])}
        want = spec(a)
        assert eval_formula(f, a) == want, a
        satisfied += want
    assert satisfied


@pytest.mark.parametrize("argv,flag,cap", [
    ("less --width N --args x,y", "--width", cli.ENCODE_WIDTH_CAP),
    ("add --width N --args x,y,3", "--width", cli.ENCODE_WIDTH_CAP),
    ("square --k N", "--k", cli.SQUARE_K_CAP),
])
def test_encode_widths_are_bounded(capsys, argv, flag, cap):
    # the formulas grow as a power of the width: past the bound the command
    # stops before building anything (exit 3), naming the bound and value
    def at(n):
        return ["encode"] + argv.replace("N", str(n)).split()
    for n in (cap + 1, 100000):
        assert run(at(n)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "%s %d exceeds the bound %d" % (flag, n, cap) in captured.err
    assert run(at(cap)) == 0
    capsys.readouterr()


@pytest.mark.parametrize("what", ["oneof", "noneof"])
def test_encode_names_are_bounded(capsys, what):
    # oneof grows as the square of the name count: past the bound the
    # command stops before building anything (exit 3), naming the bound
    cap = cli.ENCODE_NAMES_CAP

    def at(n):
        return ["encode", what, "--names",
                ",".join("v%d" % t for t in range(n))]
    assert run(at(cap + 1)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--names %d exceeds the bound %d" % (cap + 1, cap) in captured.err
    assert len(run_json(at(cap), capsys)["vars"]) == cap


def test_encode_square_holds_exactly_for_the_square(capsys):
    # k = 2 has 26 variables: fill the witnesses from R by integer
    # arithmetic and try every Rsq
    data = run_json(["encode", "square", "--k", "2"], capsys)
    f = parse_formula(data["formula"])

    def bits(prefix, value, width):
        return {prefix + str(i): bool(value >> (width - i) & 1)
                for i in range(1, width + 1)}
    for r in range(4):
        summands = [r << 1 if r & 2 else 0, r if r & 1 else 0]
        a = {**bits("R", r, 2), **bits("S0", summands[0], 4),
             **bits("S1", summands[1], 4), **bits("P0", 0, 4),
             **bits("P1", summands[0], 4), **bits("P2", sum(summands), 4)}
        for rsq in range(16):
            full = {**a, **bits("Rsq", rsq, 4)}
            assert sorted(full) == data["vars"]
            assert eval_formula(f, full) == (rsq == r * r), (r, rsq)


@pytest.mark.parametrize("k", [11, 12])
def test_encode_square_names_never_collide(capsys, k):
    # unpadded, P1 followed by bit 11 and P11 followed by bit 1 were one
    # name, and the build refused the families as not variable-disjoint;
    # R, Rsq, k summands and k + 1 partial sums of 2k bits each
    data = run_json(["encode", "square", "--k", str(k)], capsys)
    assert len(data["vars"]) == 3 * k + (2 * k + 1) * 2 * k


def test_reduce_emits_reparsable_artifacts(machine_file, tmp_path, capsys):
    out = str(tmp_path / "red")
    data = run_json(["reduce", "nexptm", "--machine", machine_file,
                     "--input", "", "--bound", "2", "--emit-witness",
                     "--out", out], capsys)
    assert data["v2"] == "7/16"
    g = parse_game(open(out + ".game").read())
    prof = profile_from_json(open(out + ".witness.json").read(), g)
    assert prof.players == 2
    json.loads(open(out + ".vars.json").read())


def test_verify_cover_matrix(capsys):
    data = run_json(["verify", "cover-matrix", "--m", "3"], capsys)
    assert data["answer"] == "yes"


def test_verify_cover_matrix_m_is_capped(capsys):
    # the elimination grows as about m^6: past the cap it exits 3 before
    # building the matrix
    cap = reductions.COVER_MATRIX_CAP
    assert run(["verify", "cover-matrix", "--m", str(cap + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m = %d exceeds cap %d" % (cap + 1, cap) in captured.err


def test_verify_squares_sampled_mode(machine_file, capsys):
    data = run_json(["verify", "squares", "--machine", machine_file,
                     "--bound", "2", "--trials", "300"], capsys)
    assert data["answer"] == "yes"
    assert data["mode"] == "sampled"


def test_verify_squares_honours_cap_deviations(machine_file, monkeypatch,
                                              capsys):
    argv = ["verify", "squares", "--machine", machine_file,
            "--cap-deviations", "9", "--trials"]
    assert run(argv + ["9"]) == 0
    capsys.readouterr()
    # the cap is checked before any trial is drawn
    def no_draws(*args):
        raise AssertionError("trials were drawn")
    monkeypatch.setattr(cli, "draw_trials", no_draws)
    assert run(argv + ["10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "10 trials to check; cap is 9" in captured.err


@pytest.mark.parametrize("bound,mode,code", [(2, "exists", 0),
                                             (2, "forall", 2),
                                             (4, "exists", 0),
                                             (4, "forall", 0)])
def test_verify_squares_builds_no_game(machine_file, monkeypatch, capsys,
                                       bound, mode, code):
    # verify squares reads Require and player 2's variable names only: it
    # builds neither the reduction's game nor the side game (a 2x2 table is
    # too small for the forall payoff, refused as by the full build)
    def no_game(*args):
        raise AssertionError("a game was built")
    monkeypatch.setattr(cli.reductions, "BooleanGame", no_game)
    monkeypatch.setattr(cli.reductions, "fixed_value_game", no_game)
    assert run(["verify", "squares", "--machine", machine_file, "--bound",
                str(bound), "--mode", mode, "--trials", "200"]) == code
    captured = capsys.readouterr()
    if code:
        assert "the guaranteed-payoff formula needs k >= 2" in captured.err
    else:
        assert json.loads(captured.out)["mismatches"] == 0


@pytest.mark.parametrize("bound", [2, 4])
def test_verify_squares_aligns_trials(machine_file, monkeypatch, capsys,
                                      bound):
    # Random draws almost never satisfy Require, so on them alone a trial
    # mask shifted or reversed against the oracle's still shows no
    # mismatch.  Genuine witness windows satisfy it: the replayed draws mix
    # both, in a pattern that is neither periodic nor a palindrome.
    m = immediate_acceptor()
    ro = build_guarantee_game(m, "", bound)
    size = 1 << ro.k
    table = simulate_tm(m, "", size, size, accept_row=bound - 1)
    windows = [a for a, _ in witness_profile(ro, table).strategies[1]]
    names = ro.game.var_sets[1]
    plan = [1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0]  # 1 = a window
    rng = random.Random(7)
    drawn = [windows[r % len(windows)] if genuine else
             {v: bool(rng.getrandbits(1)) for v in names}
             for r, genuine in enumerate(plan)]
    assert [oracle_requires(ro, a) for a in drawn] == plan
    # the drawer's bytes: one per player-2 variable, trial by trial
    draws = bytes(b"01"[a[v]] for a in drawn for v in names)

    def replay(seed, n):
        assert n == len(draws)
        return draws

    monkeypatch.setattr(cli, "draw_trials", replay)
    data = run_json(["verify", "squares", "--machine", machine_file,
                     "--bound", str(bound), "--trials", str(len(plan))],
                    capsys)
    assert (data["answer"], data["mismatches"]) == ("yes", 0)


def squares_draws(machine, bound, mode, seed):
    """``machine``'s reduction and replayable draws for its squares check:
    300 windows a few bits from legal ones (which reach the square oracle),
    then 300 uniform trials (mostly screened out), with each trial's
    dict."""
    build = build_guarantee_game if mode == "exists" else \
        build_forall_guarantee_game
    ro = build(machine(), "", bound)
    names = ro.game.var_sets[1]
    near = list(perturbed_windows(ro, random.Random(seed), 300))
    draws = b"".join(bytes(b"01"[a[v]] for v in names) for a in near)
    draws += draw_trials(seed, 300 * len(names))
    width = len(names)
    trials = [dict(zip(names, (c == ord("1") for c in draws[r:r + width])))
              for r in range(0, len(draws), width)]
    return ro, draws, trials


def run_squares(machine, bound, mode, draws, trials, tmp_path, monkeypatch,
                capsys):
    """``verify squares`` on replayed draws: exit code, stdout, stderr."""
    def replay(seed, n):
        assert n == len(draws)
        return draws

    monkeypatch.setattr(cli, "draw_trials", replay)
    path = tmp_path / "m.json"
    path.write_text(machine_json(machine()))
    code = run(["verify", "squares", "--machine", str(path), "--bound",
                str(bound), "--mode", mode, "--trials", str(len(trials))])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def spy_on_squares(machine, bound, mode, negate, tmp_path, monkeypatch,
                   capsys):
    """``verify squares`` on replayed draws, its oracle spied on (and its
    verdict negated if ``negate``): the trials that decode, the trials the
    oracle was handed, the exit code and stdout."""
    ro, draws, trials = squares_draws(machine, bound, mode, bound + 10)
    screened = [a for a in trials if entries_decode(ro, a)]
    assert 0 < len(screened) < len(trials)
    seen = []

    def spy(ro, trial):
        assert type(trial) is dict
        seen.append(trial)
        return oracle_requires(ro, trial) != negate

    monkeypatch.setattr(cli.reductions, "oracle_requires", spy)
    code, data, _ = run_squares(machine, bound, mode, draws, trials,
                                tmp_path, monkeypatch, capsys)
    return screened, seen, code, data


SQUARES_CASES = [(immediate_acceptor, 2, "exists"),
                 (immediate_acceptor, 4, "exists"),
                 (immediate_acceptor, 4, "forall"),
                 (two_step_acceptor, 4, "exists"),
                 (two_step_acceptor, 4, "forall")]


@pytest.mark.parametrize("machine, bound, mode", SQUARES_CASES)
def test_verify_squares_oracle_reads_only_decodable_trials(
        machine, bound, mode, tmp_path, monkeypatch, capsys):
    # the oracle is called on exactly the trials whose four window entries
    # decode, in increasing order, each as a dict of the trial; the others
    # fail decode_square, so the oracle would say no on them
    screened, seen, code, data = spy_on_squares(
        machine, bound, mode, False, tmp_path, monkeypatch, capsys)
    assert seen == screened
    assert (code, data["answer"], data["mismatches"]) == (0, "yes", 0)


@pytest.mark.parametrize("machine, bound, mode", SQUARES_CASES)
def test_verify_squares_answers_no_to_a_negated_oracle(
        machine, bound, mode, tmp_path, monkeypatch, capsys):
    # with the oracle's verdict negated, every screened trial is a mismatch
    # and no other trial is: the check can answer no.  Require accepts only
    # screened trials, and the negated oracle accepts the other screened ones.
    screened, seen, code, data = spy_on_squares(
        machine, bound, mode, True, tmp_path, monkeypatch, capsys)
    assert seen == screened
    assert (code, data["answer"]) == (1, "no")
    assert data["mismatches"] == len(screened)
    assert data["require_accepts"] + data["oracle_accepts"] == len(screened)


@pytest.mark.parametrize("machine, bound, mode", SQUARES_CASES)
def test_verify_squares_reports_each_routes_accepts(machine, bound, mode,
                                                    tmp_path, monkeypatch,
                                                    capsys):
    # require_accepts and oracle_accepts count the trials each route
    # accepts, as Require and the oracle count them trial by trial
    ro, draws, trials = squares_draws(machine, bound, mode, bound + 20)
    code, data, err = run_squares(machine, bound, mode, draws, trials,
                                  tmp_path, monkeypatch, capsys)
    assert data["require_accepts"] == sum(
        eval_formula(ro.require, a) for a in trials)
    assert data["oracle_accepts"] == sum(
        oracle_requires(ro, a) for a in trials)
    assert data["require_accepts"] > 0 and code == 0 and err == ""


def test_verify_squares_notes_when_no_route_accepts(machine_file, capsys):
    # on uniform draws neither route accepts a trial: mismatches 0 then
    # says nothing, and stderr says so, without changing the answer
    code = run(["verify", "squares", "--machine", machine_file, "--bound",
                "4", "--trials", "300"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert code == 0 and data["answer"] == "yes"
    assert (data["require_accepts"], data["oracle_accepts"],
            data["mismatches"]) == (0, 0, 0)
    assert "mismatches: 0 cannot tell them apart" in captured.err


def test_nash_is_with_sample_flag(machine_file, tmp_path, capsys):
    out = str(tmp_path / "red")
    run_json(["reduce", "nexptm", "--machine", machine_file, "--bound", "2",
              "--emit-witness", "--out", out], capsys)
    data = run_json(["nash", "is", "--game", out + ".game",
                     "--profile", out + ".witness.json",
                     "--sample", "200"], capsys)
    assert data["answer"] == "yes" and data["mode"] == "sampled"


def test_sampled_sweeps_honour_cap_deviations(machine_file, tmp_path, capsys):
    # at bound 2 player 1 has 2^10 exhaustive deviations, within the cap;
    # player 2's sample of 2000 is not
    out = str(tmp_path / "red")
    run_json(["reduce", "nexptm", "--machine", machine_file, "--bound", "2",
              "--emit-witness", "--out", out], capsys)
    capped = ["--sample", "2000", "--cap-deviations", "1500"]
    assert run(["verify", "witness", "--machine", machine_file, "--bound",
                "2"] + capped) == 3
    assert run(["nash", "is", "--game", out + ".game", "--profile",
                out + ".witness.json"] + capped) == 3
    assert capsys.readouterr().out == ""


def test_exact_verify_witness_sweeps_player_2(machine_file, capsys):
    # without --sample player 2's 2^34 deviations are swept exhaustively,
    # so the default cap trips on them rather than an unchecked "exact" yes
    assert run(["verify", "witness", "--machine", machine_file,
                "--bound", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "player 2" in captured.err


@pytest.mark.parametrize("sample", [[], ["--sample", "10"]])
def test_verify_witness_caps_before_simulating(machine_file, monkeypatch,
                                               capsys, sample):
    # both players' deviation counts depend only on the game, so a tripped
    # cap exits before the machine's run is simulated
    def no_run(*args, **kwargs):
        raise AssertionError("the machine was simulated")
    monkeypatch.setattr(cli.reductions, "simulate_tm", no_run)
    assert run(["verify", "witness", "--machine", machine_file, "--bound",
                "4", "--cap-deviations", "16"] + sample) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "player 1" in captured.err


def test_reduce_out_to_a_missing_directory_exits_2(machine_file, tmp_path,
                                                   capsys):
    out = str(tmp_path / "missing" / "red")
    for flags in ([], ["--emit-witness"]):
        assert run(["reduce", "nexptm", "--machine", machine_file,
                    "--bound", "2", "--out", out] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot write" in captured.err


def test_transform_formula_verbatim(mp_file, capsys):
    data = run_json(["reduce", "transform", "--kind", "forall-nash-sat",
                     "--game", mp_file, "--payoffs", "1/2,1/2"], capsys)
    assert data["phi"] == "t.Play1 | t.Play2"
    parse_game(data["game"])


def test_usage_errors_exit_2(mp_file, capsys):
    assert run(["value", "--game", "/does/not/exist"]) == 2
    assert run(["value"]) == 2
    assert run(["nash", "bogus", "--game", mp_file]) == 2
    # unknown flags are errors
    assert run(["value", "--game", mp_file, "--frobnicate"]) == 2


def test_non_utf8_input_files_exit_2(mp_file, tmp_path, capsys):
    path = tmp_path / "bytes"
    path.write_bytes(b"\xff\xfe")
    for argv in (["check", "--game", str(path)],
                 ["reduce", "nexptm", "--machine", str(path)],
                 ["eval", "--game", mp_file, "--profile", str(path)]):
        assert run(argv) == 2, argv[:2]
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read" in captured.err


def test_cap_exceeded_exits_3(tmp_path, capsys):
    path = tmp_path / "wide.bg"
    path.write_text("players: 2\nvars 1: a b c d e\nvars 2: f\n"
                    "goal 1: a\ngoal 2: f\n")
    assert run(["normal-form", "--game", str(path), "--cap-cells", "8"]) == 3


@pytest.mark.parametrize("what, code", [
    (["unique"], 1),
    (["irrational"], 1),
    (["forall-guarantee", "--payoffs", "1,1"], 1),
    (["sat", "--mode", "exists", "--formula", "x & y"], 0),
    (["find"], 0),
    (["guarantee", "--payoffs", "1,1"], 0),
])
def test_vertex_enumeration_honours_cap_deviations(tmp_path, capsys, what,
                                                   code):
    # a 2x2 general-sum game: each polytope's double description holds at
    # most 3 rays at once, as many as the unit rays it starts from, so a
    # cap of 2 trips while the first constraint is added
    path = tmp_path / "coordination.bg"
    path.write_text("players: 2\nvars 1: x\nvars 2: y\n"
                    "goal 1: x & y\ngoal 2: x & y\n")
    argv = ["nash"] + what + ["--game", str(path), "--cap-deviations"]
    assert run(argv + ["2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("vertex enumeration on the 2x2 collapsed game's polytope of "
            "player 1 holds 3 rays at constraint 1 of 2; cap is 2"
            ) in captured.err
    assert run(argv + ["3"]) == code
    capsys.readouterr()


def test_vertex_enumeration_cap_counts_rays_as_they_grow(tmp_path, capsys):
    # player 1's polytope starts from 4 unit rays and holds 6 once its last
    # constraint is added: the cap is checked there, not estimated up front
    path = tmp_path / "generic.nf"
    path.write_text(json.dumps({"payoffs": [
        [[9, 4, 5], [8, 0, 7], [3, 0, 2]],
        [[1, 5, 7], [3, 6, 8], [1, 9, 3]]]}))
    argv = ["nash", "unique", "--game", str(path), "--cap-deviations"]
    assert run(argv + ["5"]) == 3
    assert ("vertex enumeration on the 3x3 collapsed game's polytope of "
            "player 1 holds 6 rays at constraint 3 of 3; cap is 5"
            ) in capsys.readouterr().err
    assert run(argv + ["6"]) == 0


def test_text_format(mp_file, capsys):
    assert run(["value", "--game", mp_file, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "value: 1/2" in out


PD_JSON = json.dumps(
    {"payoffs": [[[-4, 0], [-5, -1]], [[-4, -5], [0, -1]]]}
)


def test_nash_find_on_negative_payoffs(tmp_path, capsys):
    # the prisoner's dilemma's only equilibrium pays both players -4
    path = tmp_path / "pd.nf"
    path.write_text(PD_JSON)
    data = run_json(["nash", "find", "--game", str(path)], capsys)
    assert data["answer"] == "yes"
    assert data["witness"]["payoffs"] == ["-4", "-4"]
    assert data["witness"]["x"] == {"0": "1"}
    assert data["witness"]["y"] == {"0": "1"}


@pytest.mark.parametrize("what", ["find", "unique", "guarantee",
                                  "forall-guarantee", "irrational"])
def test_nash_verbs_honour_cap_cells(mp_file, capsys, what):
    argv = ["nash", what, "--game", mp_file] + NASH_FLAGS.get(what, [])
    assert run(argv) in (0, 1)  # answered without a cap
    capsys.readouterr()
    assert run(argv + ["--cap-cells", "1"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("what", ["guarantee", "forall-guarantee"])
def test_nash_guarantee_needs_payoffs(mp_file, capsys, what):
    assert run(["nash", what, "--game", mp_file]) == 2
    assert "--payoffs" in capsys.readouterr().err
    assert run(["nash", what, "--game", mp_file, "--payoffs", "1/2"]) == 2


def test_eval_profile_malformed_json_exits_2(mp_file, tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text('{"players": [')
    assert run(["eval", "--game", mp_file, "--profile", str(path)]) == 2
    path.write_text('{"players": [{"support": [{"weight": "1"}]}]}')
    assert run(["eval", "--game", mp_file, "--profile", str(path)]) == 2
    # assignment values are JSON booleans: "false" is not false
    for x in ('"false"', "null"):
        path.write_text('{"players": [{"support": [{"assign": {"x": %s}, '
                        '"weight": "1"}]}, {"support": [{"assign": '
                        '{"y": true}, "weight": "1"}]}]}' % x)
        for verb in (["eval"], ["nash", "is"]):
            assert run(verb + ["--game", mp_file, "--profile",
                               str(path)]) == 2, (x, verb)
    assert capsys.readouterr().out == ""


def test_profile_decimal_weights_read_exactly(mp_file, tmp_path, capsys):
    # through a float, 0.1 + 0.9 would not sum to exactly 1
    path = tmp_path / "profile.json"
    path.write_text('{"players": [{"support": ['
                    '{"assign": {"x": true}, "weight": 0.1}, '
                    '{"assign": {"x": false}, "weight": 0.9}]}, '
                    '{"support": [{"assign": {"y": true}, "weight": 1}]}]}')
    data = run_json(["eval", "--game", mp_file, "--profile", str(path)],
                    capsys)
    assert data["utilities"] == ["9/10", "1/10"]


def test_reduce_malformed_machine_exits_2(tmp_path, capsys):
    path = tmp_path / "machine.json"
    for text in ('{"states": ["q0"', '{"states": ["q0"]}', "[1, 2]"):
        path.write_text(text)
        assert run(["reduce", "nexptm", "--machine", str(path)]) == 2, text
    assert capsys.readouterr().out == ""


def test_malformed_normal_form_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.nf"
    for payoffs in ('[[["x", 0]], [[0, 0]]]', '[[["1/0", 0]], [[0, 0]]]',
                    "[]",
                    # ragged: a short row in the first tensor, a long row
                    # in the second
                    "[[[1, 2], [3]], [[1, 2], [3, 4]]]",
                    "[[[1, 2], [3, 4]], [[1, 2], [3, 4, 5]]]",
                    # player 2 has no strategy
                    "[[[]], [[]]]",
                    # a JSON boolean is not a payoff
                    "[[[true, 0], [0, 1]], [[0, 1], [1, 0]]]"):
        path.write_text('{"payoffs": %s}' % payoffs)
        for verb in ("check", "normal-form", "value", "nash find",
                     "nash unique", "nash pure"):
            assert run(verb.split() + ["--game", str(path)]) == 2, (payoffs,
                                                                   verb)
    assert capsys.readouterr().out == ""


def test_closed_stdout_exits_141_without_traceback(machine_file):
    # the pipe's read end is closed before the child writes, as when
    # `bg ... | head -c 10` has stopped reading
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "boolgames.cli", "reduce", "nexptm",
             "--machine", machine_file, "--bound", "2", "--emit-witness"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert child.returncode == 141
    assert child.stderr == b""


@pytest.mark.parametrize("argv", [
    "reduce nexptm --input 2",
    "reduce nexptm --input 0a",
    "reduce forall-nexptm --bound 4 --input 2",
    "reduce transform --kind exists-nash-sat --input 2",
    "verify squares --bound 4 --input 2",
    "verify witness --input 2",
])
def test_reduction_input_outside_01_exits_2(machine_file, capsys, argv):
    assert run(argv.split() + ["--machine", machine_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "over {0, 1}" in captured.err


def test_normal_form_decimals_read_exactly(tmp_path, capsys):
    path = tmp_path / "dec.nf"
    path.write_text('{"payoffs": [[[0.1, 0], [0, 1]], [[0, 1], [1, 0]]]}')
    data = run_json(["normal-form", "--game", str(path)], capsys)
    assert data["payoffs"][0][0] == ["1/10", "0"]


@pytest.mark.parametrize("cell", ["NaN", "Infinity", "-Infinity"])
def test_normal_form_non_finite_exits_2(tmp_path, capsys, cell):
    path = tmp_path / "nan.nf"
    path.write_text('{"payoffs": [[[%s, 0]], [[0, 0]]]}' % cell)
    assert run(["normal-form", "--game", str(path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("extra", ["vars 3: z", "goal 3: x", "vars 1: z",
                                   "goal 2: x"])
def test_inconsistent_game_file_exits_2(mp_file, capsys, extra):
    with open(mp_file, "a") as fh:
        fh.write(extra + "\n")
    assert run(["check", "--game", mp_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "line " in captured.err


def test_missing_inputs_exit_2(mp_file, capsys):
    for argv in (["nash", "is", "--game", mp_file],
                 ["nash", "sat", "--game", mp_file],
                 ["reduce", "nexptm"],
                 ["reduce", "transform", "--kind", "unique-nash"],
                 ["reduce", "transform", "--kind", "unique-nash",
                  "--game", mp_file],
                 ["reduce", "transform", "--kind", "irrational",
                  "--game", mp_file],
                 ["gadget", "build"]):
        assert run(argv) == 2, argv
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    "check --game GAME --cap-cells 1",
    "value --game GAME --sample 3",
    "encode oneof --names a --seed 1",
])
def test_unread_flags_are_usage_errors(mp_file, capsys, argv):
    argv = [mp_file if a == "GAME" else a for a in argv.split()]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv,unread", [
    ("nash find --game GAME", "--payoffs 1,1"),
    ("nash unique --game GAME", "--formula x"),
    ("nash pure --game GAME", "--cap-deviations 5"),
    ("nash guarantee --game GAME --payoffs 0,0", "--sample 3"),
    ("verify witness --machine MACHINE --sample 10", "--mode forall"),
    ("verify cover-matrix", "--machine MACHINE"),
    ("gadget build --value 1/2", "--cap-cells 0"),
    ("encode square", "--width 2"),
    ("reduce nexptm --machine MACHINE", "--kind irrational"),
])
def test_flags_a_sub_verb_does_not_read_are_usage_errors(
        mp_file, machine_file, capsys, argv, unread):
    # each command answers without the flag, so the flag alone makes the
    # usage error
    files = {"GAME": mp_file, "MACHINE": machine_file}
    argv = [files.get(a, a) for a in argv.split()]
    assert run(argv) in (0, 1)
    capsys.readouterr()
    assert run(argv + [files.get(a, a) for a in unread.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv,unread", [
    ("eval --formula x --assign x=1", "--game GAME"),
    ("eval --formula x --assign x=1", "--profile PROFILE"),
    ("eval --game GAME --profile PROFILE", "--assign x=1"),
])
def test_eval_refuses_the_other_modes_flags(mp_file, tmp_path, capsys, argv,
                                            unread):
    # eval reads --formula with --assign, or --game with --profile: each
    # command answers without the flag, and names it when it is given
    profile = tmp_path / "tt.json"
    profile.write_text(profile_to_json(MixedProfile([
        [({"x": True}, Fraction(1))], [({"y": True}, Fraction(1))]])))
    files = {"GAME": mp_file, "PROFILE": str(profile)}
    argv = [files.get(a, a) for a in argv.split()]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + [files.get(a, a) for a in unread.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and unread.split()[0] in captured.err


@pytest.mark.parametrize("argv,unread", [
    ("--kind exists-nash-sat --machine MACHINE", "--game GAME"),
    ("--kind exists-nash-sat --machine MACHINE", "--value 1/2"),
    ("--kind exists-nash-sat --machine MACHINE", "--namespace t"),
    ("--kind unique-nash --game GAME --payoffs 0,0", "--machine MACHINE"),
    ("--kind unique-nash --game GAME --payoffs 0,0", "--bound 2"),
    ("--kind forall-nash-sat --game GAME --payoffs 0,0", "--input 0"),
    ("--kind forall-nash-sat --game GAME --payoffs 0,0", "--value 1/2"),
    ("--kind irrational --game GAME --value 1/2", "--payoffs 0,0"),
])
def test_reduce_transform_refuses_flags_its_kind_does_not_read(
        mp_file, machine_file, capsys, argv, unread):
    # each command answers without the flag, and names it when it is
    # given, also at its default value (--bound 2)
    files = {"GAME": mp_file, "MACHINE": machine_file}
    argv = ["reduce", "transform"] + [files.get(a, a) for a in argv.split()]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + [files.get(a, a) for a in unread.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s is not read with --kind %s" % (unread.split()[0], argv[3]) \
        in captured.err


def test_reduce_transform_machine_defaults(machine_file, capsys):
    # exists-nash-sat reads --input "" and --bound 2 when they are not given
    argv = ["reduce", "transform", "--kind", "exists-nash-sat",
            "--machine", machine_file]
    bare = run_json(argv, capsys)
    assert run_json(argv + ["--input", "", "--bound", "2"], capsys) == bare
    assert run_json(argv + ["--bound", "4"], capsys) != bare


def test_sample_and_trials_below_1_exit_2(mp_file, machine_file, tmp_path,
                                          capsys):
    # matching pennies at (T, T): player 1 gains by deviating
    profile = tmp_path / "tt.json"
    profile.write_text(profile_to_json(MixedProfile([
        [({"x": True}, Fraction(1))], [({"y": True}, Fraction(1))]])))
    is_argv = ["nash", "is", "--game", mp_file, "--profile", str(profile)]
    assert run(is_argv) == 1
    capsys.readouterr()
    for argv in (is_argv + ["--sample", "0"],
                 is_argv + ["--sample", "-3"],
                 ["verify", "witness", "--machine", machine_file,
                  "--sample", "0"],
                 ["verify", "squares", "--machine", machine_file,
                  "--trials", "0"],
                 ["verify", "squares", "--machine", machine_file,
                  "--trials", "-5"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err, argv


@pytest.mark.parametrize("argv", [
    "value --game GAME --cap-cells -1",
    "verify witness --machine MACHINE --cap-deviations -1",
])
def test_negative_caps_exit_2(mp_file, machine_file, capsys, argv):
    # a cap below 0 is malformed input, not a tripped cap (exit 3)
    files = {"GAME": mp_file, "MACHINE": machine_file}
    assert run([files.get(a, a) for a in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "at least 0, not -1" in captured.err


@pytest.mark.parametrize("argv,message", [
    ("value --game GAME --cap-cells abc",
     "argument --cap-cells: invalid int value: 'abc'"),
    ("nash is --game GAME --profile GAME --sample x",
     "argument --sample: invalid int value: 'x'"),
])
def test_non_integer_counts_exit_2(mp_file, capsys, argv, message):
    assert run([mp_file if a == "GAME" else a for a in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv,flag", [
    ("encode " + what, "--args")
    for what in ("equal", "succ", "less", "lesseq", "add", "sub")
] + [
    ("encode oneof", "--names"),
    ("encode noneof", "--names"),
    ("reduce transform", "--kind"),
    ("reduce transform --kind irrational --game GAME", "--value"),
    ("gadget build", "--value"),
    ("gadget value", "--value"),
    ("gadget combine --a 1/2", "--kind"),
    ("gadget combine --kind sum --b 1/2", "--a"),
])
def test_missing_flags_are_named(mp_file, capsys, argv, flag):
    assert run([mp_file if a == "GAME" else a for a in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "missing %s" % flag in captured.err


def test_zero_sum_flag_asserts_constant_sum(mp_file, bos_file, capsys):
    plain = run(["nash", "irrational", "--game", mp_file])
    out = capsys.readouterr().out
    assert run(["nash", "irrational", "--zero-sum", "--game", mp_file]) == plain
    assert capsys.readouterr().out == out
    assert run(["nash", "irrational", "--zero-sum", "--game", bos_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "game is not constant-sum" in captured.err


@pytest.mark.parametrize("what", ["find", "guarantee", "forall-guarantee",
                                  "unique", "irrational", "pure", "sat"])
def test_zero_sum_flag_expands_once(mp_file, monkeypatch, capsys, what):
    # the constant-sum check reads the expansion that the query then uses
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    expand = solver.to_normal_form
    monkeypatch.setattr(solver, "to_normal_form", counted)
    for flags in ([], ["--zero-sum"]):
        calls.clear()
        assert run(["nash", what, "--game", mp_file]
                   + NASH_FLAGS.get(what, []) + flags) in (0, 1)
        assert len(calls) == 1, flags
    capsys.readouterr()


THREE_PLAYER_TEXT = """\
players: 3
vars 1: x
vars 2: y
vars 3: z
goal 1: x <-> y
goal 2: y <-> z
goal 3: ~(x <-> z)
"""


@pytest.mark.parametrize("what", ["find", "guarantee", "forall-guarantee"])
@pytest.mark.parametrize("text", [
    json.dumps({"payoffs": [[[[1]]], [[[1]]], [[[1]]]]}),
    THREE_PLAYER_TEXT,
], ids=["normal-form", "boolean"])
def test_support_enumeration_needs_two_players(tmp_path, capsys, what, text):
    path = tmp_path / "three.game"
    path.write_text(text)
    assert run(["check", "--game", str(path)]) == 0
    capsys.readouterr()
    assert run(["nash", what, "--game", str(path)]
               + NASH_FLAGS.get(what, [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "operation requires a two-player game" in captured.err


@pytest.mark.parametrize("game,formula,message", [
    ("bos", "x", "nash_sat needs a BooleanGame"),
    ("three", "x", "nash_sat requires two players"),
    ("mp", "zz", "formula uses foreign variables: zz"),
])
def test_nash_sat_input_errors_exit_2(mp_file, bos_file, tmp_path, capsys,
                                      game, formula, message):
    three = tmp_path / "three.bg"
    three.write_text(THREE_PLAYER_TEXT)
    path = {"mp": mp_file, "bos": bos_file, "three": str(three)}[game]
    assert run(["nash", "sat", "--game", path, "--formula", formula]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_one_player_normal_form_exits_2(tmp_path, capsys):
    path = tmp_path / "one.nf"
    path.write_text(json.dumps({"payoffs": [[1, 2]]}))
    for argv in (["check"], ["nash", "find"],
                 ["nash", "guarantee", "--payoffs", "0,0"],
                 ["nash", "forall-guarantee", "--payoffs", "0,0"]):
        assert run(argv + ["--game", str(path)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a game needs at least two players" in captured.err


def test_cap_cells_message_counts_the_whole_expansion(tmp_path, capsys):
    # player 1's 8 strategies alone pass the cap; the message still names
    # every cell of the 8x8 expansion
    path = tmp_path / "eight.bg"
    path.write_text("players: 2\nvars 1: a b c\nvars 2: d e f\n"
                    "goal 1: a <-> d\ngoal 2: ~(a <-> d)\n")
    assert run(["value", "--game", str(path), "--cap-cells", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource cap exceeded: expansion of the 8x8 "
                            "game needs 64 cells; cap is 7\n")


def sum_of_gadgets():
    """The 4096x8 sum of G(1/2) and G(3/4), constant-sum with value 7/8."""
    return gadgets.combine_games(
        "sum", gadgets.fixed_value_game(Fraction(1, 2), "a"),
        gadgets.fixed_value_game(Fraction(3, 4), "b"))


def test_value_of_4096x8_sum_matches_nested_route(tmp_path, capsys):
    # the Boolean game's value is read from its goal masks; the same
    # payoffs as a JSON normal form take the nested-list route
    c = sum_of_gadgets()
    boolean = tmp_path / "sum.bg"
    boolean.write_text(render_game(c.game))
    nf = to_normal_form(c.game)
    assert nf.shape == (4096, 8)
    nested = tmp_path / "sum.nf"
    nested.write_text(json.dumps({"payoffs": nf.payoffs}))
    outs = []
    for path in (boolean, nested):
        assert run(["value", "--game", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    data = json.loads(outs[0])
    assert data["value"] == "7/8" and data["constant"] == "1"
    assert len(data["maxmin"]) == 4096


def test_nash_find_answers_on_large_games(tmp_path, capsys):
    # a constant-sum game's witness comes from its value programs, with no
    # enumeration and no cap: support enumeration needed 8355585 pairs here
    path = tmp_path / "sum.bg"
    path.write_text(render_game(sum_of_gadgets().game))
    data = run_json(["nash", "find", "--game", str(path)], capsys)
    assert data["witness"]["payoffs"] == ["7/8", "1/8"]
    # the uniqueness transform of matching pennies collapses to 31x16, and
    # vertex enumeration answers at the default cap
    mp = parse_game(MP_TEXT)
    half = Fraction(1, 2)
    g, _ = transform_game("unique_nash", mp, (half, half))
    path = tmp_path / "unique.bg"
    path.write_text(render_game(g))
    data = run_json(["nash", "find", "--game", str(path)], capsys)
    nf = to_normal_form(g)
    x, y = ({int(k): Fraction(w) for k, w in side.items()}
            for side in (data["witness"]["x"], data["witness"]["y"]))
    assert solver._is_nash_nf(nf, [x, y])
