"""End-to-end acceptance checks for the toolkit.

Everything here is exact rational arithmetic (tolerance zero) except where a
sweep is explicitly sampled, in which case the result is tagged as sampled.
"""

import itertools
import json
import math
import random
from fractions import Fraction

from boolgames.cli import run
from boolgames.encodings import (
    build_arithmetic,
    build_cardinality,
    build_comparison,
    build_square,
    const_bits,
    var_bits,
)
from boolgames.formula import (
    FALSE,
    And,
    Iff,
    Not,
    Or,
    Var,
    compile_formula,
    disj,
    eval_bits,
    render_formula,
)
from boolgames.game import (
    BooleanGame,
    MixedProfile,
    NormalForm,
    characteristic_formula,
    expected_utility,
    parse_game,
    player_assignments,
    validate_profile,
)
from boolgames.gadgets import combine_games, fixed_value_game, g_payoff
from boolgames.reductions import (
    build_forall_guarantee_game,
    build_guarantee_game,
    cover_matrix_check,
    immediate_acceptor,
    oracle_requires,
    simulate_tm,
    transform_game,
    witness_profile,
)
from boolgames.solver import (
    as_normal_form,
    best_deviation_gain,
    equilibrium_for_support,
    exists_guarantee_nash,
    irrational_nash,
    is_nash,
    pure_equilibria,
    support_pairs,
    unique_nash,
    witness_to_profile,
    zero_sum_value,
)
from windows import perturbed_windows


def bits_assignment(prefix, value, m):
    """MSB-first assignment of an m-bit value to prefix1..prefixM."""
    return {"%s%d" % (prefix, i + 1): bool(value >> (m - 1 - i) & 1)
            for i in range(m)}


# 1. every arithmetic/comparison/cardinality encoding agrees with direct
#    integer arithmetic on all assignments at small widths


def test_encodings_exhaustive_against_integer_oracle():
    comparisons = {
        "equal": (lambda a, b: a == b, 5),
        "succ": (lambda a, b: b == a + 1, 4),
        "less": (lambda a, b: a < b, 5),
        "less_eq": (lambda a, b: a <= b, 4),
    }
    for kind, (oracle, mmax) in comparisons.items():
        for m in range(1, mmax + 1):
            f = compile_formula(
                build_comparison(kind, var_bits("x", m), var_bits("y", m)))
            for a, b in itertools.product(range(1 << m), repeat=2):
                env = bits_assignment("x", a, m)
                env.update(bits_assignment("y", b, m))
                assert f(env) == oracle(a, b), (kind, m, a, b)

    arithmetic = {
        "add": lambda a, b, c: a + b == c,
        "sub": lambda a, b, c: a - b == c,
    }
    for kind, oracle in arithmetic.items():
        for m in range(1, 5):
            f = compile_formula(
                build_arithmetic(kind, var_bits("x", m), var_bits("y", m),
                                 var_bits("z", m)))
            for a, b, c in itertools.product(range(1 << m), repeat=3):
                env = bits_assignment("x", a, m)
                env.update(bits_assignment("y", b, m))
                env.update(bits_assignment("z", c, m))
                assert f(env) == oracle(a, b, c), (kind, m, a, b, c)

    for kind, oracle in (("one_of", lambda n: n == 1),
                         ("none_of", lambda n: n == 0)):
        for m in range(1, 5):
            names = ["v%d" % i for i in range(m)]
            f = compile_formula(build_cardinality(kind, names))
            for bits in itertools.product([False, True], repeat=m):
                assert f(dict(zip(names, bits))) == oracle(sum(bits))


# 2. the squaring certificate is satisfiable exactly when Rsq = R^2, and the
#    only witnesses are the shifted-summand schedule


def square_formula(k):
    return build_square(
        var_bits("R", k),
        var_bits("Rsq", 2 * k),
        [var_bits("S%d" % j, 2 * k) for j in range(k)],
        [var_bits("P%d" % j, 2 * k) for j in range(k + 1)],
    )


def schedule_witness(r, k):
    out = bits_assignment("R", r, k)
    prev = 0
    for j in range(k):
        shift = k - 1 - j
        s = (r << shift) if (r >> shift) & 1 else 0
        out.update(bits_assignment("S%d" % j, s, 2 * k))
        out.update(bits_assignment("P%d" % j, prev, 2 * k))
        prev += s
    out.update(bits_assignment("P%d" % k, prev, 2 * k))
    return out


def test_square_certificate_all_k():
    # brute-force anchor: enumerate every assignment at k = 1
    k = 1
    formula = square_formula(k)
    f = compile_formula(formula)
    names = sorted(f.keys)
    seen = set()
    for bits in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        if f(env):
            r = sum(env["R%d" % (i + 1)] << (k - 1 - i) for i in range(k))
            rsq = sum(env["Rsq%d" % (i + 1)] << (2 * k - 1 - i)
                      for i in range(2 * k))
            seen.add((r, rsq))
            sched = schedule_witness(r, k)
            for name, val in sched.items():
                assert env[name] == val
    assert seen == {(r, r * r) for r in range(1 << k)}

    # at every k <= 3: the schedule witnesses Rsq = R^2 and nothing else
    for k in (1, 2, 3):
        f = compile_formula(square_formula(k))
        for r in range(1 << k):
            env = schedule_witness(r, k)
            for rsq in range(1 << (2 * k)):
                env.update(bits_assignment("Rsq", rsq, 2 * k))
                assert f(env) == (rsq == r * r), (k, r, rsq)
            # perturbing any single witness bit breaks the certificate
            env.update(bits_assignment("Rsq", r * r, 2 * k))
            for name in env:
                if name.startswith(("S", "P")):
                    env[name] = not env[name]
                    assert not f(env), (k, r, name)
                    env[name] = not env[name]


# 3. interval gadgets hit their advertised value exactly, with a Nash
#    equilibrium bundled in


def test_gadget_values_all_small_denominators():
    fractions = sorted({Fraction(a, b) for b in range(2, 7)
                        for a in range(b + 1)})
    for v in fractions:
        bundle = fixed_value_game(v, "g")
        validate_profile(bundle.game, bundle.equilibrium)
        value, _ = zero_sum_value(as_normal_form(bundle.game))
        assert value == v
        assert is_nash(bundle.game, bundle.equilibrium)
        assert expected_utility(bundle.game, bundle.equilibrium, 0) == v


def test_gadget_equilibrium_unique_away_from_boundary():
    # every a/b with 0 < a < b <= 6: the queries collapse identical
    # strategies, so even the 4096 x 8 normal forms of b = 5, 6 become a
    # few strategies and answer in milliseconds
    inner = sorted({Fraction(a, b) for b in range(2, 7) for a in range(1, b)})
    assert len(inner) == 11
    for v in inner:
        assert unique_nash(as_normal_form(fixed_value_game(v, "g").game)), v
    # at 0 and 1 one side wins whatever is played: every profile is Nash
    for v in (Fraction(0), Fraction(1)):
        nf = as_normal_form(fixed_value_game(v, "g").game)
        assert not unique_nash(nf) and irrational_nash(nf)


# 4. the algebra over gadget games composes values as v+w-vw, vw, 1-v,
#    verified by solving the expanded games exactly


def test_game_algebra_values_exact():
    probe = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    bundles = {v: fixed_value_game(v, "g") for v in probe}
    for v, w in itertools.product(probe, repeat=2):
        s = combine_games("sum", bundles[v], bundles[w])
        value, _ = zero_sum_value(as_normal_form(s.game))
        assert value == v + w - v * w, ("sum", v, w)
        p = combine_games("product", bundles[v], bundles[w])
        value, _ = zero_sum_value(as_normal_form(p.game))
        assert value == v * w, ("product", v, w)
    for v in probe:
        c = combine_games("complement", bundles[v])
        value, _ = zero_sum_value(as_normal_form(c.game))
        assert value == 1 - v, ("complement", v)


# 5. the textbook games behave exactly as expected


def test_matching_pennies():
    mp = parse_game("players: 2\nvars 1: x\nvars 2: y\n"
                    "goal 1: ~(x <-> y)\ngoal 2: x <-> y\n")
    assert pure_equilibria(mp) == []
    assert unique_nash(mp)
    nf = as_normal_form(mp)
    w = equilibrium_for_support(nf, ((0, 1), (0, 1)))
    assert w.x == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert w.y == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    value, _ = zero_sum_value(nf)
    assert value == Fraction(1, 2)


def test_battle_of_the_sexes():
    # rows/cols: ballet, boxing; the coordinating player at their preferred
    # venue gets 3, the other 2; miscoordination gets 0
    bos = NormalForm([[[3, 0], [0, 2]], [[2, 0], [0, 3]]])
    assert pure_equilibria(bos) == [(0, 0), (1, 1)]
    # no continuum, so each feasible support system has one equilibrium
    assert not irrational_nash(bos)
    found = []
    for sp in support_pairs(bos):
        w = equilibrium_for_support(bos, sp)
        if w is not None:
            key = (tuple(sorted(w.x.items())), tuple(sorted(w.y.items())))
            if key not in [f[0] for f in found]:
                found.append((key, w))
    assert len(found) == 3
    mixed = [w for _, w in found if len(w.x) == 2]
    assert len(mixed) == 1
    assert mixed[0].payoffs[0] == Fraction(6, 5)
    assert mixed[0].x == {0: Fraction(3, 5), 1: Fraction(2, 5)}


def test_prisoners_dilemma():
    # strategy 0 = talk, 1 = silent
    pd = NormalForm([
        [[-4, 0], [-5, -1]],
        [[-4, -5], [0, -1]],
    ])
    assert pure_equilibria(pd) == [(0, 0)]
    assert unique_nash(pd)


# 6. model counting through expected utility: under the uniform profile the
#    winning probability equals (number of models) / 2^n


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(names))
    op = rng.randrange(4)
    a = random_formula(rng, names, depth - 1)
    b = random_formula(rng, names, depth - 1)
    if op == 0:
        return And((a, b))
    if op == 1:
        return Or((a, b))
    if op == 2:
        return Not(a)
    return Iff(a, b)


def test_model_counting_via_expected_utility():
    rng = random.Random(2026)
    for trial in range(20):
        n = rng.randrange(2, 11)
        names = ["x%d" % i for i in range(1, n + 1)]
        phi = random_formula(rng, names, 4)
        g = BooleanGame([[name] for name in names], [phi] * n)
        uniform = MixedProfile([
            [({name: False}, Fraction(1, 2)), ({name: True}, Fraction(1, 2))]
            for name in names
        ])
        f = compile_formula(phi)
        count = sum(
            1 for bits in itertools.product([False, True], repeat=n)
            if f(dict(zip(names, bits)))
        )
        assert expected_utility(g, uniform, 0) == Fraction(count, 1 << n)


# 7. the desk-scale machine-acceptance game: exact verifier payoff, and the
#    bundled witness survives a full sweep for player 1 and a large sampled
#    sweep for player 2


def test_acceptance_game_desk_scale(tmp_path, capsys):
    m = immediate_acceptor()
    ro = build_guarantee_game(m, "", 2)
    assert ro.k == 1
    assert ro.payoff[1] == Fraction(7, 16)

    table = simulate_tm(m, "", 2, 2, accept_row=1)
    wp = witness_profile(ro, table)
    validate_profile(ro.game, wp)
    assert expected_utility(ro.game, wp, 1) == Fraction(7, 16)

    # player 1: full pure sweep over all 2^16 strategies, strategy p giving
    # vars1[t] the value of bit t of p; one bit-parallel goal evaluation per
    # support entry of player 2, weights summed per strategy here
    vars1 = list(ro.game.var_sets[0])
    assert len(vars1) == 16
    n = 1 << 16
    full = (1 << n) - 1
    # the binary string lists p from n - 1 down to 0, bit t's runs 2^t long
    columns = {v: int(("1" * (1 << t) + "0" * (1 << t)) * (n >> t + 1), 2)
               for t, v in enumerate(vars1)}
    support2 = wp.strategies[1]
    den = math.lcm(*(w.denominator for _, w in support2))
    eu = [0] * n  # strategy p's expected utility times den
    for a2, w2 in support2:
        masks = {**columns, **{v: full if b else 0 for v, b in a2.items()}}
        sat = format(eval_bits(ro.game.goals[0], masks, full), "0%db" % n)
        w = int(w2 * den)
        eu = [e + w if c == "1" else e for e, c in zip(eu, reversed(sat))]
    # player 1's own support is among the strategies, so the best pure
    # strategy pays at least the baseline, and at most on an equilibrium
    assert Fraction(max(eu), den) == expected_utility(ro.game, wp, 0)

    # player 2: sampled sweep, 10^5 uniform deviations, reported as sampled
    base2, best2 = best_deviation_gain(ro.game, wp, 1, sample=100000, seed=17)
    assert base2 == Fraction(7, 16)
    assert best2 <= base2
    machine = tmp_path / "machine.json"
    machine.write_text(m.to_json())
    capsys.readouterr()
    code = run(["verify", "witness", "--machine", str(machine), "--bound", "2",
                "--sample", "2000", "--seed", "17"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["answer"], report["mode"]) == (0, "yes", "sampled")


# 8. the tableau-admissibility formula agrees with the independent
#    window-checking oracle on random opponent assignments


def test_tableau_formula_matches_oracle():
    m = immediate_acceptor()

    ro = build_guarantee_game(m, "", 2)
    req = compile_formula(ro.require)
    rng = random.Random(88)
    names = ro.game.var_sets[1]
    for _ in range(10000):
        a = {v: bool(rng.getrandbits(1)) for v in names}
        assert req(a) == oracle_requires(ro, a)

    # structural variant with complemented admissibility at k = 2
    ro2 = build_forall_guarantee_game(m, "", 4)
    assert ro2.k == 2
    req2 = compile_formula(ro2.require)
    names2 = ro2.game.var_sets[1]
    for _ in range(10000):
        a = {v: bool(rng.getrandbits(1)) for v in names2}
        assert req2(a) == oracle_requires(ro2, a)

    # uniform draws are all rejected by both routes; draws near the legal
    # windows get both verdicts
    for r, q in ((ro, req), (ro2, req2)):
        verdicts = set()
        for a in perturbed_windows(r, rng, 1000):
            verdicts.add(q(a))
            assert q(a) == oracle_requires(r, a)
        assert verdicts == {False, True}


# 9. the cover-weight linear system is nonsingular at small sizes


def test_cover_matrix_nonsingular():
    for m in (2, 3, 4):
        assert cover_matrix_check(m)


# 10. equilibrium-structure transformations: the prescribed profiles are
#     Nash, and the forall-variant's target formula comes out verbatim


def boolean_matching_pennies():
    return BooleanGame(
        [["x"], ["y"]],
        [Not(Iff(Var("x"), Var("y"))), Iff(Var("x"), Var("y"))],
    )


def merge(*parts):
    out = {}
    for p in parts:
        out.update(p)
    return out


def test_transform_unique_nash_prescribed_profile():
    mp = boolean_matching_pennies()
    half = Fraction(1, 2)
    g2, phi = transform_game("unique_nash", mp, (half, half))
    assert phi is None
    gu = fixed_value_game(half, "t.gu")
    gw = fixed_value_game(half, "t.gw")
    s1 = []
    for xv in (False, True):
        for ga, gwt in gu.equilibrium.strategies[0]:
            for wa, wwt in gw.equilibrium.strategies[0]:
                s1.append((merge({"x": xv, "t.Play1": False,
                                  "t.Dummy1": True}, ga, wa),
                           half * gwt * wwt))
    s2 = []
    for yv in (False, True):
        for ga, gwt in gu.equilibrium.strategies[1]:
            for wa, wwt in gw.equilibrium.strategies[1]:
                s2.append((merge({"y": yv, "t.Play2": False,
                                  "t.Dummy2": False}, ga, wa),
                           half * gwt * wwt))
    prof = MixedProfile([s1, s2])
    validate_profile(g2, prof)
    assert is_nash(g2, prof)


def test_transform_forall_sat_formula_verbatim():
    mp = boolean_matching_pennies()
    g3, phi = transform_game("forall_nash_sat", mp,
                             (Fraction(1, 2), Fraction(1, 2)))
    assert render_formula(phi) == "t.Play1 | t.Play2"
    assert "t.Play1" in g3.var_sets[0] and "t.Play2" in g3.var_sets[1]


def test_transform_irrational_prescribed_profile():
    mp = boolean_matching_pennies()
    g4, _ = transform_game("irrational", mp, Fraction(3, 4))
    g34 = fixed_value_game(Fraction(3, 4), "t.gv")
    s1 = [(merge({"x": False, "t.Dummy": False, "t.Choice1": False}, ga), w)
          for ga, w in g34.equilibrium.strategies[0]]
    s2 = [(merge({"y": False, "t.Choice2": False}, ga), w)
          for ga, w in g34.equilibrium.strategies[1]]
    prof = MixedProfile([s1, s2])
    validate_profile(g4, prof)
    assert is_nash(g4, prof)


def test_transform_irrational_solved_both_ways(tmp_path, capsys):
    # matching pennies' equilibrium pays player 1 1/2, so the transform at
    # 1/2 has an irrational equilibrium; player 1 never wins x & ~x, so
    # that game's transform has none.  Collapsed, the transforms are 7x8
    # and 6x6 games.
    for goals, want in (("~(x <-> y)", "x <-> y"), 0), (("x & ~x", "y"), 1):
        game = tmp_path / "g.bg"
        game.write_text("players: 2\nvars 1: x\nvars 2: y\n"
                        "goal 1: %s\ngoal 2: %s\n" % goals)
        argv = ["reduce", "transform", "--kind", "irrational", "--game",
                str(game), "--value"]
        assert run(argv + ["1"]) == 2  # G(1) would add a continuum
        assert run(argv + ["1/2"]) == 0
        game.write_text(json.loads(capsys.readouterr().out)["game"])
        assert run(["nash", "irrational", "--game", str(game)]) == want
        capsys.readouterr()


# 11. the quadratic count-scoring function has the advertised expectation,
#     maximized exactly at the true model count


def test_count_scoring_expectation():
    for k in (1, 2, 3):
        n = 1 << k
        names = ["b%d" % i for i in range(k)]
        assignments = list(itertools.product([False, True], repeat=k))
        for m_count in range(n + 1):
            phi = disj([characteristic_formula(dict(zip(names, bits)))
                        for bits in assignments[:m_count]]) \
                if m_count else FALSE
            f = compile_formula(phi) if m_count else (lambda a: False)
            expectations = {}
            for r_guess in range(n + 1):
                total = Fraction(0)
                for abits, bbits in itertools.product(assignments, repeat=2):
                    total += g_payoff(
                        r_guess,
                        f(dict(zip(names, abits))),
                        f(dict(zip(names, bbits))),
                        k,
                    )
                expect = total / (n * n)
                want = Fraction((1 << (2 * k + 1)) - (m_count - r_guess) ** 2,
                                1 << (2 * k + 2))
                assert expect == want, (k, m_count, r_guess)
                expectations[r_guess] = expect
            assert max(expectations, key=expectations.get) == m_count


# 12. zero-sum structure: equilibria form a convex set, and the irrationality
#     fast path distinguishes unique from continuum games


def test_zero_sum_equilibrium_midpoint():
    dup = NormalForm([
        [[1, 0], [0, 1], [1, 0]],
        [[0, 1], [1, 0], [0, 1]],
    ])
    found = []
    for sp in support_pairs(dup):
        w = equilibrium_for_support(dup, sp)
        if w is not None:
            xs, ys = w.weight_vectors(dup.shape)
            if (xs, ys) not in found:
                found.append((xs, ys))
        if len(found) >= 2:
            break
    assert len(found) >= 2
    mid_x = [(a + b) / 2 for a, b in zip(found[0][0], found[1][0])]
    mid_y = [(a + b) / 2 for a, b in zip(found[0][1], found[1][1])]
    weights = [
        {i: w for i, w in enumerate(mid_x) if w},
        {j: w for j, w in enumerate(mid_y) if w},
    ]
    assert is_nash(dup, weights)


def test_irrational_fast_path():
    mp = boolean_matching_pennies()
    assert not irrational_nash(as_normal_form(mp))
    dup = NormalForm([
        [[1, 0], [0, 1], [1, 0]],
        [[0, 1], [1, 0], [0, 1]],
    ])
    assert irrational_nash(dup)
