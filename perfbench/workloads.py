"""The three workloads: inputs written from a seed, the ``bg`` queries, and
the check of every answer.

A workload is a list of units; a unit is a list of queries that must run in
order (a ``gadget combine`` and the ``value`` of the game it emits).  A
pass runs every unit once, in an order drawn from the seed.  Checks run
after the pass, outside the timed region, and may compare a query's answer
with the latest answer of another query (the other route to the same
fact); answers do not depend on the pass.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


class Query:
    """One ``bg`` argv, or a library call (``fn(lib)``) for the oracle query.

    ``check(data, code, answers)`` returns None when the answer is right,
    else a one-line reason; ``answers`` maps query ids to the latest
    (code, data) of every query run so far.
    """

    def __init__(self, qid, argv=None, fn=None, check=None, emit=None):
        self.qid = qid
        self.argv = argv
        self.fn = fn
        self.check = check
        self.emit = emit          # (json key, path): write that output field


def _decision(expected):
    """Check of a yes/no answer and its exit code."""
    def check(data, code, answers):
        want = "yes" if expected else "no"
        if data.get("answer") != want or code != (0 if expected else 1):
            return "answer %s (exit %d), want %s" % (data.get("answer"), code,
                                                    want)
        return None
    return check


def _all(*fns):
    def check(data, code, answers):
        for fn in fns:
            why = fn(data, code, answers)
            if why:
                return why
        return None
    return check


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# --- gadget-algebra ----------------------------------------------------------

GADGET_VALUES = sorted({Fraction(a, b) for b in range(1, 7)
                        for a in range(b + 1)})
OPERANDS = sorted({Fraction(a, b) for b in range(1, 5) for a in range(b + 1)})
# operands of G(v) with one player bit (b <= 2) and with two (b = 3, 4); a
# sum or product of two two-bit gadgets has 2^20 cells, which is left out
SMALL = [v for v in OPERANDS if v.denominator <= 2]
LARGE = [v for v in OPERANDS if v.denominator > 2]


def _value_is(want):
    def check(data, code, answers):
        if code != 0 or Fraction(data.get("value", "-1")) != want:
            return "value %s (exit %d), want %s" % (data.get("value"), code,
                                                   want)
        if Fraction(data.get("constant", "1")) != 1:
            return "constant %s, want 1" % data.get("constant")
        return None
    return check


def gadget_algebra(workdir, rng):
    units = []
    for v in GADGET_VALUES:
        ns = "g%d" % rng.randrange(10 ** 6)
        units.append([Query(
            "value %s" % v,
            ["gadget", "value", "--value", str(v), "--namespace", ns],
            check=_all(_decision(True), _value_is(v)))])
    pairs = [("complement", v, None) for v in OPERANDS]
    for kind in ("sum", "product"):
        pairs += [(kind, v, w) for v in SMALL for w in SMALL]
        # one 4096x8 game per small operand: the large operand and the
        # order are drawn from the seed
        for v in SMALL:
            w = rng.choice(LARGE)
            pairs.append((kind, v, w) if rng.random() < 0.5 else (kind, w, v))
    for n, (kind, v, w) in enumerate(pairs):
        want = checks.combined_value(kind, v, w)
        path = os.path.join(workdir, "combined%d.bg" % n)
        argv = ["gadget", "combine", "--kind", kind, "--a", str(v),
                "--namespace", "c%d" % rng.randrange(10 ** 6)]
        if w is not None:
            argv += ["--b", str(w)]
        qid = "%s %s %s" % (kind, v, "" if w is None else w)
        units.append([
            Query("combine " + qid, argv, check=_value_is(want),
                  emit=("game", path)),
            Query("value of " + qid, ["value", "--game", path],
                  check=_value_is(want)),
        ])
    return units


# --- nash-enum ---------------------------------------------------------------

NAMED = {
    # matching pennies: unique, value 1/2
    "matching-pennies": ([[1, 0], [0, 1]], [[0, 1], [1, 0]]),
    # battle of the sexes: two pure equilibria and a mixed one paying 6/5
    "battle-of-the-sexes": ([[3, 0], [0, 2]], [[2, 0], [0, 3]]),
    # prisoner's dilemma: the unique equilibrium is mutual defection
    "prisoners-dilemma": ([[-4, 0], [-5, -1]], [[-4, -5], [0, -1]]),
}
# answers derived by hand: (unique, irrational, [(v, guarantee, forall)])
NAMED_ANSWERS = {
    "matching-pennies": (True, False, [((Fraction(1, 2),) * 2, True, True),
                                       ((Fraction(1),) * 2, False, False)]),
    "battle-of-the-sexes": (False, False, [((2, 2), True, False),
                                           ((1, 1), True, True),
                                           ((3, 3), False, False)]),
    "prisoners-dilemma": (True, False, [((-4, -4), True, True),
                                        ((-1, -1), False, False)]),
}
# Seeded general-sum games (find and guarantee) and constant-sum games
# (A + B = 9, answered by both routes).  They stay small: on 3x3 and larger
# generic or constant-sum games the cost of a query swings tenfold with the
# seed (how early support enumeration stops), and the heaviest queries
# would then decide query_p90_s; the large games are in the committed pool.
RANDOM_GAMES = [(2, 2, "generic"), (2, 3, "generic"), (2, 2, "winlose"),
                (2, 3, "winlose"), (3, 3, "winlose"), (3, 4, "winlose"),
                (4, 4, "winlose")]
CONSTANT_SUM = [(2, 2), (2, 2), (2, 3), (2, 3)]


def _nf_file(workdir, name, a, b):
    path = os.path.join(workdir, name + ".nf")
    _write(path, json.dumps({"payoffs": [a, b]}))
    return path


def _witness_check(a, b, v=None, payoffs=None):
    """A yes answer's witness is an equilibrium of (a, b) meeting v."""
    m, n = len(a), len(a[0])

    def check(data, code, answers):
        if code != 0 or data.get("answer") != "yes":
            return None
        x, y = checks.witness_vectors(data["witness"], m, n)
        got = checks.equilibrium_payoffs(a, b, x, y)
        if got is None:
            return "witness is not an equilibrium"
        if [str(p) for p in got] != data["witness"]["payoffs"]:
            return "witness payoffs %s, recomputed %s" % (
                data["witness"]["payoffs"], got)
        if v is not None and (got[0] < v[0] or got[1] < v[1]):
            return "witness pays %s, below %s" % (got, v)
        if payoffs is not None and tuple(got) != payoffs(answers):
            return "witness pays %s, want %s" % (got, payoffs(answers))
        return None
    return check


def _v_arg(v):
    # one token, so that a negative first payoff is not read as an option
    return "--payoffs=" + ",".join(str(Fraction(x)) for x in v)


def nash_enum(workdir, rng):
    queries = []
    with open(os.path.join(HERE, "pool.json")) as fh:
        pool = json.load(fh)

    for name, (a, b) in NAMED.items():
        path = _nf_file(workdir, name, a, b)
        unique, irrational, thresholds = NAMED_ANSWERS[name]
        queries += [
            Query(name + " find", ["nash", "find", "--game", path],
                  check=_all(_decision(True), _witness_check(a, b))),
            Query(name + " unique", ["nash", "unique", "--game", path],
                  check=_decision(unique)),
            Query(name + " irrational", ["nash", "irrational", "--game", path],
                  check=_decision(irrational)),
            Query(name + " pure", ["nash", "pure", "--game", path],
                  check=_pure_nf(a, b)),
        ]
        for v, exists, forall in thresholds:
            queries += [
                Query("%s guarantee %s" % (name, v),
                      ["nash", "guarantee", _v_arg(v), "--game", path],
                      check=_all(_decision(exists), _witness_check(a, b, v))),
                Query("%s forall-guarantee %s" % (name, v),
                      ["nash", "forall-guarantee", _v_arg(v), "--game",
                       path], check=_decision(forall)),
            ]

    n = 0
    for m, k, kind in RANDOM_GAMES:
        top = 9 if kind == "generic" else 1
        n += 1
        a = [[rng.randint(0, top) for _ in range(k)] for _ in range(m)]
        b = [[rng.randint(0, top) for _ in range(k)] for _ in range(m)]
        path = _nf_file(workdir, "random%d" % n, a, b)
        # a pure equilibrium's payoffs, when there is one, must be
        # guaranteed; otherwise every equilibrium pays at least 0
        pure = checks.pure_equilibria(a, b)
        i, j = rng.choice(pure) if pure else (None, None)
        v = (a[i][j], b[i][j]) if pure else (0, 0)
        queries += [
            Query("random%d find" % n, ["nash", "find", "--game", path],
                  check=_all(_decision(True), _witness_check(a, b))),
            Query("random%d guarantee" % n,
                  ["nash", "guarantee", _v_arg(v), "--game", path],
                  check=_all(_decision(True), _witness_check(a, b, v))),
        ]

    for m, k in CONSTANT_SUM:
        n += 1
        queries += _constant_sum_queries(workdir, rng, "constsum%d" % n, m, k)

    # the pool's games keep their strategy order: the cost of support
    # enumeration moves with it, and these queries are a fixed load
    for e in pool["normal_forms"]:
        n += 1
        path = _nf_file(workdir, "pool%d" % n, *e["payoffs"])
        queries += [
            Query("pool%d unique" % n, ["nash", "unique", "--game", path],
                  check=_decision(e["unique"])),
            Query("pool%d irrational" % n,
                  ["nash", "irrational", "--game", path],
                  check=_decision(e["irrational"])),
            Query("pool%d forall-guarantee" % n,
                  ["nash", "forall-guarantee", _v_arg(e["forall_v"]),
                   "--game", path],
                  check=_decision(e["forall"])),
        ]

    for e in pool["boolean_games"]:
        n += 1
        queries += _boolean_queries(workdir, rng, "boolean%d" % n, e)
    return [[q] for q in queries]


def _pure_nf(a, b):
    want = sorted(list(p) for p in checks.pure_equilibria(a, b))

    def check(data, code, answers):
        got = sorted(data.get("equilibria", []))
        if got != want or code != (0 if want else 1):
            return "pure equilibria %s, want %s" % (got, want)
        return None
    return check


def _constant_sum_queries(workdir, rng, name, m, k):
    a = [[rng.randint(0, 9) for _ in range(k)] for _ in range(m)]
    b = [[9 - x for x in row] for row in a]
    path = _nf_file(workdir, name, a, b)
    v = (Fraction(rng.randint(0, 18), 2), Fraction(rng.randint(0, 18), 2))
    ids = {q: "%s %s" % (name, q) for q in (
        "value", "find", "guarantee", "forall-guarantee", "unique",
        "irrational", "irrational --zero-sum")}

    def value(answers):
        return Fraction(answers[ids["value"]][1]["value"])

    def certified(data, code, answers):
        # the maxmin strategy secures at least the value; find's
        # equilibrium, which must pay exactly the value, caps it
        if code != 0 or Fraction(data["constant"]) != 9:
            return "not recognised as constant-sum 9"
        x = [Fraction(w) for w in data["maxmin"]]
        if sum(x) != 1 or min(x) < 0 or not checks.guarantees(
                a, x, Fraction(data["value"])):
            return "maxmin strategy does not secure the value"
        return None

    def both_payoffs(answers):
        return (value(answers), 9 - value(answers))

    def meets_v(data, code, answers):
        want = value(answers) >= v[0] and 9 - value(answers) >= v[1]
        return _decision(want)(data, code, answers)

    def agrees(other, negate=False):
        def check(data, code, answers):
            want = answers[ids[other]][1].get("answer")
            if negate:
                want = {"yes": "no", "no": "yes"}.get(want)
            if data.get("answer") != want:
                return "answer %s, %s route says %s" % (
                    data.get("answer"), other, want)
            return None
        return check

    return [
        Query(ids["value"], ["value", "--game", path], check=certified),
        Query(ids["find"], ["nash", "find", "--game", path],
              check=_all(_decision(True),
                         _witness_check(a, b, payoffs=both_payoffs))),
        Query(ids["guarantee"],
              ["nash", "guarantee", _v_arg(v), "--game", path],
              check=_all(meets_v, _witness_check(a, b, v))),
        Query(ids["forall-guarantee"],
              ["nash", "forall-guarantee", _v_arg(v), "--game", path],
              check=meets_v),
        Query(ids["unique"], ["nash", "unique", "--game", path],
              check=agrees("irrational", negate=True)),
        Query(ids["irrational"], ["nash", "irrational", "--game", path],
              check=agrees("irrational --zero-sum")),
        Query(ids["irrational --zero-sum"],
              ["nash", "irrational", "--zero-sum", "--game", path],
              check=agrees("irrational")),
    ]


def _boolean_queries(workdir, rng, name, e):
    # a seeded prefix keeps the variables' order, so the strategy order and
    # the cost of the queries stay those of the pool
    tag = "%s%d_" % (name[0], rng.randrange(10 ** 4))
    mapping = {v: tag + v for vs in e["vars"] for v in vs}
    var_sets = [[mapping[v] for v in vs] for vs in e["vars"]]
    goals = [checks.rename(f, mapping) for f in e["goals"]]
    phi = checks.render(checks.rename(e["phi"], mapping))
    path = os.path.join(workdir, name + ".bg")
    _write(path, "players: 2\n" + "".join(
        "vars %d: %s\ngoal %d: %s\n" % (i + 1, " ".join(var_sets[i]), i + 1,
                                        checks.render(goals[i]))
        for i in range(2)))
    want_pure = checks.boolean_pure_equilibria(var_sets, goals)

    def pure(data, code, answers):
        got = sorted(sorted(eq.items()) for eq in data.get("equilibria", []))
        if got != sorted(want_pure) or code != (0 if want_pure else 1):
            return "pure equilibria differ from the enumeration"
        return None

    return [
        Query(name + " sat exists",
              ["nash", "sat", "--mode", "exists", "--formula", phi, "--game",
               path], check=_decision(e["sat_exists"])),
        Query(name + " sat forall",
              ["nash", "sat", "--mode", "forall", "--formula", phi, "--game",
               path], check=_decision(e["sat_forall"])),
        Query(name + " pure", ["nash", "pure", "--game", path], check=pure),
    ]


# --- reduction-witness -------------------------------------------------------

_HALT = [{"from": "qa", "read": s, "write": s, "move": "L", "to": "qa"}
         for s in ("0", "1", "_")]
MACHINES = {
    # accepts the empty word at step 1
    "immediate": ({"states": ["q0", "qa"], "start": "q0", "accept": "qa",
                   "transitions": [{"from": "q0", "read": "_", "write": "0",
                                    "move": "L", "to": "qa"}] + _HALT},
                  {2: True, 4: True}),
    # writes 0 and steps right, writes 1 and steps back, accepting at step
    # 2: too late for bound 2, in time for bound 4
    "two-step": ({"states": ["q0", "q1", "qa"], "start": "q0",
                  "accept": "qa",
                  "transitions": [
                      {"from": "q0", "read": "_", "write": "0", "move": "R",
                       "to": "q1"},
                      {"from": "q1", "read": "_", "write": "1", "move": "L",
                       "to": "qa"}] + _HALT},
                 {2: False, 4: True}),
    # runs right over blanks forever and never enters the accept state
    "never": ({"states": ["q0", "qa"], "start": "q0", "accept": "qa",
               "transitions": [{"from": "q0", "read": "_", "write": "1",
                                "move": "R", "to": "q0"}] + _HALT},
              {2: False, 4: False}),
}


def _reduce_check(mode, k, accepts, out):
    def check(data, code, answers):
        if code != 0 or data.get("k") != k or data.get("mode") != mode:
            return "exit %d, k %s, mode %s" % (code, data.get("k"),
                                               data.get("mode"))
        if Fraction(data["v2"]) != checks.reduction_payoff(mode, k):
            return "v2 %s, closed form %s" % (
                data["v2"], checks.reduction_payoff(mode, k))
        has = data.get("witness") is not None
        written = os.path.exists(out + ".witness.json")
        if has != accepts or (has and not written):
            return "witness %s, machine accepts: %s" % (data.get("witness"),
                                                       accepts)
        return None
    return check


def _witness_verdict(k, accepts):
    def check(data, code, answers):
        why = _decision(accepts)(data, code, answers)
        if why or not accepts:
            return why
        if Fraction(data["v2"]) != checks.reduction_payoff("exists", k):
            return "witness pays %s, closed form %s" % (
                data["v2"], checks.reduction_payoff("exists", k))
        return None
    return check


def _oracle_query(machine_json, bound, mode):
    """Require (or Illegal) against the window oracle on the witness's
    player-2 windows.  Every window of a genuine accepting run is legal."""
    def run(lib):
        red = lib.reductions
        m = red.TuringMachine.from_json(machine_json)
        build = (red.build_guarantee_game if mode == "exists"
                 else red.build_forall_guarantee_game)
        ro = build(m, "", bound)
        size = 1 << ro.k
        table = red.simulate_tm(m, "", size, size, accept_row=bound - 1)
        wp = red.witness_profile(ro, table)
        require = lib.compile_formula(ro.require)
        windows = [a for a, _ in wp.strategies[1]]
        formula = [require(a) for a in windows]
        oracle = [red.oracle_requires(ro, a) for a in windows]
        return 0, {"windows": len(windows), "formula_true": sum(formula),
                   "oracle_true": sum(oracle),
                   "mismatches": sum(f != o for f, o in zip(formula, oracle))}

    def check(data, code, answers):
        legal = data["windows"] if mode == "exists" else 0
        if data["formula_true"] != legal or data["oracle_true"] != legal:
            return ("%d of %d windows disagree: the formula accepts %d and "
                    "the oracle %d, want %d" % (
                        data["mismatches"], data["windows"],
                        data["formula_true"], data["oracle_true"], legal))
        return None
    return run, check


def reduction_witness(workdir, rng):
    units = []
    for name, (machine, verdicts) in sorted(MACHINES.items()):
        mpath = os.path.join(workdir, name + ".json")
        text = json.dumps(machine)
        _write(mpath, text)
        for bound, accepts in sorted(verdicts.items()):
            k = 1 if bound == 2 else 2
            modes = ["exists"] if bound == 2 else ["exists", "forall"]
            tag = "%s bound %d" % (name, bound)
            for mode in modes:
                verb = "nexptm" if mode == "exists" else "forall-nexptm"
                out = os.path.join(workdir, "%s-%d-%s" % (name, bound, mode))
                reduce = [Query(
                    "%s reduce %s" % (tag, verb),
                    ["reduce", verb, "--machine", mpath, "--bound", str(bound),
                     "--emit-witness", "--out", out],
                    check=_reduce_check(mode, k, accepts, out))]
                # the emitted witness and the oracle check of its windows
                # are one unit, one latency sample; as separate samples,
                # reduce and oracle queries were 14 of 31, and query_p50_s
                # sat on the edge between them and the squares queries
                if accepts:
                    run, check = _oracle_query(text, bound, mode)
                    reduce.append(Query("%s oracle %s" % (tag, mode), fn=run,
                                        check=check))
                units.append(reduce)
                units.append([Query(
                    "%s squares %s" % (tag, mode),
                    ["verify", "squares", "--machine", mpath, "--bound",
                     str(bound), "--mode", mode, "--trials", "2000", "--seed",
                     str(rng.randrange(10 ** 6))],
                    check=_all(_decision(True), _no_mismatch))])
            # an accepted bound-4 witness is verified with two player-2
            # samples: the exhaustive player-1 sweeps are then 4 of 26
            # samples, and query_p90_s falls inside their cluster
            for n in range(2 if accepts and k == 2 else 1):
                units.append([Query(
                    "%s verify witness%s" % (tag, " again" if n else ""),
                    ["verify", "witness", "--machine", mpath, "--bound",
                     str(bound), "--sample", "2000", "--seed",
                     str(rng.randrange(10 ** 6))],
                    check=_witness_verdict(k, accepts))])
    return units


def _no_mismatch(data, code, answers):
    if data.get("mismatches") != 0:
        return "%s mismatches" % data.get("mismatches")
    return None


WORKLOADS = {
    "gadget-algebra": gadget_algebra,
    "nash-enum": nash_enum,
    "reduction-witness": reduction_witness,
}
