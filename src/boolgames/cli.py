"""Command-line surface: batch analysis, instance generation, verification.

Exit codes: 0 = yes/ok, 1 = no (decision verbs), 2 = usage or input error,
3 = resource cap exceeded, 141 = stdout closed by its reader (``main``
only).  Results go to stdout as JSON (or key: value
lines with --format text); diagnostics go to stderr.  All rationals are
rendered as reduced "a/b" strings.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from . import encodings, gadgets, game, reductions, solver
from .formula import (
    FormulaError,
    compile_formula,  # noqa: F401 - perfbench/tracing.py patches it here
    eval_bits,
    eval_formula,
    free_vars,
    is_valid_var,
    parse_formula,
    render_formula,
)
from .game import (
    GameError,
    NormalForm,
    ResourceCapError,
    draw_masks,
    parse_game,
    profile_from_json,
    profile_to_json,
    render_game,
)
from .lp import LpError
from .reductions import ReductionError
from .solver import SolverError


class UsageError(Exception):
    pass


def _fr(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError):
        raise UsageError("bad rational %r (want a/b)" % (text,))


def _fr_str(x):
    return str(Fraction(x))


def _need(value, flag):
    if value is None:
        raise UsageError("missing %s" % flag)
    return value


def _read(path, flag):
    try:
        with open(_need(path, flag), encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError("cannot read %s: %s" % (path, e))


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError("cannot write %s: %s" % (path, e))
    return path


def load_game(path):
    """Boolean game (textual format) or normal form (JSON with payoffs)."""
    text = _read(path, "--game")
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text, parse_float=Fraction)
            return NormalForm(data["payoffs"])
        except (ValueError, KeyError, TypeError, IndexError,
                ZeroDivisionError) as e:
            raise UsageError("bad normal-form file %s: %s" % (path, e))
    return parse_game(text)


def load_machine(path):
    text = _read(path, "--machine")
    try:
        return reductions.TuringMachine.from_json(text)
    except json.JSONDecodeError as e:
        raise UsageError("bad machine file %s: %s" % (path, e))


def _reduction(args, mode):
    """The guarantee game of --machine, --input and --bound in ``mode``."""
    build = (reductions.build_guarantee_game if mode == "exists"
             else reductions.build_forall_guarantee_game)
    return build(load_machine(args.machine), args.input, args.bound)


def _witness(ro):
    """The witness profile of ``ro``'s accepting run, or None if none."""
    size, cap = 1 << ro.k, reductions.WITNESS_SIDE_CAP
    if size > cap:
        raise ResourceCapError("--bound %d needs a %dx%d witness table; the "
                               "bound is %dx%d" % (ro.bound, size, size, cap,
                                                   cap))
    table = reductions.simulate_tm(ro.machine, ro.word, size, size,
                                   accept_row=ro.bound - 1)
    return None if table is None else reductions.witness_profile(ro, table)


def load_profile(path, g):
    """A mixed profile (JSON) validated against the Boolean game ``g``."""
    if isinstance(g, NormalForm):
        raise UsageError("a profile needs a Boolean game")
    text = _read(path, "--profile")
    try:
        return profile_from_json(text, g)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        raise UsageError("bad profile file %s: %s" % (path, e))


def _emit(data, fmt):
    if fmt == "text":
        for key, value in data.items():
            print("%s: %s" % (key, value))
    else:
        print(json.dumps(data))


def _witness_json(w):
    if w is None:
        return None
    return {
        "x": {str(i): str(v) for i, v in sorted(w.x.items())},
        "y": {str(j): str(v) for j, v in sorted(w.y.items())},
        "payoffs": [str(p) for p in w.payoffs],
    }


def _decision(answer, extra=None, mode="exact"):
    data = {"answer": "yes" if answer else "no", "mode": mode}
    if extra:
        data.update(extra)
    return (0 if answer else 1), data


def _payoff_pair(args):
    v = [_fr(x) for x in _need(args.payoffs, "--payoffs").split(",")]
    if len(v) != 2:
        raise UsageError("--payoffs takes two rationals, one per player")
    return v


def _parse_assign(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError("bad assignment item %r (want name=0|1)" % item)
        name, _, val = item.partition("=")
        name = name.strip()
        if not is_valid_var(name):
            raise UsageError("bad variable name %r in --assign" % name)
        if name in out:
            raise UsageError("variable %s assigned twice in --assign" % name)
        if val not in ("0", "1"):
            raise UsageError("assignment values must be 0 or 1")
        out[name] = val == "1"
    return out


# --- handlers ---------------------------------------------------------------


def cmd_check(args):
    g = load_game(args.game)
    if isinstance(g, NormalForm):
        return 0, {"ok": True, "kind": "normal-form",
                   "shape": list(g.shape), "players": g.players}
    return 0, {"ok": True, "kind": "boolean", "players": g.players,
               "vars": [list(vs) for vs in g.var_sets]}


def cmd_eval(args):
    # two modes, --formula with --assign or --game with --profile: a flag of
    # the other mode would change nothing
    if args.formula is not None:
        for flag, value in (("--game", args.game), ("--profile", args.profile)):
            if value is not None:
                raise UsageError("%s is not read with --formula" % flag)
        f = parse_formula(args.formula)
        assign = _parse_assign(args.assign or "")
        return 0, {"value": bool(eval_formula(f, assign))}
    if args.assign is not None:
        raise UsageError("--assign is read only with --formula")
    if args.game is None or args.profile is None:
        raise UsageError("eval needs --formula or both --game and --profile")
    g = load_game(args.game)
    profile = load_profile(args.profile, g)
    utilities = [
        _fr_str(game.expected_utility(g, profile, i)) for i in range(g.players)
    ]
    return 0, {"utilities": utilities}


def cmd_normal_form(args):
    g = load_game(args.game)
    nf = solver.as_normal_form(g, cap=args.cap_cells)
    def render(t):
        if isinstance(t, list):
            return [render(x) for x in t]
        return str(t)
    return 0, {"shape": list(nf.shape),
               "payoffs": [render(t) for t in nf.payoffs]}


def cmd_value(args):
    nf = solver.as_normal_form(load_game(args.game), cap=args.cap_cells)
    # zero_sum_value checks that the game is constant-sum (exit 2 if not)
    value, strategy = solver.zero_sum_value(nf)
    return 0, {"value": _fr_str(value),
               "constant": _fr_str(solver.constant_sum(nf)),
               # only each class's first member can weigh more than zero
               "maxmin": [str(w) if w else "0" for w in strategy]}


def cmd_nash(args):
    g = load_game(args.game)
    v = (_payoff_pair(args) if args.what in ("guarantee", "forall-guarantee")
         else None)
    phi = (parse_formula(_need(args.formula, "--formula"))
           if args.what == "sat" else None)
    # the query and the --zero-sum check share one expansion
    nf = None
    if args.zero_sum or args.what != "is":
        nf = solver.as_normal_form(g, cap=args.cap_cells)
    if args.zero_sum and solver.constant_sum(nf) is None:
        raise UsageError("game is not constant-sum")
    if args.what == "pure":
        eqs = solver.pure_equilibria(nf)
        shown = [list(e) if isinstance(e, tuple) else
                 {k: v for k, v in sorted(e.items())} for e in eqs]
        return _decision(bool(eqs), {"equilibria": shown})
    if args.what == "sat":
        return _decision(solver.nash_sat(g, phi, args.mode,
                                         cap=args.cap_deviations, nf=nf))
    if args.what == "is":
        profile = load_profile(args.profile, g)
        ans = solver.is_nash(g, profile, cap=args.cap_deviations,
                             sample=args.sample, seed=args.seed)
        return _decision(ans,
                         mode="exact" if args.sample is None else "sampled")
    if args.what in ("find", "guarantee"):
        w = solver.exists_guarantee_nash(nf, v, cap=args.cap_deviations)
        return _decision(w is not None, {"witness": _witness_json(w)})
    if args.what == "unique":
        return _decision(solver.unique_nash(nf, cap=args.cap_deviations))
    if args.what == "irrational":
        return _decision(solver.irrational_nash(nf, cap=args.cap_deviations))
    return _decision(solver.forall_guarantee_nash(nf, v,
                                                  cap=args.cap_deviations))


def cmd_gadget(args):
    if args.what == "combine":
        kind = _need(args.kind, "--kind")
        b1 = gadgets.fixed_value_game(_fr(_need(args.a, "--a")), "a")
        b2 = (None if args.b is None
              else gadgets.fixed_value_game(_fr(args.b), "b"))
        c = gadgets.combine_games(kind, b1, b2, namespace=args.namespace)
        return 0, {"value": _fr_str(c.value), "game": render_game(c.game)}
    b = gadgets.fixed_value_game(_fr(_need(args.value, "--value")),
                                 args.namespace)
    if args.what == "build":
        return 0, {
            "value": _fr_str(b.value),
            "game": render_game(b.game),
            "roles": {k: list(v) for k, v in b.role_vars.items()},
            "equilibrium": json.loads(profile_to_json(b.equilibrium)),
        }
    nf = solver.as_normal_form(b.game, cap=args.cap_cells)
    value, _ = solver.zero_sum_value(nf)
    return _decision(value == b.value, {"value": _fr_str(value)})


# the largest encode --width and encode square --k: the formulas grow as
# the cube of either (add and sub; square), and at the bounds the largest
# renders under 2 MB of text
ENCODE_WIDTH_CAP = 64
SQUARE_K_CAP = 16
# the most encode oneof and noneof --names: oneof grows as their square,
# and 256 four-character names render 0.5 MB in 0.2 s (512: 2 MB, 0.5 s)
ENCODE_NAMES_CAP = 256


def _bounded(value, cap, flag):
    if value > cap:
        raise ResourceCapError("%s %d exceeds the bound %d" % (flag, value, cap))
    return value


def cmd_encode(args):
    kind = args.what
    def operand(tok, m):
        tok = tok.strip()
        if tok.lstrip("-").isdigit():
            return encodings.const_bits(int(tok), m)
        return encodings.var_bits(tok, m)
    if kind in ("equal", "succ", "less", "lesseq"):
        ops = _need(args.args, "--args").split(",")
        if len(ops) != 2:
            raise UsageError("%s takes two operands" % kind)
        m = _bounded(args.width, ENCODE_WIDTH_CAP, "--width")
        name = "less_eq" if kind == "lesseq" else kind
        f = encodings.build_comparison(name, operand(ops[0], m), operand(ops[1], m))
    elif kind in ("add", "sub"):
        ops = _need(args.args, "--args").split(",")
        if len(ops) != 3:
            raise UsageError("%s takes three operands" % kind)
        m = _bounded(args.width, ENCODE_WIDTH_CAP, "--width")
        f = encodings.build_arithmetic(kind, operand(ops[0], m),
                                       operand(ops[1], m), operand(ops[2], m))
    elif kind == "square":
        k = _bounded(args.k, SQUARE_K_CAP, "--k")
        r = encodings.var_bits("R", k)
        rsq = encodings.var_bits("Rsq", 2 * k)
        # summand and partial-sum numbers are zero-padded to the digits of
        # k, so a number and a bit index join into a name one way only
        # (unpadded, P1 with bit 11 and P11 with bit 1 would both be P111)
        pad = len(str(k))
        summands = [encodings.var_bits("S%0*d" % (pad, j), 2 * k)
                    for j in range(k)]
        partials = [encodings.var_bits("P%0*d" % (pad, j), 2 * k)
                    for j in range(k + 1)]
        f = encodings.build_square(r, rsq, summands, partials)
    else:
        names = [s.strip() for s in _need(args.names, "--names").split(",")]
        _bounded(len(names), ENCODE_NAMES_CAP, "--names")
        f = encodings.build_cardinality(
            "one_of" if kind == "oneof" else "none_of", names)
    return 0, {"formula": render_formula(f),
               "vars": sorted(free_vars(f))}


def cmd_reduce(args):
    if args.what in ("nexptm", "forall-nexptm"):
        ro = _reduction(args, "exists" if args.what == "nexptm" else "forall")
        data = {"v2": _fr_str(ro.payoff[1]), "v1": _fr_str(ro.payoff[0]),
                "k": ro.k, "mode": ro.mode}
        wp = _witness(ro) if args.emit_witness else None
        if args.out:
            data["game_file"] = _write(args.out + ".game",
                                       render_game(ro.game))
            _write(args.out + ".vars.json", ro.var_index.to_json())
        else:
            data["game"] = render_game(ro.game)
        if args.emit_witness:
            if wp is None:
                data["witness"] = None
            elif args.out:
                data["witness"] = _write(args.out + ".witness.json",
                                         profile_to_json(wp))
            else:
                data["witness"] = json.loads(profile_to_json(wp))
        return 0, data
    kind = _need(args.kind, "--kind")
    # a given flag that the kind does not read would change nothing
    reads = (("machine", "input", "bound") if kind == "exists-nash-sat" else
             ("game", "value" if kind == "irrational" else "payoffs",
              "namespace"))
    for name in ("machine", "input", "bound", "game", "payoffs", "value",
                 "namespace"):
        if name not in reads and getattr(args, name) is not None:
            raise UsageError("--%s is not read with --kind %s" % (name, kind))
    if kind == "exists-nash-sat":
        m = load_machine(args.machine)
        g2, phi = reductions.transform_exists_nash_sat(
            m, args.input or "", 2 if args.bound is None else args.bound)
    else:
        g = load_game(args.game)
        if isinstance(g, NormalForm):
            raise UsageError("transform works on Boolean games")
        if kind == "irrational":
            v = _fr(_need(args.value, "--value"))
        else:
            v = _payoff_pair(args)
        g2, phi = reductions.transform_game(
            kind.replace("-", "_"), g, v,
            namespace="t" if args.namespace is None else args.namespace)
    data = {"game": render_game(g2)}
    if phi is not None:
        data["phi"] = render_formula(phi)
    return 0, data


def cmd_verify(args):
    if args.what == "cover-matrix":
        return _decision(reductions.cover_matrix_check(args.m))
    if args.what == "witness":
        ro = _reduction(args, "exists")
        # cap both sweeps (player 2's exhaustive unless --sample) up front
        solver.check_deviation_cap(ro.game, 0, args.cap_deviations)
        solver.check_deviation_cap(ro.game, 1, args.cap_deviations,
                                   args.sample)
        wp = _witness(ro)
        if wp is None:
            return 1, {"answer": "no", "reason": "no accepting run in bounds"}
        b1, best1 = solver.best_deviation_gain(ro.game, wp, 0,
                                               cap=args.cap_deviations)
        b2, best2 = solver.best_deviation_gain(ro.game, wp, 1,
                                               cap=args.cap_deviations,
                                               sample=args.sample,
                                               seed=args.seed)
        ok = b2 == ro.payoff[1] and best1 <= b1 and best2 <= b2
        return _decision(ok, {"v2": _fr_str(b2)},
                         mode="exact" if args.sample is None else "sampled")
    if args.trials > args.cap_deviations:
        raise ResourceCapError("%d trials to check; cap is %d"
                               % (args.trials, args.cap_deviations))
    # Require alone, not the game: all trials in one eval_bits pass, bit r
    # of each mask is trial r, one mask per player-2 variable in the game's
    # var_sets order
    ro = reductions.build_require(load_machine(args.machine), args.input,
                                  args.bound, args.mode)
    names = ro.player2_vars
    full, size = (1 << args.trials) - 1, (args.trials + 7) >> 3
    drawn = draw_masks(args.seed, args.trials, len(names))
    masks = dict(zip(names, drawn))
    said = eval_bits(ro.require, masks, full)
    # the oracle says no off the screen: it reads only the screened trials,
    # trial r from bit r & 7 of byte r >> 3 of each mask's bytes
    screen = reductions.decodable_trials(ro, masks, full)
    columns = [m.to_bytes(size, "little") for m in drawn] if screen else ()
    screened, hits = screen.to_bytes(size, "little"), bytearray(size)
    for at in itertools.compress(range(size), screened):
        byte = screened[at]
        while byte:
            bit = byte & -byte
            byte ^= bit
            trial = dict(zip(names, (c[at] & bit != 0 for c in columns)))
            if reductions.oracle_requires(ro, trial):
                hits[at] |= bit
    oracle = int.from_bytes(hits, "little")
    if not (said or oracle):
        print("note: neither route accepts a trial, so mismatches: 0 cannot "
              "tell them apart", file=sys.stderr)
    mismatches = (said ^ oracle).bit_count()
    return _decision(mismatches == 0,
                     {"trials": args.trials, "mismatches": mismatches,
                      "require_accepts": said.bit_count(),
                      "oracle_accepts": oracle.bit_count()},
                     mode="sampled")


# --- argument parsing ---------------------------------------------------------


def _count(text, least):
    # argparse names the type callable in its own message, so a non-integer
    # is reported here, as argparse reports one for ``type=int``
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if n < least:
        raise argparse.ArgumentTypeError(
            "must be at least %d, not %d" % (least, n))
    return n


def _positive(text):
    return _count(text, 1)


def _nonnegative(text):
    return _count(text, 0)


# built on the first run, not at import, and reused: a build costs ~100 parses
@functools.lru_cache(maxsize=None)
def _build_parser():
    """``bg``'s parser.  Each command (a verb, or a verb's sub-verb) takes
    only the flags its handler reads; any other flag is a usage error."""
    top = argparse.ArgumentParser(
        prog="bg", description="Boolean-games toolkit")
    verbs = top.add_subparsers(dest="verb", required=True)

    def flag(name, **kwargs):
        return name, kwargs

    def command(parsers, name, fn, *flags):
        p = parsers.add_parser(name)
        for option, kwargs in (fmt, *flags):
            p.add_argument(option, **kwargs)
        p.set_defaults(fn=fn)

    def queries(verb, fn, table):
        """``verb`` with one sub-verb, in ``args.what``, per entry of
        ``table``: the sub-verb's name and its flags."""
        parsers = verbs.add_parser(verb).add_subparsers(dest="what",
                                                        required=True)
        for name, flags in table:
            command(parsers, name, fn, *flags)

    fmt = flag("--format", choices=("json", "text"), default="json")
    the_game = flag("--game", required=True)
    cells = flag("--cap-cells", type=_nonnegative,
                 default=game.DEFAULT_CELL_CAP)
    caps = flag(
        "--cap-deviations", type=_nonnegative,
        default=game.DEFAULT_DEVIATION_CAP,
        help="work allowed before exit 3: pure deviations per player, "
             "or the --sample size (nash is, verify witness); rays each "
             "best-response polytope's double description holds at once "
             "(nash find, guarantee, unique, irrational, forall-guarantee, "
             "sat); trials (verify squares --trials)")
    sample = flag("--sample", type=_positive, default=None)
    seed = flag("--seed", type=int, default=0)
    mode = flag("--mode", choices=("exists", "forall"), default="exists")
    payoffs = flag("--payoffs",
                   help="comma-separated rationals, one per player")
    machine = (flag("--machine"), flag("--input", default=""),
               flag("--bound", type=int, default=2))

    command(verbs, "check", cmd_check, the_game)
    command(verbs, "eval", cmd_eval, flag("--game"), flag("--profile"),
            flag("--formula"), flag("--assign"))
    command(verbs, "normal-form", cmd_normal_form, the_game, cells)
    command(verbs, "value", cmd_value, the_game, cells)

    # every nash sub-verb reads --zero-sum: each one asserts it
    pure = (the_game, cells, flag(
        "--zero-sum", action="store_true",
        help="assert the game is constant-sum (exit 2 if not)"))
    nash = (*pure, caps)
    queries("nash", cmd_nash, (
        ("find", nash), ("unique", nash), ("guarantee", (*nash, payoffs)),
        ("forall-guarantee", (*nash, payoffs)),
        ("sat", (*nash, flag("--formula"), mode)),
        ("is", (*nash, flag("--profile"), sample, seed)),
        ("pure", pure), ("irrational", nash)))

    namespace = flag("--namespace", default="g")
    queries("gadget", cmd_gadget, (
        ("build", (flag("--value"), namespace)),
        ("value", (flag("--value"), namespace, cells)),
        ("combine", (flag("--kind", choices=("sum", "product", "complement")),
                     flag("--a"), flag("--b"), namespace))))

    operands = (flag("--width", type=int, default=1),
                flag("--args", help="comma-separated prefixes or integers"))
    names = (flag("--names"),)
    queries("encode", cmd_encode, (
        *((what, operands) for what in (
            "equal", "succ", "less", "lesseq", "add", "sub")),
        ("square", (flag("--k", type=int, default=1),)),
        ("oneof", names), ("noneof", names)))

    build = (*machine, flag("--emit-witness", action="store_true"),
             flag("--out"))
    queries("reduce", cmd_reduce, (
        ("nexptm", build), ("forall-nexptm", build),
        # no defaults: cmd_reduce tells which flags were given
        ("transform", (flag("--kind", choices=(
            "unique-nash", "forall-nash-sat", "irrational",
            "exists-nash-sat")), flag("--machine"), flag("--input"),
            flag("--bound", type=int), flag("--game"), payoffs,
            flag("--value"), flag("--namespace")))))

    queries("verify", cmd_verify, (
        ("witness", (*machine, caps, sample, seed)),
        ("squares", (*machine, mode, flag("--trials", type=_positive,
                                          default=10000), seed, caps)),
        ("cover-matrix", (flag("--m", type=int, default=2),))))

    return top


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        code, data = args.fn(args)
    except ResourceCapError as e:
        print("resource cap exceeded: %s" % e, file=sys.stderr)
        return 3
    except (UsageError, GameError, FormulaError, ReductionError,
            LpError, SolverError, gadgets.GadgetError,
            encodings.EncodingError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    _emit(data, args.format)
    return code


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``bg ... | head``): exit as a program
        # killed by SIGPIPE, not with the "no" of exit 1; stdout goes to
        # devnull so that the interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()
