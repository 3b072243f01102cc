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
    BooleanGame,
    GameError,
    NormalForm,
    ResourceCapError,
    draw_masks,
    draw_trials,
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
    size = 1 << ro.k
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
    if args.formula is not None:
        f = parse_formula(args.formula)
        assign = _parse_assign(args.assign or "")
        return 0, {"value": bool(eval_formula(f, assign))}
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
               "maxmin": [str(w) for w in strategy]}


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
    if args.what == "forall-guarantee":
        return _decision(solver.forall_guarantee_nash(nf, v,
                                                      cap=args.cap_deviations))
    raise UsageError("unknown nash query %r" % args.what)


def cmd_gadget(args):
    if args.what == "combine":
        kind = _need(args.kind, "--kind")
        b1 = gadgets.fixed_value_game(_fr(_need(args.a, "--a")), "a")
        b2 = gadgets.fixed_value_game(_fr(args.b), "b") if args.b else None
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
        m = args.width
        name = "less_eq" if kind == "lesseq" else kind
        f = encodings.build_comparison(name, operand(ops[0], m), operand(ops[1], m))
    elif kind in ("add", "sub"):
        ops = _need(args.args, "--args").split(",")
        if len(ops) != 3:
            raise UsageError("%s takes three operands" % kind)
        m = args.width
        f = encodings.build_arithmetic(kind, operand(ops[0], m),
                                       operand(ops[1], m), operand(ops[2], m))
    elif kind == "square":
        k = args.k
        r = encodings.var_bits("R", k)
        rsq = encodings.var_bits("Rsq", 2 * k)
        summands = [encodings.var_bits("S%d" % j, 2 * k) for j in range(k)]
        partials = [encodings.var_bits("P%d" % j, 2 * k) for j in range(k + 1)]
        f = encodings.build_square(r, rsq, summands, partials)
    elif kind in ("oneof", "noneof"):
        names = [s.strip() for s in _need(args.names, "--names").split(",")]
        f = encodings.build_cardinality(
            "one_of" if kind == "oneof" else "none_of", names)
    else:
        raise UsageError("unknown encode kind %r" % kind)
    return 0, {"formula": render_formula(f),
               "vars": sorted(free_vars(f))}


def cmd_reduce(args):
    if args.what in ("nexptm", "forall-nexptm"):
        ro = _reduction(args, "exists" if args.what == "nexptm" else "forall")
        data = {"v2": _fr_str(ro.payoff[1]), "v1": _fr_str(ro.payoff[0]),
                "k": ro.k, "mode": ro.mode}
        if args.out:
            data["game_file"] = _write(args.out + ".game",
                                       render_game(ro.game))
            _write(args.out + ".vars.json", ro.var_index.to_json())
        else:
            data["game"] = render_game(ro.game)
        if args.emit_witness:
            wp = _witness(ro)
            if wp is None:
                data["witness"] = None
            elif args.out:
                data["witness"] = _write(args.out + ".witness.json",
                                         profile_to_json(wp))
            else:
                data["witness"] = json.loads(profile_to_json(wp))
        return 0, data
    if args.what == "transform":
        if _need(args.kind, "--kind") == "exists-nash-sat":
            m = load_machine(args.machine)
            g2, phi = reductions.transform_exists_nash_sat(
                m, args.input, args.bound)
        else:
            g = load_game(args.game)
            if isinstance(g, NormalForm):
                raise UsageError("transform works on Boolean games")
            kind = args.kind.replace("-", "_")
            if kind == "irrational":
                v = _fr(_need(args.value, "--value"))
            else:
                v = _payoff_pair(args)
            g2, phi = reductions.transform_game(kind, g, v,
                                                namespace=args.namespace)
        data = {"game": render_game(g2)}
        if phi is not None:
            data["phi"] = render_formula(phi)
        return 0, data
    raise UsageError("unknown reduce command %r" % args.what)


class DrawnTrial:
    """One trial of ``draw_trials`` bytes as a read-only assignment: the
    trial starts at byte ``at``, and ``index`` maps each variable to its
    byte in the trial, so no dict is built per trial."""

    __slots__ = ("_draws", "_index", "_at")

    def __init__(self, draws, index, at):
        self._draws, self._index, self._at = draws, index, at

    def __getitem__(self, name):
        return self._draws[self._at + self._index[name]] == 0x31  # b"1"

    def __contains__(self, name):
        return name in self._index


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
    if args.what == "squares":
        ro = _reduction(args, args.mode)
        # all trials in one eval_bits pass: bit r of each mask is trial r,
        # drawn one bit per player-2 variable in var_sets order
        names = ro.game.var_sets[1]
        draws = draw_trials(args.seed, args.trials * len(names))
        index = {v: t for t, v in enumerate(names)}
        oracle = bytes(
            b"01"[reductions.oracle_requires(ro, DrawnTrial(draws, index, r))]
            for r in range(0, len(draws), len(names)))
        masks = dict(zip(names, draw_masks(draws, len(names))))
        said = eval_bits(ro.require, masks, (1 << args.trials) - 1)
        mismatches = (said ^ int(b"0" + oracle[::-1], 2)).bit_count()
        return _decision(mismatches == 0,
                         {"trials": args.trials, "mismatches": mismatches},
                         mode="sampled")
    raise UsageError("unknown verify command %r" % args.what)


# --- argument parsing ---------------------------------------------------------


def _positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, not %d" % n)
    return n


# built on the first run, not at import, and reused: a build costs ~30 parses
@functools.lru_cache(maxsize=None)
def _build_parser():
    top = argparse.ArgumentParser(
        prog="bg", description="Boolean-games toolkit")
    # each shared flag goes only to the verbs that read it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    cells = argparse.ArgumentParser(add_help=False)
    cells.add_argument("--cap-cells", type=int,
                       default=game.DEFAULT_CELL_CAP)
    sweeps = argparse.ArgumentParser(add_help=False)
    sweeps.add_argument(
        "--cap-deviations", type=int, default=game.DEFAULT_DEVIATION_CAP,
        help="work allowed before exit 3: pure deviations per player, "
             "or the --sample size (nash is, verify witness); support pairs "
             "of the collapsed game (nash find, guarantee); square systems "
             "of vertex enumeration, 2(C(m+n, m) - 1) on the collapsed m x n "
             "game (nash unique, irrational, forall-guarantee, sat)")
    sweeps.add_argument("--sample", type=_positive, default=None)
    sweeps.add_argument("--seed", type=int, default=0)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", parents=[common])
    p.add_argument("--game", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("eval", parents=[common])
    p.add_argument("--game")
    p.add_argument("--profile")
    p.add_argument("--formula")
    p.add_argument("--assign")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("normal-form", parents=[common, cells])
    p.add_argument("--game", required=True)
    p.set_defaults(fn=cmd_normal_form)

    p = sub.add_parser("value", parents=[common, cells])
    p.add_argument("--game", required=True)
    p.set_defaults(fn=cmd_value)

    p = sub.add_parser("nash", parents=[common, cells, sweeps])
    p.add_argument("what", choices=(
        "find", "unique", "guarantee", "forall-guarantee", "sat", "is",
        "pure", "irrational"))
    p.add_argument("--game", required=True)
    p.add_argument("--payoffs", help="comma-separated rationals, one per player")
    p.add_argument("--formula")
    p.add_argument("--mode", choices=("exists", "forall"), default="exists")
    p.add_argument("--profile")
    p.add_argument("--zero-sum", action="store_true",
                   help="assert the game is constant-sum (exit 2 if not)")
    p.set_defaults(fn=cmd_nash)

    p = sub.add_parser("gadget", parents=[common, cells])
    p.add_argument("what", choices=("build", "value", "combine"))
    p.add_argument("--value")
    p.add_argument("--kind", choices=("sum", "product", "complement"))
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--namespace", default="g")
    p.set_defaults(fn=cmd_gadget)

    p = sub.add_parser("encode", parents=[common])
    p.add_argument("what", choices=(
        "equal", "succ", "less", "lesseq", "add", "sub", "square",
        "oneof", "noneof"))
    p.add_argument("--width", type=int, default=1)
    p.add_argument("--args", help="comma-separated prefixes or integers")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--names")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("reduce", parents=[common])
    p.add_argument("what", choices=("nexptm", "forall-nexptm", "transform"))
    p.add_argument("--machine")
    p.add_argument("--input", default="")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--emit-witness", action="store_true")
    p.add_argument("--out")
    p.add_argument("--kind", choices=(
        "unique-nash", "forall-nash-sat", "irrational", "exists-nash-sat"))
    p.add_argument("--game")
    p.add_argument("--payoffs")
    p.add_argument("--value")
    p.add_argument("--namespace", default="t")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify", parents=[common, sweeps])
    p.add_argument("what", choices=("witness", "squares", "cover-matrix"))
    p.add_argument("--machine")
    p.add_argument("--input", default="")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--mode", choices=("exists", "forall"), default="exists")
    p.add_argument("--trials", type=_positive, default=10000)
    p.add_argument("--m", type=int, default=2)
    p.set_defaults(fn=cmd_verify)

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
