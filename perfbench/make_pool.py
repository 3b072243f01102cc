"""Regenerate ``pool.json``: the committed games whose answers have no
independent route (general-sum ``unique``/``irrational``/``forall-guarantee``
and Boolean-game ``nash sat``), with the answers the program gives.

The pool is drawn from a fixed seed.  The benchmark permutes, renames and
subsamples it per run seed; these answers are invariant under that.  Where
the benchmark's own pure-equilibrium count decides an answer (two or more
pure equilibria rule out uniqueness), the recorded answer is checked
against it here.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

POOL_SEED = 20170213
# (rows, cols, kind, how many)
NORMAL_FORMS = [(2, 2, "generic", 6), (2, 2, "winlose", 6),
                (2, 3, "generic", 4), (2, 3, "winlose", 4),
                (3, 3, "generic", 4), (3, 3, "winlose", 4),
                (3, 4, "winlose", 2), (4, 4, "winlose", 1)]
BOOLEAN_GAMES = 8


def random_matrix(rng, m, n, top):
    return [[rng.randint(0, top) for _ in range(n)] for _ in range(m)]


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        f = ["var", rng.choice(names)]
        return ["not", f] if rng.random() < 0.3 else f
    op = rng.choice(("and", "or", "imp", "iff", "not"))
    if op == "not":
        return ["not", random_formula(rng, names, depth - 1)]
    return [op, random_formula(rng, names, depth - 1),
            random_formula(rng, names, depth - 1)]


def main():
    from boolgames import solver
    from boolgames.formula import parse_formula
    from boolgames.game import BooleanGame, NormalForm

    rng = random.Random(POOL_SEED)
    pool = {"normal_forms": [], "boolean_games": []}
    for m, n, kind, count in NORMAL_FORMS:
        top = 9 if kind == "generic" else 1
        for _ in range(count):
            a, b = random_matrix(rng, m, n, top), random_matrix(rng, m, n, top)
            v = [rng.randint(0, top), rng.randint(0, top)]
            nf = NormalForm([a, b])
            entry = {
                "payoffs": [a, b], "forall_v": v,
                "unique": solver.unique_nash(nf),
                "irrational": solver.irrational_nash(nf),
                "forall": solver.forall_guarantee_nash(nf, v),
            }
            pure = checks.pure_equilibria(a, b)
            if entry["unique"] and (len(pure) >= 2 or entry["irrational"]):
                raise SystemExit("unique answer contradicts the others")
            pool["normal_forms"].append(entry)
    names = ["x1", "x2", "y1", "y2"]
    var_sets = [["x1", "x2"], ["y1", "y2"]]
    for _ in range(BOOLEAN_GAMES):
        goals = [random_formula(rng, names, 3) for _ in range(2)]
        phi = random_formula(rng, names, 2)
        g = BooleanGame(var_sets, [parse_formula(checks.render(f))
                                   for f in goals])
        parsed_phi = parse_formula(checks.render(phi))
        pool["boolean_games"].append({
            "vars": var_sets, "goals": goals, "phi": phi,
            "sat_exists": solver.nash_sat(g, parsed_phi, "exists"),
            "sat_forall": solver.nash_sat(g, parsed_phi, "forall"),
        })
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "pool.json")
    with open(path, "w") as fh:
        fh.write("{\n")
        for n, (key, entries) in enumerate(pool.items()):
            fh.write(' "%s": [\n  ' % key)
            fh.write(",\n  ".join(json.dumps(e) for e in entries))
            fh.write("\n ]%s\n" % ("," if n + 1 < len(pool) else ""))
        fh.write("}\n")
    print("wrote %s" % path, file=sys.stderr)


if __name__ == "__main__":
    main()
