"""The benchmark tracer still sees the work of the reduction verbs.

``perfbench/tracing.py`` records the reduction layer where ``cli`` calls
it: spans on ``cli.reductions`` and ``cli.solver`` (build, simulation,
witness, deviation sweeps) and a count per ``oracle_requires`` call,
which ``verify squares`` makes only on the trials its screen passes.  A
verb that reached that work some other way would read zero in the
reduction-witness workload's layer numbers, so this runs the verbs under
the tracer and reads them back.
"""

import importlib
import random
import types

from test_reductions import machine_json
from test_tracer_targets import load_tracing
from windows import entries_decode, perturbed_windows, trial_masks

from boolgames.reductions import build_guarantee_game, immediate_acceptor


def test_tracer_sees_the_verify_and_reduce_verbs(tmp_path, monkeypatch,
                                                 capsys):
    tracing = load_tracing()
    bg = types.SimpleNamespace(**{
        m: importlib.import_module("boolgames." + m) for m in tracing.LAYERS})
    machine = tmp_path / "acc.json"
    machine.write_text(machine_json(immediate_acceptor()))
    # the oracle reads only trials whose window entries decode, which
    # uniform draws almost never give: the replayed draws mix a witness's
    # windows, a few bits from them, with uniform trials
    ro = build_guarantee_game(immediate_acceptor(), "", 2)
    rng = random.Random(5)
    names = ro.game.var_sets[1]
    trials = list(perturbed_windows(ro, rng, 25))
    trials += [{v: bool(rng.getrandbits(1)) for v in names}
               for _ in range(25)]
    masks = trial_masks(trials, names)
    monkeypatch.setattr(bg.cli, "draw_masks", lambda *args: masks)
    screened = sum(entries_decode(ro, a) for a in trials)
    assert screened > 0
    argvs = [["verify", "squares", "--trials", str(len(trials))],
             ["verify", "witness", "--sample", "50"],
             ["reduce", "nexptm", "--emit-witness"]]
    tracer = tracing.Tracer(bg)
    with tracer.installed():
        for argv in argvs:
            assert bg.cli.run(argv + ["--machine", str(machine)]) == 0, argv
    capsys.readouterr()
    got = tracing.layer_metrics(tracer.spans, tracer.counts, len(argvs))
    assert got["reductions.oracle_checks"] == screened
    assert got["solver.deviations"] > 0
    assert got["reductions.build_s"] > 0
    assert got["reductions.witness_s"] > 0
