"""The benchmark tracer still sees the work of the reduction verbs.

``perfbench/tracing.py`` records the reduction layer where ``cli`` calls
it: spans on ``cli.reductions`` and ``cli.solver`` (build, simulation,
witness, deviation sweeps) and a count per ``oracle_requires`` call.  A
verb that reached that work some other way would read zero in the
reduction-witness workload's layer numbers, so this runs the verbs under
the tracer and reads them back.
"""

import importlib
import types

from test_reductions import machine_json
from test_tracer_targets import load_tracing

from boolgames.reductions import immediate_acceptor


def test_tracer_sees_the_verify_and_reduce_verbs(tmp_path, capsys):
    tracing = load_tracing()
    bg = types.SimpleNamespace(**{
        m: importlib.import_module("boolgames." + m) for m in tracing.LAYERS})
    machine = tmp_path / "acc.json"
    machine.write_text(machine_json(immediate_acceptor()))
    argvs = [["verify", "squares", "--trials", "50"],
             ["verify", "witness", "--sample", "50"],
             ["reduce", "nexptm", "--emit-witness"]]
    tracer = tracing.Tracer(bg)
    with tracer.installed():
        for argv in argvs:
            assert bg.cli.run(argv + ["--machine", str(machine)]) == 0, argv
    capsys.readouterr()
    got = tracing.layer_metrics(tracer.spans, tracer.counts, len(argvs))
    assert got["reductions.oracle_checks"] == 50
    assert got["solver.deviations"] > 0
    assert got["reductions.build_s"] > 0
    assert got["reductions.witness_s"] > 0
