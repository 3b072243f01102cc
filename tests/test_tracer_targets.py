"""The benchmark tracer's patch targets exist, and it puts them back.

``perfbench/tracing.py`` replaces the program's entry points at their
import sites (``solver.solve_lp``, ``solver.solution_unique``,
``solver.support_pairs``, ``solver.to_normal_form``,
``solver.compile_formula`` and others) while a traced pass runs.  A renamed
or removed target makes every traced benchmark pass fail, so this builds
the module namespace as ``perfbench/run.py`` does, installs the tracer and
checks that every module attribute is restored on exit.
"""

import importlib
import importlib.util
import os
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_attribute():
    tracing = load_tracing()
    bg = types.SimpleNamespace(**{
        m: importlib.import_module("boolgames." + m) for m in tracing.LAYERS})
    before = {m: dict(vars(getattr(bg, m))) for m in tracing.LAYERS}
    with tracing.Tracer(bg).installed():
        patched = {m: sorted(k for k, v in vars(getattr(bg, m)).items()
                             if v is not before[m].get(k))
                   for m in tracing.LAYERS}
    for name in ("solve_lp", "solution_unique", "support_pairs",
                 "to_normal_form", "compile_formula"):
        assert name in patched["solver"]
    for m in tracing.LAYERS:
        after = vars(getattr(bg, m))
        assert after.keys() == before[m].keys(), m
        assert [k for k, v in after.items() if v is not before[m][k]] == [], m
