"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench -q

They take a few minutes: every workload is run whole, traced and untraced.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import pytest

import run
import tracing
import workloads

# counts that must repeat exactly between runs with the same seed
EXACT = ("formula.evals", "game.cells", "lp.solves", "lp.tableau_entries",
         "solver.support_pairs", "solver.deviations")


def traced_run(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(workload):
    # separate processes with different string-hash seeds, so that no count
    # may depend on set or dict iteration order
    first = traced_run(workload, 7, 1)
    second = traced_run(workload, 7, 2)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == \
        (second["attempted"], second["failed"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_answers_agree(workload, tmp_path):
    _, bg, units = run.set_up(workload, 11, str(tmp_path))
    tracer = tracing.Tracer(bg)
    runner = run.Runner(bg, units, 11, time.perf_counter(), tracer)
    runner.run_pass(must_finish=True)
    plain = dict(runner.answers)
    with tracer.installed():
        runner.run_pass(traced=True, must_finish=True)
    assert runner.answers == plain
    assert tracer.spans and all(s.end is not None for s in tracer.spans)
    # the tracer put every original back
    assert bg.cli.solver is bg.solver
    assert bg.solver.solve_lp is bg.lp.solve_lp


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(workload, tmp_path):
    def argvs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        units = workloads.WORKLOADS[workload](str(d), random.Random(seed))
        return [q.argv and [a.replace(str(d), "") for a in q.argv]
                for u in units for q in u]

    first = argvs(3, "a")
    assert first == argvs(3, "b")
    assert first != argvs(4, "c")


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(
                open(os.path.join(run.HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(run.ROOT, "BENCHMARK.json"), "rb").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nash-enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
