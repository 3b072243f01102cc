"""The boolgames benchmark: one workload of ``bg`` queries, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One query is in flight at a time; each is a
``bg`` argv run in-process through ``boolgames.cli.run`` with stdout
captured and parsed, so the CLI layer is on the path exactly as for users.
Set-up (importing the program and writing the seed's input files) is
repeated and its median reported.  Then whole passes over the workload's
queries run until S seconds are used, at least one pass (two when traced);
every answer is checked.  ``attempted`` and ``failed`` count distinct
queries, so they do not depend on how many passes fit.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and it carries
the per-layer metrics of the traced passes (see tracing.py).  Spans of the
traced passes are written to ``.perfbench/trace-<workload>-<seed>.jsonl``.
Times are scaled to a fixed machine speed measured by ``probe()`` during
the run (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
MODULES = tracing.LAYERS
# Times are scaled to a machine on which probe() takes REFERENCE_S: the
# probe runs at the start of each pass and every PROBE_EVERY_S between
# units, and the pass's times are multiplied by REFERENCE_S / (median probe
# time of the pass).  On a shared host the speed of a whole 40 s run drifts
# by 20% and more; the probe drifts with it, the program cannot touch it.
REFERENCE_S = 0.015
PROBE_EVERY_S = 0.5


_PROBE_NAMES = ["v%d" % i for i in range(10)]


def probe():
    """Time a fixed pure-Python job of the kinds of work the program does:
    exact Fraction sums, and dicts of Booleans built, merged and read.  The
    collector is paused so that the program's heap does not change it."""
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 2001):
            acc += Fraction(i % 7, i % 11 + 1)
        hits = 0
        for k in range(1500):
            d = dict(zip(_PROBE_NAMES,
                         [(k >> i) & 1 == 1 for i in range(10)]))
            merged = dict(d)
            merged["w"] = k % 3 == 0
            hits += (merged["v1"] and not merged["v3"]) or merged["w"]
        return time.perf_counter() - t0
    finally:
        if paused:
            gc.enable()


def import_program():
    """Import boolgames afresh (module code runs again each time)."""
    for name in [n for n in sys.modules
                 if n == "boolgames" or n.startswith("boolgames.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module("boolgames." + m) for m in MODULES})


def set_up(workload, seed, work_root):
    """Median set-up time (scaled by probes taken between the repeats), the
    program's modules and the workload's units."""
    times, probes = [], []
    for rep in range(SETUP_REPEATS):
        workdir = os.path.join(work_root, "inputs%d" % rep)
        shutil.rmtree(workdir, ignore_errors=True)
        probes.append(probe())
        t0 = time.perf_counter()
        os.makedirs(workdir)
        bg = import_program()
        units = workloads.WORKLOADS[workload](workdir, random.Random(seed))
        times.append(time.perf_counter() - t0)
    scale = REFERENCE_S / statistics.median(probes)
    return statistics.median(times) * scale, bg, units


class Pass:
    """Outcome of one pass: unscaled wall time and unit latencies, and the
    factor that scales them to the reference speed."""

    def __init__(self, wall, latencies, probes, complete):
        self.wall = wall
        self.latencies = latencies
        self.scale = REFERENCE_S / statistics.median(probes)
        self.complete = complete


class Runner:
    """Runs passes, keeps their outcomes, the latest answers and the
    failures."""

    def __init__(self, bg, units, seed, deadline, tracer=None):
        self.bg = bg
        self.units = units
        self.order = random.Random("order-%d" % seed)
        self.deadline = deadline
        self.tracer = tracer
        self.passes = []
        self.answers = {}
        self.failures = {}        # query id -> reason, latest failure
        self.checked = set()      # query ids checked at least once
        self.executions = 0       # every execution, for the stderr summary
        self.wrong = 0

    def execute(self, q, traced):
        out = io.StringIO()
        bg = self.bg
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                if q.fn is not None:
                    lib = types.SimpleNamespace(
                        reductions=bg.cli.reductions,
                        compile_formula=bg.cli.compile_formula)
                    code, data = q.fn(lib)
                elif traced:
                    code = self.tracer.call("cli", "cli.run", bg.cli.run,
                                            q.argv)
                else:
                    code = bg.cli.run(q.argv)
            latency = time.perf_counter() - t0
            if q.fn is None:
                text = out.getvalue()
                data = json.loads(text) if text.strip() else {}
        except Exception as exc:  # a crash is a failed query, not a crash
            latency = time.perf_counter() - t0
            code, data = -1, {"error": repr(exc)}
        if q.emit is not None and q.emit[0] in data:
            with open(q.emit[1], "w") as fh:
                fh.write(data[q.emit[0]])
        return latency, code, data

    def run_pass(self, traced=False, must_finish=False):
        """One pass in a fresh seeded order, stopped at the deadline unless
        it must finish; returns its Pass."""
        units = list(self.units)
        self.order.shuffle(units)
        done, latencies = [], []
        probes = [probe()]
        last_probe = t0 = time.perf_counter()
        probing = 0.0
        cut = False
        for unit in units:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                p0 = time.perf_counter()
                probes.append(probe())
                last_probe = time.perf_counter()
                probing += last_probe - p0
            if not must_finish and time.perf_counter() >= self.deadline:
                cut = True
                break
            # a unit's queries answer one question together (the value of
            # a combined gadget game): their latencies are one sample
            unit_latency = 0.0
            for q in unit:
                if traced:
                    self.tracer.qid = q.qid
                latency, code, data = self.execute(q, traced)
                unit_latency += latency
                self.answers[q.qid] = (code, data)
                done.append(q)
            latencies.append(unit_latency)
        wall = time.perf_counter() - t0 - probing
        for q in done:
            self.checked.add(q.qid)
            self.executions += 1
            code, data = self.answers[q.qid]
            why = "exit %d, no result" % code if code not in (0, 1) else None
            if why is None:
                try:
                    why = q.check(data, code, self.answers)
                except (KeyError, TypeError, ValueError,
                        ZeroDivisionError) as e:
                    why = "unreadable answer: %r" % (e,)
            if why:
                self.wrong += 1
                self.failures[q.qid] = why
        self.passes.append(Pass(wall, latencies, probes, not cut))
        return self.passes[-1]

    @property
    def attempted(self):
        """Distinct queries checked: every run finishes a whole pass, so
        this is the workload's query count, however many passes fit."""
        return len(self.checked)

    @property
    def failed(self):
        """Distinct queries answered wrongly in at least one execution."""
        return len(self.failures)

    def queries_per_pass(self):
        return sum(len(u) for u in self.units)


def src_lines():
    out = {}
    for m in MODULES:
        with open(os.path.join(ROOT, "src", "boolgames", m + ".py")) as fh:
            out["%s.src_lines" % m] = sum(1 for _ in fh)
    return out


def measure(runner):
    """End-to-end metrics of an untraced run."""
    runner.run_pass(must_finish=True)
    while time.perf_counter() < runner.deadline:
        runner.run_pass()
    walls = [p.wall * p.scale for p in runner.passes if p.complete]
    lat = [x * p.scale for p in runner.passes for x in p.latencies]
    print("%d latency samples, %d whole passes" % (len(lat), len(walls)),
          file=sys.stderr)
    return {
        "wall_s": statistics.median(walls),
        "query_p50_s": statistics.median(lat),
        "query_p90_s": statistics.quantiles(lat, n=10)[-1],
    }


def measure_traced(runner, tracer, spans_path, spec):
    """Per-layer metrics: untraced and traced passes alternate; each traced
    pass's times are scaled like an untraced pass's."""
    units = {m["name"]: m["unit"] for m in spec}
    plain, layers, counts = [], [], []
    n = 0
    while n < 2 or time.perf_counter() < runner.deadline:
        if n % 2 == 0:
            p = runner.run_pass(must_finish=n < 2)
            if p.complete:
                plain.append(p.wall * p.scale)
        else:
            first_span = len(tracer.spans)
            before = tracer.counts.copy()
            with tracer.installed():
                p = runner.run_pass(traced=True, must_finish=n < 2)
            if p.complete:
                c = tracer.counts - before
                counts.append(c)
                d = tracing.layer_metrics(tracer.spans[first_span:], c,
                                          runner.queries_per_pass())
                d["trace.wall_s"] = p.wall
                d["trace.unattributed_s"] = p.wall - sum(
                    d["%s.self_s" % m] for m in MODULES)
                for key in d:
                    if units.get(key) == "s":
                        d[key] *= p.scale
                    elif units.get(key) == "1/s":
                        d[key] /= p.scale
                layers.append(d)
        n += 1
    if any(c != counts[0] for c in counts):
        print("warning: counts differ between traced passes", file=sys.stderr)
    out = {}
    for key in layers[0]:
        values = [d[key] for d in layers]
        out[key] = values[0] if isinstance(values[0], int) else \
            statistics.median(values)
    out.update({
        "trace.untraced_wall_s": statistics.median(plain),
        "trace.overhead_s": out["trace.wall_s"] - statistics.median(plain),
        "trace.queries": runner.queries_per_pass(),
    })
    out.update(src_lines())
    with open(spans_path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.as_json()) + "\n")
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "boolgames")):
        print("error: no src/boolgames under %s" % ROOT, file=sys.stderr)
        return 2
    spec = load_spec()
    work_root = os.path.join(ROOT, ".perfbench", "work-%d" % os.getpid())
    with open(os.path.join(HERE, "known_defects.json")) as fh:
        known = json.load(fh).get(args.workload, {})
    try:
        setup_s, bg, units = set_up(args.workload, args.seed, work_root)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            tracer = tracing.Tracer(bg)
            runner = Runner(bg, units, args.seed, deadline, tracer)
            wanted = spec["per_layer"]
            values = measure_traced(runner, tracer, os.path.join(
                ROOT, ".perfbench",
                "trace-%s-%d.jsonl" % (args.workload, args.seed)), wanted)
        else:
            runner = Runner(bg, units, args.seed, deadline)
            values = measure(runner)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    # a failure leaves the run correct only in the exact, documented form
    # of a known defect; it is still counted in "failed"
    unexpected = {q: why for q, why in runner.failures.items()
                  if known.get(q, {}).get("reason") != why}
    for q, why in sorted(runner.failures.items()):
        print("FAILED %s: %s%s" % (q, why, "" if q in unexpected
                                   else " (known defect)"), file=sys.stderr)
    print("%d executions, %d answered wrongly" % (runner.executions,
                                                  runner.wrong),
          file=sys.stderr)
    print("times scaled to the reference speed by %s" % ", ".join(
        "%.3f" % p.scale for p in runner.passes), file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
