"""Span tracing for the benchmark, recorded from the benchmark's own code.

The program is not edited.  While a traced pass runs, each layer's public
entry points are replaced at their import sites (the module globals the
callers look up) by wrappers that record a span: name, layer, start, end,
parent span and query id.  Hot inner calls that would cost more to span
than they do to run (compiled-formula evaluations, support pairs) are
counted instead.  ``Tracer.installed()`` restores every original on exit,
so untraced passes run the program exactly as users do.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import time
import types

LAYERS = ("cli", "formula", "encodings", "game", "lp", "solver", "gadgets",
          "reductions")


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "qid",
                 "child_s")

    def __init__(self, sid, name, layer, start, parent, qid):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.qid = qid
        self.child_s = 0.0

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s

    def as_json(self):
        return {"id": self.sid, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                "query": self.qid}


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self, bg):
        self.bg = bg                      # namespace of boolgames modules
        self.spans = []
        self.counts = collections.Counter()
        self.qid = None
        self._stack = []
        self._patches = []

    # --- recording -----------------------------------------------------------

    def call(self, layer, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(),
                    parent.sid if parent else None, self.qid)
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.dur

    def wrap(self, layer, name, fn, before=None, after=None):
        """``fn`` recording a span; ``before(args, kwargs)`` and
        ``after(result, args, kwargs)`` update counters outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            out = self.call(layer, name, fn, *args, **kwargs)
            if after is not None:
                out = after(out, args, kwargs)
            return out

        return wrapper

    def proxy(self, module, layer, hooks=None):
        """Stand-in for ``module`` whose functions record spans on call."""
        hooks = hooks or {}
        attrs = {}
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                before, after = hooks.get(attr, (None, None))
                obj = self.wrap(layer, "%s.%s" % (layer, attr), obj,
                                before, after)
            attrs[attr] = obj
        return types.SimpleNamespace(**attrs)

    # --- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        bg = self.bg
        count = self.counts
        formula_size = bg.formula.formula_size
        free_vars = bg.formula.free_vars

        # formula: parse, compile (and every call of the compiled callable)
        parse = self.wrap("formula", "formula.parse", bg.formula.parse_formula)
        render = self.wrap("formula", "formula.render",
                           bg.formula.render_formula)

        def compiled(fn, args, kwargs):
            count["formula.compile_calls"] += 1
            count["formula.goal_nodes"] += formula_size(args[0])
            raw = fn.raw

            def call(assignment):
                count["formula.evals"] += 1
                return fn(assignment)

            def counted_raw(*values):
                count["formula.evals"] += 1
                return raw(*values)

            call.keys = fn.keys
            call.raw = counted_raw
            return call

        compile_ = self.wrap("formula", "formula.compile",
                             bg.formula.compile_formula, after=compiled)
        for mod in (bg.cli, bg.game):
            self._patch(mod, "parse_formula", parse)
            self._patch(mod, "render_formula", render)
        for mod in (bg.cli, bg.game, bg.solver):
            self._patch(mod, "compile_formula", compile_)

        # encodings: the formula builders, where gadgets and reductions
        # import them
        def built(args, kwargs):
            count["encodings.calls"] += 1

        for mod in (bg.gadgets, bg.reductions):
            for attr in ("build_comparison", "build_arithmetic",
                         "build_cardinality"):
                if hasattr(mod, attr):
                    self._patch(mod, attr, self.wrap(
                        "encodings", "encodings." + attr,
                        getattr(bg.encodings, attr), before=built))
        self._patch(bg.cli, "encodings", self.proxy(
            bg.encodings, "encodings",
            {a: (built, None) for a in ("build_comparison", "build_arithmetic",
                                        "build_square", "build_cardinality")}))

        # game: expansion, expected utility, file formats
        def expanded(nf, args, kwargs):
            count["game.expand_calls"] += 1
            cells = 1
            for s in nf.shape:
                cells *= s
            count["game.cells"] += cells
            return nf

        def eu(args, kwargs):
            count["game.eu_calls"] += 1

        self._patch(bg.solver, "to_normal_form", self.wrap(
            "game", "game.expand", bg.game.to_normal_form, after=expanded))
        self._patch(bg.cli, "game", self.proxy(
            bg.game, "game", {"expected_utility": (eu, None)}))
        for attr in ("parse_game", "render_game", "profile_from_json",
                     "profile_to_json"):
            self._patch(bg.cli, attr, self.wrap(
                "game", "game." + attr, getattr(bg.game, attr)))

        # lp: every simplex run, including those inside solution_unique
        def solving(args, kwargs):
            lp = args[0]
            count["lp.solves"] += 1
            cols = len(lp.variables)
            cols += sum(1 for v in lp.variables if not lp.nonneg[v])
            cols += sum(1 for _, rel, _ in lp.constraints if rel != "=")
            count["lp.tableau_entries"] += len(lp.constraints) * cols

        def solved(out, args, kwargs):
            if isinstance(out, bg.lp.Optimal):
                count["lp.optimal"] += 1
            return out

        solve = self.wrap("lp", "lp.solve", bg.lp.solve_lp, solving, solved)
        self._patch(bg.solver, "solve_lp", solve)
        self._patch(bg.lp, "solve_lp", solve)
        self._patch(bg.solver, "solution_unique", self.wrap(
            "lp", "lp.solution_unique", bg.lp.solution_unique))

        # solver: as cli calls it; support pairs and deviations are counted
        support_pairs = bg.solver.support_pairs

        def counted_pairs(*args, **kwargs):
            for pair in support_pairs(*args, **kwargs):
                count["solver.support_pairs"] += 1
                yield pair

        def sweep(args, kwargs):
            g, _, i = args[:3]
            sample = kwargs.get("sample")
            if sample:
                count["solver.deviations"] += sample
            else:
                used = free_vars(g.goals[i]) & set(g.var_sets[i])
                count["solver.deviations"] += 1 << len(used)

        self._patch(bg.solver, "support_pairs", counted_pairs)
        self._patch(bg.cli, "solver", self.proxy(
            bg.solver, "solver", {"best_deviation_gain": (sweep, None)}))

        # gadgets: as cli and reductions call them
        self._patch(bg.cli, "gadgets", self.proxy(bg.gadgets, "gadgets"))
        self._patch(bg.reductions, "fixed_value_game", self.wrap(
            "gadgets", "gadgets.fixed_value_game",
            bg.gadgets.fixed_value_game))

        # reductions: as cli calls them
        def reduction_built(ro, args, kwargs):
            count["reductions.goal_nodes"] += sum(
                formula_size(goal) for goal in ro.game.goals)
            return ro

        def oracle(args, kwargs):
            count["reductions.oracle_checks"] += 1

        self._patch(bg.cli, "reductions", self.proxy(
            bg.reductions, "reductions",
            {"build_guarantee_game": (None, reduction_built),
             "build_forall_guarantee_game": (None, reduction_built),
             "oracle_requires": (oracle, None)}))
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


def layer_metrics(spans, counts, queries):
    """Per-layer numbers of one pass from its spans and counters."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    incl = collections.Counter()
    for s in spans:
        self_s[s.layer] += s.self_s
        incl[s.name] += s.dur

    def total(*names):
        return sum((incl[n] for n in names), 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {"%s.self_s" % layer: self_s[layer] for layer in LAYERS}
    expand_s = total("game.expand")
    sweep_s = total("solver.best_deviation_gain")
    solves = counts["lp.solves"]
    out.update({
        "formula.parse_s": total("formula.parse"),
        "formula.compile_s": total("formula.compile"),
        "formula.compile_calls": counts["formula.compile_calls"],
        "formula.goal_nodes": counts["formula.goal_nodes"],
        "formula.evals": counts["formula.evals"],
        "encodings.calls": counts["encodings.calls"],
        "encodings.build_s": _outermost(spans, "encodings"),
        "game.expand_calls": counts["game.expand_calls"],
        "game.cells": counts["game.cells"],
        "game.expand_s": expand_s,
        "game.cells_per_s": ratio(counts["game.cells"], expand_s),
        "game.eu_calls": counts["game.eu_calls"],
        "game.eu_s": total("game.expected_utility"),
        "lp.solves": solves,
        "lp.solve_s": total("lp.solve"),
        "lp.optimal_frac": ratio(counts["lp.optimal"], solves),
        "lp.tableau_entries": counts["lp.tableau_entries"],
        "lp.solves_per_query": ratio(solves, queries),
        "solver.support_pairs": counts["solver.support_pairs"],
        "solver.deviations": counts["solver.deviations"],
        "solver.sweep_s": sweep_s,
        "solver.deviations_per_s": ratio(counts["solver.deviations"],
                                         sweep_s),
        "gadgets.build_s": _outermost(spans, "gadgets"),
        "reductions.build_s": total(
            "reductions.build_guarantee_game",
            "reductions.build_forall_guarantee_game"),
        "reductions.goal_nodes": counts["reductions.goal_nodes"],
        "reductions.witness_s": total("reductions.simulate_tm",
                                      "reductions.witness_profile"),
        "reductions.oracle_checks": counts["reductions.oracle_checks"],
        "reductions.oracle_s": total("reductions.oracle_requires"),
    })
    return out


def _outermost(spans, layer):
    """Time in ``layer``'s spans that have no ancestor in the same layer."""
    by_id = {s.sid: s for s in spans}
    t = 0.0
    for s in spans:
        if s.layer != layer:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.layer != layer:
            p = by_id.get(p.parent)
        if p is None:
            t += s.dur
    return t
