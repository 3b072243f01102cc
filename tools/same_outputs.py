"""Compare two source trees on every query of the benchmark's workloads.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC --seeds 3 7 11
        [--workloads NAME ...]

Each tree is a directory that holds the ``boolgames`` package (a
checkout's ``src``), or a checkout whose ``src`` holds it.  For every
workload and seed, each tree runs in its own subprocess: it imports that
tree's ``boolgames`` and runs every query of this checkout's
``perfbench/workloads.py`` once, so both trees answer the same queries.
Units run in generated order, in one fixed temporary work directory that
is emptied before each run, so the paths in the answers agree.  A query
with ``emit`` writes that field of its answer to its file, and a library
(``fn``) query gets the ``lib`` namespace that ``perfbench/run.py`` builds;
its answer is printed as sorted JSON.

Every query whose exit code, stdout or stderr differs is reported, and so
is every file left in the work directory whose sha256 differs (the inputs,
the ``.game``, ``.vars.json`` and ``.witness.json`` files).  The exit code
is 1 if anything differs, else 0.  Both subprocesses run with
PYTHONHASHSEED=0, so that set order cannot differ between them, and write
no bytecode: nothing is written into either tree or this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("gadget-algebra", "nash-enum", "reduction-witness")


def package_root(tree):
    """The directory of ``tree`` that holds the ``boolgames`` package."""
    for d in (tree, os.path.join(tree, "src")):
        if os.path.isfile(os.path.join(d, "boolgames", "__init__.py")):
            return os.path.abspath(d)
    raise SystemExit("error: no boolgames package in %s or %s/src"
                     % (tree, tree))


def run_tree(src, workload, seed, workdir):
    """Run every query of ``workload`` at ``seed`` on the ``boolgames`` of
    ``src``; print one JSON object: each query's (qid, code, stdout,
    stderr) and each work-directory file's sha256."""
    sys.path[:0] = [src, PERFBENCH]
    import workloads
    from boolgames import cli
    if not cli.__file__.startswith(src + os.sep):
        raise SystemExit("error: imported %s, not from %s" % (cli.__file__,
                                                             src))
    lib = types.SimpleNamespace(reductions=cli.reductions,
                                compile_formula=cli.compile_formula)
    units = workloads.WORKLOADS[workload](workdir, random.Random(seed))
    queries = []
    for q in (q for unit in units for q in unit):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if q.fn is not None:
                    code, data = q.fn(lib)
                    print(json.dumps(data, sort_keys=True))
                else:
                    code = cli.run(q.argv)
            except Exception as exc:  # an answer like any other
                code = "uncaught %s: %s" % (type(exc).__name__, exc)
        text = out.getvalue()
        if q.emit is not None and q.fn is None and text.strip():
            data = json.loads(text)
            if q.emit[0] in data:
                with open(q.emit[1], "w") as fh:
                    fh.write(data[q.emit[0]])
        queries.append([q.qid, code, text, err.getvalue()])
    files = {}
    for here, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(here, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, workdir)] = hashlib.sha256(
                    fh.read()).hexdigest()
    json.dump({"queries": queries, "files": files}, sys.__stdout__)


def outputs(src, workload, seed, workdir):
    """``run_tree`` in a fresh interpreter, in an emptied ``workdir``."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src, workload,
         str(seed), workdir], capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit("error: %s on %s, seed %d, exited %d:\n%s"
                         % (src, workload, seed, proc.returncode,
                            proc.stderr))
    return json.loads(proc.stdout)


def _diff(a, b):
    lines = difflib.unified_diff(a.splitlines(), b.splitlines(), "parent",
                                 "change", lineterm="", n=0)
    return "\n".join("      " + line for line in list(lines)[:12])


def compare(parent, change, label):
    """The lines that report each difference between two runs' outputs."""
    report = []
    qa, qb = parent["queries"], change["queries"]
    if [q[0] for q in qa] != [q[0] for q in qb]:
        return ["%s: the trees ran different queries" % label]
    for n, (a, b) in enumerate(zip(qa, qb)):
        qid = a[0]
        if a[1] != b[1]:
            report.append("%s #%d %s: exit %s, now %s" % (label, n, qid, a[1],
                                                         b[1]))
        for i, stream in ((2, "stdout"), (3, "stderr")):
            if a[i] != b[i]:
                report.append("%s #%d %s: %s differs\n%s"
                              % (label, n, qid, stream, _diff(a[i], b[i])))
    fa, fb = parent["files"], change["files"]
    for name in sorted(set(fa) | set(fb)):
        if fa.get(name) != fb.get(name):
            report.append("%s file %s: sha256 %s, now %s"
                          % (label, name, fa.get(name), fb.get(name)))
    return report


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        src, workload, seed, workdir = argv[1:]
        run_tree(src, workload, int(seed), workdir)
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", metavar="PARENT_SRC")
    p.add_argument("change", metavar="CHANGE_SRC")
    p.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 11])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS))
    args = p.parse_args(argv)
    trees = [package_root(args.parent), package_root(args.change)]
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = os.path.join(tmp, "work")
        for workload in args.workloads:
            for seed in args.seeds:
                label = "%s seed %d" % (workload, seed)
                parent, change = (outputs(t, workload, seed, workdir)
                                  for t in trees)
                report = compare(parent, change, label)
                for line in report:
                    print(line)
                differences += len(report)
                print("%s: %d queries, %d files, %d differences"
                      % (label, len(parent["queries"]), len(parent["files"]),
                         len(report)), file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
