"""Reference routes for the formula and window-pattern tests.

A recursive evaluator over Python bools, one case per connective, written
apart from ``boolgames.formula`` (it shares only the AST classes), so the
library's bit-parallel evaluator can be checked against it; and the window
patterns generated rule by rule, every schema of each rule in full, for
``reductions.admissible_squares``; and the run search as a recursive
depth-first search down to the last row, for ``reductions.simulate_tm``.
"""

import itertools

from boolgames.formula import (
    And,
    ConstFalse,
    ConstTrue,
    Iff,
    Implies,
    Not,
    Or,
    Var,
)
from boolgames.game import ResourceCapError
from boolgames.reductions import (DEFAULT_NODE_CAP, LEFT, RIGHT, SYMBOLS,
                                  CellDescriptor, ReductionError, _check_word)


def truth(f, assignment):
    """The value of ``f`` under ``assignment`` (name -> bool)."""
    if isinstance(f, ConstTrue):
        return True
    if isinstance(f, ConstFalse):
        return False
    if isinstance(f, Var):
        return bool(assignment[f.name])
    if isinstance(f, Not):
        return not truth(f.child, assignment)
    if isinstance(f, And):
        return all([truth(c, assignment) for c in f.children])
    if isinstance(f, Or):
        return any([truth(c, assignment) for c in f.children])
    if isinstance(f, Implies):
        return not truth(f.left, assignment) or truth(f.right, assignment)
    if isinstance(f, Iff):
        return truth(f.left, assignment) == truth(f.right, assignment)
    raise TypeError("not a formula node: %r" % (f,))


def first_occurrences(f, out=None):
    """The variable names of ``f`` in order of first occurrence, left to
    right, by plain recursion."""
    out = [] if out is None else out
    if isinstance(f, Var):
        if f.name not in out:
            out.append(f.name)
    elif isinstance(f, Not):
        first_occurrences(f.child, out)
    elif isinstance(f, (And, Or)):
        for c in f.children:
            first_occurrences(c, out)
    elif isinstance(f, (Implies, Iff)):
        first_occurrences(f.left, out)
        first_occurrences(f.right, out)
    return out


def rule_patterns(m):
    """The (tl, tr, bl, br) window patterns of machine ``m``: for each
    transition rule, each head-position schema expanded over all tape
    symbols, the schemata that do not depend on the rule included."""
    d = CellDescriptor
    pats = set()
    for t in m.transitions:
        qx, a, b, qy = t.frm, t.read, t.write, t.to
        for z in SYMBOLS:
            # head on the left column, reading a
            if t.move == "L":
                pats.add((d(a, qx), d(z, LEFT), d(b, LEFT), d(z, LEFT)))
                pats.add((d(a, qx), d(z, LEFT), d(b, qy), d(z, LEFT)))
            else:
                pats.add((d(a, qx), d(z, LEFT), d(b, RIGHT), d(z, qy)))
        for y in SYMBOLS:
            # head on the right column
            if t.move == "L":
                pats.add((d(y, RIGHT), d(a, qx), d(y, qy), d(b, LEFT)))
            else:
                pats.add((d(y, RIGHT), d(a, qx), d(y, RIGHT), d(b, RIGHT)))
        for y, z in itertools.product(SYMBOLS, SYMBOLS):
            # head outside to the left: contents copy down
            pats.add((d(y, LEFT), d(z, LEFT), d(y, LEFT), d(z, LEFT)))
            if t.move == "R":
                pats.add((d(y, LEFT), d(z, LEFT), d(y, qy), d(z, LEFT)))
            # head outside to the right
            pats.add((d(y, RIGHT), d(z, RIGHT), d(y, RIGHT), d(z, RIGHT)))
            if t.move == "L":
                pats.add((d(y, RIGHT), d(z, RIGHT), d(y, RIGHT), d(z, qy)))
    return pats


def simulate_dfs(m, word, steps, width, accept_row=None):
    """``reductions.simulate_tm`` by recursion: every branch is followed to
    row ``steps - 1``, copying the row list at each step, and a full run is
    accepting iff its row ``accept_row`` has the accept state on cell 0."""
    if steps < 1 or width < 1:
        raise ReductionError("table dimensions must be positive")
    if steps * width > DEFAULT_NODE_CAP:
        raise ResourceCapError("table of %d cells exceeds cap %d"
                               % (steps * width, DEFAULT_NODE_CAP))
    if accept_row is None:
        accept_row = steps - 1
    if not 0 <= accept_row < steps:
        raise ReductionError("accept row out of range")
    _check_word(word)
    if len(word) > width:
        return None
    tape = tuple(word[j] if j < len(word) else "_" for j in range(width))
    budget = [DEFAULT_NODE_CAP]

    def ok(rows):
        tape_, pos, state = rows[accept_row]
        return state == m.accept and pos == 0

    def dfs(rows):
        if budget[0] <= 0:
            raise ResourceCapError("simulation node cap exceeded")
        budget[0] -= 1
        if len(rows) == steps:
            return rows if ok(rows) else None
        tape_, pos, state = rows[-1]
        for t in m.transitions:
            if t.frm != state or t.read != tape_[pos]:
                continue
            new_tape = tape_[:pos] + (t.write,) + tape_[pos + 1:]
            if t.move == "L":
                new_pos = max(pos - 1, 0)
            else:
                new_pos = pos + 1
                if new_pos >= width:
                    continue
            found = dfs(rows + [(new_tape, new_pos, t.to)])
            if found is not None:
                return found
        return None

    run = dfs([(tape, 0, m.start)])
    if run is None:
        return None
    table = []
    for tape_, pos, state in run:
        row = []
        for j in range(width):
            if j == pos:
                head = state
            elif pos < j:
                head = LEFT
            else:
                head = RIGHT
            row.append(CellDescriptor(tape_[j], head))
        table.append(row)
    return table
