"""Reference routes for the formula and window-pattern tests.

A recursive evaluator over Python bools, one case per connective, written
apart from ``boolgames.formula`` (it shares only the AST classes), so the
library's bit-parallel evaluator can be checked against it; and the window
patterns generated rule by rule, every schema of each rule in full, for
``reductions.admissible_squares``.
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
from boolgames.reductions import LEFT, RIGHT, SYMBOLS, CellDescriptor


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
