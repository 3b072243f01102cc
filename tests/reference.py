"""Reference semantics for the formula tests.

A recursive evaluator over Python bools, one case per connective, written
apart from ``boolgames.formula`` (it shares only the AST classes), so the
library's bit-parallel evaluator can be checked against it.
"""

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
