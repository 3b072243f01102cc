"""Propositional formulas: AST, parser, renderer, evaluation.

One evaluator, ``eval_bits``, walks the tree over Python-int masks, one bit
per assignment; ``eval_formula`` and ``compile_formula`` call it with one
assignment (masks 0/1, ``full = 1``).

Variables are plain strings (letters, digits, underscore, dot; not starting
with a digit).  Connective precedence, tightest first: ~  &  |  ->  <->.
"->" associates to the right, "<->" to the left; "&" and "|" parse into
n-ary And/Or nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class FormulaError(Exception):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


class MissingVariableError(FormulaError):
    def __init__(self, name):
        super().__init__("unbound variable: %s" % name)
        self.name = name


class RenameError(FormulaError):
    pass


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class ConstTrue:
    pass


@dataclass(frozen=True)
class ConstFalse:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple  # length >= 2

    def __post_init__(self):
        if len(self.children) < 2:
            raise FormulaError("And requires at least two children")


@dataclass(frozen=True)
class Or:
    children: tuple  # length >= 2

    def __post_init__(self):
        if len(self.children) < 2:
            raise FormulaError("Or requires at least two children")


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = object  # any of the node classes above

TRUE = ConstTrue()
FALSE = ConstFalse()

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def is_valid_var(name):
    m = _IDENT_RE.match(name)
    return bool(m) and m.end() == len(name) and name not in ("T", "F")


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(<->|->|[~&|()]|[A-Za-z_][A-Za-z0-9_.]*)")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []  # (token, line, col)
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                col += 1
                i += 1
                continue
            m = _TOKEN_RE.match(text, i)
            if not m or m.start(1) != i:
                raise FormulaSyntaxError("unexpected character %r" % ch, line, col)
            tok = m.group(1)
            self.tokens.append((tok, line, col))
            col += len(tok)
            i = m.end(1)
        # trailing EOF marker for error reporting
        self.tokens.append((None, line, col))
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx][0]

    def next(self):
        tok = self.tokens[self.idx]
        if tok[0] is not None:
            self.idx += 1
        return tok

    def error(self, message):
        _, line, col = self.tokens[self.idx]
        raise FormulaSyntaxError(message, line, col)


def parse_formula(text):
    """Parse ``text`` into a Formula AST."""
    ts = _Tokens(text)
    try:
        f = _parse_iff(ts)
    except RecursionError:
        raise FormulaError("formula nested too deeply") from None
    if ts.peek() is not None:
        ts.error("unexpected token %r" % ts.peek())
    return f


def _parse_iff(ts):
    f = _parse_imp(ts)
    while ts.peek() == "<->":
        ts.next()
        f = Iff(f, _parse_imp(ts))
    return f


def _parse_imp(ts):
    f = _parse_or(ts)
    if ts.peek() == "->":
        ts.next()
        return Implies(f, _parse_imp(ts))
    return f


def _parse_or(ts):
    parts = [_parse_and(ts)]
    while ts.peek() == "|":
        ts.next()
        parts.append(_parse_and(ts))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _parse_and(ts):
    parts = [_parse_unary(ts)]
    while ts.peek() == "&":
        ts.next()
        parts.append(_parse_unary(ts))
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _parse_unary(ts):
    tok = ts.peek()
    if tok == "~":
        ts.next()
        return Not(_parse_unary(ts))
    if tok == "(":
        ts.next()
        f = _parse_iff(ts)
        if ts.peek() != ")":
            ts.error("expected ')'")
        ts.next()
        return f
    if tok == "T":
        ts.next()
        return TRUE
    if tok == "F":
        ts.next()
        return FALSE
    if tok is not None and _IDENT_RE.fullmatch(tok):
        ts.next()
        return Var(tok)
    ts.error("expected a formula, got %r" % tok)


# --- rendering -------------------------------------------------------------

# precedence levels, loosest first
_LVL_IFF, _LVL_IMP, _LVL_OR, _LVL_AND, _LVL_UNARY = range(5)


def _level(f):
    if isinstance(f, Iff):
        return _LVL_IFF
    if isinstance(f, Implies):
        return _LVL_IMP
    if isinstance(f, Or):
        return _LVL_OR
    if isinstance(f, And):
        return _LVL_AND
    return _LVL_UNARY


def _render(f, min_level):
    lvl = _level(f)
    if isinstance(f, ConstTrue):
        s = "T"
    elif isinstance(f, ConstFalse):
        s = "F"
    elif isinstance(f, Var):
        s = f.name
    elif isinstance(f, Not):
        s = "~" + _render(f.child, _LVL_UNARY)
    elif isinstance(f, And):
        # children at strictly tighter level so n-ary structure survives
        s = " & ".join(_render(c, _LVL_AND + 1) for c in f.children)
    elif isinstance(f, Or):
        s = " | ".join(_render(c, _LVL_OR + 1) for c in f.children)
    elif isinstance(f, Implies):
        s = _render(f.left, _LVL_IMP + 1) + " -> " + _render(f.right, _LVL_IMP)
    elif isinstance(f, Iff):
        s = _render(f.left, _LVL_IFF) + " <-> " + _render(f.right, _LVL_IFF + 1)
    else:
        raise FormulaError("not a formula node: %r" % (f,))
    if lvl < min_level:
        return "(" + s + ")"
    return s


def render_formula(f):
    """Render ``f`` with minimal parentheses; reparses to an equal AST."""
    return _render(f, _LVL_IFF)


# --- traversal -------------------------------------------------------------


def _iter_vars(f):
    """Yield variable names in left-to-right depth-first order (with repeats)."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            yield node.name
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(reversed(node.children))
        elif isinstance(node, (Implies, Iff)):
            stack.append(node.right)
            stack.append(node.left)


def free_vars(f):
    """The set of variable names occurring in ``f``."""
    return set(_iter_vars(f))


def var_order(f):
    """The variables of ``f`` in order of first occurrence, left to right."""
    return list(dict.fromkeys(_iter_vars(f)))


def formula_size(f):
    """Node count of the AST."""
    n = 0
    stack = [f]
    while stack:
        node = stack.pop()
        n += 1
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, (Implies, Iff)):
            stack.append(node.left)
            stack.append(node.right)
    return n


def rename_vars(f, mapping):
    """Rename free variables of ``f`` by ``mapping`` (must be injective on them)."""
    fv = free_vars(f)
    relevant = {v: mapping[v] for v in fv if v in mapping}
    targets = list(relevant.values())
    if len(set(targets)) != len(targets):
        raise RenameError("renaming is not injective on the formula's variables")

    def go(node):
        if isinstance(node, Var):
            return Var(relevant[node.name]) if node.name in relevant else node
        if isinstance(node, Not):
            return Not(go(node.child))
        if isinstance(node, And):
            return And(tuple(go(c) for c in node.children))
        if isinstance(node, Or):
            return Or(tuple(go(c) for c in node.children))
        if isinstance(node, Implies):
            return Implies(go(node.left), go(node.right))
        if isinstance(node, Iff):
            return Iff(go(node.left), go(node.right))
        return node

    return go(f)


# --- evaluation ------------------------------------------------------------


def eval_formula(f, assignment):
    """Truth value of ``f`` under ``assignment`` (a dict name -> bool).

    Raises MissingVariableError naming the first (depth-first) unbound
    variable if the assignment does not cover the formula.
    """
    return compile_formula(f)(assignment)


def eval_bits(f, var_masks, full):
    """Bit-parallel truth table of ``f``.

    ``var_masks`` maps each variable to a Python-int mask whose bit p is the
    variable's value in assignment p; ``full`` has one bit set for every
    assignment.  The result is the mask of assignments satisfying ``f``
    (the truth-table-as-bit-vector technique, Knuth TAOCP 4A 7.1.1-7.1.3).
    """
    if isinstance(f, Var):
        return var_masks[f.name]
    if isinstance(f, Not):
        return eval_bits(f.child, var_masks, full) ^ full
    if isinstance(f, And):
        out = full
        for c in f.children:
            out &= eval_bits(c, var_masks, full)
            if not out:
                break
        return out
    if isinstance(f, Or):
        out = 0
        for c in f.children:
            out |= eval_bits(c, var_masks, full)
            if out == full:
                break
        return out
    if isinstance(f, Implies):
        return (eval_bits(f.left, var_masks, full) ^ full) | eval_bits(
            f.right, var_masks, full)
    if isinstance(f, Iff):
        return (eval_bits(f.left, var_masks, full)
                ^ eval_bits(f.right, var_masks, full) ^ full)
    if isinstance(f, ConstTrue):
        return full
    if isinstance(f, ConstFalse):
        return 0
    raise FormulaError("not a formula node: %r" % (f,))


def compile_formula(f):
    """A callable checking ``f`` on one assignment dict at a time.

    The variables are read once, in first-occurrence order (``.keys``, also
    the positional order of ``.raw(*values)``); each call is one eval_bits
    pass with 0/1 masks.  A missing variable raises MissingVariableError.
    """
    keys = var_order(f)

    def call(assignment):
        masks = {}
        for k in keys:
            if k not in assignment:
                raise MissingVariableError(k)
            masks[k] = 1 if assignment[k] else 0
        return eval_bits(f, masks, 1) == 1

    call.keys = keys
    call.raw = lambda *values: call(dict(zip(keys, values)))
    return call


# --- convenience constructors ----------------------------------------------


def conj(parts):
    """And over any number of formulas (empty -> T, singleton -> itself)."""
    parts = list(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def disj(parts):
    """Or over any number of formulas (empty -> F, singleton -> itself)."""
    parts = list(parts)
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(tuple(parts))
