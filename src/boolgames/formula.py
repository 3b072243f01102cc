"""Propositional formulas: AST, parser, renderer, evaluation.

The AST nodes are frozen, slotted dataclasses.  One evaluator,
``eval_bits``, walks the tree over Python-int masks, one bit per
assignment; ``eval_formula`` and ``compile_formula`` call it with one
assignment (masks 0/1, ``full = 1``).

Variables are plain strings matching ``[A-Za-z_][A-Za-z0-9_.]*``, other
than ``T`` and ``F`` (the constants).  Connective precedence, tightest
first: ~  &  |  ->  <->.  "->" associates to the right, "<->" to the left;
"&" and "|" parse into n-ary And/Or nodes.  A parsed formula nests at most
``MAX_DEPTH`` levels, in its text (parentheses, ``~``, ``->``) and in its
tree.  The text is tokenized by one regex pass; a FormulaSyntaxError names
the line and column of the offending token, found by scanning again.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass


class FormulaError(Exception):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.message = message
        self.line = line
        self.col = col


class MissingVariableError(FormulaError):
    def __init__(self, name):
        super().__init__("unbound variable: %s" % name)
        self.name = name


class RenameError(FormulaError):
    pass


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConstTrue:
    pass


@dataclass(frozen=True, slots=True)
class ConstFalse:
    pass


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Not:
    child: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    children: tuple  # length >= 2

    def __post_init__(self):
        if len(self.children) < 2:
            raise FormulaError("And requires at least two children")


@dataclass(frozen=True, slots=True)
class Or:
    children: tuple  # length >= 2

    def __post_init__(self):
        if len(self.children) < 2:
            raise FormulaError("Or requires at least two children")


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


# any of the node classes above, exactly: the walks dispatch on type(node),
# so an instance of a subclass is not a node
Formula = object

TRUE = ConstTrue()
FALSE = ConstFalse()

# a variable name; "T" and "F" match it too but are the constants
_IDENT = r"[A-Za-z_][A-Za-z0-9_.]*"
_IDENT_RE = re.compile(_IDENT)

# every recursive walk here stays far within Python's default limit of 1000
# frames: a parenthesis costs the parser five, an And/Or level the renderer
# two and ``var_order`` one
MAX_DEPTH = 100


def is_valid_var(name):
    return bool(_IDENT_RE.fullmatch(name)) and name not in ("T", "F")


# --- parsing ---------------------------------------------------------------

# one match per token: group 1 a token, group 2 any other non-space character
_TOKEN_RE = re.compile(r"(<->|->|[~&|()]|%s)|(\S)" % _IDENT)
# every token that is not a name; None is the end of input
_OPERATORS = frozenset(["<->", "->", "~", "&", "|", "(", ")", None])
_JUNCTION = {"|": Or, "&": And}


class _Tokens:
    def __init__(self, text):
        self.text = text
        found = _TOKEN_RE.findall(text)
        self.tokens = [tok for tok, _ in found]
        self.idx = 0
        self.depth = 0  # parentheses, ~ and -> open at the current token
        if "" in self.tokens:  # a group-2 match leaves group 1 empty
            self.idx = self.tokens.index("")
            self.error("unexpected character %r" % found[self.idx][1])
        self.tokens.append(None)  # end of input

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        self.idx += 1

    def error(self, message):
        """Raise at the current token, located by scanning the text again."""
        text = self.text
        at = next(itertools.islice(_TOKEN_RE.finditer(text), self.idx, None),
                  None)
        offset = at.start() if at else len(text)
        raise FormulaSyntaxError(message, text.count("\n", 0, offset) + 1,
                                 offset - text.rfind("\n", 0, offset))


def _check_depth(depth):
    if depth > MAX_DEPTH:
        raise FormulaError("formula nested too deeply (more than %d levels)"
                           % MAX_DEPTH)


def parse_formula(text):
    """Parse ``text`` into a Formula AST; FormulaError past ``MAX_DEPTH``."""
    ts = _Tokens(text)
    f = _parse_iff(ts)
    if ts.peek() is not None:
        ts.error("unexpected token %r" % ts.peek())
    _check_depth(formula_depth(f))
    return f


def _nested(ts, parse):
    """``parse(ts)`` one level deeper in the text."""
    ts.depth += 1
    _check_depth(ts.depth)
    f = parse(ts)
    ts.depth -= 1
    return f


def _parse_iff(ts):
    f = _parse_imp(ts)
    while ts.peek() == "<->":
        ts.next()
        f = Iff(f, _parse_imp(ts))
    return f


def _parse_imp(ts):
    f = _parse_nary(ts, "|")
    if ts.peek() == "->":
        ts.next()
        return Implies(f, _nested(ts, _parse_imp))
    return f


def _parse_nary(ts, op):
    """Operands joined by ``op``: an Or of And terms, an And of unaries."""
    parts = []
    while True:
        parts.append(_parse_nary(ts, "&") if op == "|" else _parse_unary(ts))
        if ts.peek() != op:
            return parts[0] if len(parts) == 1 else _JUNCTION[op](tuple(parts))
        ts.next()


def _parse_unary(ts):
    tok = ts.peek()
    if tok == "~":
        ts.next()
        return Not(_nested(ts, _parse_unary))
    if tok == "(":
        ts.next()
        f = _nested(ts, _parse_iff)
        if ts.peek() != ")":
            ts.error("expected ')'")
        ts.next()
        return f
    if tok in _OPERATORS:
        ts.error("expected a formula, got %r" % tok)
    ts.next()
    return TRUE if tok == "T" else FALSE if tok == "F" else Var(tok)


# --- rendering -------------------------------------------------------------

# precedence levels, loosest first; every other node is unary or a leaf
_LVL_IFF, _LVL_IMP, _LVL_OR, _LVL_AND, _LVL_UNARY = range(5)
_LEVEL = {Iff: _LVL_IFF, Implies: _LVL_IMP, Or: _LVL_OR, And: _LVL_AND}


def _render(f, min_level):
    t = type(f)
    lvl = _LEVEL.get(t, _LVL_UNARY)
    if t is Var:
        s = f.name
    elif t is And:
        # children at strictly tighter level so n-ary structure survives
        s = " & ".join(_render(c, _LVL_AND + 1) for c in f.children)
    elif t is Not:
        s = "~" + _render(f.child, _LVL_UNARY)
    elif t is Or:
        s = " | ".join(_render(c, _LVL_OR + 1) for c in f.children)
    elif t is Iff:
        s = _render(f.left, _LVL_IFF) + " <-> " + _render(f.right, _LVL_IFF + 1)
    elif t is Implies:
        s = _render(f.left, _LVL_IMP + 1) + " -> " + _render(f.right, _LVL_IMP)
    elif t is ConstTrue:
        s = "T"
    elif t is ConstFalse:
        s = "F"
    else:
        raise FormulaError("not a formula node: %r" % (f,))
    if lvl < min_level:
        return "(" + s + ")"
    return s


def render_formula(f):
    """Render ``f`` with minimal parentheses; reparses to an equal AST."""
    return _render(f, _LVL_IFF)


# --- traversal -------------------------------------------------------------


def var_order(f):
    """The variables of ``f`` in order of first occurrence, left to right."""
    return list(_first_occurrences(f, {}))


def _first_occurrences(node, seen):
    """``seen`` with the variables of ``node`` added in order of first
    occurrence; a Var child is read in place, as in ``eval_bits``."""
    t = type(node)
    if t is Var:
        seen[node.name] = None
    elif t is And or t is Or:
        for c in node.children:
            if type(c) is Var:
                seen[c.name] = None
            else:
                _first_occurrences(c, seen)
    elif t is Not:
        _first_occurrences(node.child, seen)
    elif t is Implies or t is Iff:
        _first_occurrences(node.left, seen)
        _first_occurrences(node.right, seen)
    return seen


def free_vars(f):
    """The set of variable names occurring in ``f``."""
    return set(var_order(f))


def _levels(f):
    """The AST's nodes, one list per level from the root down."""
    level = [f]
    while level:
        yield level
        below = []
        for node in level:
            t = type(node)
            if t is And or t is Or:
                below.extend(node.children)
            elif t is Not:
                below.append(node.child)
            elif t is Implies or t is Iff:
                below.append(node.left)
                below.append(node.right)
        level = below


def formula_size(f):
    """Node count of the AST."""
    return sum(map(len, _levels(f)))


def formula_depth(f):
    """Levels of the AST, one for a leaf."""
    return sum(1 for _ in _levels(f))


def rename_vars(f, mapping):
    """Rename free variables of ``f`` by ``mapping`` (must be injective on them)."""
    fv = free_vars(f)
    relevant = {v: mapping[v] for v in fv if v in mapping}
    targets = list(relevant.values())
    if len(set(targets)) != len(targets):
        raise RenameError("renaming is not injective on the formula's variables")

    def go(node):
        t = type(node)
        if t is Var:
            return Var(relevant[node.name]) if node.name in relevant else node
        if t is And or t is Or:
            return t(tuple(go(c) for c in node.children))
        if t is Not:
            return Not(go(node.child))
        if t is Implies or t is Iff:
            return t(go(node.left), go(node.right))
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
    t = type(f)
    # dispatch in order of frequency; a Var child's mask is read in place
    if t is Var:
        return var_masks[f.name]
    if t is And:
        out = full
        for c in f.children:
            out &= (var_masks[c.name] if type(c) is Var
                    else eval_bits(c, var_masks, full))
            if not out:
                break
        return out
    if t is Not:
        c = f.child
        return (var_masks[c.name] if type(c) is Var
                else eval_bits(c, var_masks, full)) ^ full
    if t is Or:
        out = 0
        for c in f.children:
            out |= (var_masks[c.name] if type(c) is Var
                    else eval_bits(c, var_masks, full))
            if out == full:
                break
        return out
    if t is Iff:
        return (eval_bits(f.left, var_masks, full)
                ^ eval_bits(f.right, var_masks, full) ^ full)
    if t is Implies:
        return (eval_bits(f.left, var_masks, full) ^ full) | eval_bits(
            f.right, var_masks, full)
    if t is ConstTrue:
        return full
    if t is ConstFalse:
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
