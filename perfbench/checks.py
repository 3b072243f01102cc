"""Independent answers, computed by the benchmark without the program.

Everything here is exact (``Fraction``) and deliberately naive: it is the
second route each checked answer is compared against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# --- normal forms ------------------------------------------------------------


def equilibrium_payoffs(a, b, x, y):
    """Payoffs of (x, y) if it is an exact Nash equilibrium of (a, b), else
    None.

    ``x`` and ``y`` are full weight vectors; the check is a best-response
    test against every pure strategy of each player.
    """
    m, n = len(a), len(a[0])
    if len(x) != m or len(y) != n:
        return None
    if min(x) < 0 or min(y) < 0 or sum(x) != 1 or sum(y) != 1:
        return None
    rows = [sum(a[i][j] * y[j] for j in range(n)) for i in range(m)]
    cols = [sum(b[i][j] * x[i] for i in range(m)) for j in range(n)]
    u1 = sum(x[i] * rows[i] for i in range(m))
    u2 = sum(y[j] * cols[j] for j in range(n))
    if max(rows) > u1 or max(cols) > u2:
        return None
    return u1, u2


def pure_equilibria(a, b):
    """Index pairs (i, j) that are pure equilibria of (a, b)."""
    m, n = len(a), len(a[0])
    return [(i, j) for i in range(m) for j in range(n)
            if a[i][j] == max(a[r][j] for r in range(m))
            and b[i][j] == max(b[i][c] for c in range(n))]


def witness_vectors(witness, m, n):
    """Weight vectors from a ``bg`` witness ({"x": {i: w}, "y": {j: w}})."""
    x = [Fraction(0)] * m
    y = [Fraction(0)] * n
    for i, w in witness["x"].items():
        x[int(i)] = Fraction(w)
    for j, w in witness["y"].items():
        y[int(j)] = Fraction(w)
    return x, y


def guarantees(a, x, value):
    """True iff row strategy x secures at least ``value`` in every column."""
    return all(sum(x[i] * a[i][j] for i in range(len(a))) >= value
               for j in range(len(a[0])))


# --- propositional formulas (benchmark-side AST: nested lists) ---------------


def render(f):
    """``bg`` syntax for a formula AST, fully parenthesised."""
    op = f[0]
    if op == "var":
        return f[1]
    if op == "not":
        return "~" + render(f[1])
    sym = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}[op]
    return "(%s %s %s)" % (render(f[1]), sym, render(f[2]))


def holds(f, env):
    op = f[0]
    if op == "var":
        return env[f[1]]
    if op == "not":
        return not holds(f[1], env)
    left, right = holds(f[1], env), holds(f[2], env)
    if op == "and":
        return left and right
    if op == "or":
        return left or right
    if op == "imp":
        return (not left) or right
    return left == right


def rename(f, mapping):
    if f[0] == "var":
        return ["var", mapping[f[1]]]
    return [f[0]] + [rename(c, mapping) for c in f[1:]]


def boolean_pure_equilibria(var_sets, goals):
    """Pure equilibria of a two-player Boolean game, as sorted assignments."""
    def strategies(names):
        names = sorted(names)
        return [dict(zip(names, bits)) for bits in
                itertools.product((False, True), repeat=len(names))]

    s1, s2 = strategies(var_sets[0]), strategies(var_sets[1])

    def won(i, p, q):
        return holds(goals[i], {**p, **q})

    out = []
    for p in s1:
        for q in s2:
            if (won(0, p, q) or not any(won(0, r, q) for r in s1)) and \
                    (won(1, p, q) or not any(won(1, p, r) for r in s2)):
                out.append(sorted({**p, **q}.items()))
    return out


# --- gadget algebra and reductions -------------------------------------------


def combined_value(kind, v, w=None):
    """The value the game algebra must produce: v+w-vw, vw or 1-v."""
    if kind == "sum":
        return v + w - v * w
    if kind == "product":
        return v * w
    return 1 - v


def reduction_payoff(mode, k):
    """Player 2's guaranteed payoff in a reduction game on a 2^k x 2^k
    table."""
    n2k = Fraction(1 << (2 * k))
    if mode == "exists":
        # one covered cell out of 4^k, plus the 3/4-value side game on it
        return 1 / n2k + Fraction(3, 4) / n2k
    n2k2 = 4 * n2k
    delta = 1 / n2k2 - 1 / (n2k2 * n2k)
    return 1 / n2k + delta / (n2k - 4) + 2 / n2k2 + 2 * delta / (n2k2 - 16)
