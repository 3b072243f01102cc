"""Boolean games: players, goals, profiles, utilities, normal forms.

A Boolean game's normal form (``Expansion``) keeps each goal as one int
mask over the pure profiles, evaluated once; its nested payoff lists are
built only when read (``bg normal-form``).  Two-player strategy classes
group the strategies that agree in both payoff tables and in any extra
tables: ``NormalForm.collapse`` groups the nested lists of an explicit
normal form, and ``Expansion.collapse`` the same keys read from the goal
masks.

Players are indexed from 0 in this API; serialized formats (game files,
profile JSON) use the 1-based numbering of the text format.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
import struct
from fractions import Fraction

from .formula import (
    And,
    FormulaSyntaxError,
    compile_formula,  # noqa: F401 - perfbench/tracing.py patches it here
    conj,
    eval_bits,
    is_valid_var,
    parse_formula,
    render_formula,
    var_order,
)

DEFAULT_CELL_CAP = 1 << 22
DEFAULT_DEVIATION_CAP = 1 << 22
# bits per goal evaluation in a utility sweep: bounds its masks' memory
SWEEP_BUDGET = 1 << 18


class GameError(Exception):
    pass


class ValidationError(GameError):
    pass


class ResourceCapError(Exception):
    """An explicit resource cap was exceeded (not an input error)."""


def var_set(names):
    """A player's variables as a game keeps them: distinct, sorted."""
    return tuple(sorted(set(names)))


class BooleanGame:
    """n players, pairwise-disjoint variable sets, one goal formula each.

    Validation walks each goal once and the game keeps what it found:
    ``goal_vars[i]`` is goal i's variables in order of first occurrence
    (``var_order``), ``owners`` maps every variable to its player, and
    ``own_parts[i]`` is (own, rest): the conjunction of goal i's root
    conjuncts that read only player i's variables, and that of the others
    (a goal that is not an ``And`` is one conjunct; either is ``T`` if it
    has none)."""

    def __init__(self, var_sets, goals):
        self.var_sets = tuple(var_set(vs) for vs in var_sets)
        self.goals = tuple(goals)
        self.owners, self.goal_vars, self.own_parts = validate_game(self)

    @property
    def players(self):
        return len(self.var_sets)

    def all_vars(self):
        out = []
        for vs in self.var_sets:
            out.extend(vs)
        return out


def validate_game(g):
    """Raise ValidationError unless ``g`` is well formed; otherwise return
    (owners, goal_vars, own_parts), as a ``BooleanGame`` keeps them."""
    if len(g.var_sets) < 2:
        raise ValidationError("a game needs at least two players")
    if len(g.goals) != len(g.var_sets):
        raise ValidationError("need one goal per player")
    seen = {}
    for i, vs in enumerate(g.var_sets):
        if not vs:
            raise ValidationError("player %d has an empty variable set" % (i + 1))
        for v in vs:
            if not is_valid_var(v):
                raise ValidationError("bad variable name %r" % (v,))
            if v in seen:
                raise ValidationError(
                    "variable %s owned by players %d and %d" % (v, seen[v] + 1, i + 1)
                )
            seen[v] = i
    goal_vars, own_parts = [], []
    for i, goal in enumerate(g.goals):
        # one walk per root conjunct: their orders joined are the goal's
        mine, order, own, rest = set(g.var_sets[i]), {}, [], []
        for part in goal.children if type(goal) is And else (goal,):
            names = var_order(part)
            order.update(dict.fromkeys(names))
            (own if mine.issuperset(names) else rest).append(part)
        extra = [v for v in order if v not in seen]
        if extra:
            raise ValidationError(
                "goal %d references unowned variables: %s"
                % (i + 1, ", ".join(sorted(extra)))
            )
        goal_vars.append(tuple(order))
        own_parts.append((conj(own), conj(rest)))
    return seen, tuple(goal_vars), tuple(own_parts)


# --- mixed profiles ---------------------------------------------------------


class MixedProfile:
    """Independent per-player distributions over pure assignments.

    strategies[i] is a list of (assignment dict, Fraction weight) pairs;
    weights are positive and sum to 1 per player.
    """

    def __init__(self, strategies):
        self.strategies = tuple(
            tuple((dict(a), w if type(w) is Fraction else Fraction(w))
                  for a, w in player)
            for player in strategies
        )

    @property
    def players(self):
        return len(self.strategies)


def product_profile(p1, p2):
    """The profile where each player plays their strategies in ``p1`` and
    ``p2`` independently, over the union of the two variable sets: one entry
    per pair of entries, in row-major order, weighted by the product."""
    return MixedProfile([
        [({**a1, **a2}, w1 * w2) for a1, w1 in s1 for a2, w2 in s2]
        for s1, s2 in zip(p1.strategies, p2.strategies)
    ])


def validate_profile(g, profile):
    if profile.players != g.players:
        raise ValidationError("profile has %d players, game has %d"
                              % (profile.players, g.players))
    for i, support in enumerate(profile.strategies):
        if not support:
            raise ValidationError("player %d has empty support" % (i + 1))
        total = Fraction(0)
        seen = set()
        domain = set(g.var_sets[i])
        # past the domain check, an entry is its values in var_sets order
        values = operator.itemgetter(*g.var_sets[i])
        for a, w in support:
            if a.keys() != domain:
                raise ValidationError(
                    "player %d strategy domain mismatch" % (i + 1)
                )
            if w <= 0:
                raise ValidationError("non-positive weight for player %d" % (i + 1))
            key = values(a)
            if key in seen:
                raise ValidationError("duplicate support entry for player %d" % (i + 1))
            seen.add(key)
            total += w
        if total != 1:
            raise ValidationError(
                "player %d weights sum to %s, not 1" % (i + 1, total)
            )


def expected_utility(g, profile, i):
    """Exact expected utility of player i under the profile."""
    return utility_sweep(g, profile, i)[0]


def utility_sweep(g, profile, i, deviations=0, masks=()):
    """(expected utility, best of it and ``deviations`` pure deviations)
    of player i; deviation r sets the t-th own goal variable, in order of
    first occurrence (``var_order``), to bit r of ``masks[t]``.

    The goal is evaluated bit-parallel over rows: player i's support
    entries, then the deviations.  Opponent entries are merged by their
    values on the goal's variables, and the merged combinations are laid
    side by side: combination c's rows are byte-aligned block c of every
    mask, so one evaluation covers a chunk of about ``SWEEP_BUDGET`` bits.
    The goal's own-only conjuncts (``BooleanGame.own_parts``) take the
    same value in every block: they are evaluated once, over one block, and
    the result is tiled across each chunk and ANDed with the rest.  Each
    block of the result, times the combination's integer weight, is added
    into bit-sliced counters.
    """
    validate_profile(g, profile)
    names = [[] for _ in g.var_sets]  # the goal's variables by owner
    owners = g.owners
    for v in g.goal_vars[i]:
        names[owners[v]].append(v)
    support = profile.strategies[i]
    s = len(support)
    width = (s + deviations + 7) // 8  # bytes per block
    rows = (1 << (s + deviations)) - 1
    own_masks = {}
    for t, v in enumerate(names[i]):
        m = masks[t] << s if deviations else 0
        for r, (a, _) in enumerate(support):
            if a[v]:
                m |= 1 << r
        own_masks[v] = m
    own_part, rest = g.own_parts[i]
    own_sat = eval_bits(own_part, own_masks, rows).to_bytes(width, "little")
    own_masks = [(v, m.to_bytes(width, "little"))
                 for v, m in own_masks.items()]
    den, merged = 1, []
    for j, opp in enumerate(profile.strategies):
        if j == i:
            continue
        dist = {}
        for a, w in opp:
            key = tuple(a[v] for v in names[j])
            dist[key] = dist.get(key, 0) + w
        d = math.lcm(*(w.denominator for w in dist.values()))
        den *= d
        merged.append([(key, w.numerator * (d // w.denominator))
                       for key, w in dist.items()])
    # a combination: one merged entry per opponent, their values joined in
    # ``opp_names`` order and their weights multiplied
    opp_names = [v for j, vs in enumerate(names) if j != i for v in vs]
    combos = ((sum((key for key, _ in c), ()), math.prod(w for _, w in c))
              for c in itertools.product(*merged))
    per_chunk = max(1, SWEEP_BUDGET // (8 * width))
    ones, zeros = rows.to_bytes(width, "little"), bytes(width)
    # planes[b]: rows whose count has bit b set (counts are at most den)
    planes = [0] * den.bit_length()
    while chunk := list(itertools.islice(combos, per_chunk)):
        n = len(chunk)
        full = int.from_bytes(ones * n, "little")
        var_masks = {v: int.from_bytes(m * n, "little") for v, m in own_masks}
        # an opponent variable's mask: its values over the chunk, one
        # block each; variables with equal values share one int
        by_column = {(True,) * n: full, (False,) * n: 0}
        for v, column in zip(opp_names, zip(*(key for key, _ in chunk))):
            if column not in by_column:
                by_column[column] = int.from_bytes(
                    b"".join([ones if b else zeros for b in column]),
                    "little")
            var_masks[v] = by_column[column]
        sat = int.from_bytes(own_sat * n, "little")
        sat = (sat and eval_bits(rest, var_masks, full) & sat).to_bytes(
            n * width, "little")
        for c, (_, weight) in enumerate(chunk):
            block = int.from_bytes(sat[c * width:(c + 1) * width], "little")
            b = 0
            while weight and block:
                if weight & 1:
                    carry, p = block, b
                    while carry:
                        planes[p], carry = planes[p] ^ carry, planes[p] & carry
                        p += 1
                weight >>= 1
                b += 1
    own = (1 << s) - 1
    low = [p & own for p in planes]
    eu = sum(w * sum((p >> r & 1) << b for b, p in enumerate(low))
             for r, (_, w) in enumerate(support)) / den
    rows, best = rows ^ own, 0  # the deviation rows, narrowed to the max
    for b in reversed(range(len(planes))):
        if rows & planes[b]:
            rows &= planes[b]
            best |= 1 << b
    return eu, max(eu, Fraction(best, den))


# --- normal form ------------------------------------------------------------


class NormalForm:
    """Explicit payoff tensors, one per player, over indexed strategy lists.

    payoffs[i] is nested lists with one nesting level per player; each cell
    is an exact int when integral and a Fraction otherwise.
    """

    def __init__(self, payoffs):
        if len(payoffs) < 2:
            raise ValidationError("a game needs at least two players")
        self.shape = _tensor_shape(payoffs[0])
        if len(self.shape) != len(payoffs):
            raise ValidationError("tensor rank must equal player count")
        if 0 in self.shape:
            raise ValidationError("every player needs at least one strategy")
        self.payoffs = [_exact_tensor(t, self.shape) for t in payoffs]

    @property
    def players(self):
        return len(self.shape)

    def payoff(self, i, idx):
        t = self.payoffs[i]
        for j in idx:
            t = t[j]
        return t

    def collapse(self, extra=()):
        """(game, classes, tables) of a two-player game.  ``classes`` holds
        each player's strategies (rows, then columns) grouped into classes
        that agree in both payoff matrices and in every m×n matrix of
        ``extra``: ascending lists, in order of first member.  ``game``
        keeps one strategy per class, the first, and ``tables`` are the
        ``extra`` matrices on those first members."""
        if self.players != 2:
            raise ValidationError("operation requires a two-player game")
        keys = [*self.payoffs, *extra]
        return _grouped(zip(*(map(tuple, k) for k in keys)),
                        zip(*(zip(*k) for k in keys)),
                        lambda t, i, j: keys[t][i][j], len(keys))


def _grouped(rows, cols, cell, count):
    """``NormalForm.collapse`` from each row's and each column's key, in
    order, and ``cell(t, i, j)``, entry (i, j) of key table t: the payoff
    tables, then the extra ones."""
    classes = []
    for lines in (rows, cols):
        groups = {}
        for s, key in enumerate(lines):
            groups.setdefault(key, []).append(s)
        classes.append(list(groups.values()))
    rows, cols = ([c[0] for c in side] for side in classes)
    a, b, *tables = [[[cell(t, i, j) for j in cols] for i in rows]
                     for t in range(count)]
    # the cells are exact already: no per-cell pass of NormalForm.__init__
    small = NormalForm.__new__(NormalForm)
    small.payoffs, small.shape = [a, b], (len(rows), len(cols))
    return small, classes, tables


def _exact_tensor(t, shape):
    """``t`` with exact cells; ``t`` must be an array of the given shape."""
    is_list = isinstance(t, (list, tuple))
    if is_list != bool(shape) or (is_list and len(t) != shape[0]):
        raise ValidationError("payoff tensors are not rectangular arrays of "
                              "one shape")
    if is_list:
        return [_exact_tensor(x, shape[1:]) for x in t]
    if isinstance(t, float):
        raise ValidationError("payoff %r is a float, not exact" % (t,))
    if isinstance(t, bool):
        raise ValidationError("payoff %r is a boolean, not a number" % (t,))
    q = Fraction(t)
    return q.numerator if q.denominator == 1 else q


def _tensor_shape(t):
    """The shape read along first elements."""
    shape = []
    while isinstance(t, (list, tuple)):
        shape.append(len(t))
        if not t:
            break
        t = t[0]
    return tuple(shape)


def player_assignments(g, i):
    """Player i's pure strategies, lexicographic by variable name, F < T."""
    names = list(g.var_sets[i])  # already sorted
    return [
        dict(zip(names, bits))
        for bits in itertools.product((False, True), repeat=len(names))
    ]


def var_mask(b, total):
    """The assignments p < total whose bit b is set, as a mask, by doubling
    one period of 2^b clear then 2^b set bits."""
    half = 1 << b
    mask, width = ((1 << half) - 1) << half, half << 1
    while width < total:
        mask |= mask << width
        width <<= 1
    return mask


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_TOP_BIT = bytes(b"01"[b >> 7] for b in range(256))
_DRAW_WORDS = 1 << 10  # per getrandbits call: keeps its int small


def draw_trials(seed, n):
    """The draws of every sampled check: the ASCII ``0``/``1`` bytes of
    ``n`` successive ``random.Random(seed).getrandbits(1)`` calls, read as
    the words' top bits from ``getrandbits(32 * _DRAW_WORDS)`` calls, which
    CPython fills word by word from the low end."""
    bits = random.Random(seed).getrandbits
    chunks = (bits(32 * _DRAW_WORDS).to_bytes(4 * _DRAW_WORDS, "little")
              for _ in range(0, n, _DRAW_WORDS))
    return b"".join(c[3::4] for c in chunks)[:n].translate(_TOP_BIT)


def draw_masks(draws, width):
    """One mask per variable from random draws taken trial by trial, one
    ASCII ``0``/``1`` per variable: bit r of mask t is ``draws[r * width
    + t]``."""
    return [int(b"0" + draws[t::width][::-1], 2) for t in range(width)]


def profile_masks(g, formulas):
    """Each formula's value at every pure profile of ``g``, as one mask per
    formula from one bit-parallel evaluation.  The caller checks the cell
    count first.

    Bit p of a mask is the profile whose normal-form index, read in mixed
    radix with player 0 most significant, is p: the variables of all
    players in order (each player's sorted) are the bits of p from the most
    significant down.
    """
    names = g.all_vars()
    total = 1 << len(names)
    masks = {name: var_mask(b, total)
             for b, name in enumerate(reversed(names))}
    full = (1 << total) - 1
    return [eval_bits(f, masks, full) for f in formulas]


def _cell_bytes(masks, cells):
    """One byte per pure profile, in index order: bit t of byte p is bit p
    of ``masks[t]`` (at most eight masks).  Linear in the cell count."""
    joined = 0
    for t, mask in enumerate(masks):
        spread = format(mask, "0%db" % cells).encode().translate(_BIT_BYTES)
        joined |= int.from_bytes(spread, "big") << t
    return joined.to_bytes(cells, "little")


def _nested(mask, shape):
    """The 0/1 cells of a profile mask as nested lists of the given
    shape."""
    total = math.prod(shape)
    cells = _cell_bytes([mask], total)
    t = [list(cells[i:i + shape[-1]]) for i in range(0, total, shape[-1])]
    for size in reversed(shape[1:-1]):
        t = [t[i:i + size] for i in range(0, len(t), size)]
    return t


class Expansion(NormalForm):
    """The normal form of a Boolean game, kept as its goals' masks:
    ``masks[i]`` is player i's payoff at every pure profile
    (``profile_masks``), whose index spells ``names`` from its top bit.
    With two players, row s of a mask is its bits [s n, (s + 1) n) and
    column t every n-th bit from t, n the column count.  The nested
    ``payoffs`` are built from the masks when first read; the queries read
    the masks instead."""

    def __init__(self, g):
        self.shape = tuple(1 << len(vs) for vs in g.var_sets)
        self.names = g.all_vars()
        self.masks = profile_masks(g, g.goals)

    @functools.cached_property
    def payoffs(self):
        return [_nested(mask, self.shape) for mask in self.masks]

    def collapse(self, extra=()):
        """``NormalForm.collapse`` read from the goal masks, ``extra`` given
        as profile masks (at most six): each profile's key bits, one per
        table, are one byte (``_cell_bytes``), so a row's key is its n bytes
        and a column's a stride, and the collapsed tables are read from the
        first members' bytes."""
        if self.players != 2:
            raise ValidationError("operation requires a two-player game")
        m, n = self.shape
        cells = _cell_bytes([*self.masks, *extra], m * n)
        return _grouped(struct.iter_unpack("%ds" % n, cells),
                        (cells[t::n] for t in range(n)),
                        lambda t, i, j: cells[i * n + j] >> t & 1,
                        2 + len(extra))


def to_normal_form(g, cap=DEFAULT_CELL_CAP):
    """The expansion of ``g`` (``Expansion``); payoff cells are the ints 0
    and 1.  The cell count is checked against ``cap`` before any mask is
    built."""
    shape = [1 << len(vs) for vs in g.var_sets]
    cells = 1 << len(g.all_vars())
    if cells > cap:
        raise ResourceCapError(
            "expansion of the %s game needs %d cells; cap is %d"
            % ("x".join(map(str, shape)), cells, cap))
    return Expansion(g)


# --- names ------------------------------------------------------------------


def namespaced(ns, name):
    return "%s.%s" % (ns, name)


# --- serialization ----------------------------------------------------------


def parse_game(text):
    """Parse the textual game format into a validated BooleanGame."""
    players = None
    entries = {"vars": {}, "goal": {}}  # player -> (line number, value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise GameError("line %d: expected 'key: value'" % lineno)
        head, _, rest = line.partition(":")
        head = head.strip()
        rest = rest.strip()
        if head == "players":
            try:
                players = int(rest)
            except ValueError:
                raise GameError("line %d: bad player count" % lineno) from None
        elif head[:5] in ("vars ", "goal "):
            kind, idx = head[:4], _player_index(head[5:], lineno)
            if idx in entries[kind]:
                raise GameError("line %d: repeated '%s %d:' (first on line %d)"
                                % (lineno, kind, idx + 1, entries[kind][idx][0]))
            try:
                value = rest.split() if kind == "vars" else parse_formula(rest)
            except FormulaSyntaxError as e:
                # the goal text is one line: shift its column to the file's
                col = raw.find(rest, raw.index(":") + 1) + e.col
                raise GameError("line %d, column %d: %s"
                                % (lineno, col, e.message)) from None
            except Exception as e:
                raise GameError("line %d: %s" % (lineno, e)) from None
            entries[kind][idx] = (lineno, value)
        else:
            raise GameError("line %d: unknown directive %r" % (lineno, head))
    if players is None:
        raise GameError("missing 'players:' line")
    extra = min(((n, kind, idx + 1) for kind, found in entries.items()
                 for idx, (n, _) in found.items() if idx >= players), default=None)
    if extra:
        raise GameError("line %d: '%s %d:' but the game has %d players"
                        % (*extra, players))
    var_sets, goals = entries["vars"], entries["goal"]
    missing = [
        str(i + 1)
        for i in range(players)
        if i not in var_sets or i not in goals
    ]
    if missing:
        raise GameError("missing vars/goal for players: %s" % ", ".join(missing))
    return BooleanGame(
        [var_sets[i][1] for i in range(players)],
        [goals[i][1] for i in range(players)],
    )


def _player_index(token, lineno):
    try:
        idx = int(token.strip())
    except ValueError:
        raise GameError("line %d: bad player index" % lineno) from None
    if idx < 1:
        raise GameError("line %d: players are numbered from 1" % lineno)
    return idx - 1


def render_game(g):
    lines = ["players: %d" % g.players]
    for i in range(g.players):
        lines.append("vars %d: %s" % (i + 1, " ".join(g.var_sets[i])))
        lines.append("goal %d: %s" % (i + 1, render_formula(g.goals[i])))
    return "\n".join(lines) + "\n"


def profile_to_json(profile):
    """The profile as JSON, each assignment's variables in sorted order."""
    return json.dumps(
        {"players": [{"support": [{"assign": a, "weight": str(w)}
                                  for a, w in support]}
                     for support in profile.strategies]},
        sort_keys=True)


def profile_from_json(text, g=None):
    """Assignment values must be JSON booleans; a weight is an ``"a/b"``
    string, an integer or a decimal, read exactly."""
    data = json.loads(text, parse_float=Fraction)
    strategies = []
    for entry in data["players"]:
        support = []
        for item in entry["support"]:
            assign, w = dict(item["assign"]), item["weight"]
            if not all(isinstance(b, bool) for b in assign.values()):
                raise ValidationError(
                    "assignment values must be true or false")
            # a float left by parse_float is NaN or an infinity
            if isinstance(w, (bool, float)):
                raise ValidationError("weight %s is not a rational" % (w,))
            support.append((assign, Fraction(w)))
        strategies.append(support)
    profile = MixedProfile(strategies)
    if g is not None:
        validate_profile(g, profile)
    return profile
