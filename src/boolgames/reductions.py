"""Compilers from nondeterministic Turing machine instances to two-player
guarantee games, plus the equilibrium-structure game transformations.

A machine run within a binary step bound K is laid out as a 2^k x 2^k table
of cell descriptors (tape symbol plus a head marker: the head is here in
some state, to the left, or to the right).  The run is accepting iff the
head is in the accept state on cell 0 at row K-1.  Local correctness of the
table is captured by 2x2 windows: an independent semantic checker
(square_oracle) and a per-rule pattern generator (admissible_squares) both
implement the window conditions, and the generated pattern disjunction is
what the game formulas use.

Head markers: "<" means the head is at a lower column index than this cell,
">" a higher one.  Windows may wrap around both edges of the table; windows
whose top row is the last row are exempt from rule consistency (the rows
are not consecutive computation steps), and column-wrapped windows only
constrain head markers (their columns are not adjacent tape cells).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .encodings import (
    assign_bits,
    build_cardinality,
    build_comparison,
    check_bits,
    const_bits,
    decode_bits,
    var_bits,
)
from .formula import (And, Iff, Implies, Not, Or, Var, conj, disj,
                      is_valid_var)
from .game import (
    BooleanGame,
    MixedProfile,
    ResourceCapError,
    namespaced,
    product_profile,
    var_set,
)
from .gadgets import fixed_value_game, fixed_value_roles
from .lp import _pivot

SYMBOLS = ("0", "1", "_")
LEFT = "<"
RIGHT = ">"

DEFAULT_NODE_CAP = 1 << 20
# the widest run table a witness profile is built for: with the immediate
# acceptor, `reduce nexptm --emit-witness` peaks at 174 MB resident in 1.4 s
# on a 64 x 64 table and at 651 MB in 5.5 s on 128 x 128; 256 x 256 ran out
# of a 3 GB address space
WITNESS_SIDE_CAP = 64


class ReductionError(Exception):
    pass


# --- machines and tables --------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    frm: str
    read: str
    write: str
    move: str
    to: str


class TuringMachine:
    def __init__(self, states, start, accept, transitions):
        self.states = tuple(states)
        self.start = start
        self.accept = accept
        self.transitions = tuple(
            t if isinstance(t, Transition) else Transition(*t)
            for t in transitions
        )
        self.validate()

    def validate(self):
        # a state names the variables of its head flags (State1.q, ...), so
        # it is text that extends "State." to a variable name; no state can
        # then be the LEFT or RIGHT marker
        for q in self.states:
            if not (isinstance(q, str) and is_valid_var("State." + q)):
                raise ReductionError(
                    "state %r is not a name: states are strings of ASCII "
                    "letters, digits, '_' and '.'" % (q,))
        if len(set(self.states)) != len(self.states) or not self.states:
            raise ReductionError("states must be a nonempty set")
        for q in (self.start, self.accept):
            if q not in self.states:
                raise ReductionError("unknown state %r" % q)
        for t in self.transitions:
            if t.frm not in self.states or t.to not in self.states:
                raise ReductionError("transition uses unknown state: %r" % (t,))
            if t.read not in SYMBOLS or t.write not in SYMBOLS:
                raise ReductionError("bad symbol in transition %r" % (t,))
            if t.move not in ("L", "R"):
                raise ReductionError("bad move in transition %r" % (t,))
        # the accept state must carry exactly the "do nothing" transitions:
        # rewrite the read symbol, move left (a stay, as acceptance is pinned
        # to cell 0), remain accepting
        want = {Transition(self.accept, x, x, "L", self.accept) for x in SYMBOLS}
        got = {t for t in self.transitions if t.frm == self.accept}
        if got != want:
            raise ReductionError(
                "accept state must have exactly the do-nothing self-transitions"
            )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        try:
            transitions = [
                Transition(t["from"], t["read"], t["write"], t["move"], t["to"])
                for t in data["transitions"]
            ]
            return cls(data["states"], data["start"], data["accept"], transitions)
        except (KeyError, TypeError) as exc:
            raise ReductionError("malformed machine JSON: %s" % exc)


def immediate_acceptor():
    """A two-state machine that accepts the empty word in one step."""
    return TuringMachine(
        ["q0", "qa"], "q0", "qa",
        [Transition("q0", "_", "0", "L", "qa"),
         Transition("qa", "0", "0", "L", "qa"),
         Transition("qa", "1", "1", "L", "qa"),
         Transition("qa", "_", "_", "L", "qa")],
    )


class CellDescriptor(NamedTuple):
    content: str  # "0", "1", "_"
    head: str     # "<", ">", or a state name

    def is_state(self):
        return self.head not in (LEFT, RIGHT)


def _descriptor_ok(e, m):
    return e.content in SYMBOLS and (
        e.head in (LEFT, RIGHT) or e.head in m.states
    )


@dataclass(frozen=True)
class Square2x2:
    tl: CellDescriptor
    tr: CellDescriptor
    bl: CellDescriptor
    br: CellDescriptor
    row: int
    col: int
    k: int

    def __post_init__(self):
        size = 1 << self.k
        if not (0 <= self.row < size and 0 <= self.col < size):
            raise ReductionError("square position out of range")


def _check_word(word):
    if any(ch not in ("0", "1") for ch in word):
        raise ReductionError("input word must be over {0, 1}")


def simulate_tm(m, word, steps, width, accept_row=None):
    """Depth-first search for an accepting run, as a table of descriptors.

    Returns a steps x width table whose row ``accept_row`` (default the
    last) has the accept state on cell 0, or None.  Only rows 0 to
    ``accept_row`` are searched, branching in declared transition order; a
    right move past ``width`` ends the branch and a left move stops at cell
    0.  The rows after ``accept_row`` repeat it: the accept state's
    do-nothing transitions are the only moves from there.
    """
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
    # rows[i] is step i's (tape, head, state); tried[i] is the index of the
    # next transition to try from it
    rows, tried, nodes = [(word.ljust(width, "_"), 0, m.start)], [0], 1
    while len(rows) <= accept_row or rows[-1][1:] != (0, m.accept):
        n = tried[-1]
        # backtrack from a rejecting accept row or a row with no moves left
        if len(rows) > accept_row or n == len(m.transitions):
            rows.pop()
            tried.pop()
            if not rows:
                return None
            continue
        tried[-1] = n + 1
        tape, pos, state = rows[-1]
        t = m.transitions[n]
        to = pos + 1 if t.move == "R" else max(pos - 1, 0)
        if t.frm == state and t.read == tape[pos] and to < width:
            if nodes == DEFAULT_NODE_CAP:
                raise ResourceCapError("simulation node cap exceeded")
            nodes += 1
            rows.append((tape[:pos] + t.write + tape[pos + 1:], to, t.to))
            tried.append(0)
    rows += rows[-1:] * (steps - len(rows))
    return [[CellDescriptor(tape[j], state if j == pos else
                            LEFT if pos < j else RIGHT) for j in range(width)]
            for tape, pos, state in rows]


def table_window(table, i, j, k):
    """The 2x2 window with upper-left (i, j), wrapping around the edges."""
    size = 1 << k
    return Square2x2(
        tl=table[i][j],
        tr=table[i][(j + 1) % size],
        bl=table[(i + 1) % size][j],
        br=table[(i + 1) % size][(j + 1) % size],
        row=i, col=j, k=k,
    )


# --- the window conditions: semantic oracle ----------------------------------------


def _rule_consistent(sq, m):
    """True iff the window fits some application of a transition rule.

    Content-only check (position handled separately): case split on where
    the head sits in the top row relative to the window's two columns.
    """
    tl, tr, bl, br = sq.tl, sq.tr, sq.bl, sq.br
    for t in m.transitions:
        qy = t.to
        # head on the left column
        if (tl.head == t.frm and tl.content == t.read and tr.head == LEFT
                and bl.content == t.write and br.content == tr.content):
            if t.move == "L":
                # the head leaves to the left, or stays put (cell-0 case)
                if (bl.head == LEFT or bl.head == qy) and br.head == LEFT:
                    return True
            else:
                if bl.head == RIGHT and br.head == qy:
                    return True
        # head on the right column
        if (tr.head == t.frm and tr.content == t.read and tl.head == RIGHT
                and br.content == t.write and bl.content == tl.content):
            if t.move == "L":
                if bl.head == qy and br.head == LEFT:
                    return True
            else:
                if bl.head == RIGHT and br.head == RIGHT:
                    return True
        # head somewhere to the left of the window
        if (tl.head == LEFT and tr.head == LEFT
                and bl.content == tl.content and br.content == tr.content):
            if t.move == "R":
                # it may step into the left column
                if bl.head == qy and br.head == LEFT:
                    return True
            if bl.head == LEFT and br.head == LEFT:
                return True
        # head somewhere to the right of the window
        if (tl.head == RIGHT and tr.head == RIGHT
                and bl.content == tl.content and br.content == tr.content):
            if t.move == "L":
                if bl.head == RIGHT and br.head == qy:
                    return True
            if bl.head == RIGHT and br.head == RIGHT:
                return True
    return False


def _wrap_row_ok(left, right):
    """Head-marker sanity for a column-wrapped window row.

    ``left`` is the last tape cell, ``right`` is cell 0; a single head
    somewhere on the tape allows exactly these marker combinations.
    """
    return (
        (left.is_state() and right.head == RIGHT)
        or (left.head == LEFT and right.is_state())
        or (left.head == LEFT and right.head == RIGHT)
    )


def square_oracle(sq, m, word, K):
    """Ground-truth admissibility of a 2x2 window at its position."""
    size = 1 << sq.k
    if not 1 <= K <= size:
        raise ReductionError("step bound does not fit the table")
    i, j = sq.row, sq.col
    entries = [
        (i, j, sq.tl),
        (i, (j + 1) % size, sq.tr),
        ((i + 1) % size, j, sq.bl),
        ((i + 1) % size, (j + 1) % size, sq.br),
    ]
    for r, c, e in entries:
        if not _descriptor_ok(e, m):
            return False
        if r == 0:
            want = word[c] if c < len(word) else "_"
            if e.content != want:
                return False
            if e.head != (m.start if c == 0 else LEFT):
                return False
        if r == K - 1 and c == 0 and e.head != m.accept:
            return False
    if i == size - 1:
        return True  # rows not consecutive in time
    if j == size - 1:
        return _wrap_row_ok(sq.tl, sq.tr) and _wrap_row_ok(sq.bl, sq.br)
    return _rule_consistent(sq, m)


# --- the window conditions: per-rule pattern generation -----------------------------


def admissible_squares(m):
    """The content/head patterns consistent with some transition rule.

    Each pattern is a (tl, tr, bl, br) tuple of CellDescriptors; generation
    expands each rule's head-position schemata over all tape symbols.  With
    the head outside the window the contents copy down whatever the rule:
    those patterns are added once.
    """
    pats = set()
    for y, z in itertools.product(SYMBOLS, SYMBOLS):
        for h in (LEFT, RIGHT):
            pats.add((CellDescriptor(y, h), CellDescriptor(z, h),
                      CellDescriptor(y, h), CellDescriptor(z, h)))
    for t in m.transitions:
        qx, a, b, qy = t.frm, t.read, t.write, t.to
        for z in SYMBOLS:
            # head on the left column, reading a
            tl = CellDescriptor(a, qx)
            tr = CellDescriptor(z, LEFT)
            if t.move == "L":
                pats.add((tl, tr, CellDescriptor(b, LEFT), CellDescriptor(z, LEFT)))
                pats.add((tl, tr, CellDescriptor(b, qy), CellDescriptor(z, LEFT)))
            else:
                pats.add((tl, tr, CellDescriptor(b, RIGHT), CellDescriptor(z, qy)))
        for y in SYMBOLS:
            # head on the right column
            tl = CellDescriptor(y, RIGHT)
            tr = CellDescriptor(a, qx)
            if t.move == "L":
                pats.add((tl, tr, CellDescriptor(y, qy), CellDescriptor(b, LEFT)))
            else:
                pats.add((tl, tr, CellDescriptor(y, RIGHT), CellDescriptor(b, RIGHT)))
        for y, z in itertools.product(SYMBOLS, SYMBOLS):
            if t.move == "R":
                # the head outside to the left steps into the left column
                pats.add((CellDescriptor(y, LEFT), CellDescriptor(z, LEFT),
                          CellDescriptor(y, qy), CellDescriptor(z, LEFT)))
            else:
                # the head outside to the right steps into the right column
                pats.add((CellDescriptor(y, RIGHT), CellDescriptor(z, RIGHT),
                          CellDescriptor(y, RIGHT), CellDescriptor(z, qy)))
    return pats


# --- game construction ----------------------------------------------------------

# each window entry's (row, column) offset from the window's upper left
ENTRY_OFFSETS = {"": (0, 0), "s": (0, 1), "n": (1, 0), "ns": (1, 1)}
ENTRY_PREFIXES = tuple(ENTRY_OFFSETS)


class Entry(NamedTuple):
    """The variables that name one run-table entry: its row (``time``) and
    column (``tape``) bits, its two content flags (a blank sets neither),
    and ``heads``, each head marker's flag: left, right, then the states."""
    time: tuple
    tape: tuple
    zero: str
    one: str
    heads: dict

    @classmethod
    def named(cls, prefix, player, states, k):
        """Player ``player``'s entry at window position ``prefix``."""
        def name(field):
            return "%s%s%d" % (prefix, field, player)
        heads = {LEFT: name("Left"), RIGHT: name("Right")}
        heads.update((q, "%s.%s" % (name("State"), q)) for q in states)
        return cls(var_bits(name("Time"), k), var_bits(name("Tape"), k),
                   name("Zero"), name("One"), heads)

    @property
    def flags(self):
        return [self.zero, self.one, *self.heads.values()]


class VarIndex:
    """A reduction's variables: player 1's entry, player 2's four window
    entries and the side game's roles.  The entries' time and tape
    sequences are checked here, once (``check_bits``), so the formulas over
    them skip the check."""

    def __init__(self, m, k, gadget_roles):
        self.k = k
        self.entry1 = Entry.named("", 1, m.states, k)
        self.entry2 = {p: Entry.named(p, 2, m.states, k)
                       for p in ENTRY_PREFIXES}
        self.gadget = gadget_roles
        check_bits(*(bits for e in (self.entry1, *self.entry2.values())
                     for bits in (e.time, e.tape)))

    def to_json(self):
        e1, e2 = self.entry1, self.entry2
        return json.dumps({
            "k": self.k,
            "Time1": list(e1.time), "Tape1": list(e1.tape),
            "entry1": e1.flags,
            "Time2": {p: list(e.time) for p, e in e2.items()},
            "Tape2": {p: list(e.tape) for p, e in e2.items()},
            "entry2": {p: e.flags for p, e in e2.items()},
            "gadget": {r: list(v) for r, v in self.gadget.items()},
        })


@dataclass
class RequireOutput:
    """What the window checks read of a reduction (``build_require``)."""
    machine: TuringMachine
    word: str
    bound: int
    mode: str
    k: int
    var_index: VarIndex
    require: object       # the Require (or Illegal) formula
    player2_vars: tuple   # var_set: the game's var_sets[1]


@dataclass
class ReductionOutput(RequireOutput):
    """A reduction's game, on top of its ``RequireOutput``."""
    game: BooleanGame
    payoff: list
    gadget: object        # the 3/4-value gadget bundle


def _descriptor_formula(e, desc):
    """``desc`` on entry ``e``: its content flag (a blank is neither;
    exclusivity comes from well-formedness) and its head marker's flag."""
    zero, one = Var(e.zero), Var(e.one)
    content = (zero if desc.content == "0" else one if desc.content == "1"
               else And((Not(zero), Not(one))))
    return And((content, Var(e.heads[desc.head])))


def _compare(kind, p, q):
    """``build_comparison`` of ``VarIndex`` sequences, which it has checked,
    and constants of their width: the check is not repeated."""
    return build_comparison(kind, p, q, checked=True)


def _eq_const(bits, value, k):
    return _compare("equal", bits, const_bits(value, k))


def _succ_mod(x, y, k):
    top = const_bits((1 << k) - 1, k)
    zero = const_bits(0, k)
    return Or((
        _compare("succ", x, y),
        And((_compare("equal", x, top), _compare("equal", y, zero))),
    ))


def _require_parts(m, word, K, k, vi):
    """(shape, well_formed, positional, consistency) subformulas."""
    size = 1 << k
    e = vi.entry2
    shape = conj([
        _succ_mod(e[""].tape, e["s"].tape, k),
        _succ_mod(e[""].time, e["n"].time, k),
        _compare("equal", e[""].tape, e["n"].tape),
        _compare("equal", e[""].time, e["s"].time),
        _compare("equal", e["s"].tape, e["ns"].tape),
        _compare("equal", e["n"].time, e["ns"].time),
    ])
    well_formed = conj([
        conj([
            build_cardinality("one_of", list(entry.heads.values())),
            Not(And((Var(entry.one), Var(entry.zero)))),
        ])
        for entry in e.values()
    ])
    positional = []
    for entry in e.values():
        at_zero = _eq_const(entry.time, 0, k)
        for c in range(size):
            desc = CellDescriptor(
                word[c] if c < len(word) else "_",
                m.start if c == 0 else LEFT,
            )
            positional.append(Implies(
                And((at_zero, _eq_const(entry.tape, c, k))),
                _descriptor_formula(entry, desc),
            ))
        positional.append(Implies(
            And((_eq_const(entry.time, K - 1, k),
                 _eq_const(entry.tape, 0, k))),
            Var(entry.heads[m.accept]),
        ))
    positional = conj(positional)

    patterns = admissible_squares(m)
    # the rules in the order of their reprs, each entry's formula built
    # once.  A rule is And((four entries)), its repr theirs joined inside a
    # constant wrapper, and no repr is a proper prefix of another, so the
    # rules' reprs compare as the lists of their entries' reprs.  Entries at
    # one prefix compare as (content name, head name): a blank's repr opens
    # "And(" and a flag's "Var(name='", "One" sorts before "Zero", and a
    # name is followed by "'", which sorts before every name character
    entries = {}
    for pat in patterns:
        for p, d in zip(ENTRY_PREFIXES, pat):
            if (p, d) not in entries:
                f = _descriptor_formula(e[p], d)
                content, head = f.children
                key = (content.name if type(content) is Var else "", head.name)
                entries[p, d] = (key, f)
    rules = sorted([entries[p, d] for p, d in zip(ENTRY_PREFIXES, pat)]
                   for pat in patterns)
    rule_disj = disj(conj([f for _, f in rule]) for rule in rules)

    def wrap_row(a, b):
        a_state = disj([Var(a.heads[q]) for q in m.states])
        b_state = disj([Var(b.heads[q]) for q in m.states])
        a_left, b_right = Var(a.heads[LEFT]), Var(b.heads[RIGHT])
        return Or((
            And((a_state, b_right)),
            And((a_left, b_state)),
            And((a_left, b_right)),
        ))

    time_wrapped = _eq_const(e[""].time, size - 1, k)
    col_wrapped = _eq_const(e[""].tape, size - 1, k)
    consistency = Or((
        time_wrapped,
        And((col_wrapped, wrap_row(e[""], e["s"]),
             wrap_row(e["n"], e["ns"]))),
        And((Not(col_wrapped), rule_disj)),
    ))
    return shape, well_formed, positional, consistency


def _corner_match(vi, prefix):
    e1, e2 = vi.entry1, vi.entry2[prefix]
    return And((
        _compare("equal", e1.tape, e2.tape),
        _compare("equal", e1.time, e2.time),
    ))


def _agree(vi, corners):
    """Player 2's entries agree with player 1's where their corners match
    (``corners``: each prefix's ``_corner_match``)."""
    parts = []
    for p, e in vi.entry2.items():
        same = conj(Iff(Var(a), Var(b))
                    for a, b in zip(vi.entry1.flags, e.flags))
        parts.append(Implies(corners[p], same))
    return conj(parts)


def _bound_width(K):
    if K < 1:
        raise ReductionError("step bound must be positive")
    return max(1, (K - 1).bit_length())


# the side game of value 3/4 and its namespace
GADGET_VALUE, GADGET_NAMESPACE = Fraction(3, 4), "g34"


def build_require(m, word, K, mode):
    """The Require formula (mode "exists") or Illegal ("forall") over player
    2's variables, without the game around it: all that the window checks
    read (``decode_square``, ``oracle_requires``, ``bg verify squares``).
    Player 2's variables are the game's, the side game's included, named by
    ``fixed_value_roles`` so that no gadget game is built."""
    _check_word(word)
    k = _bound_width(K)
    size = 1 << k
    if size * size > DEFAULT_NODE_CAP:
        most = 1 << (DEFAULT_NODE_CAP.bit_length() - 1) // 2
        raise ResourceCapError(
            "--bound %d needs a %dx%d run table (%d entries); the cap is %d "
            "entries, --bound %d at most" % (K, size, size, size * size,
                                             DEFAULT_NODE_CAP, most))
    if len(word) > size:
        raise ReductionError(
            "input word of %d symbols is longer than the %d-cell run table "
            "of --bound %d" % (len(word), size, K))
    roles, (_, gadget2) = fixed_value_roles(GADGET_VALUE, GADGET_NAMESPACE)
    vi = VarIndex(m, k, roles)
    shape, well_formed, positional, consistency = _require_parts(m, word, K, k,
                                                                 vi)
    if mode == "exists":
        require = conj([shape, well_formed, positional, consistency])
    else:
        if k < 2:
            raise ReductionError("the guaranteed-payoff formula needs k >= 2")
        require = conj([shape, well_formed,
                        Not(And((positional, consistency)))])
    var2 = [v for e in vi.entry2.values()
            for v in (*e.time, *e.tape, *e.flags)]
    var2 += gadget2
    return RequireOutput(machine=m, word=word, bound=K, mode=mode, k=k,
                         var_index=vi, require=require,
                         player2_vars=var_set(var2))


def _build_reduction(m, word, K, mode):
    req = build_require(m, word, K, mode)
    vi, k = req.var_index, req.k
    size = 1 << k
    gadget = fixed_value_game(GADGET_VALUE, GADGET_NAMESPACE)

    corners = {p: _corner_match(vi, p) for p in ENTRY_PREFIXES}
    avoid_corner = Not(corners[""])
    avoid = conj([Not(corners[p]) for p in ("s", "n", "ns")])
    g1_goal, g2_goal = gadget.game.goals

    gamma1 = And((avoid_corner, Or((avoid, g1_goal))))
    gamma2 = conj([
        Or((Not(avoid_corner), And((Not(avoid), g2_goal)))),
        _agree(vi, corners),
        req.require,
    ])

    e1 = vi.entry1
    var1 = [*e1.time, *e1.tape, *e1.flags, *gadget.game.var_sets[0]]
    game = BooleanGame([var1, req.player2_vars], [gamma1, gamma2])

    if mode == "exists":
        v2 = Fraction(1, size * size) + Fraction(3, size * size * 4)
    else:
        n2k = 1 << (2 * k)
        n2k2 = 1 << (2 * k + 2)
        delta = Fraction(1, n2k2) - Fraction(1, n2k2 * n2k)
        v2 = (Fraction(1, n2k) + delta / (n2k - 4)
              + Fraction(2, n2k2) + 2 * delta / (n2k2 - 16))
    return ReductionOutput(**vars(req), game=game, payoff=[Fraction(0), v2],
                           gadget=gadget)


def build_guarantee_game(m, word, K):
    """Game where player 2 can be guaranteed payoff[2] in some equilibrium
    iff the machine accepts the word within K steps."""
    return _build_reduction(m, word, K, "exists")


def build_forall_guarantee_game(m, word, K):
    """Variant where player 2 hunts for an illegal window; she is guaranteed
    payoff[2] in every equilibrium iff the machine does not accept."""
    return _build_reduction(m, word, K, "forall")


# --- witnesses and decoding -------------------------------------------------------


def _entry_assign(e, row, col, desc):
    """The values of entry ``e``'s variables that place ``desc`` at (row,
    col)."""
    return {**assign_bits(e.time, row), **assign_bits(e.tape, col),
            e.zero: desc.content == "0", e.one: desc.content == "1",
            **{name: desc.head == h for h, name in e.heads.items()}}


def witness_profile(ro, table):
    """The run-describing profile: player 1 uniform over table entries,
    player 2 uniform over windows, times the side game's equilibrium."""
    size = 1 << ro.k
    if len(table) != size or any(len(row) != size for row in table):
        raise ReductionError("table does not match the game's dimensions")
    vi = ro.var_index
    cells = Fraction(1, size * size)
    support1, support2 = [], []
    for i in range(size):
        for j in range(size):
            support1.append((_entry_assign(vi.entry1, i, j, table[i][j]),
                             cells))
            window = {}
            for p, (di, dj) in ENTRY_OFFSETS.items():
                r, c = (i + di) % size, (j + dj) % size
                window.update(_entry_assign(vi.entry2[p], r, c, table[r][c]))
            support2.append((window, cells))
    return product_profile(MixedProfile([support1, support2]),
                           ro.gadget.equilibrium)


def _decode_entry(assign, e):
    """The descriptor that entry ``e``'s flags set in ``assign`` spell, or
    None unless at most one content flag and exactly one head flag are set.
    The head flags are read until a second one is set."""
    zero, one = assign[e.zero], assign[e.one]
    if zero and one:
        return None
    head = None
    for h, name in e.heads.items():
        if assign[name]:
            if head is not None:
                return None
            head = h
    if head is None:
        return None
    return CellDescriptor("0" if zero else "1" if one else "_", head)


def decodable_trials(ro, masks, full):
    """The trials (bit r of each mask is trial r) whose four window entries
    ``_decode_entry`` decodes: at most one content flag and exactly one head
    flag each.  No other trial passes ``decode_square``."""
    ok = full
    for e in ro.var_index.entry2.values():
        once = twice = 0
        for name in e.heads.values():
            twice |= once & masks[name]
            once |= masks[name]
        ok &= once & ~twice & ~(masks[e.zero] & masks[e.one])
    return ok


def decode_square(ro, assign):
    """Player 2's assignment as a positioned window, or None if the shape
    or well-formedness conditions fail."""
    e2 = ro.var_index.entry2
    k, size = ro.k, 1 << ro.k
    # the flag checks first: they are cheaper than decoding positions
    descs = []
    for e in e2.values():
        d = _decode_entry(assign, e)
        if d is None:
            return None
        descs.append(d)
    i, j = decode_bits(e2[""].time, assign), decode_bits(e2[""].tape, assign)
    for p, (di, dj) in ENTRY_OFFSETS.items():
        if (decode_bits(e2[p].time, assign) != (i + di) % size
                or decode_bits(e2[p].tape, assign) != (j + dj) % size):
            return None
    return Square2x2(*descs, i, j, k)


def oracle_requires(ro, assign):
    """The independent pipeline equivalent of the Require formula (or, for
    the forall variant, of Illegal): decode, then consult square_oracle."""
    sq = decode_square(ro, assign)
    if sq is None:
        return False
    admissible = square_oracle(sq, ro.machine, ro.word, ro.bound)
    return admissible if ro.mode == "exists" else not admissible


# --- cover-weight system ----------------------------------------------------------


# the largest m: the elimination grows as m^6, m = 16 takes 1 s, 20 takes 5 s
COVER_MATRIX_CAP = 16


def cover_matrix_check(m, cap=COVER_MATRIX_CAP):
    """Nonsingularity of the m^2 x m^2 cover-weight system: each equation
    reads 4*x[i][j] + x[i-1][j] + x[i][j-1] + x[i-1][j-1], indices mod m."""
    if m < 2:
        raise ReductionError("need m >= 2")
    if m > cap:
        raise ResourceCapError("cover matrix m = %d exceeds cap %d" % (m, cap))
    n = m * m

    def idx(i, j):
        return (i % m) * m + (j % m)

    rows = []
    for i in range(m):
        for j in range(m):
            row = [0] * n
            row[idx(i, j)] += 4
            row[idx(i - 1, j)] += 1
            row[idx(i, j - 1)] += 1
            row[idx(i - 1, j - 1)] += 1
            rows.append(row)
    # exact elimination by lp's fraction-free pivot: full rank iff every
    # column finds a nonzero entry in a row not yet pivoted on
    basis, zrow, d = [None] * n, [0] * n, 1
    for col in range(n):
        r = next((r for r in range(n) if basis[r] is None and rows[r][col]),
                 None)
        if r is None:
            return False
        d = _pivot(rows, zrow, basis, d, r, col)
    return True


# --- game transformations -----------------------------------------------------------


def _extend(g, new1, new2):
    """``g``'s two variable lists followed by ``new1`` and ``new2``, which
    must not reuse any variable of ``g``."""
    clash = set(g.all_vars()).intersection([*new1, *new2])
    if clash:
        raise ReductionError("variable collision: %s" % sorted(clash)[0])
    return [*g.var_sets[0], *new1], [*g.var_sets[1], *new2]


def _neg_all(names):
    return conj([Not(Var(v)) for v in names])


def transform_game(kind, g, v, namespace="t"):
    """Equilibrium-structure transformations of a two-player game.

    unique_nash: the result has a unique equilibrium iff no equilibrium of
    g guarantees the payoff pair v.  forall_nash_sat: returns (game, phi)
    where phi holds in every equilibrium iff no equilibrium guarantees v.
    irrational: v is a scalar in [0, 1); the result has an irrational
    equilibrium iff some equilibrium of g gives player 1 at least v.
    """
    if g.players != 2:
        raise ReductionError("transformations are defined for two players")
    ns = namespace
    if kind in ("unique_nash", "forall_nash_sat"):
        v1, v2 = (Fraction(x) for x in v)
        for x in (v1, v2):
            if not 0 <= x <= 1:
                raise ReductionError("payoffs must lie in [0, 1]")
        gu = fixed_value_game(v1, namespaced(ns, "gu"))
        gw = fixed_value_game(1 - v2, namespaced(ns, "gw"))
        play1, play2 = namespaced(ns, "Play1"), namespaced(ns, "Play2")
        gu1, gu2 = gu.game.goals
        gw1, gw2 = gw.game.goals
        new1 = [*gu.game.var_sets[0], *gw.game.var_sets[0], play1]
        new2 = [*gu.game.var_sets[1], *gw.game.var_sets[1], play2]
        if kind == "unique_nash":
            dummy1, dummy2 = namespaced(ns, "Dummy1"), namespaced(ns, "Dummy2")
            var1, var2 = _extend(g, new1 + [dummy1], new2 + [dummy2])
            gamma1 = And((gw1, Or((
                And((Not(Var(play1)), Not(Var(play2)), g.goals[0])),
                And((Var(play1), Not(Var(dummy1)),
                     _neg_all(g.var_sets[0]), gu1)),
            ))))
            gamma2 = And((gu2, Or((
                And((Not(Var(play1)), Not(Var(play2)), g.goals[1])),
                And((Var(play2), Not(Var(dummy2)),
                     _neg_all(g.var_sets[1]), gw2)),
            ))))
            return BooleanGame([var1, var2], [gamma1, gamma2]), None
        var1, var2 = _extend(g, new1, new2)
        gamma1 = Or((
            And((Not(Var(play1)), Not(Var(play2)), g.goals[0])),
            And((Var(play1), gu1)),
            And((Var(play2), gw1)),
        ))
        gamma2 = Or((
            And((Not(Var(play1)), Not(Var(play2)), g.goals[1])),
            And((Var(play1), gu2)),
            And((Var(play2), gw2)),
        ))
        phi = Or((Var(play1), Var(play2)))
        return BooleanGame([var1, var2], [gamma1, gamma2]), phi
    if kind == "irrational":
        value = Fraction(v)
        if not 0 <= value < 1:
            raise ReductionError("payoff must lie in [0, 1)")
        gv = fixed_value_game(value, namespaced(ns, "gv"))
        gv1, gv2 = gv.game.goals
        dummy = namespaced(ns, "Dummy")
        choice1, choice2 = namespaced(ns, "Choice1"), namespaced(ns, "Choice2")
        var1, var2 = _extend(g, [dummy, choice1, *gv.game.var_sets[0]],
                             [choice2, *gv.game.var_sets[1]])
        # player 1's fallback needs only his own refusal; player 2's needs both
        gamma1 = Or((
            And((g.goals[0], Var(choice1), Var(choice2))),
            And((gv1, Not(Var(choice1)), Not(Var(dummy)),
                 _neg_all(g.var_sets[0]))),
        ))
        gamma2 = Or((
            And((g.goals[1], Var(choice1), Var(choice2))),
            And((gv2, Not(Var(choice1)), Not(Var(choice2)),
                 _neg_all(g.var_sets[1]))),
        ))
        return BooleanGame([var1, var2], [gamma1, gamma2]), None
    raise ReductionError("unknown transformation %r" % (kind,))


EXISTS_SAT_NAMESPACE = "half"


def transform_exists_nash_sat(m, word, K):
    """Guarantee game recast as a satisfaction query: returns (game, phi)
    where phi holds with probability 1 in some equilibrium iff the machine
    accepts.  The side game uses the fixed namespace EXISTS_SAT_NAMESPACE."""
    ro = build_guarantee_game(m, word, K)
    half = fixed_value_game(Fraction(1, 2), EXISTS_SAT_NAMESPACE)
    h1, h2 = half.game.goals
    g1, g2 = ro.game.goals
    var1, var2 = _extend(ro.game, *half.game.var_sets)
    gamma1 = And((g1, h1))
    gamma2 = Or((g2, And((Not(g1), h2))))
    phi = Or((g1, g2))
    return BooleanGame([var1, var2], [gamma1, gamma2]), phi
