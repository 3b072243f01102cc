"""Require-vs-oracle test inputs near the reduction's legal windows.

Uniform random player-2 assignments are rejected by Require and by the
decoding oracle alike, so draws of that kind cannot tell the two apart.
"""

from boolgames.reductions import (LEFT, RIGHT, SYMBOLS, CellDescriptor,
                                  _decode_entry, simulate_tm, witness_profile)


def perturbed_windows(ro, rng, count, table=None):
    """``count`` windows of ``table`` (by default a genuine accepting run of
    ``ro``'s machine), each with 1-3 random player-2 bits flipped."""
    size = 1 << ro.k
    if table is None:
        table = simulate_tm(ro.machine, ro.word, size, size)
    windows = [a for a, _ in witness_profile(ro, table).strategies[1]]
    names = ro.game.var_sets[1]
    for _ in range(count):
        a = dict(rng.choice(windows))
        for v in rng.sample(names, rng.randint(1, 3)):
            a[v] = not a[v]
        yield a


def random_table(ro, rng):
    """A table of ``ro``'s dimensions whose entries are drawn at random over
    ``ro``'s machine: well-formed descriptors, mostly illegal windows."""
    size = 1 << ro.k
    heads = (LEFT, RIGHT, *ro.machine.states)
    return [[CellDescriptor(rng.choice(SYMBOLS), rng.choice(heads))
             for _ in range(size)] for _ in range(size)]


def entries_decode(ro, a):
    """Whether ``_decode_entry`` decodes all four of the window entries that
    player 2's assignment ``a`` describes (the rule ``verify squares``
    screens its trials with)."""
    return all(_decode_entry(a, e) is not None
               for e in ro.var_index.entry2.values())


def trial_masks(trials, names):
    """The masks ``game.draw_masks`` would draw for ``trials``: one per
    variable of ``names``, bit r its value in ``trials[r]``."""
    return [sum(a[v] << r for r, a in enumerate(trials)) for v in names]
