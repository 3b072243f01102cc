"""Require-vs-oracle test inputs near the reduction's legal windows.

Uniform random player-2 assignments are rejected by Require and by the
decoding oracle alike, so draws of that kind cannot tell the two apart.
"""

from boolgames.reductions import simulate_tm, witness_profile


def perturbed_windows(ro, rng, count):
    """``count`` windows of a genuine accepting run of ``ro``'s machine,
    each with 1-3 random player-2 bits flipped."""
    size = 1 << ro.k
    table = simulate_tm(ro.machine, ro.word, size, size)
    windows = [a for a, _ in witness_profile(ro, table).strategies[1]]
    names = ro.game.var_sets[1]
    for _ in range(count):
        a = dict(rng.choice(windows))
        for v in rng.sample(names, rng.randint(1, 3)):
            a[v] = not a[v]
        yield a
