import itertools

import pytest

from boolgames.encodings import (
    EncodingError,
    assign_bits,
    build_arithmetic,
    build_cardinality,
    build_comparison,
    build_square,
    const_bits,
    decode_bits,
    var_bits,
)
from boolgames.formula import compile_formula, formula_size, free_vars


def assign_from(prefixes_and_values, m):
    out = {}
    for prefix, value in prefixes_and_values:
        for i, bit in enumerate(const_bits(value, m)):
            out["%s%d" % (prefix, i + 1)] = bit
    return out


def test_var_bits_naming():
    assert var_bits("x", 3) == ("x1", "x2", "x3")
    with pytest.raises(EncodingError):
        var_bits("x", 0)


def test_const_bits_round_trip():
    for m in range(1, 5):
        for v in range(1 << m):
            assert decode_bits(const_bits(v, m), {}) == v
    with pytest.raises(EncodingError):
        const_bits(4, 2)


def test_assign_bits_inverts_decode_bits():
    for m in range(1, 5):
        seq = var_bits("x", m)
        for v in range(1 << m):
            a = assign_bits(seq, v)
            assert sorted(a) == sorted(seq)
            assert decode_bits(seq, a) == v
    with pytest.raises(EncodingError):
        assign_bits(var_bits("x", 2), 4)


def test_decode_bits_mixed_terms():
    # sequences are most-significant bit first
    bits = ("x1", True, False)
    assert decode_bits(bits, {"x1": True}) == 0b110
    assert decode_bits(bits, {"x1": False}) == 0b010


def test_comparison_small():
    m = 2
    f = compile_formula(build_comparison("less", var_bits("x", m),
                                         var_bits("y", m)))
    for a, b in itertools.product(range(4), repeat=2):
        assert f(assign_from([("x", a), ("y", b)], m)) == (a < b)


def test_comparison_against_constant():
    m = 3
    f = compile_formula(build_comparison("equal", var_bits("x", m),
                                         const_bits(5, m)))
    for a in range(8):
        assert f(assign_from([("x", a)], m)) == (a == 5)


def test_arithmetic_no_overflow():
    m = 2
    f = compile_formula(build_arithmetic("add", var_bits("x", m),
                                         var_bits("y", m), var_bits("z", m)))
    for a, b, c in itertools.product(range(4), repeat=3):
        expect = a + b == c  # overflowing sums have no valid c
        assert f(assign_from([("x", a), ("y", b), ("z", c)], m)) == expect


def test_sub_is_inverse_of_add():
    m = 3
    sub = compile_formula(build_arithmetic("sub", var_bits("x", m),
                                           var_bits("y", m), var_bits("z", m)))
    for a, b in itertools.product(range(8), repeat=2):
        matches = [c for c in range(8)
                   if sub(assign_from([("x", a), ("y", b), ("z", c)], m))]
        assert matches == ([a - b] if a >= b else [])


def test_width_mismatch_rejected():
    with pytest.raises(EncodingError):
        build_comparison("equal", var_bits("x", 2), var_bits("y", 3))


def test_cardinality():
    one = compile_formula(build_cardinality("one_of", ["a", "b", "c"]))
    none = compile_formula(build_cardinality("none_of", ["a", "b", "c"]))
    for bits in itertools.product([False, True], repeat=3):
        a = dict(zip("abc", bits))
        assert one(a) == (sum(bits) == 1)
        assert none(a) == (sum(bits) == 0)


def square_parts(k):
    R = var_bits("R", k)
    Rsq = var_bits("Rsq", 2 * k)
    summands = [var_bits("S%d" % j, 2 * k) for j in range(k)]
    partials = [var_bits("P%d" % j, 2 * k) for j in range(k + 1)]
    return R, Rsq, summands, partials


def schedule_assignment(r, k):
    """The shifted-summand witness: summand j holds r << (k-1-j) when the
    bit of that weight is set (sequences are MSB-first)."""
    out = assign_from([("R", r)], k)
    prev = 0
    for j in range(k):
        shift = k - 1 - j
        s = (r << shift) if (r >> shift) & 1 else 0
        for i, bit in enumerate(const_bits(s, 2 * k)):
            out["S%d%d" % (j, i + 1)] = bit
        for i, bit in enumerate(const_bits(prev, 2 * k)):
            out["P%d%d" % (j, i + 1)] = bit
        prev += s
    for i, bit in enumerate(const_bits(prev, 2 * k)):
        out["P%d%d" % (k, i + 1)] = bit
    return out


def test_square_exhaustive_k1():
    k = 1
    f = compile_formula(build_square(*square_parts(k)))
    names = sorted(free_vars(build_square(*square_parts(k))))
    sat = set()
    for bits in itertools.product([False, True], repeat=len(names)):
        a = dict(zip(names, bits))
        if f(a):
            r = decode_bits(var_bits("R", k), a)
            rsq = decode_bits(var_bits("Rsq", 2 * k), a)
            sat.add((r, rsq))
            # the witness is forced to the schedule
            sched = schedule_assignment(r, k)
            assert all(a[n] == sched[n] for n in sched if not n.startswith("Rsq"))
    assert sat == {(r, r * r) for r in range(1 << k)}


def test_square_schedule_k2():
    k = 2
    f = compile_formula(build_square(*square_parts(k)))
    for r in range(1 << k):
        a = schedule_assignment(r, k)
        for rsq in range(1 << (2 * k)):
            a.update(assign_from([("Rsq", rsq)], 2 * k))
            assert f(a) == (rsq == r * r)


def test_square_shape_errors():
    R, Rsq, summands, partials = square_parts(2)
    with pytest.raises(EncodingError):
        build_square(R, Rsq, summands, partials[:-1])
    with pytest.raises(EncodingError):
        build_square(R, var_bits("Rsq", 3), summands, partials)


def test_encoding_sizes_stay_polynomial():
    sizes = [formula_size(build_comparison("less", var_bits("x", m),
                                           var_bits("y", m)))
             for m in (2, 4, 8)]
    assert sizes[0] < sizes[1] < sizes[2]
    assert sizes[2] <= 20 * sizes[1]  # no exponential blowup on doubling
