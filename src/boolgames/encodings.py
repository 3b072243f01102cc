"""Arithmetic over propositional formulas on fixed-width bit sequences.

A bit sequence is a tuple of terms, most significant first; each term is
either a variable name (str) or a boolean constant.  All builders return
plain Formula ASTs and never invent fresh variables.
"""

from __future__ import annotations

from .formula import (
    TRUE,
    FALSE,
    Var,
    Not,
    And,
    Or,
    Implies,
    Iff,
    conj,
    disj,
    is_valid_var,
)


class EncodingError(Exception):
    pass


def var_bits(prefix, m):
    """Bit sequence of m fresh-by-name variables prefix1..prefixm, MSB first."""
    if m < 1:
        raise EncodingError("width must be at least 1")
    return tuple("%s%d" % (prefix, i) for i in range(1, m + 1))


def const_bits(value, m):
    """The m-bit constant sequence for ``value`` (MSB first)."""
    if m < 1:
        raise EncodingError("width must be at least 1")
    if value < 0 or value >= 1 << m:
        raise EncodingError("%d does not fit in %d bits" % (value, m))
    return tuple(bool((value >> (m - i)) & 1) for i in range(1, m + 1))


def _check_seq(s):
    if len(s) < 1:
        raise EncodingError("empty bit sequence")
    seen = set()
    for t in s:
        if isinstance(t, bool):
            continue
        if not isinstance(t, str) or not is_valid_var(t):
            raise EncodingError("bad bit term: %r" % (t,))
        if t in seen:
            raise EncodingError("duplicate variable %s in bit sequence" % t)
        seen.add(t)


def check_bits(*seqs):
    """Raise EncodingError unless every sequence is well formed (nonempty,
    its terms constants or valid variable names, no variable twice) and all
    have one width."""
    for s in seqs:
        _check_seq(s)
    if len({len(s) for s in seqs}) != 1:
        raise EncodingError(
            "width mismatch: %s" % ", ".join(str(len(s)) for s in seqs)
        )


def seq_vars(s):
    return [t for t in s if not isinstance(t, bool)]


def decode_bits(s, assignment):
    """Numeric value of the sequence under the assignment."""
    value = 0
    for t in s:
        if isinstance(t, bool):
            bit = t
        else:
            if t not in assignment:
                raise EncodingError("unbound variable %s" % t)
            bit = assignment[t]
        value = (value << 1) | int(bit)
    return value


def assign_bits(seq, value):
    """The assignment under which the variable sequence ``seq`` decodes to
    ``value``: the inverse of ``decode_bits``."""
    return dict(zip(seq, const_bits(value, len(seq))))


def _term(t):
    if t is True:
        return TRUE
    if t is False:
        return FALSE
    return Var(t)


def _bit_iff(a, b):
    return Iff(_term(a), _term(b))


def _equal(p, q):
    return conj(_bit_iff(p[i], q[i]) for i in range(len(p)))


def _succ(p, q):
    m = len(p)
    parts = [Not(conj(_term(p[j]) for j in range(m)))]
    for i in range(m):
        antecedent = conj(
            [Not(_term(p[i]))] + [_term(p[j]) for j in range(i + 1, m)]
        )
        consequent = conj(
            [_bit_iff(p[j], q[j]) for j in range(i)]
            + [_term(q[i])]
            + [Not(_term(q[j])) for j in range(i + 1, m)]
        )
        parts.append(Implies(antecedent, consequent))
    return And(tuple(parts))


def _less(p, q):
    m = len(p)
    return disj(
        conj(
            [_bit_iff(p[j], q[j]) for j in range(i)]
            + [Not(_term(p[i])), _term(q[i])]
        )
        for i in range(m)
    )


def build_comparison(kind, p, q, checked=False):
    """Formula true iff decode(p) R decode(q), R in = / +1= / < / <=;
    ``checked`` skips ``check_bits(p, q)``, for sequences known to pass it."""
    if not checked:
        check_bits(p, q)
    if kind == "equal":
        return _equal(p, q)
    if kind == "succ":
        return _succ(p, q)
    if kind == "less":
        return _less(p, q)
    if kind == "less_eq":
        return Or((_less(p, q), _equal(p, q)))
    raise EncodingError("unknown comparison kind %r" % (kind,))


def _carry(p, q, i, generate, propagate):
    # carry/borrow into position i (0-based), looking at positions > i
    m = len(p)
    parts = []
    for j in range(i + 1, m):
        inner = [generate(p[j], q[j])]
        inner += [propagate(p[k], q[k]) for k in range(i + 1, j)]
        parts.append(conj(inner))
    return disj(parts)


def build_arithmetic(kind, p, q, r):
    """Formula true iff p+q=r without overflow (add) or p-q=r with p>=q (sub)."""
    check_bits(p, q, r)
    m = len(p)
    if kind == "add":
        def gen(a, b):
            return And((_term(a), _term(b)))

        def prop(a, b):
            return Or((_term(a), _term(b)))

        carries = [_carry(p, q, i, gen, prop) for i in range(m)]
        bits = [
            Iff(_term(r[i]), Iff(Iff(_term(p[i]), _term(q[i])), carries[i]))
            for i in range(m)
        ]
        no_overflow = Not(
            Or(
                (
                    And((_term(p[0]), _term(q[0]))),
                    And((carries[0], Or((_term(p[0]), _term(q[0]))))),
                )
            )
        )
        return conj([no_overflow] + bits)
    if kind == "sub":
        def gen(a, b):
            return And((Not(_term(a)), _term(b)))

        def prop(a, b):
            return Implies(_term(a), _term(b))

        borrows = [_carry(p, q, i, gen, prop) for i in range(m)]
        bits = [
            Iff(_term(r[i]), Iff(Iff(_term(p[i]), _term(q[i])), borrows[i]))
            for i in range(m)
        ]
        return conj([build_comparison("less_eq", q, p)] + bits)
    raise EncodingError("unknown arithmetic kind %r" % (kind,))


def build_square(R, Rsq, summands, partials):
    """Formula true iff decode(Rsq) = decode(R)^2 with correct witnesses.

    R has width k; Rsq, the k summand sequences and the k+1 running partial
    sums have width 2k.  Summand j (1-indexed, MSB side of R first) must hold
    R shifted left by k-j when bit j of R is set and zero otherwise; partial
    sums chain by addition from zero up to Rsq.
    """
    _check_seq(R)
    k = len(R)
    if len(summands) != k or len(partials) != k + 1:
        raise EncodingError("need k summands and k+1 partial sums")
    for s in list(summands) + list(partials) + [Rsq]:
        _check_seq(s)
        if len(s) != 2 * k:
            raise EncodingError("witness sequences must have width 2k")
    all_vars = seq_vars(R)
    for s in list(summands) + list(partials) + [Rsq]:
        all_vars += seq_vars(s)
    if len(set(all_vars)) != len(all_vars):
        raise EncodingError("sequences must be variable-disjoint")

    zero = const_bits(0, 2 * k)
    parts = [build_comparison("equal", partials[0], zero)]
    for j in range(1, k + 1):
        shifted = tuple([False] * j) + tuple(R) + tuple([False] * (k - j))
        bit = _term(R[j - 1])
        parts.append(
            Or(
                (
                    And((build_comparison("equal", summands[j - 1], shifted), bit)),
                    And(
                        (
                            build_comparison("equal", summands[j - 1], zero),
                            Not(bit),
                        )
                    ),
                )
            )
        )
        parts.append(
            build_arithmetic("add", partials[j - 1], summands[j - 1], partials[j])
        )
    parts.append(build_comparison("equal", partials[k], Rsq))
    return And(tuple(parts))


def build_cardinality(kind, names):
    """Formula true iff exactly one (one_of) or zero (none_of) vars are true."""
    names = list(names)
    if not names:
        raise EncodingError("empty variable list")
    if len(set(names)) != len(names):
        raise EncodingError("duplicate variable")
    for n in names:
        if not is_valid_var(n):
            raise EncodingError("bad variable name %r" % (n,))
    if kind == "none_of":
        return conj(Not(Var(n)) for n in names)
    if kind == "one_of":
        return disj(
            conj([Var(n)] + [Not(Var(o)) for o in names if o != n]) for n in names
        )
    raise EncodingError("unknown cardinality kind %r" % (kind,))
