import pytest
from hypothesis import given, strategies as st
from reference import truth

from boolgames.formula import (
    FALSE,
    TRUE,
    And,
    FormulaError,
    Iff,
    Implies,
    MissingVariableError,
    Not,
    Or,
    Var,
    compile_formula,
    conj,
    disj,
    eval_bits,
    eval_formula,
    formula_size,
    free_vars,
    is_valid_var,
    parse_formula,
    render_formula,
    rename_vars,
    var_order,
)

NAMES = ["p", "q", "r", "x1", "a.b"]


def formulas(max_leaves=12):
    leaf = st.one_of(
        st.sampled_from([TRUE, FALSE]),
        st.sampled_from(NAMES).map(Var),
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(Not),
            st.lists(sub, min_size=2, max_size=3).map(lambda fs: And(tuple(fs))),
            st.lists(sub, min_size=2, max_size=3).map(lambda fs: Or(tuple(fs))),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            st.tuples(sub, sub).map(lambda t: Iff(*t)),
            # repeated subterms: always true, always false
            sub.map(lambda f: Iff(f, f)),
            sub.map(lambda f: And((f, Not(f)))),
        ),
        max_leaves=max_leaves,
    )


def all_assignments(names):
    names = sorted(names)
    for mask in range(1 << len(names)):
        yield {n: bool(mask >> i & 1) for i, n in enumerate(names)}


def test_parse_precedence():
    f = parse_formula("~p & q | r -> p <-> q")
    # ~ binds tightest, then &, |, ->, <->
    assert f == Iff(Implies(Or((And((Not(Var("p")), Var("q"))), Var("r"))),
                            Var("p")),
                    Var("q"))


def test_parse_associativity():
    # -> is right-associative, <-> left-associative
    assert parse_formula("p -> q -> r") == Implies(Var("p"),
                                                   Implies(Var("q"), Var("r")))
    assert parse_formula("p <-> q <-> r") == Iff(Iff(Var("p"), Var("q")),
                                                 Var("r"))


def test_parse_constants_and_parens():
    assert parse_formula("T") is TRUE
    assert parse_formula("F") is FALSE
    assert parse_formula("(p)") == Var("p")


@pytest.mark.parametrize("bad", ["", "p &", "p q", "(p", "p <- q", "&p", "p)"])
def test_parse_errors(bad):
    with pytest.raises(FormulaError):
        parse_formula(bad)


@pytest.mark.parametrize("deep", ["~" * 1000 + "p",
                                  "(" * 1000 + "p" + ")" * 1000,
                                  " -> ".join(["p"] * 1000)],
                         ids=["not", "parens", "implies"])
def test_parse_too_deep_is_a_formula_error(deep):
    with pytest.raises(FormulaError, match="nested too deeply"):
        parse_formula(deep)


def test_var_names():
    assert is_valid_var("a.b_1")
    assert not is_valid_var("T")
    assert not is_valid_var("F")
    assert not is_valid_var("1a")
    assert free_vars(parse_formula("a.b & a.b")) == {"a.b"}


@given(formulas())
def test_render_parse_round_trip(f):
    assert parse_formula(render_formula(f)) == f


@given(formulas(max_leaves=6))
def test_eval_bits_matches_reference(f):
    # one pass over the whole truth table: bit p is the assignment giving
    # names[t] the value of bit t of p
    names = sorted(free_vars(f))
    n = 1 << len(names)
    masks = {v: sum(1 << p for p in range(n) if p >> t & 1)
             for t, v in enumerate(names)}
    table = eval_bits(f, masks, (1 << n) - 1)
    assert 0 <= table < 1 << n
    comp = compile_formula(f)
    for p in range(n):
        a = {v: bool(p >> t & 1) for t, v in enumerate(names)}
        assert bool(table >> p & 1) == truth(f, a) == eval_formula(f, a) \
            == comp(a)


@given(formulas(max_leaves=6))
def test_de_morgan(f):
    g = Not(f)
    names = free_vars(f)
    for a in all_assignments(names):
        assert eval_formula(g, a) == (not eval_formula(f, a))


def test_eval_semantics():
    f = parse_formula("p -> q")
    assert eval_formula(f, {"p": False, "q": False})
    assert not eval_formula(f, {"p": True, "q": False})
    assert eval_formula(parse_formula("p <-> q"), {"p": True, "q": True})
    assert eval_formula(TRUE, {})
    assert not eval_formula(FALSE, {})


def test_eval_missing_variable():
    f = parse_formula("p & q | r")
    for check in (lambda a: eval_formula(f, a), compile_formula(f)):
        with pytest.raises(MissingVariableError) as e:
            check({"p": True, "r": False})
        assert e.value.name == "q"


def test_extra_assignment_entries_ignored():
    assert eval_formula(Var("p"), {"p": True, "zzz": False})


@given(formulas(max_leaves=6))
def test_rename_round_trip(f):
    names = sorted(free_vars(f))
    mapping = {n: "m.%s" % n for n in names}
    inverse = {v: k for k, v in mapping.items()}
    assert rename_vars(rename_vars(f, mapping), inverse) == f


def test_rename_rejects_collisions():
    f = parse_formula("p & q")
    with pytest.raises(FormulaError):
        rename_vars(f, {"p": "x", "q": "x"})


def test_compile_keys_cover_free_vars():
    f = parse_formula("p & q | r")
    comp = compile_formula(f)
    assert comp.keys == var_order(f) == ["p", "q", "r"]
    assert comp.raw(True, True, False) and comp.raw(False, False, True)
    assert not comp.raw(True, False, False)


def test_conj_disj_helpers():
    assert conj([]) is TRUE
    assert disj([]) is FALSE
    assert conj([Var("p")]) == Var("p")
    f = conj([Var("p"), Var("q")])
    assert eval_formula(f, {"p": True, "q": False}) is False


def test_formula_size_counts_nodes():
    assert formula_size(Var("p")) == 1
    assert formula_size(parse_formula("p & q")) == 3
    assert formula_size(parse_formula("~(p | q)")) == 4
