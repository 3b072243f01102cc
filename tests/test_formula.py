import pytest
from hypothesis import given, strategies as st
from reference import first_occurrences, truth

from boolgames.formula import (
    FALSE,
    MAX_DEPTH,
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
    formula_depth,
    formula_size,
    free_vars,
    is_valid_var,
    parse_formula,
    render_formula,
    rename_vars,
    var_order,
)
from boolgames.game import BooleanGame

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


PARSE_ERRORS = [
    # (id, text, message, line, column)
    ("", "", "expected a formula, got None", 1, 1),
    ("p &", "p &", "expected a formula, got None", 1, 4),
    ("p q", "p q", "unexpected token 'q'", 1, 3),
    ("(p", "(p", "expected ')'", 1, 3),
    ("p <- q", "p <- q", "unexpected character '<'", 1, 3),
    ("&p", "&p", "expected a formula, got '&'", 1, 1),
    ("p)", "p)", "unexpected token ')'", 1, 2),
    ("multi-line", "p &\nq |\n  & r", "expected a formula, got '&'", 3, 3),
    ("tabs-cr", "p\t&\r\n\t~ )", "expected a formula, got ')'", 2, 4),
    ("non-ascii", "p & é", "unexpected character 'é'", 1, 5),
    ("digit-start", "p & 1x", "unexpected character '1'", 1, 5),
    ("blank", "   \n\t ", "expected a formula, got None", 2, 3),
    ("eof-after-space", "(p | q   \n  ", "expected ')'", 2, 3),
    # a bad character anywhere wins over an earlier parse error
    ("char-before-parse", "& p & ?", "unexpected character '?'", 1, 7),
]


@pytest.mark.parametrize("bad,message,line,col",
                         [case[1:] for case in PARSE_ERRORS],
                         ids=[case[0] for case in PARSE_ERRORS])
def test_parse_errors(bad, message, line, col):
    with pytest.raises(FormulaError) as err:
        parse_formula(bad)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == "%s (line %d, column %d)" % (message, line, col)


@pytest.mark.parametrize("deep", ["~" * 1000 + "p",
                                  "(" * 1000 + "p" + ")" * 1000,
                                  " -> ".join(["p"] * 1000),
                                  " <-> ".join(["p"] * 1000)],
                         ids=["not", "parens", "implies", "iff"])
def test_parse_too_deep_is_a_formula_error(deep):
    with pytest.raises(FormulaError, match="nested too deeply"):
        parse_formula(deep)


def test_every_walker_fits_at_the_depth_bound():
    # the costliest shape per level: a parenthesis is five parser frames,
    # an And/Or level two renderer or renamer frames
    text = "p"
    for k in range(MAX_DEPTH - 1):
        text = "q %s (%s)" % ("&|"[k % 2], text)
    f = parse_formula(text)
    assert formula_depth(f) == MAX_DEPTH
    assert parse_formula(render_formula(f)) == f
    g = rename_vars(f, {"p": "r"})
    assert eval_bits(g, {"q": 0b0011, "r": 0b0101}, 0b1111) == \
        eval_bits(f, {"q": 0b0011, "p": 0b0101}, 0b1111)
    wrapped = "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1)
    for deeper in ("~(%s)" % text, wrapped):
        with pytest.raises(FormulaError, match="nested too deeply"):
            parse_formula(deeper)


def test_var_names():
    assert is_valid_var("a.b_1")
    assert not is_valid_var("T")
    assert not is_valid_var("F")
    assert not is_valid_var("1a")
    assert free_vars(parse_formula("a.b & a.b")) == {"a.b"}


@given(formulas())
def test_render_parse_round_trip(f):
    assert parse_formula(render_formula(f)) == f


@given(formulas(), st.data())
def test_whitespace_round_trip(f, data):
    runs = st.text(alphabet=" \t\n", min_size=1, max_size=4)
    text = "".join(data.draw(runs) if ch == " " else ch
                   for ch in render_formula(f))
    assert parse_formula(text) == f


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


@pytest.mark.parametrize("f", [
    object(), "p", And((Var("p"), "q")), Or((Not(Var("q")), 1)),
    type("SubVar", (Var,), {})("p"),
], ids=["object", "str", "str-under-and", "int-under-or", "subclass"])
def test_eval_bits_rejects_non_nodes(f):
    # nodes dispatch on their exact class: an instance of a subclass is not
    # a node either
    with pytest.raises(FormulaError, match="not a formula node"):
        eval_bits(f, {"p": 1, "q": 1}, 1)


@given(formulas())
def test_var_order_matches_first_occurrences(f):
    # formulas() shares subtrees (Iff(f, f)) and mixes in constants
    assert var_order(f) == first_occurrences(f)
    assert free_vars(f) == set(first_occurrences(f))


@given(formulas(), formulas())
def test_game_keeps_each_goals_variable_order(f, g):
    mine, theirs = NAMES[::2] + ["z1"], NAMES[1::2] + ["z2"]
    game = BooleanGame([mine, theirs], [f, g])
    assert game.goal_vars == (tuple(var_order(f)), tuple(var_order(g)))
    for i, vs in enumerate((mine, theirs)):
        assert all(game.owners[v] == i for v in vs)


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
