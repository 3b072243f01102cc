from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_lp
from boolgames.lp import (
    Infeasible,
    LinearProgram,
    LpError,
    Optimal,
    Unbounded,
    _feasible_tableau,
    objective_value,
    solution_unique,
    solve_lp,
    variable_ranges,
    verify_solution,
)


def test_simple_maximization():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("y")
    lp.add_constraint({"x": 1, "y": 2}, "<=", 4)
    lp.add_constraint({"x": 3, "y": 1}, "<=", 6)
    lp.set_objective({"x": 1, "y": 1}, "maximize")
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert out.value == Fraction(14, 5)
    assert out.solution["x"] == Fraction(8, 5)
    assert verify_solution(lp, out.solution)


def test_minimization_and_equality():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("y")
    lp.add_constraint({"x": 1, "y": 1}, "=", 1)
    lp.set_objective({"x": 2, "y": 3}, "minimize")
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert out.value == 2
    assert out.solution == {"x": Fraction(1), "y": Fraction(0)}


def test_free_variable():
    lp = LinearProgram()
    lp.add_variable("v", nonneg=False)
    lp.add_constraint({"v": 1}, "<=", -3)
    lp.set_objective({"v": 1}, "maximize")
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert out.value == -3


def test_infeasible():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_constraint({"x": 1}, "<=", 1)
    lp.add_constraint({"x": 1}, ">=", 2)
    lp.set_objective({"x": 1}, "maximize")
    assert isinstance(solve_lp(lp), Infeasible)


def test_unbounded():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_constraint({"x": 1}, ">=", 0)
    lp.set_objective({"x": 1}, "maximize")
    assert isinstance(solve_lp(lp), Unbounded)


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    lp = LinearProgram()
    for n in ("x1", "x2", "x3", "x4"):
        lp.add_variable(n)
    lp.add_constraint({"x1": Fraction(1, 4), "x2": -8, "x3": -1, "x4": 9},
                      "<=", 0)
    lp.add_constraint({"x1": Fraction(1, 2), "x2": -12, "x3": Fraction(-1, 2),
                       "x4": 3}, "<=", 0)
    lp.add_constraint({"x3": 1}, "<=", 1)
    lp.set_objective({"x1": Fraction(3, 4), "x2": -20, "x3": Fraction(1, 2),
                      "x4": -6}, "maximize")
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert out.value == Fraction(5, 4)


def test_verify_solution_rejects_violations():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_constraint({"x": 1}, "<=", 1)
    lp.set_objective({"x": 1}, "maximize")
    assert not verify_solution(lp, {"x": Fraction(2)})
    assert not verify_solution(lp, {"x": Fraction(-1)})
    assert verify_solution(lp, {"x": Fraction(1, 2)})


def test_objective_value():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("y")
    lp.set_objective({"x": 2, "y": -1}, "maximize")
    assert objective_value(lp, {"x": Fraction(3), "y": Fraction(1)}) == 5


def test_solution_uniqueness():
    # unique optimum at a vertex
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("y")
    lp.add_constraint({"x": 1, "y": 1}, "<=", 1)
    lp.set_objective({"x": 2, "y": 1}, "maximize")
    out = solve_lp(lp)
    assert solution_unique(lp, out.solution)

    # a whole edge is optimal
    lp2 = LinearProgram()
    lp2.add_variable("x")
    lp2.add_variable("y")
    lp2.add_constraint({"x": 1, "y": 1}, "<=", 1)
    lp2.set_objective({"x": 1, "y": 1}, "maximize")
    out2 = solve_lp(lp2)
    assert not solution_unique(lp2, out2.solution)


def test_copy_is_independent():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_constraint({"x": 1}, "<=", 1)
    lp.set_objective({"x": 1}, "maximize")
    probe = lp.copy()
    probe.add_constraint({"x": 1}, "<=", Fraction(1, 2))
    assert solve_lp(lp).value == 1
    assert solve_lp(probe).value == Fraction(1, 2)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2,
                max_size=2),
       st.integers(min_value=1, max_value=5))
def test_duality_gap_zero_on_boxes(costs, bound):
    # max c.x subject to 0 <= x <= bound is attained coordinatewise
    lp = LinearProgram()
    for i in range(2):
        lp.add_variable("x%d" % i)
        lp.add_constraint({"x%d" % i: 1}, "<=", bound)
    lp.set_objective({"x%d" % i: costs[i] for i in range(2)}, "maximize")
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert out.value == sum(bound * c for c in costs if c > 0)
    assert verify_solution(lp, out.solution)


@st.composite
def small_lps(draw):
    """Random LPs with =/<=/>= rows and free variables; boxing the free
    variables is optional, so infeasible and unbounded programs occur."""
    lp = LinearProgram()
    nvars = draw(st.integers(min_value=1, max_value=3))
    names = ["v%d" % k for k in range(nvars)]
    for name in names:
        lp.add_variable(name, nonneg=draw(st.booleans()))
    coeff = st.integers(min_value=-3, max_value=3)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lp.add_constraint({name: draw(coeff) for name in names},
                          draw(st.sampled_from(("<=", "=", ">="))),
                          draw(st.integers(min_value=-4, max_value=4)))
    if draw(st.booleans()):
        for name in names:
            lp.add_constraint({name: 1}, "<=", 5)
            lp.add_constraint({name: 1}, ">=", -5)
    return lp


@settings(deadline=None)
@given(small_lps())
def test_variable_ranges_match_cold_solves(lp):
    ranges = variable_ranges(lp, lp.variables)
    if isinstance(solve_lp(lp), Infeasible):
        assert ranges is None
        return
    assert list(ranges) == lp.variables
    for name in lp.variables:
        want = []
        for sense in ("minimize", "maximize"):
            probe = lp.copy()
            probe.set_objective({name: 1}, sense)
            out = solve_lp(probe)
            assert isinstance(out, (Optimal, Unbounded))
            if isinstance(out, Optimal):
                assert verify_solution(lp, out.solution)
                assert out.solution[name] == out.value
            want.append(out.value if isinstance(out, Optimal) else None)
        assert ranges[name] == tuple(want)


def _dual(lp):
    """The dual of a maximization, rows read as sum <= rhs (>= rows
    negated): min b.y with y >= 0 on <= rows, y free on = rows, and
    A^T y >= c on nonneg variables, = c on free ones."""
    rows = [(c, rel, rhs) if rel != ">=" else
            ({k: -v for k, v in c.items()}, "<=", -rhs)
            for c, rel, rhs in lp.constraints]
    dual = LinearProgram()
    for k, (_, rel, _) in enumerate(rows):
        dual.add_variable("y%d" % k, nonneg=rel == "<=")
    costs = lp.objective[0]
    for name in lp.variables:
        dual.add_constraint(
            {"y%d" % k: c.get(name, 0) for k, (c, _, _) in enumerate(rows)},
            ">=" if lp.nonneg[name] else "=", costs.get(name, 0))
    dual.set_objective({"y%d" % k: rhs for k, (_, _, rhs) in enumerate(rows)},
                       "minimize")
    return dual


@settings(deadline=None)
@given(small_lps(), st.lists(st.integers(min_value=-3, max_value=3),
                             min_size=3, max_size=3))
def test_optimum_certified_by_dual(lp, costs):
    lp.set_objective(dict(zip(lp.variables, costs)), "maximize")
    primal = solve_lp(lp)
    assume(isinstance(primal, Optimal))
    dual = _dual(lp)
    out = solve_lp(dual)
    assert isinstance(out, Optimal)
    # feasible primal and dual points with equal objectives are both
    # optimal (weak duality), whatever the pivots did
    assert verify_solution(lp, primal.solution)
    assert verify_solution(dual, out.solution)
    assert objective_value(lp, primal.solution) == primal.value
    assert objective_value(dual, out.solution) == out.value
    assert primal.value == out.value


_RATIONALS = st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                       st.sampled_from((1, 2, 3, 4, 6)))
# a plain int stays an int in the tableau's input, a Fraction is scaled
_COEFFS = _RATIONALS | st.integers(min_value=-3, max_value=3)
_FLIP = {"<=": ">=", "=": "=", ">=": "<="}


@st.composite
def rational_lps(draw):
    """Random LPs over rationals with non-unit denominators and plain ints,
    on variables named by strings or ints: <=, = and >= rows, free
    variables, negative right-hand sides and a rational objective.
    Optional extra rows reach phase 1's corners: a nonpositive row at
    right-hand side 0 (its artificial stays basic at zero with only
    negative entries, and drives out on a negative pivot), a scaled copy of
    a row (redundant, an equality if the copied row is one, and a tie in
    every ratio test the two rows enter) and a box on every variable."""
    lp = LinearProgram()
    names = [draw(st.sampled_from(("v%d" % k, k)))
             for k in range(draw(st.integers(1, 4)))]
    for name in names:
        lp.add_variable(name, nonneg=draw(st.booleans()))
    rows = [({name: draw(_COEFFS) for name in names},
             draw(st.sampled_from(("<=", "=", ">="))), draw(_COEFFS))
            for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        rows.append(({name: -abs(draw(_COEFFS)) for name in names},
                     draw(st.sampled_from(("=", ">="))), 0))
    if draw(st.booleans()):
        coeffs, rel, rhs = draw(st.sampled_from(rows))
        q = draw(st.sampled_from((Fraction(-1), Fraction(-2, 3),
                                  Fraction(1, 2), Fraction(3))))
        rows.append(({k: q * v for k, v in coeffs.items()},
                     rel if q > 0 else _FLIP[rel], q * rhs))
    if draw(st.booleans()):
        for name in names:
            rows.append(({name: 1}, "<=", 4))
            rows.append(({name: 1}, ">=", -4))
    for row in draw(st.permutations(rows)):
        lp.add_constraint(*row)
    # a zero objective answers with phase 1's vertex, so a different phase-1
    # pivot shows in the solution
    costs = draw(st.sampled_from((_COEFFS, st.just(0))))
    lp.set_objective({name: draw(costs) for name in names},
                     draw(st.sampled_from(("maximize", "minimize"))))
    return lp


@settings(deadline=None, max_examples=300)
@given(rational_lps())
def test_integer_tableau_matches_fraction_reference(lp):
    # same pivots as the Fraction simplex: same status, value and solution
    want = reference_lp.solve(lp)
    out = solve_lp(lp)
    if want[0] == "optimal":
        assert isinstance(out, Optimal)
        assert (out.value, out.solution) == want[1:]
    else:
        assert isinstance(out, {"infeasible": Infeasible,
                                "unbounded": Unbounded}[want[0]])
    assert (variable_ranges(lp, lp.variables)
            == reference_lp.ranges(lp, lp.variables))
    tab = _feasible_tableau(lp)
    want_tab = reference_lp.feasible_tableau(lp)
    assert (tab is None) == (want_tab is None)
    if tab is not None:
        rows, basis, _, _, d = tab
        assert basis == want_tab[1]
        assert type(d) is int and d > 0
        assert all(type(x) is int for row in rows for x in row)


def test_drive_out_on_negative_pivot_matches_reference():
    # -x/2 - y/3 = 0 leaves phase 1 optimal at once with its artificial
    # basic at zero; driving it out pivots on -3 (the row scaled by 6)
    lp = LinearProgram()
    for name in ("x", "y", "z"):
        lp.add_variable(name)
    lp.add_constraint({"x": Fraction(-1, 2), "y": Fraction(-1, 3)}, "=", 0)
    lp.add_constraint({"x": 1, "y": 1, "z": Fraction(2, 3)}, "<=", 2)
    lp.set_objective({"x": 1, "y": 1, "z": 1}, "maximize")
    _, basis, _, _, d = _feasible_tableau(lp)
    assert basis == [0, 3] and d == 3
    out = solve_lp(lp)
    assert (out.value, out.solution) == reference_lp.solve(lp)[1:]
    assert out.value == 3 and out.solution["z"] == 3
