from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from boolgames.lp import (
    Infeasible,
    LinearProgram,
    LpError,
    Optimal,
    Unbounded,
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
