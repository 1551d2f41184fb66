"""MILP substrate: model building and the HiGHS solver facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.ilp.model import MILPModel
from repro.ilp.solver import _solve_scipy, solve


class TestModelBuilding:
    def test_duplicate_variable_rejected(self):
        m = MILPModel()
        m.add_var("x")
        with pytest.raises(ValueError):
            m.add_var("x")

    def test_unknown_variable_in_constraint(self):
        m = MILPModel()
        m.add_var("x")
        with pytest.raises(KeyError):
            m.add_constraint({"y": 1.0}, "<=", 1.0)

    def test_bad_sense_rejected(self):
        m = MILPModel()
        m.add_var("x")
        with pytest.raises(ValueError):
            m.add_constraint({"x": 1.0}, "<", 1.0)

    def test_bad_bounds_rejected(self):
        m = MILPModel()
        with pytest.raises(ValueError):
            m.add_var("x", lb=2.0, ub=1.0)

    def test_counts(self):
        m = MILPModel()
        m.add_binary("y")
        m.add_var("x", ub=1.0)
        m.add_constraint({"y": 1, "x": 1}, "<=", 1)
        assert m.num_variables == 2
        assert m.num_integer_variables == 1
        assert m.num_constraints == 1

    def test_evaluate_and_feasible(self):
        m = MILPModel()
        m.add_binary("y", obj=2.0)
        m.add_objective_constant(1.0)
        m.add_constraint({"y": 1.0}, "<=", 1.0)
        assert m.evaluate({"y": 1.0}) == 3.0
        assert m.is_feasible({"y": 1.0})
        assert not m.is_feasible({"y": 0.5})  # integrality
        assert not m.is_feasible({"y": 2.0})  # bound

    def test_to_arrays_shapes(self):
        m = MILPModel()
        m.add_binary("y")
        m.add_var("x", ub=3.0, obj=1.5)
        m.add_constraint({"y": 2.0, "x": -1.0}, ">=", 0.5)
        arrays = m.to_arrays()
        assert arrays.c.tolist() == [0.0, 1.5]
        assert arrays.A.shape == (1, 2)
        assert arrays.senses == [">="]
        assert arrays.integrality.tolist() == [1, 0]


def lp_model(c, A_ub, b_ub, bounds) -> MILPModel:
    m = MILPModel()
    for j, (coef, (lb, ub)) in enumerate(zip(c, bounds)):
        m.add_var(f"v{j}", lb=lb, ub=ub, obj=coef)
    for row, rhs in zip(A_ub, b_ub):
        coeffs = {f"v{j}": a for j, a in enumerate(row) if a}
        if coeffs:  # all-zero rows carry no constraint
            m.add_constraint(coeffs, "<=", rhs)
    return m


class TestSimplex:
    """Pure LPs (no integer variables) through the facade, which HiGHS
    solves with its simplex."""

    def test_simple_lp(self):
        # max x + y s.t. x + y <= 1 -> min -(x+y), optimum -1.
        m = lp_model([-1, -1], [[1, 1]], [1], [(0, 10), (0, 10)])
        res = solve(m)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0)

    def test_equality_constraint(self):
        m = MILPModel()
        m.add_var("x", obj=1.0, ub=10)
        m.add_var("y", obj=2.0, ub=10)
        m.add_constraint({"x": 1, "y": 1}, "==", 4)
        res = solve(m)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(4.0)  # all weight on x

    def test_infeasible(self):
        m = MILPModel()
        m.add_var("x", ub=1.0)
        m.add_constraint({"x": 1.0}, ">=", 5.0)
        assert solve(m).status == "infeasible"

    def test_unbounded(self):
        m = MILPModel()
        m.add_var("x", obj=-1.0)  # minimize -x with x unbounded above
        m.add_constraint({"x": -1.0}, "<=", 0.0)
        assert solve(m).status == "unbounded"

    def test_shifted_lower_bounds(self):
        m = MILPModel()
        m.add_var("x", lb=2.0, ub=8.0, obj=1.0)
        res = solve(m)
        assert res.objective == pytest.approx(2.0)
        assert res.value("x") == pytest.approx(2.0)

    def test_infeasible_bounds(self):
        m = MILPModel()
        m.add_var("x", lb=0, ub=10)
        res = _solve_scipy(m, bounds_override={"x": (5.0, 3.0)})
        assert res.status == "infeasible"


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4),
    m_rows=st.integers(1, 4),
    data=st.data(),
)
def test_simplex_matches_scipy_on_random_lps(n, m_rows, data):
    """Property: the facade (model arrays -> ``milp``) agrees with a direct
    ``linprog`` call on random bounded LPs."""
    rng_vals = data.draw(
        st.lists(
            st.integers(-5, 5), min_size=n * m_rows + n + m_rows, max_size=n * m_rows + n + m_rows
        )
    )
    A = np.array(rng_vals[: n * m_rows], dtype=float).reshape(m_rows, n)
    c = np.array(rng_vals[n * m_rows : n * m_rows + n], dtype=float)
    b = np.abs(np.array(rng_vals[n * m_rows + n :], dtype=float)) + 1.0
    model = lp_model(c, A, b, [(0.0, 10.0)] * n)
    ours = solve(model)
    # Feed scipy only the non-zero rows, mirroring the model builder.
    keep = np.abs(A).sum(axis=1) > 0
    ref = linprog(
        c,
        A_ub=A[keep] if keep.any() else None,
        b_ub=b[keep] if keep.any() else None,
        bounds=[(0, 10)] * n,
        method="highs",
    )
    assert ours.status == "optimal"
    assert ref.status == 0
    assert ours.objective == pytest.approx(float(ref.fun), abs=1e-6)


def knapsack_model(values, weights, capacity) -> MILPModel:
    m = MILPModel()
    for i, v in enumerate(values):
        m.add_binary(f"y{i}", obj=-float(v))
    m.add_constraint(
        {f"y{i}": float(w) for i, w in enumerate(weights)}, "<=", float(capacity)
    )
    return m


class TestBranchAndBound:
    """Integer programs, which HiGHS solves by branch and bound."""

    def test_knapsack_optimal(self):
        res = solve(knapsack_model([6, 5, 4], [3, 2, 2], 4))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-9.0)
        assert res.backend == "scipy"

    def test_infeasible_integer_program(self):
        m = MILPModel()
        m.add_binary("y")
        m.add_constraint({"y": 2.0}, "==", 1.0)  # y = 0.5 required
        assert solve(m).status == "infeasible"


class TestSolverFacade:
    def test_chosen_helper(self):
        m = knapsack_model([6, 5, 4], [3, 2, 2], 4)
        sol = solve(m)
        assert sorted(sol.chosen("y")) == ["y1", "y2"]

    def test_objective_constant_included(self):
        m = knapsack_model([6, 5, 4], [3, 2, 2], 4)
        m.add_objective_constant(100.0)
        assert solve(m).objective == pytest.approx(91.0)

    def test_infeasible_reported(self):
        m = MILPModel()
        m.add_binary("y")
        m.add_constraint({"y": 1.0}, ">=", 2.0)
        assert solve(m).status == "infeasible"


class TestWarmStartTies:
    def test_tied_incumbent_survives_cold_fallback(self):
        """Two tied optima and a loose LP relaxation (bound -1.5 against
        integer optimum -1): the polish cannot be certified, so the cold
        MILP runs — and must still hand back the incumbent, not whichever
        tied optimum HiGHS happens to find."""
        m = knapsack_model([1, 1], [2, 2], 3)
        cold = solve(m)
        assert cold.objective == pytest.approx(-1.0)
        for incumbent in ({"y0": 1.0, "y1": 0.0}, {"y0": 0.0, "y1": 1.0}):
            warm = solve(m, warm_start=incumbent)
            assert warm.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.values == incumbent
            assert warm.backend == "scipy-polish"

    def test_strictly_better_optimum_beats_incumbent(self):
        m = knapsack_model([2, 1], [2, 2], 3)
        warm = solve(m, warm_start={"y0": 0.0, "y1": 1.0})
        assert warm.objective == pytest.approx(-2.0)
        assert sorted(warm.chosen("y")) == ["y0"]
        assert warm.backend == "scipy"
