"""Solver facade: every design ILP is solved by HiGHS (scipy's ``milp``).

On top of the plain solve it adds the two things the designer needs and
HiGHS has no API for: *warm starts* (a fix-and-polish pass around a previous
solution, certified by the LP bound, with ties broken toward the incumbent)
and *soft deadlines* (a feasible degraded answer instead of a bare
time-limit status).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.engine import faults
from repro.ilp.model import MILPModel
from repro.obs import metrics as obs_metrics
from repro.obs.trace import annotate, span

_INF = float("inf")


@dataclass
class Solution:
    """A solved model: status, objective (with constant), variable values."""

    status: str
    objective: float
    values: dict[str, float]
    solve_seconds: float = 0.0
    backend: str = ""

    def value(self, name: str) -> float:
        return self.values.get(name, 0.0)

    def chosen(self, prefix: str = "", threshold: float = 0.5) -> list[str]:
        """Names of (binary) variables set above ``threshold``."""
        return [
            name
            for name, val in self.values.items()
            if name.startswith(prefix) and val > threshold
        ]


def _solve_scipy(
    model: MILPModel,
    bounds_override: dict[str, tuple[float, float]] | None = None,
    relax_integrality: bool = False,
    time_limit_s: float | None = None,
) -> Solution:
    arrays = model.to_arrays()
    senses = np.array(arrays.senses)
    lo = np.where(senses == "<=", -np.inf, arrays.rhs)
    hi = np.where(senses == ">=", np.inf, arrays.rhs)
    constraints = (
        LinearConstraint(sparse.csr_matrix(arrays.A), lo, hi)
        if arrays.A.shape[0]
        else ()
    )
    lb = arrays.lb.copy()
    ub = arrays.ub.copy()
    if bounds_override:
        index = {name: i for i, name in enumerate(arrays.names)}
        for name, (vlo, vhi) in bounds_override.items():
            i = index[name]
            lb[i] = max(lb[i], vlo)
            ub[i] = min(ub[i], vhi)
            if lb[i] > ub[i]:
                return Solution("infeasible", _INF, {})
    integrality = (
        np.zeros_like(arrays.integrality) if relax_integrality
        else arrays.integrality
    )
    res = milp(
        c=arrays.c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options={"time_limit": time_limit_s} if time_limit_s is not None else None,
    )
    if res.status == 2:
        return Solution("infeasible", _INF, {})
    if res.status == 3:
        return Solution("unbounded", -_INF, {})
    if res.x is None:
        return Solution(
            "time_limit" if res.status == 1 else "failed", _INF, {}
        )
    values = {name: float(v) for name, v in zip(arrays.names, res.x)}
    status = "time_limit" if res.status == 1 else "optimal"
    return Solution(status, float(res.fun) + arrays.obj_constant, values)


def fix_and_polish(
    model: MILPModel,
    incumbent: dict[str, float],
    free_vars: set[str] | None = None,
) -> Solution:
    """Polish a feasible point by re-optimizing only around it.

    Every integer variable *not* in ``free_vars`` is pinned to its incumbent
    value (rounded); the free integers — typically the variables a workload
    delta introduced — and all continuous variables re-optimize.  The result
    is feasible-by-construction with objective <= the incumbent's: an
    incumbent-quality bound at a tiny fraction of a full solve, which is
    how warm starts reach scipy's HiGHS MILP despite it having no incumbent
    API.
    """
    free = free_vars or set()
    override: dict[str, tuple[float, float]] = {}
    for name, var in model.variables.items():
        if var.integer and name not in free:
            value = float(round(incumbent.get(name, 0.0)))
            override[name] = (value, value)
    return _solve_scipy(model, bounds_override=override)


def _solve_settled(
    model: MILPModel, time_limit_s: float | None = None
) -> Solution:
    """Cold HiGHS MILP solve with its continuous variables settled.

    HiGHS judges optimality against a dual-feasibility tolerance (1e-7),
    so a continuous variable whose objective coefficient is below it may be
    left off its optimal bound — the design ILP's penalty variables for
    near-tied runtimes do exactly that, overstating the objective by up to
    that much.  Re-solving with every integer pinned to its value (one
    :func:`fix_and_polish` LP; on the design ILP presolve reduces it to
    variable bounds) puts them back, so the reported optimum is the exact
    objective of the chosen integers.
    """
    solution = _solve_scipy(model, time_limit_s=time_limit_s)
    if solution.status != "optimal" or model.num_integer_variables in (
        0, model.num_variables,
    ):
        return solution
    settled = fix_and_polish(model, solution.values)
    if settled.status == "optimal" and settled.objective <= solution.objective:
        return settled
    return solution


def _degraded_solution(
    model: MILPModel, warm_start: dict[str, float] | None
) -> Solution:
    """Deadline fallback: a feasible answer *now* instead of an optimal
    answer eventually.  Prefers the warm incumbent (already feasible, already
    good for incremental re-solves); otherwise repairs the LP relaxation by
    rounding its integers and re-optimizing everything else around them
    (fix-and-polish).  Only when both fail does it report
    ``"deadline-failed"`` — it never hangs."""
    obs_metrics.count("ilp.deadline_degraded")
    if warm_start is not None and model.is_feasible(warm_start):
        values = {name: float(v) for name, v in warm_start.items()}
        annotate(deadline_outcome="incumbent")
        return Solution(
            "deadline", model.evaluate(values), values,
            backend="degraded-incumbent",
        )
    relaxed = _solve_scipy(model, relax_integrality=True)
    if relaxed.status == "optimal":
        rounded = {
            name: (round(v) if model.variables[name].integer else v)
            for name, v in relaxed.values.items()
        }
        polished = fix_and_polish(model, rounded)
        if polished.status == "optimal" and model.is_feasible(polished.values):
            annotate(deadline_outcome="lp-round-polish")
            polished.status = "deadline"
            polished.backend = "degraded-greedy"
            return polished
    annotate(deadline_outcome="failed")
    return Solution("deadline-failed", _INF, {}, backend="degraded")


def _gap_tol(objective: float) -> float:
    """Objective tolerance under which two points count as tied."""
    return 1e-9 * (1.0 + abs(objective))


def _solve_scipy_warm(
    model: MILPModel,
    warm_start: dict[str, float],
    free_vars: set[str] | None,
    time_limit_s: float | None = None,
) -> Solution:
    """HiGHS solve with a fix-and-polish warm start.

    The polished solution gives an upper bound U; the LP relaxation gives a
    lower bound L.  When the gap closes (U <= L + tol) the polished point is
    *provably optimal* and the full MILP is skipped entirely — the common
    case for incremental re-solves, where the previous optimum plus a small
    polish already is the answer.  Otherwise the full (cold) solve runs, and
    the polished point is still returned when it ties the cold optimum
    (within the same tolerance): a tied optimum breaks toward the
    incumbent, so an unchanged problem keeps its previous answer.  The
    returned objective is that of a cold solve either way.
    """
    if not model.is_feasible(warm_start):
        annotate(warm_outcome="infeasible-start")
        return _solve_settled(model, time_limit_s)
    polished = fix_and_polish(model, warm_start, free_vars)
    if polished.status != "optimal":
        annotate(warm_outcome="polish-failed")
        return _solve_settled(model, time_limit_s)
    polished.backend = "scipy-polish"
    relaxed = _solve_scipy(model, relax_integrality=True)
    if relaxed.status == "optimal":
        annotate(incumbent=polished.objective, lp_bound=relaxed.objective)
        if polished.objective <= relaxed.objective + _gap_tol(relaxed.objective):
            annotate(warm_outcome="polish-certified")
            obs_metrics.count("ilp.polish_certified")
            return polished
    full = _solve_settled(model, time_limit_s)
    if (
        full.status == "optimal"
        and polished.objective <= full.objective + _gap_tol(full.objective)
    ):
        annotate(warm_outcome="cold-tie-incumbent")
        return polished
    annotate(warm_outcome="cold-fallback")
    return full


def solve(
    model: MILPModel,
    time_limit_s: float | None = None,
    warm_start: dict[str, float] | None = None,
    free_vars: set[str] | None = None,
    deadline_s: float | None = None,
) -> Solution:
    """Solve ``model`` (minimization) with HiGHS.

    ``warm_start`` is a feasible point (variable name -> value).  HiGHS has
    no incumbent API, so a *fix-and-polish* pass runs around it instead
    (integer variables outside ``free_vars`` pinned, the rest polished); the
    polished point is accepted outright when the LP relaxation certifies it
    optimal, and otherwise a cold solve runs.  The returned optimum is
    unchanged either way, and when the warm point ties it the warm point is
    returned (see :func:`_solve_scipy_warm`).  An infeasible warm start is
    ignored.

    ``deadline_s`` makes the call *soft real-time*: HiGHS gets at most that
    long, and instead of surfacing a bare time-limit status the facade
    degrades — best incumbent found in time, else the warm start, else an
    LP-rounding repair (see :func:`_degraded_solution`) — returning status
    ``"deadline"`` so a continuous-tuning caller can keep serving with a
    good-enough design rather than block on optimality.  ``time_limit_s``
    alone keeps HiGHS's own semantics (status ``"time_limit"``).
    """
    start = time.monotonic()
    limit = time_limit_s
    if deadline_s is not None:
        limit = deadline_s if limit is None else min(limit, deadline_s)
    with span(
        "ilp.solve",
        variables=model.num_variables,
        constraints=model.num_constraints,
        warm=warm_start is not None,
    ):
        spec = faults.fire("ilp.solve")
        forced_timeout = spec is not None and spec.kind == "timeout"
        if forced_timeout and deadline_s is not None:
            # Injected solver timeout: HiGHS "ran out of time" without
            # burning any — straight to the degraded path.
            solution = _degraded_solution(model, warm_start)
        elif warm_start is not None:
            solution = _solve_scipy_warm(model, warm_start, free_vars, limit)
        else:
            solution = _solve_settled(model, limit)
        if (
            deadline_s is not None
            and solution.status not in ("optimal", "infeasible")
        ):
            if solution.status == "time_limit" and solution.values:
                # HiGHS beat the deadline to *some* incumbent: take it.
                obs_metrics.count("ilp.deadline_degraded")
                annotate(deadline_outcome="backend-incumbent")
                solution.status = "deadline"
                solution.backend = "scipy-incumbent"
            elif solution.status not in ("deadline", "deadline-failed"):
                solution = _degraded_solution(model, warm_start)
        solution.solve_seconds = time.monotonic() - start
        if not solution.backend:
            solution.backend = "scipy"
        annotate(status=solution.status, objective=solution.objective)
        obs_metrics.count("ilp.solves")
        obs_metrics.count(f"ilp.solves.{solution.backend}")
        if warm_start is not None:
            obs_metrics.count("ilp.warm_starts")
        obs_metrics.observe("ilp.solve_seconds", solution.solve_seconds)
        obs_metrics.observe("ilp.model_variables", model.num_variables)
    return solution
