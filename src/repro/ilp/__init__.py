"""MILP substrate: model builder and solver facade.

CORADD solves its candidate-selection problem with "a commercial LP solver"
(Section 5.1).  This package pairs a model builder (:mod:`repro.ilp.model`)
with a facade over scipy's HiGHS ``milp`` (:mod:`repro.ilp.solver`) that
adds fix-and-polish warm starts and soft deadlines.
"""

from repro.ilp.model import MILPModel, Constraint, Variable
from repro.ilp.solver import Solution, solve

__all__ = [
    "MILPModel",
    "Constraint",
    "Variable",
    "Solution",
    "solve",
]
