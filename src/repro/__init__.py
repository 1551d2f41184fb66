"""repro — a from-scratch reproduction of CORADD (VLDB 2010).

CORADD: Correlation Aware Database Designer for Materialized Views and
Indexes (Kimura, Huo, Rasin, Madden, Zdonik; PVLDB 3(1), 2010).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.relational` — schemas, columnar tables, queries
* :mod:`repro.engine`     — shared evaluation engine (session caches)
* :mod:`repro.storage`    — the simulated disk engine
* :mod:`repro.stats`      — statistics and correlation discovery
* :mod:`repro.cm`         — Correlation Maps
* :mod:`repro.costmodel`  — correlation-aware and oblivious cost models
* :mod:`repro.ilp`        — MILP model builder and HiGHS solver facade
* :mod:`repro.design`     — the designer pipeline and baselines
* :mod:`repro.workloads`  — SSB and APB-1 generators
* :mod:`repro.experiments`— the paper's tables and figures
"""

__version__ = "1.0.0"

from repro.design.designer import CoraddDesigner, Design, DesignerConfig
from repro.engine import EvalSession, use_session
from repro.relational.query import (
    Aggregate,
    EqPredicate,
    InPredicate,
    Query,
    RangePredicate,
    Workload,
)
from repro.relational.schema import Column, ForeignKey, StarSchema, TableSchema
from repro.relational.table import Table
from repro.storage.disk import DiskModel

__all__ = [
    "__version__",
    "CoraddDesigner",
    "Design",
    "DesignerConfig",
    "EvalSession",
    "use_session",
    "Aggregate",
    "EqPredicate",
    "InPredicate",
    "Query",
    "RangePredicate",
    "Workload",
    "Column",
    "ForeignKey",
    "StarSchema",
    "TableSchema",
    "Table",
    "DiskModel",
]
