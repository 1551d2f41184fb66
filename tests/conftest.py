"""Shared fixtures: a small correlated table and a small SSB instance.

Session-scoped where generation is expensive; tests must not mutate them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.design.ilp_formulation import DesignProblem, choose_candidates
from repro.design.mv import KIND_FACT_RECLUSTER, CandidateSet
from repro.relational.query import Aggregate, EqPredicate, Query, RangePredicate
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import INT16, INT32
from repro.stats.collector import TableStatistics
from repro.storage.disk import DiskModel
from repro.workloads.ssb import generate_ssb


@pytest.fixture(scope="session")
def disk() -> DiskModel:
    return DiskModel()


def make_people(n: int = 20_000, seed: int = 0) -> Table:
    """A People-like table with the paper's running example correlations:
    city -> state (strength 1), state -> region (strength 1), salary
    uncorrelated with geography."""
    rng = np.random.default_rng(seed)
    state = rng.integers(0, 50, n)
    schema = TableSchema(
        "people",
        [
            Column("state", INT16),
            Column("region", INT16),
            Column("city", INT32),
            Column("salary", INT32),
        ],
    )
    return Table(
        schema,
        {
            "state": state,
            "region": state // 10,
            "city": state * 20 + rng.integers(0, 20, n),
            "salary": rng.integers(20, 200, n),
        },
    )


def make_wide_people(n: int = 150_000, seed: int = 0, pad_cols: int = 10) -> Table:
    """make_people plus wide padding columns, so that rows per page drop
    low enough for scattered matches to out-distance the readahead gap —
    the regime where fragment counts differ visibly."""
    rng = np.random.default_rng(seed)
    state = rng.integers(0, 50, n)
    from repro.relational.types import INT64

    cols = [
        Column("state", INT16),
        Column("region", INT16),
        Column("city", INT32),
        Column("salary", INT32),
    ] + [Column(f"pad{i}", INT64) for i in range(pad_cols)]
    data = {
        "state": state,
        "region": state // 10,
        "city": state * 20 + rng.integers(0, 20, n),
        "salary": rng.integers(20, 200, n),
    }
    for i in range(pad_cols):
        data[f"pad{i}"] = rng.integers(0, 1_000_000, n)
    return Table(TableSchema("people_wide", cols), data)


@pytest.fixture(scope="session")
def people() -> Table:
    return make_people()


@pytest.fixture(scope="session")
def people_stats(people) -> TableStatistics:
    return TableStatistics(people)


@pytest.fixture(scope="session")
def city_query() -> Query:
    return Query(
        "city_avg",
        "people",
        [EqPredicate("city", 123.0)],
        [Aggregate("avg", ("salary",))],
    )


@pytest.fixture(scope="session")
def salary_query() -> Query:
    return Query(
        "salary_band",
        "people",
        [RangePredicate("salary", 50, 60)],
        [Aggregate("sum", ("salary",))],
    )


@pytest.fixture(scope="session")
def ssb_small():
    """A small SSB instance shared by integration tests."""
    return generate_ssb(lineorder_rows=20_000, seed=1)


def recluster_design(designer):
    """A design whose only chosen object is a fact re-clustering from
    ``designer``'s enumerated pool, solved by the ILP over that candidate
    alone with a budget that exactly fits it.  Which budget of a sweep
    picks a re-clustering depends on the data and on solver tie-breaks;
    this always yields one."""
    pool = designer.enumerate()
    recluster = pool.of_kind(KIND_FACT_RECLUSTER)[0]
    only = CandidateSet()
    only.add(recluster)
    problem = DesignProblem(
        only, list(designer.workload), designer.base_seconds(),
        recluster.size_bytes,
    )
    solution = choose_candidates(problem)
    assert solution.chosen_ids == [recluster.cand_id]
    return designer._assemble(recluster.size_bytes, solution)
