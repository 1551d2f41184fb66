"""Experiment harness details and DDL export."""

import pytest

from repro.design.baselines import CommercialDesigner
from repro.design.ddl import design_to_ddl
from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.mv import KIND_FACT_RECLUSTER, KIND_MV
from repro.experiments.harness import (
    budget_ladder,
    evaluate_design,
    evaluate_design_model_guided,
)
from tests.conftest import recluster_design


@pytest.fixture(scope="module")
def designer(ssb_small):
    return CoraddDesigner(
        ssb_small.flat_tables,
        ssb_small.workload,
        ssb_small.primary_keys,
        ssb_small.fk_attrs,
        config=DesignerConfig(t0=1, alphas=(0.0, 0.5), use_feedback=False),
    )


@pytest.fixture(scope="module")
def design(designer, ssb_small):
    return designer.design(int(ssb_small.total_base_bytes() * 0.8))


class TestBudgetLadder:
    def test_fractions(self):
        assert budget_ladder(1000, (0.5, 1.0, 2.0)) == [500, 1000, 2000]

    def test_floor_at_one(self):
        assert budget_ladder(10, (0.0001,)) == [1]


class TestEvaluateDesign:
    def test_totals_weighted_by_frequency(self, design):
        evaluated = evaluate_design(design)
        manual = sum(
            q.frequency * evaluated.real_seconds[q.name] for q in design.workload
        )
        assert evaluated.real_total == pytest.approx(manual)
        assert set(evaluated.plans) == {q.name for q in design.workload}

    def test_reuses_prematerialized_db(self, design):
        db = design.materialize()
        a = evaluate_design(design, db=db)
        b = evaluate_design(design, db=db)
        assert a.real_total == pytest.approx(b.real_total)

    def test_model_seconds_mirror_design(self, design):
        evaluated = evaluate_design(design)
        assert evaluated.model_seconds == design.expected_seconds


class TestModelGuidedEvaluation:
    def test_model_guided_never_faster_than_oracle(self, ssb_small):
        """Plan choice by a blind model can only match or lose to the
        oracle executor on the same physical database."""
        commercial = CommercialDesigner(
            ssb_small.flat_tables, ssb_small.workload, ssb_small.primary_keys
        )
        d = commercial.design(int(ssb_small.total_base_bytes()))
        db = d.materialize()
        oracle = evaluate_design(d, db=db)
        guided = evaluate_design_model_guided(d, commercial.oblivious_models, db=db)
        assert guided.real_total >= oracle.real_total - 1e-9

    def test_guided_plans_are_executable(self, ssb_small):
        commercial = CommercialDesigner(
            ssb_small.flat_tables, ssb_small.workload, ssb_small.primary_keys
        )
        d = commercial.design(int(ssb_small.total_base_bytes() * 0.5))
        evaluated = evaluate_design_model_guided(d, commercial.oblivious_models)
        for name, plan in evaluated.plans.items():
            assert plan.seconds > 0, name


class TestDDLExport:
    def test_contains_mv_statements(self, design):
        ddl = design_to_ddl(design, include_cms=False)
        mvs = [c for c in design.chosen if c.kind == KIND_MV]
        for cand in mvs:
            assert f"CREATE MATERIALIZED VIEW {cand.cand_id}" in ddl
            assert ", ".join(cand.cluster_key) in ddl

    def test_recluster_statements(self, designer):
        d = recluster_design(designer)
        assert [c.kind for c in d.chosen] == [KIND_FACT_RECLUSTER]
        ddl = design_to_ddl(d, include_cms=False)
        assert "CREATE CLUSTERED INDEX" in ddl
        assert "PK maintenance" in ddl

    def test_cm_comments_present(self, design):
        ddl = design_to_ddl(design, include_cms=True)
        assert "CORRELATION MAP" in ddl

    def test_header_reports_budget(self, design):
        ddl = design_to_ddl(design, include_cms=False)
        assert ddl.startswith("-- CORADD design @ budget")
        assert "expected workload time" in ddl

    def test_deterministic(self, design):
        assert design_to_ddl(design, include_cms=False) == design_to_ddl(
            design, include_cms=False
        )
