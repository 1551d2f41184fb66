"""The benchmark workloads, each a cold end-to-end cycle of the public
pipeline: registry -> log compression -> ``CoraddDesigner`` -> materialize +
run -> ``RefreshExecutor`` -> ``update()`` -> ``DesignDiff`` /
``execute_transition``.

Every cycle builds a fresh designer and a fresh ``EvalSession`` (users pay
cold caches on every design run) and checks every answer it produces; the
checks are timed separately and excluded from the stage times.  Library
calls that the traced run attributes go through their module attributes
(``harness.evaluate_design``, ``compress.dedup_log``, ...) so the wrappers in
:mod:`layers` see them.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.feedback import FeedbackConfig
from repro.design import migration
from repro.engine import EvalSession, use_session
from repro.experiments import harness
from repro.relational.query import Workload
from repro.stats.collector import TableStatistics
from repro.storage.disk import DiskModel
from repro.storage.update import RefreshExecutor
from repro.workloads import compress
from repro.workloads.refresh import RefreshStream
from repro.workloads.registry import make

from layers import paused


@dataclass(frozen=True)
class Seeds:
    """Every random input of a run.  ``registry`` (the generated data) and
    ``refresh`` (the update stream) vary per input instance; ``log`` and
    ``drift`` pick the query log and the drift schedule — the workload
    itself — which every instance of a run shares."""

    registry: int
    log: int
    drift: int
    refresh: int

    def instance(self, j: int) -> "Seeds":
        """The seeds of a run's ``j``-th input instance (j < 1000)."""
        return replace(self, registry=1000 * self.registry + j,
                       refresh=1000 * self.refresh + j)


@dataclass
class CycleResult:
    """What one cycle measured (wall-clock) and produced (deterministic)."""

    stages: dict[str, float] = field(default_factory=dict)
    check_s: float = 0.0
    wall_s: float = 0.0
    probe_s: float = 0.0  # calibration probe time around the cycle (run.py)
    sims: dict[str, float] = field(default_factory=dict)
    chosen: dict[str, list[str]] = field(default_factory=dict)
    model_ratios: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    session_stats: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    @property
    def cycle_s(self) -> float:
        return self.wall_s - self.check_s


def merge_results(results: list[CycleResult]) -> CycleResult:
    """Summed counts and session statistics, concatenated model ratios."""
    out = CycleResult()
    for r in results:
        out.model_ratios += r.model_ratios
        for target, source in ((out.counts, r.counts),
                               (out.session_stats, r.session_stats)):
            for k, v in source.items():
                if isinstance(v, (int, float)):
                    target[k] = target.get(k, 0) + v
    return out


class Clock:
    """Stage stopwatch for one cycle; ``check`` blocks are paused time."""

    def __init__(self, result: CycleResult, rec) -> None:
        self.result = result
        self.rec = rec

    def stage(self, name: str) -> "_Timed":
        return _Timed(self, name, check=False)

    def check(self) -> "_Timed":
        return _Timed(self, "check", check=True)


class _Timed:
    def __init__(self, clock: Clock, name: str, check: bool) -> None:
        self.clock, self.name, self.is_check = clock, name, check

    def __enter__(self):
        if self.is_check:
            self.pause = paused(self.clock.rec)
            self.pause.__enter__()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self.start
        res = self.clock.result
        if self.is_check:
            res.check_s += elapsed
            self.pause.__exit__(*exc)
        else:
            res.stages[self.name] = res.stages.get(self.name, 0.0) + elapsed
        return False


# ------------------------------------------------------------------ checks


def _verify_design(design, db, result: CycleResult) -> None:
    """``verify_answers`` on every query of a deployed design, one query at
    a time so a wrong answer counts once per query."""
    for q in design.workload:
        result.attempted += 1
        single = replace(design, workload=Workload(design.workload.name, [q]))
        try:
            ok = harness.verify_answers(single, db)
        except Exception:  # noqa: BLE001 - any exception is a failed op
            ok = False
        if not ok:
            result.failed += 1


def _verify_live_rowids(db, workload, fact: str, result: CycleResult) -> None:
    """Each query's chosen plan must return exactly the live source rowids
    of the mutated base fact that satisfy it."""
    base = db.object(fact).heapfile
    for q in workload:
        result.attempted += 1
        try:
            choice = db.run(q)
            obj = db.object(choice.object_name)
            got = np.unique(obj.heapfile.source_rowids[choice.result.mask])
            mask = q.mask(base.table)
            if base.live is not None:
                mask = mask & base.live
            want = np.unique(base.source_rowids[mask])
            ok = np.array_equal(got, want)
        except Exception:  # noqa: BLE001 - any exception is a failed op
            ok = False
        if not ok:
            result.failed += 1


def _model_ratios(evaluated) -> list[float]:
    return [
        evaluated.model_seconds[name] / real
        for name, real in evaluated.real_seconds.items()
        if real > 0
    ]


# --------------------------------------------------------------- workloads


class DesignTpch:
    """Design-heavy: a TPC-H query log compressed to a dozen weighted
    representatives, then a correlation-aware design with ILP feedback."""

    name = "design-tpch"
    instances = 12
    scale = 0.3
    log_queries = 200_000
    representatives = 16
    budget_fracs = (0.5,)
    config = dict(t0=1, alphas=(0.0, 0.5),
                  feedback=FeedbackConfig(max_iterations=1))

    def setup(self, seeds: Seeds):
        inst = make(
            "tpch-log", scale=self.scale, seed=seeds.registry,
            log_seed=seeds.log, log_queries=self.log_queries,
        )
        budgets = harness.budget_ladder(
            inst.total_base_bytes(), self.budget_fracs
        )
        return inst, budgets

    def cycle(self, inputs, rec) -> CycleResult:
        inst, budgets = inputs
        result = CycleResult()
        clock = Clock(result, rec)
        config = DesignerConfig(**self.config)
        session = EvalSession()
        with use_session(session):
            with clock.stage("compress"):
                deduped = compress.dedup_log(inst.log)
                stats = {
                    fact: TableStatistics(
                        inst.flat_tables[fact],
                        synopsis_rows=config.synopsis_rows, seed=config.seed,
                    )
                    for fact in deduped.workload.fact_tables()
                }
                compressed = compress.compress_workload(
                    deduped.workload, stats,
                    max_representatives=self.representatives,
                )
            with clock.stage("design"):
                designer = CoraddDesigner(
                    inst.flat_tables, compressed.workload, inst.primary_keys,
                    inst.fk_attrs, config=config,
                )
                designs = [designer.design(b) for b in budgets]
            with clock.check():
                result.attempted += 1  # the log's weight must be conserved
                if compressed.total_weight != len(inst.log):
                    result.failed += 1
            sim = 0.0
            for budget, design in zip(budgets, designs):
                with clock.stage("deploy"):
                    db = design.materialize(session)
                    evaluated = harness.evaluate_design(design, db, session)
                with clock.check():
                    _verify_design(design, db, result)
                sim += evaluated.real_total
                result.model_ratios += _model_ratios(evaluated)
                result.chosen[f"budget={budget}"] = list(design.ilp.chosen_ids)
            result.sims["workload_sim_s"] = sim
            result.counts.update(designer.enumeration_stats)
            result.counts["workloads.dedup_ratio"] = deduped.ratio
        result.session_stats = dict(session.stats)
        return result


class EvolveTpch:
    """Reads and writes: a drifting TPC-H workload redesigned incrementally
    and migrated while an RF1/RF2 refresh stream mutates lineitem through a
    buffer pool a quarter of the base size."""

    name = "evolve-tpch"
    instances = 9
    scale = 0.3
    phases = 2
    budget_frac = 0.8
    # Refresh rounds per drift phase, each an RF1 insert and an RF2 delete
    # batch of the library's default sizes: applied standalone before the
    # redesign, and streamed during the migration's builds.
    standalone_rounds = 12
    migration_rounds = 2
    pool_frac = 0.25
    config = dict(t0=1, alphas=(0.0, 0.5), use_feedback=False)

    def setup(self, seeds: Seeds):
        inst = make(
            "tpch-drift", scale=self.scale, seed=seeds.registry,
            phases=self.phases, drift_seed=seeds.drift,
        )
        per_phase = self.standalone_rounds + self.migration_rounds
        stream = RefreshStream(
            inst.flat_tables["lineitem"], "lineitem",
            ("l_orderkey", "l_linenumber"), "o_orderdate",
            rounds=per_phase * (self.phases - 1), seed=seeds.refresh,
        )
        base_bytes = inst.total_base_bytes()
        pool_pages = max(64, int(self.pool_frac * base_bytes / DiskModel().page_size))
        budget = max(1, int(base_bytes * self.budget_frac))
        return inst, inst.stream.phases(), stream.batches(), budget, pool_pages

    def cycle(self, inputs, rec) -> CycleResult:
        inst, phases, batches, budget, pool_pages = inputs
        result = CycleResult()
        clock = Clock(result, rec)
        session = EvalSession()
        per_batch = 2  # insert + delete per round
        standalone = self.standalone_rounds * per_batch
        streamed = self.migration_rounds * per_batch
        with use_session(session):
            with clock.stage("design"):
                designer = CoraddDesigner(
                    inst.flat_tables, phases[0].workload, inst.primary_keys,
                    inst.fk_attrs, config=DesignerConfig(**self.config),
                )
                design = designer.design(budget)
            with clock.stage("deploy"):
                db = design.materialize(session)
                evaluated = harness.evaluate_design(design, db, session)
            with clock.check():
                _verify_live_rowids(db, design.workload, "lineitem", result)
            result.chosen["phase=0"] = list(design.ilp.chosen_ids)
            result.model_ratios += _model_ratios(evaluated)
            workload_sim = evaluated.real_total
            executor = RefreshExecutor(db, pool_pages=pool_pages, session=session)
            maintenance = transition = 0.0
            rows = 0
            cursor = 0
            for phase in phases[1:]:
                with clock.stage("refresh"):
                    for batch in batches[cursor:cursor + standalone]:
                        outcome = executor.apply(batch)
                        rows += outcome.rows
                        maintenance += outcome.seconds
                result.attempted += standalone
                cursor += standalone
                with clock.stage("redesign"):
                    new_design = designer.update(phase.delta, budget)
                with clock.stage("migrate"):
                    diff = migration.DesignDiff(design, new_design)
                    report = migration.execute_transition(
                        diff, db, session=session, plan=diff.plan(),
                        refreshes=batches[cursor:cursor + streamed],
                        refresh_executor=executor,
                    )
                result.attempted += streamed + 1  # batches + the migration
                cursor += streamed
                db, design = report.final_db, new_design
                maintenance += report.refresh_seconds
                transition += report.query_seconds
                with clock.check():
                    _verify_live_rowids(db, design.workload, "lineitem", result)
                    workload_sim += db.total_seconds(design.workload)
                result.chosen[f"phase={phase.index}"] = list(
                    design.ilp.chosen_ids
                )
            with clock.stage("refresh"):
                maintenance += executor.flush()
            pool = executor.pool
            result.sims.update(
                workload_sim_s=workload_sim,
                maintenance_sim_s=maintenance,
                transition_sim_s=transition,
            )
            result.counts.update(designer.enumeration_stats)
            result.counts.update({
                "storage.refresh.standalone_rows": rows,
                "storage.bufferpool.hits": pool.hits,
                "storage.bufferpool.misses": pool.misses,
                "storage.bufferpool.dirty_evictions": pool.dirty_evictions,
                "storage.refresh.executor_compactions": executor.compactions,
            })
        result.session_stats = dict(session.stats)
        return result


WORKLOADS = {w.name: w for w in (DesignTpch(), EvolveTpch())}


def run_cycle(workload, inputs, rec) -> CycleResult:
    """One cycle with its wall time; an exception is one failed operation."""
    start = perf_counter()
    try:
        result = workload.cycle(inputs, rec)
    except Exception:  # noqa: BLE001 - reported, then exit non-zero
        traceback.print_exc()
        result = CycleResult(attempted=1, failed=1)
    result.wall_s = perf_counter() - start
    return result
