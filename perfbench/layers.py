"""Per-layer attribution for the traced benchmark run.

Wrappers around the public entry points of every layer of ``repro`` are
installed from here — the library itself is not modified — and removed again
after each traced cycle, so untraced cycles run the library untouched.

Every wrapped call pushes a frame on one stack.  When it returns, its
elapsed time is charged to the caller's frame as child time, which gives
exact exclusive ("self") time per layer: a span's duration minus the time
its callees' spans cover.  Hot inner functions (tens of thousands of calls
per cycle: layout estimates, cost-model explains) are aggregated into
call/total/self counters; coarse entry points additionally leave a span
record — id, parent id and the cycle id every span of one cycle shares —
that is kept in memory and written to the trace file at the end of the run.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Recorder:
    """Spans, aggregated timers and work counters of traced cycles."""

    def __init__(self, first_id: int = 0) -> None:
        self._stack: list[list] = []  # [name, start, child_s, span id]
        self.next_id = first_id
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.unique: defaultdict = defaultdict(set)
        self.paused = False
        self.cycle: int | None = None

    # ------------------------------------------------------------- frames

    def push(self, name: str, coarse: bool) -> list:
        span_id = None
        if coarse:
            span_id = self.next_id
            self.next_id += 1
        frame = [name, perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "unbalanced layer frames"
        name, start, child_s, span_id = frame
        elapsed = end - start
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child_s
        if self._stack:
            self._stack[-1][2] += elapsed
        if span_id is not None:
            parent = next(
                (f[3] for f in reversed(self._stack) if f[3] is not None), None
            )
            self.spans.append({
                "id": span_id,
                "parent": parent,
                "cycle": self.cycle,
                "name": name,
                "start": start,
                "end": end,
                "self_s": elapsed - child_s,
            })

    def root(self, cycle: int) -> "_Root":
        """The cycle's root span: every span opened inside shares its id."""
        self.cycle = cycle
        return _Root(self)


class _Root:
    def __init__(self, rec: Recorder) -> None:
        self.rec = rec

    def __enter__(self):
        self.frame = self.rec.push("bench.cycle", coarse=True)
        return self

    def __exit__(self, *exc) -> bool:
        self.rec.pop(self.frame)
        return False


class _Paused:
    def __init__(self, rec: Recorder | None) -> None:
        self.rec = rec

    def __enter__(self):
        if self.rec is not None:
            self.prev = self.rec.paused
            self.rec.paused = True
            self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self.rec is not None:
            self.rec.paused = self.prev
            # Paused time is not the caller's own work either.
            if self.rec._stack:
                self.rec._stack[-1][2] += perf_counter() - self.start
        return False


def paused(rec: Recorder | None) -> _Paused:
    """Stop recording in the block (answer checks are not part of the
    system); a no-op without a recorder."""
    return _Paused(rec)


# ---------------------------------------------------------------- wrappers


def _wrap(rec: Recorder, name: str, fn, coarse: bool, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        frame = rec.push(name, coarse)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.pop(frame)
        if after is not None:
            after(rec, out, args, kwargs)
        return out

    return wrapper


def _layout_key(rec, out, args, kwargs):
    # estimate_layout(self, cluster_key, query, gap_rows, pred_attrs, ...)
    stats, key, query, gap = args[:4]
    rest = repr((args[4:], sorted(kwargs.items())))
    rec.unique["stats.estimate_layout"].add(
        (id(stats), tuple(key), query.fingerprint(), gap, rest)
    )


def _solve_counts(rec, solution, args, kwargs):
    model = args[0]
    rec.counters["ilp.variables"] += model.num_variables
    if kwargs.get("warm_start") is not None or len(args) > 3 and args[3] is not None:
        rec.counters["ilp.warm_starts"] += 1


def _run_counts(rec, choice, args, kwargs):
    cost = choice.result.cost
    rec.counters["storage.pages_read"] += cost.pages_read
    rec.counters["storage.seeks"] += cost.seeks


def _heapfile_counts(rec, out, args, kwargs):
    # HeapFile(table, cluster_key, disk, name=None, permutation=None) sorts
    # unless handed the permutation (which the session sorts and counts).
    key = args[2] if len(args) > 2 else kwargs.get("cluster_key")
    perm = args[5] if len(args) > 5 else kwargs.get("permutation")
    if key and perm is None:
        rec.counters["storage.heap_sorts"] += 1


def _refresh_counts(rec, outcome, args, kwargs):
    rec.counters["storage.refresh.rows"] += outcome.rows
    rec.counters["storage.refresh.page_reads"] += outcome.page_reads
    rec.counters["storage.refresh.page_writes"] += outcome.page_writes
    rec.counters["storage.refresh.compactions"] += outcome.compactions


def _plan_counts(rec, plan, args, kwargs):
    rec.counters["design.migration.builds"] += len(plan.builds)
    rec.counters["design.migration.drops"] += len(plan.drops)
    rec.counters["design.migration.cm_refreshes"] += len(plan.cm_refreshes)


def _dedup_counts(rec, result, args, kwargs):
    rec.counters["workloads.log_entries"] += result.n_entries
    rec.counters["workloads.unique_queries"] += result.n_unique


def _compress_counts(rec, result, args, kwargs):
    rec.counters["workloads.representatives"] += result.n_representatives


def _targets():
    """(owner, attribute, layer name, coarse, counter hook) per wrapped
    entry point.  Functions imported by name into other modules are wrapped
    at every binding the pipeline reaches them through."""
    from repro.cm.correlation_map import CorrelationMap
    from repro.cm.designer import CMDesigner
    from repro.costmodel.correlation_aware import CorrelationAwareCostModel
    from repro.design import designer, ilp_formulation, migration
    from repro.design.clustering import ClusteredIndexDesigner
    from repro.design.enumerate import CandidateEnumerator
    from repro.experiments import harness
    from repro.ilp import solver
    from repro.relational.table import Table
    from repro.stats.collector import TableStatistics
    from repro.storage.executor import PhysicalDatabase
    from repro.storage.layout import HeapFile
    from repro.storage.update import RefreshExecutor
    from repro.workloads import compress

    return [
        (TableStatistics, "__init__", "stats.profile", True, None),
        (TableStatistics, "estimate_layout", "stats.estimate_layout", False,
         _layout_key),
        (CorrelationAwareCostModel, "explain", "costmodel.explain", False, None),
        (designer.CoraddDesigner, "design", "design.design", True, None),
        (designer.CoraddDesigner, "enumerate", "design.enumerate", True, None),
        (designer.CoraddDesigner, "update", "design.update", True, None),
        (designer, "run_ilp_feedback", "design.feedback", True, None),
        (ClusteredIndexDesigner, "score_key", "design.score_key", False, None),
        (CandidateEnumerator, "compute_runtimes", "design.compute_runtimes",
         False, None),
        (ilp_formulation, "solve", "ilp.solve", True, _solve_counts),
        (solver, "solve", "ilp.solve", True, _solve_counts),
        (CMDesigner, "design", "cm.design", False, None),
        (CorrelationMap, "__init__", "cm.build", False, None),
        (designer.Design, "materialize", "storage.materialize", True, None),
        (PhysicalDatabase, "run", "storage.run", False, _run_counts),
        (Table, "sort_permutation", "relational.sort_permutation", False,
         None),
        (HeapFile, "__init__", "storage.heapfile", False, _heapfile_counts),
        (HeapFile, "tail_merge", "storage.tail_merge", True, None),
        (RefreshExecutor, "apply", "storage.refresh.apply", True,
         _refresh_counts),
        (RefreshExecutor, "flush", "storage.refresh.flush", True, None),
        (RefreshExecutor, "catch_up", "design.migration.catch_up", True, None),
        (migration.DesignDiff, "plan", "design.migration.plan", True,
         _plan_counts),
        (migration, "execute_transition", "design.migration.execute", True,
         None),
        (harness, "evaluate_design", "harness.evaluate", True, None),
        (compress, "dedup_log", "workloads.dedup", True, _dedup_counts),
        (compress, "compress_workload", "workloads.compress", True,
         _compress_counts),
    ]


class Installed:
    """Context manager: wrappers in place for the block, originals after."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: list[tuple] = []

    def __enter__(self) -> Recorder:
        wrapped: dict[int, object] = {}
        for owner, attr, name, coarse, after in _targets():
            original = owner.__dict__[attr]
            # One wrapper per function object, however many names bind it.
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                wrapper = _wrap(self.rec, name, original, coarse, after)
                wrapped[id(original)] = wrapper
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self.rec

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ------------------------------------------------------------------- table


def merge(recs: list[Recorder]) -> Recorder:
    """One recorder holding the summed timers of ``recs``."""
    out = Recorder()
    for i, rec in enumerate(recs):
        out.calls.update(rec.calls)
        out.counters.update(rec.counters)
        for name in rec.calls:
            out.total_s[name] += rec.total_s[name]
            out.self_s[name] += rec.self_s[name]
        for name, keys in rec.unique.items():
            out.unique[name].update((i, key) for key in keys)
    return out


def layer_rows(rec: Recorder) -> list[tuple[str, int, float, float, float]]:
    """(layer, calls, total s, self s, self share of the cycles' wall) rows,
    heaviest self time first."""
    wall = rec.total_s.get("bench.cycle", 0.0) or 1.0
    rows = [
        (name, rec.calls[name], rec.total_s[name], rec.self_s[name],
         rec.self_s[name] / wall)
        for name in rec.calls
    ]
    return sorted(rows, key=lambda r: -r[3])


def render_table(rec: Recorder, cycles: int) -> str:
    lines = [
        f"per-layer attribution, totals over {cycles} traced cycles "
        "(one per input instance):",
        f"  {'layer':<28} {'calls':>9} {'total_s':>10} {'self_s':>10} "
        f"{'share':>7}",
    ]
    for name, calls, total, self_s, share in layer_rows(rec):
        lines.append(
            f"  {name:<28} {calls:>9} {total:>10.4f} {self_s:>10.4f} "
            f"{share:>7.1%}"
        )
    return "\n".join(lines)
