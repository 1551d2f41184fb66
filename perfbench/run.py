"""End-to-end benchmark of the CORADD designer pipeline.

    python3 perfbench/run.py --workload design-tpch --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``repro`` from
``src/``).  After set-up (imports plus input generation, repeated and
reported as a median) and one untimed warm-up cycle, it runs cold cycles of
the named workload for ``--seconds`` seconds, checks every answer, and
prints a report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` nothing is installed and the metrics are the end-to-end
ones.  With ``--trace 1`` traced and untraced cycles alternate: the traced
ones run with per-layer wrappers (:mod:`layers`) and the library's
``repro.obs.observed()`` installed, the metrics are the per-layer ones, and
spans, work counters and chosen ids are written to a trace file
(``perfbench/out/``).  The exit code is non-zero when any check fails.

Cycle timings are reported at a reference machine speed: each cycle's
times are scaled by ``PROBE_REF_S`` over the time a fixed calibration probe
took around that cycle (:class:`Probe`), which takes out most of the
seconds-to-minutes drift in speed of a shared host.  The report prints the
unscaled wall-clock medians too.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# Everything the cycles use; run in fresh interpreters to time the imports.
IMPORTS = """
import sys
from time import perf_counter
sys.path[:0] = sys.argv[1:]
t = perf_counter()
import numpy, scipy.optimize
import layers, pipeline
from repro.obs import observed
print(perf_counter() - t)
"""
TRACE_VERSION = 2
# The calibration probe: a stable argsort and a random gather over this
# many integers, about PROBE_REF_S seconds on a 2-core x86-64 VM.
PROBE_ROWS = 1_000_000
PROBE_REF_S = 0.17


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the data and refresh stream")
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement time after set-up and warm-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--registry-seed", type=int,
                   help="data generator seed (default: --seed)")
    p.add_argument("--refresh-seed", type=int,
                   help="refresh-stream seed (default: --seed)")
    p.add_argument("--log-seed", type=int, default=0,
                   help="query-log seed: which templates are hot")
    p.add_argument("--drift-seed", type=int, default=0,
                   help="workload-drift seed: which queries rotate")
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory of the trace file (traced runs)")
    return p.parse_args(argv)


class Probe:
    """Fixed memory-bound numpy work, independent of ``repro``, timed
    between cycles.  Its time tracks how fast the host runs the cycles'
    sorts and gathers right now; no change to the program can change it."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.keys = rng.integers(0, 1 << 30, PROBE_ROWS)
        self.perm = rng.permutation(PROBE_ROWS)
        self()  # first-call costs

    def __call__(self) -> float:
        start = perf_counter()
        self.np.argsort(self.keys, kind="stable")
        self.keys.take(self.perm).sum()
        return perf_counter() - start


def at_reference(c, seconds: float) -> float:
    """``seconds`` of cycle ``c`` at the reference speed."""
    return seconds * PROBE_REF_S / c.probe_s


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values) -> tuple[str, float] | None:
    """The highest of p50..p99 with at least ten samples beyond it."""
    if len(values) < 2:
        return None
    cuts = statistics.quantiles(values, n=100)
    best = None
    for p in (50, 75, 90, 95, 99):
        if sum(1 for v in values if v > cuts[p - 1]) >= 10:
            best = (f"p{p}", cuts[p - 1])
    return best


# ------------------------------------------------------------------ metrics

# Workload-specific end-to-end metrics: printed and written to the trace
# file, but not in the JSON line (every metric there is on every workload).
SPECIFIC = {
    "compress_s": ("s", "lower"),
    "redesign_s": ("s", "lower"),
    "migrate_s": ("s", "lower"),
    "refresh_rows_per_s": ("1/s", "higher"),
    "maintenance_sim_s": ("sim_s", "lower"),
    "transition_sim_s": ("sim_s", "lower"),
}


def benchmark_metrics(kind: str) -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` metrics: the set the JSON line reports."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}


def per_instance(cycles, value) -> float:
    """Mean over input instances of the median of each instance's visits:
    the mean over instances averages out how much work each input happens
    to need (above all, how hard its ILP is); the per-instance median keeps
    an extra visit from weighing more than one instance."""
    visits: dict[int, list[float]] = {}
    for j, c in cycles:
        visits.setdefault(j, []).append(value(c))
    return statistics.fmean(median(v) for v in visits.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(cycles, firsts, setup_s: float,
               setup_rss_mb: float) -> dict[str, float]:
    """Timings: :func:`per_instance` over ``(instance, cycle)`` pairs, at
    the reference speed (set-up is plain wall-clock).
    Simulated seconds: means over the first cycle of every instance.
    Memory: how far the cycles raised the peak RSS above set-up's peak."""

    def timing(stage):
        return per_instance(
            cycles, lambda c: at_reference(c, c.stages[stage]))

    def sim(name):
        return statistics.fmean(c.sims[name] for c in firsts)

    out = {
        "setup_s": setup_s,
        "cycle_s": per_instance(
            cycles, lambda c: at_reference(c, c.cycle_s)),
        "design_s": timing("design"),
        "deploy_s": timing("deploy"),
        "workload_sim_s": sim("workload_sim_s"),
        "cycle_rss_mb": peak_rss_mb() - setup_rss_mb,
    }
    stages = cycles[0][1].stages
    if "compress" in stages:
        out["compress_s"] = timing("compress")
    if "redesign" in stages:
        out["redesign_s"] = timing("redesign")
        out["migrate_s"] = timing("migrate")
        # Seconds per row averaged, then inverted: rows vary per instance.
        out["refresh_rows_per_s"] = 1.0 / per_instance(
            cycles, lambda c: at_reference(c, c.stages["refresh"])
            / c.counts["storage.refresh.standalone_rows"])
        out["maintenance_sim_s"] = sim("maintenance_sim_s")
        out["transition_sim_s"] = sim("transition_sim_s")
    return out


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(rec, library: dict, result) -> dict[str, float]:
    """Per-layer metrics of one traced cycle."""
    import numpy as np

    calls, self_s, total_s = rec.calls, rec.self_s, rec.total_s
    c, s = rec.counters, result.session_stats
    ratios = np.asarray(result.model_ratios or [0.0])
    enumerated = result.counts.get("enumerated", 0)
    refresh_rows = c["storage.refresh.rows"]
    return {
        "stats.profile_s": total_s["stats.profile"],
        "stats.estimate_layout.calls": calls["stats.estimate_layout"],
        "stats.estimate_layout.unique": len(rec.unique["stats.estimate_layout"]),
        "stats.estimate_layout.self_s": self_s["stats.estimate_layout"],
        "costmodel.explain.calls": calls["costmodel.explain"],
        "costmodel.explain.self_s": self_s["costmodel.explain"],
        "costmodel.ratio_p50": float(np.percentile(ratios, 50)),
        "costmodel.ratio_p90": float(np.percentile(ratios, 90)),
        "costmodel.ratio_max": float(ratios.max()),
        "design.enumerate_s": total_s["design.enumerate"],
        "design.candidates": enumerated,
        "design.candidates_pruned": enumerated - result.counts.get(
            "after_domination", enumerated),
        "design.score_key.calls": calls["design.score_key"],
        "design.score_key.self_s": self_s["design.score_key"],
        "design.compute_runtimes.calls": calls["design.compute_runtimes"],
        "design.compute_runtimes.self_s": self_s["design.compute_runtimes"],
        "design.feedback.calls": calls["design.feedback"],
        "design.feedback.self_s": self_s["design.feedback"],
        "design.update.calls": calls["design.update"],
        "design.update_s": total_s["design.update"],
        "ilp.solve.calls": calls["ilp.solve"],
        "ilp.solve.self_s": self_s["ilp.solve"],
        "ilp.variables": c["ilp.variables"],
        "ilp.bnb_nodes": library.get("ilp.bnb_nodes", 0),
        "ilp.warm_starts": c["ilp.warm_starts"],
        "cm.design.calls": calls["cm.design"],
        "cm.design.self_s": self_s["cm.design"],
        "cm.builds": calls["cm.build"],
        "cm.build_hit_rate": _rate(s["cm_build_hits"], s["cm_build_misses"]),
        "storage.materialize.self_s": self_s["storage.materialize"],
        "storage.heap_sorts": c["storage.heap_sorts"] + s["ordering_misses"],
        "storage.run.calls": calls["storage.run"],
        "storage.run.self_s": self_s["storage.run"],
        "storage.pages_read": c["storage.pages_read"],
        "storage.seeks": c["storage.seeks"],
        "storage.refresh.apply.calls": calls["storage.refresh.apply"],
        "storage.refresh.apply.self_s": self_s["storage.refresh.apply"],
        "storage.refresh.page_reads": c["storage.refresh.page_reads"],
        "storage.refresh.page_writes": c["storage.refresh.page_writes"],
        "storage.refresh.writes_per_row": (
            c["storage.refresh.page_writes"] / refresh_rows if refresh_rows else 0.0
        ),
        "storage.refresh.compactions": c["storage.refresh.compactions"],
        "storage.refresh.tail_merges": calls["storage.tail_merge"],
        "storage.bufferpool.hit_rate": _rate(
            result.counts.get("storage.bufferpool.hits", 0),
            result.counts.get("storage.bufferpool.misses", 0),
        ),
        "storage.bufferpool.dirty_evictions": result.counts.get(
            "storage.bufferpool.dirty_evictions", 0),
        "design.migration.plan_s": total_s["design.migration.plan"],
        "design.migration.execute.self_s": self_s["design.migration.execute"],
        "design.migration.catch_up_s": total_s["design.migration.catch_up"],
        "design.migration.builds": c["design.migration.builds"],
        "design.migration.drops": c["design.migration.drops"],
        "design.migration.cm_refreshes": c["design.migration.cm_refreshes"],
        "engine.session.mask_hit_rate": _rate(s["mask_hits"], s["mask_misses"]),
        "engine.session.scan_hit_rate": _rate(s["scan_hits"], s["scan_misses"]),
        "engine.session.cm_choice_hit_rate": _rate(
            s["cm_choice_hits"], s["cm_choice_misses"]),
        "engine.session.bytes": sum(
            v for k, v in s.items() if k.endswith("_bytes")),
        "workloads.dedup_s": total_s["workloads.dedup"],
        "workloads.dedup_ratio": result.counts.get("workloads.dedup_ratio", 0.0),
        "workloads.compress_s": total_s["workloads.compress"],
        "workloads.representatives": c["workloads.representatives"],
    }


def work_counters(rec, library: dict, result) -> dict:
    """The deterministic work of one cycle: identical on every cold cycle
    and every run of the same inputs."""
    out = {f"calls.{k}": v for k, v in sorted(rec.calls.items())}
    out.update({k: v for k, v in sorted(rec.counters.items())})
    out["stats.estimate_layout.unique"] = len(rec.unique["stats.estimate_layout"])
    out.update({f"library.{k}": v for k, v in sorted(library.items())})
    out.update({f"session.{k}": v for k, v in sorted(result.session_stats.items())})
    out.update(deterministic(result))
    return out


def deterministic(result) -> dict:
    """Outputs every cycle of a run must reproduce exactly."""
    out = {f"sim.{k}": v for k, v in sorted(result.sims.items())}
    out.update({f"chosen.{k}": v for k, v in result.chosen.items()})
    out["costmodel.ratios"] = list(result.model_ratios)
    out.update({
        f"count.{k}": v for k, v in sorted(result.counts.items())
        if isinstance(v, (int, float))
    })
    return out


# --------------------------------------------------------------------- main


class Run:
    """The cycles of one run and what their checks found."""

    def __init__(self, warmup) -> None:
        self.firsts = {0: warmup}  # instance -> its first cycle
        self.reference = {0: deterministic(warmup)}
        self.untraced: list = []  # (instance, CycleResult)
        self.traced: list = []  # (instance, CycleResult, Recorder, Observation)
        self.attempted = warmup.attempted
        self.failed = warmup.failed

    def add(self, j: int, result) -> None:
        # The reproduction check counts as one more operation per cycle.
        self.attempted += result.attempted + 1
        self.failed += result.failed
        self.firsts.setdefault(j, result)
        if self.reference.setdefault(j, deterministic(result)) != deterministic(result):
            self.failed += 1
            print(f"instance {j}: a cycle's outputs differ from its first "
                  "cycle's", file=sys.stderr)

    def walls(self) -> list[float]:
        return [r.wall_s for _, r in self.untraced] + [
            t[1].wall_s for t in self.traced]


def measure(workload, inputs, seconds: float, traced_mode: bool,
            probe: Probe):
    """Warm-up, then cycles round-robin over the instances until
    ``seconds`` pass (at least one visit each).  The traced run pairs an
    untraced and a traced cycle on each instance.  The probe runs between
    cycles; a cycle's ``probe_s`` is the mean of the probes either side."""
    import layers
    import pipeline
    from repro.obs import observed

    run = Run(pipeline.run_cycle(workload, inputs[0], None))
    before = probe()
    per_visit = 2 if traced_mode else 1
    start = perf_counter()
    index = 0
    while True:
        j = (index // per_visit) % workload.instances
        if traced_mode and index % 2 == 1:
            rec = layers.Recorder(
                first_id=run.traced[-1][2].next_id if run.traced else 0)
            with observed(f"{workload.name}-{index}") as obs, \
                    layers.Installed(rec), rec.root(index):
                result = pipeline.run_cycle(workload, inputs[j], rec)
            run.traced.append((j, result, rec, obs))
        else:
            result = pipeline.run_cycle(workload, inputs[j], None)
            run.untraced.append((j, result))
        after = probe()
        result.probe_s = (before + after) / 2
        before = after
        run.add(j, result)
        index += 1
        elapsed = perf_counter() - start
        if (index >= per_visit * workload.instances
                and elapsed + median(run.walls()) > seconds):
            return run


def report_end_to_end(run, e2e, lines: list[str]) -> None:
    lines.append("end-to-end (timings: mean over instances of the median "
                 "untraced visit at the reference speed; simulated seconds: "
                 "mean over instances):")
    for name, value in e2e.items():
        unit, better = {**benchmark_metrics("end_to_end"), **SPECIFIC}[name]
        lines.append(
            f"  {name:<20} {value:>14.6g} {unit:<6} ({better} is better)")
    stages = ",".join(run.untraced[0][1].stages)
    lines.append(f"  cycles as instance:cycle_s({stages}): " + " ".join(
        f"{j}:{r.cycle_s:.2f}(" + ",".join(
            f"{v:.2f}" for v in r.stages.values()) + ")"
        for j, r in run.untraced))
    times = [at_reference(r, r.cycle_s) for _, r in run.untraced]
    tail = tail_percentile(times)
    lines.append(
        f"  cycle_s samples: {len(times)}, median {median(times):.4f} s; "
        + (f"{tail[0]} {tail[1]:.4f} s" if tail else
           "too few for a tail percentile with ten samples beyond it"))
    wall = {"cycle_s": [r.cycle_s for _, r in run.untraced]}
    for stage in run.untraced[0][1].stages:
        wall[f"{stage}_s"] = [r.stages[stage] for _, r in run.untraced]
    lines.append("  unscaled wall-clock medians: " + ", ".join(
        f"{k} {median(v):.4f}" for k, v in wall.items()) + " s; probe median "
        f"{median([r.probe_s for _, r in run.untraced]):.4f} s (reference "
        f"{PROBE_REF_S} s)")
    for j in sorted(run.firsts):
        lines.append(f"  instance {j} chosen ids: " + "; ".join(
            f"{k}: {','.join(v) or '-'}"
            for k, v in run.firsts[j].chosen.items()))


def report_layers(run, e2e, workload, seeds, out_path: Path,
                  lines: list[str]) -> dict[str, float]:
    """Per-layer metrics over one traced pass (the first traced cycle of
    every instance); writes the trace file."""
    import layers
    import pipeline

    pass_ = {}
    for j, result, rec, obs in run.traced:
        pass_.setdefault(j, (result, rec, obs))
    work = {}
    for j, result, rec, obs in run.traced:
        counters = work_counters(rec, obs.metrics.counters, result)
        if work.setdefault(j, counters) != counters:
            run.failed += 1
            print(f"instance {j}: work counters differ between traced "
                  "cycles", file=sys.stderr)
    merged = layers.merge([rec for _, rec, _ in pass_.values()])
    library = Counter()
    for _, _, obs in pass_.values():
        library.update(obs.metrics.counters)
    metrics = per_layer(
        merged, library,
        pipeline.merge_results([r for r, _, _ in pass_.values()]))
    metrics["obs.trace_overhead"] = per_instance(
        [(j, r) for j, r, _, _ in run.traced],
        lambda c: at_reference(c, c.cycle_s)) / e2e["cycle_s"]
    lines.append(layers.render_table(merged, len(pass_)))
    lines.append(f"  obs.trace_overhead {metrics['obs.trace_overhead']:.3f}")
    cycles = [(j, r, False) for j, r in run.untraced] + [
        (j, r, True) for j, r, _, _ in run.traced]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({
        "version": TRACE_VERSION,
        "workload": workload.name,
        "seeds": vars(seeds),
        "end_to_end": e2e,
        "per_layer": metrics,
        "work_counters": {str(j): work[j] for j in sorted(work)},
        "layers": [
            dict(zip(("layer", "calls", "total_s", "self_s", "share"), row))
            for row in layers.layer_rows(merged)
        ],
        "cycles": [
            {"instance": j, "traced": t, "cycle_s": r.cycle_s,
             "probe_s": r.probe_s, "stages": r.stages}
            for j, r, t in cycles
        ],
        "spans": [span for _, _, rec, _ in run.traced for span in rec.spans],
        "library": [obs.report() for _, _, _, obs in run.traced],
    }, indent=1, default=str) + "\n")
    lines.append(f"trace written to {out_path}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    paths = [str(HERE), str(ROOT / "src")]
    sys.path[:0] = paths
    # Everything the cycles use is imported here, so no cycle pays for it.
    # The import time part of setup_s is the median over fresh interpreters
    # (a module imports only once per process).
    import pipeline

    # Built before set-up, so its arrays are in set-up's peak RSS.
    probe = Probe()
    import_times = [
        float(subprocess.run(
            [sys.executable, "-c", IMPORTS, *paths], check=True,
            capture_output=True, text=True,
        ).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    import_s = median(import_times)

    workload = pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    seeds = pipeline.Seeds(
        registry=args.seed if args.registry_seed is None else args.registry_seed,
        log=args.log_seed,
        drift=args.drift_seed,
        refresh=args.seed if args.refresh_seed is None else args.refresh_seed,
    )
    instances = [seeds.instance(j) for j in range(workload.instances)]
    setup_times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous generation before the next
        t = perf_counter()
        inputs = [workload.setup(sub) for sub in instances]
        setup_times.append(perf_counter() - t)
    setup_s = import_s + median(setup_times)
    setup_rss_mb = peak_rss_mb()

    run = measure(workload, inputs, args.seconds, args.trace == 1, probe)
    lines = []
    metrics = {}
    try:
        e2e = end_to_end(
            run.untraced, [run.firsts[j] for j in sorted(run.firsts)], setup_s,
            setup_rss_mb)
    except (KeyError, statistics.StatisticsError):
        e2e = None  # a cycle failed before producing its stages
    if e2e is not None:
        report_end_to_end(run, e2e, lines)
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, (unit, _) in benchmark_metrics("end_to_end").items()
        }
        if args.trace == 1:
            path = args.out / f"trace-{workload.name}-seed{args.seed}.json"
            layer_metrics = report_layers(
                run, e2e, workload, seeds, path, lines)
            metrics = {
                name: {"value": layer_metrics[name], "unit": unit}
                for name, (unit, _) in benchmark_metrics("per_layer").items()
            }
    lines.insert(0, (
        f"workload {workload.name}: seeds {vars(seeds)}, "
        f"{workload.instances} input instances, {len(run.untraced)} "
        f"untraced + {len(run.traced)} traced cycles after one warm-up; "
        f"{run.attempted} operations checked, {run.failed} failed; set-up: "
        "imports " + ", ".join(f"{t:.3f}" for t in import_times)
        + " s; input generation " + ", ".join(f"{t:.3f}" for t in setup_times)
        + f" s; peak RSS {setup_rss_mb:.1f} MB"))
    print("\n".join(lines))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
