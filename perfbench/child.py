"""One workload iteration in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_AT

MODE is ``probe`` (set-up only: stop at the first simulated event),
``run`` (untraced) or ``trace`` (per-layer spans and counters, see
``tracer.py``).  SPAWNED_AT is the parent's ``time.monotonic()`` just
before it started this interpreter, so set-up time covers interpreter
start and ``import repro``; CLOCK_MONOTONIC is shared by all processes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class SetupDone(BaseException):
    """Ends a probe at its first simulated event.  A BaseException, so
    ``run_matrix``'s per-cell ``except Exception`` lets it through."""


class Phases:
    """Wall-clock marks of every driver run: set-up end (the first
    ``Environment.run`` inside ``OpenLoopDriver.run``, i.e. after the
    dataset ingest) and simulation end (``OpenLoopDriver.run`` returns)."""

    def __init__(self, probe: bool) -> None:
        self.probe = probe
        #: The first simulated event of the whole iteration.
        self.first_start: float | None = None
        self.runs: list[dict] = []
        self._current: dict | None = None
        self.on_start = None
        self.on_end = None

    def install(self) -> None:
        from repro.core.driver.open_loop import OpenLoopDriver
        from repro.runtime import Environment

        driver_run = OpenLoopDriver.run
        env_run = Environment.run
        phases = self

        def run(driver):
            phases._current = {"sim_start": None}
            if phases.on_start is not None:
                phases.on_start(driver)
            metrics = driver_run(driver)
            mark, phases._current = phases._current, None
            mark["sim_end"] = time.monotonic()
            phases.runs.append(mark)
            if phases.on_end is not None:
                phases.on_end(driver)
            return metrics

        def first_event(env, until=None):
            mark = phases._current
            if mark is not None and mark["sim_start"] is None:
                mark["sim_start"] = time.monotonic()
                if phases.first_start is None:
                    phases.first_start = mark["sim_start"]
                if phases.probe:
                    raise SetupDone
            return env_run(env, until)

        OpenLoopDriver.run = run
        Environment.run = first_event


class CostGrowth:
    """Wall seconds per committed tx in the last quarter of each run's
    measured window, against the first quarter."""

    def __init__(self) -> None:
        self.totals = {"first": [0.0, 0], "last": [0.0, 0]}
        self._marks: list[tuple[float, float]] = []

    def install(self, phases: Phases) -> None:
        from repro.core.driver.metrics import LatencyRecorder

        record = LatencyRecorder.record
        marks = self._marks
        clock = time.perf_counter

        def observed(recorder, operation, status, latency, at=None):
            if status == "ok" and at is not None:
                marks.append((at, clock()))
            return record(recorder, operation, status, latency, at)

        LatencyRecorder.record = observed
        phases.on_start = lambda driver: marks.clear()
        phases.on_end = self._close_run

    def _close_run(self, driver) -> None:
        start = driver.recorder.timeline_origin
        quarter = driver.config.duration / 4
        windows = {"first": (start, start + quarter),
                   "last": (start + 3 * quarter, start + 4 * quarter)}
        for name, (low, high) in windows.items():
            walls = [wall for at, wall in self._marks if low <= at < high]
            if len(walls) > 1:
                self.totals[name][0] += walls[-1] - walls[0]
                self.totals[name][1] += len(walls) - 1

    def ratio(self) -> float:
        (first_s, first_n), (last_s, last_n) = (self.totals["first"],
                                                self.totals["last"])
        if not (first_n and last_n and first_s):
            return 0.0
        return (last_s / last_n) / (first_s / first_n)


def harvest(run, mark: dict) -> dict:
    """Exact work counters of one finished scenario run."""
    ops = run.metrics.ops.values()
    stats = run.app.runtime_stats()
    txn = stats.get("transactions") or {}
    working_set = stats.get("working_set") or {}
    cluster = getattr(run.app, "cluster", None)
    actor_set = working_set if cluster else {}
    driver = run.driver
    dataset = driver.dataset
    touched = 0
    if getattr(dataset, "lazy", False):
        summary = dataset.summary()
        touched = (summary["touched_sellers"] + summary["touched_customers"]
                   + summary["touched_products"])
    return {
        "committed": sum(op.ok for op in ops),
        "ops": sum(op.count for op in ops),
        "ops_failed": sum(op.failed + op.rejected for op in ops),
        "events": run.env.events_processed,
        "pool_hits": run.env.pool_hits,
        "pool_acquires": run.env.pool_acquires,
        "actor_messages": stats.get("messages_sent", 0),
        "dataflow_messages": stats.get("messages_processed", 0),
        "checkpoints": stats.get("checkpoints", 0),
        "route_hits": cluster.route_cache_hits if cluster else 0,
        "route_misses": cluster.route_cache_misses if cluster else 0,
        "activations": actor_set.get("activations", 0),
        "evictions": actor_set.get("evictions", 0),
        "reloads": actor_set.get("reloads", 0),
        "txn_started": txn.get("started", 0),
        "txn_committed": txn.get("committed", 0),
        "txn_retries": txn.get("retries", 0),
        "wait_die_deaths": txn.get("wait_die_deaths", 0),
        "kv_causal_waits": stats.get("kv_causal_waits", 0),
        "kv_stale_reads": stats.get("kv_stale_reads", 0),
        "control_ticks": (len(driver.autoscaler.samples)
                          if driver.autoscaler else 0),
        "control_actions": (len(driver.control.action_log)
                            if driver.control else 0),
        "records_checked": sum(result.checked
                               for result in run.report.results.values()),
        "criteria": {name: result.passed
                     for name, result in run.report.results.items()},
        "lazy_touches": touched,
        "sim_wall": mark["sim_end"] - mark["sim_start"],
    }


def peak_rss_mb() -> float:
    """This interpreter's peak resident set.  ``VmHWM`` starts afresh at
    exec; ``ru_maxrss`` would also count the parent's pages copied by
    the fork that started this process."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_at = (argv[0], int(argv[1]), argv[2],
                                        float(argv[3]))
    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro.core.matrix as matrix
    import workloads

    phases = Phases(probe=mode == "probe")
    phases.install()
    runs: list[dict] = []
    run_scenario = matrix.run_scenario

    def harvesting(*args, **kwargs):
        # One entry per cell, so runs line up with the matrix's cells.
        try:
            run = run_scenario(*args, **kwargs)
        except Exception:
            runs.append(None)
            raise
        runs.append(harvest(run, phases.runs[-1]))
        return run

    matrix.run_scenario = harvesting

    def digest(result) -> str:
        return hashlib.sha256(result.canonical_json.encode()).hexdigest()

    tracer = growth = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        growth = CostGrowth()
        growth.install(phases)
        digest = tracer.wrap(digest, "core.matrix", "core.matrix:digest")

    cells = workloads.cells(workload, seed)
    begin = time.monotonic()
    if tracer is not None:
        tracer.open_root()
    try:
        result = matrix.run_matrix(cells, workers=1)
    except SetupDone:
        print(json.dumps({"setup_s": phases.first_start - spawned_at}))
        return 0
    digests = [digest(cell) if cell.ok else None for cell in result.cells]
    if tracer is not None:
        tracer.close_root()
    end = time.monotonic()
    record = {
        "setup_s": phases.first_start - spawned_at,
        "wall_s": end - spawned_at,
        "work_s": end - begin,
        "peak_rss_mb": peak_rss_mb(),
        "cells": [{"id": cell.cell.cell_id, "status": cell.status,
                   "error": cell.error, "digest": value}
                  for cell, value in zip(result.cells, digests)],
        "runs": runs,
    }
    if tracer is not None:
        record["trace"] = {
            "wall_s": tracer.root_wall,
            "self_time": dict(tracer.self_time),
            "calls": dict(tracer.calls),
            "items": dict(tracer.items),
            "counts": dict(tracer.counts),
            "timers": dict(tracer.timers),
            "cost_growth": growth.ratio(),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
