"""The simulator benchmark: one workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator is treated as a batch program driven by one closed-loop
caller: workload iterations run back to back, one at a time, each in a
fresh interpreter (``child.py``) so that set-up time starts from an
empty process and no earlier iteration hides the peak memory of a
later one.  Inside an iteration the simulated traffic is the
scenario's own open-loop arrival schedule, in simulated seconds.

``--trace 0`` first runs set-up probes (fresh interpreter up to the
first simulated event), then untraced iterations until ``--seconds``
would be exceeded, and reports the end-to-end metrics of
``BENCHMARK.json`` as medians.  ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics.  Either way every
iteration's canonical payload digests and exact work counters must
repeat, and the workload's required criteria must pass; the last line
of standard output is the JSON result.

Times are normalised against :class:`Reference`, timed on the same CPU
around every child, because the host's speed drifts far more between
minutes than the benchmark's bounds allow; the summary also prints the
medians before normalising.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up probes per untraced run; with the iterations' own set-up
#: samples they give the ``setup_s`` median.
PROBES = 5
#: Generous per-child limit; the slowest traced iteration takes ~30 s.
CHILD_TIMEOUT_S = 150
#: Reference loop: table size, steps, and the nominal time of one loop.
REFERENCE_KEYS = 200_000
REFERENCE_STEPS = 200_000
REFERENCE_S = 0.2


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one child interpreter and return its JSON record."""
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             mode, repr(spawned_at)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{mode} iteration timed out") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} iteration exited with "
                          f"{done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Reference:
    """A fixed pure-Python loop that gauges the host's current speed.

    On a shared host the speed of one CPU drifts by tens of percent
    within minutes, which no number of repetitions averages away.  The
    loop walks a table of small dicts too large for the caches, as the
    simulator walks its state, and is timed on the same pinned CPU just
    before and just after every child; times are then reported in
    seconds of a host on which one loop takes :data:`REFERENCE_S`."""

    def __init__(self) -> None:
        self.table = {key: {"hits": 0, "key": (key, key)}
                      for key in range(REFERENCE_KEYS)}

    def time(self) -> float:
        table = self.table
        state = 12345
        begin = time.perf_counter()
        for _ in range(REFERENCE_STEPS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            table[state % REFERENCE_KEYS]["hits"] += 1
        return time.perf_counter() - begin


def collect(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """Probes, then iterations until the next would overrun ``seconds``.

    Returns (probe records, untraced records, traced records).  Each
    record gets ``scale``, :data:`REFERENCE_S` over the mean reference
    time just before and just after it."""
    start = time.monotonic()
    reference = Reference()
    before = reference.time()

    def timed(mode: str) -> dict:
        nonlocal before
        record = spawn(workload, seed, mode)
        after = reference.time()
        record["scale"] = REFERENCE_S / ((before + after) / 2)
        before = after
        return record

    probes = [] if trace else [timed("probe") for _ in range(PROBES)]
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        begun = time.monotonic()
        untraced.append(timed("run"))
        if trace:
            traced.append(timed("trace"))
        now = time.monotonic()
        if now - start + (now - begun) > seconds:
            return probes, untraced, traced


def counters(run: dict | None) -> dict | None:
    """A scenario run's exact counters (``None`` if the run raised)."""
    if run is None:
        return None
    return {key: value for key, value in run.items() if key != "sim_wall"}


def check(workload: str, records: list[dict]) -> tuple[int, int, list[str]]:
    """(scenario runs attempted, runs failed, problems) over all records.

    A run fails when its cell did not finish ``ok``, its payload digest
    or exact counters differ from the first iteration's, or a required
    criterion did not pass."""
    spec = workloads.WORKLOADS[workload]
    reference = records[0]
    attempted = failed = 0
    problems: list[str] = []
    for record in records:
        if len(record["cells"]) != spec.expected_cells:
            problems.append(f"expected {spec.expected_cells} cells, "
                            f"ran {len(record['cells'])}")
            continue
        for index, cell in enumerate(record["cells"]):
            attempted += 1
            run = record["runs"][index]
            if cell["status"] != "ok":
                fault = f"{cell['status']}: {cell['error']}"
            elif cell["digest"] != reference["cells"][index]["digest"]:
                fault = "payload digest differs between iterations"
            elif counters(run) != counters(reference["runs"][index]):
                fault = "exact counters differ between iterations"
            else:
                fault = ", ".join(f"{name} failed"
                                  for name in spec.required_criteria
                                  if not run["criteria"].get(name))
            if fault:
                failed += 1
                problems.append(f"{cell['id']}: {fault}")
    return attempted, failed, sorted(set(problems))


def totals(record: dict) -> dict:
    """Counters (and simulation wall time) summed over a record's runs."""
    summed: dict = {"sim_wall": 0.0}
    for run in filter(None, record["runs"]):
        for key, value in run.items():
            if isinstance(value, (int, float)):
                summed[key] = summed.get(key, 0) + value
    return summed


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(probes: list[dict], untraced: list[dict],
               normalise: bool = True) -> dict:
    """Medians over the iterations (and probes, for ``setup_s``); times
    in reference seconds unless ``normalise`` is false."""
    def scale(record: dict) -> float:
        return record["scale"] if normalise else 1.0

    return {
        "tx_per_wall_s": statistics.median(
            _ratio(totals(r)["committed"], totals(r)["sim_wall"] * scale(r))
            for r in untraced),
        "wall_s": statistics.median(r["wall_s"] * scale(r)
                                    for r in untraced),
        "setup_s": statistics.median(r["setup_s"] * scale(r)
                                     for r in probes + untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                         for r in untraced),
    }


def error_rate(record: dict) -> float:
    summed = totals(record)
    return _ratio(summed["ops_failed"], summed["ops"])


def per_layer(record: dict, untraced: list[dict]) -> dict:
    """Per-layer metrics of one traced record."""
    trace = record["trace"]
    summed = totals(record)
    tx = summed["committed"]
    wall = trace["wall_s"]
    self_time = trace["self_time"]
    calls = trace["calls"]
    items = trace["items"]
    counts = trace["counts"]

    def share(*layers: str) -> float:
        return sum(self_time.get(layer, 0.0) for layer in layers) / wall

    def per_tx(value: float) -> float:
        return _ratio(value, tx)

    logic_calls = sum(value for label, value in calls.items()
                      if label.startswith("marketplace.logic:"))
    scans = ("marketplace.logic:_iter_packages",
             "marketplace.logic:_iter_entries")
    scanned = sum(items.get(label, 0) for label in scans)
    returned = (items.get("sqlstore:Snapshot.scan", 0)
                + items.get("sqlstore:Snapshot.read", 0))
    kernel_rates = [_ratio(totals(r)["events"],
                           totals(r)["sim_wall"] * r["scale"])
                    for r in untraced]
    return {
        "runtime.events_per_tx": per_tx(summed["events"]),
        "runtime.events_per_wall_s": statistics.median(kernel_rates),
        "runtime.pool_hit_rate": _ratio(summed["pool_hits"],
                                        summed["pool_acquires"]),
        "runtime.self_share": share("runtime"),
        "actors.messages_per_tx": per_tx(summed["actor_messages"]),
        "actors.dispatch_self_share": share("actors"),
        "actors.route_cache_hit_rate": _ratio(
            summed["route_hits"],
            summed["route_hits"] + summed["route_misses"]),
        "actors.activations": summed["activations"],
        "actors.evictions": summed["evictions"],
        "actors.reloads": summed["reloads"],
        "txn.attempts_per_commit": _ratio(summed["txn_started"],
                                          summed["txn_committed"]),
        "txn.retries": summed["txn_retries"],
        "txn.wait_die_deaths": summed["wait_die_deaths"],
        "txn.lock_acquires_per_tx":
            per_tx(calls.get("txn:LockManager.acquire", 0)),
        "txn.self_share": share("txn"),
        "cow.views_per_tx": per_tx(counts.get("cow.views", 0)),
        "cow.materialized_nodes_per_tx":
            per_tx(counts.get("cow.materialized_nodes", 0)),
        "cow.cloned_nodes_per_tx":
            per_tx(counts.get("cow.cloned_nodes", 0)),
        "cow.self_share": share("cow"),
        "marketplace.logic.records_scanned_per_tx": per_tx(scanned),
        "marketplace.logic.records_scanned_per_scan":
            _ratio(scanned, sum(calls.get(label, 0) for label in scans)),
        "marketplace.logic.calls_per_tx": per_tx(logic_calls),
        "marketplace.logic.self_share": share("marketplace.logic"),
        "dataflow.messages_per_tx": per_tx(summed["dataflow_messages"]),
        "dataflow.checkpoints": summed["checkpoints"],
        "dataflow.checkpoint_self_s":
            self_time.get("dataflow.checkpoint", 0.0),
        "dataflow.self_share": share("dataflow", "dataflow.checkpoint"),
        "broker.publishes_per_tx":
            per_tx(calls.get("broker:Broker.publish", 0)),
        "broker.self_share": share("broker"),
        "kvstore.self_share": share("kvstore"),
        "kvstore.causal_waits": summed["kv_causal_waits"],
        "kvstore.stale_reads": summed["kv_stale_reads"],
        "sqlstore.self_share": share("sqlstore"),
        "sqlstore.rows_examined_per_returned":
            _ratio(calls.get("sqlstore:Table.visible", 0), returned),
        "apps.ingest_s": trace["timers"].get("ingest", 0.0),
        "apps.self_share": share("apps"),
        "apps.grain_self_share": share("apps.grain"),
        "core.driver.committed_tx": tx,
        "core.driver.error_rate": error_rate(record),
        "core.driver.self_share": share("core.driver"),
        "core.driver.cost_growth": trace["cost_growth"],
        "core.workload.dataset_s": trace["timers"].get("dataset", 0.0),
        "core.workload.lazy_touches": summed["lazy_touches"],
        "core.workload.self_share": share("core.workload"),
        "control.ticks": summed["control_ticks"],
        "control.actions": summed["control_actions"],
        "control.self_share": share("control"),
        "core.criteria.audit_s": trace["timers"].get("audit", 0.0),
        "core.criteria.records_checked": summed["records_checked"],
        "core.criteria.self_share": share("core.criteria"),
        "core.matrix.payload_s": self_time.get("core.matrix", 0.0),
    }


def traced_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Median over traced iterations of each per-layer metric."""
    rows = [per_layer(record, untraced) for record in traced]
    merged = {name: statistics.median(row[name] for row in rows)
              for name in rows[0]}
    merged["trace.overhead"] = (
        statistics.median(r["work_s"] * r["scale"] for r in traced)
        / statistics.median(r["work_s"] * r["scale"] for r in untraced))
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Children inherit the affinity: the reference loop and every child
    # run on one CPU, so the loop gauges the speed the child gets.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        probes, untraced, traced = collect(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    records = untraced + traced
    attempted, failed, problems = check(args.workload, records)
    if args.trace:
        values = traced_metrics(untraced, traced)
        samples = {}
        default = len(traced)
    else:
        values = end_to_end(probes, untraced)
        samples = {"setup_s": len(probes) + len(untraced)}
        default = len(untraced)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"iterations {len(untraced)} untraced, {len(traced)} traced, "
          f"{len(probes)} set-up probes  scenario runs {attempted}")
    print(f"  error_rate {error_rate(untraced[0]):.6f} fraction "
          f"(simulated operations failed, aborted or rejected)")
    if not args.trace:
        raw = end_to_end(probes, untraced, normalise=False)
        print("  wall-clock medians before normalising: " + "  ".join(
            f"{name} {value:.6g}" for name, value in raw.items()))
    for metric in wanted:
        print(f"  {metric['name']} {values[metric['name']]:.6g} "
              f"{metric['unit']} (median of "
              f"{samples.get(metric['name'], default)})")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
