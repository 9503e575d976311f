"""Scaling regression: throughput per wall-second must not collapse
with run length.

Before the copy-on-write engine, every transactional read deep-copied
the whole (growing) grain state, making the simulator quadratic in run
length: tx/s-wall degraded ~3x between ``duration_scale`` 0.05 and
0.4.  With O(1) views the degradation is bounded by genuine workload
effects (state-size-dependent scans), measured at ~1.2x.  This test
pins the ratio so an accidental O(state) copy on the hot path fails CI
instead of silently rotting the perf trajectory.

Wall-clock ratios are noisy, so a second, exact guard counts work
instead: copy-on-write views created per committed transaction must
not grow with run length.  A state update that copies a whole growing
map wraps every entry in a new view, which this count catches on any
machine.
"""

import time

import pytest

from repro.apps import ALL_APPS, AppConfig
from repro.core import get_scenario
from repro.cow import CowState
from repro.runtime import Environment

#: Allowed tx/s-wall degradation between the short and long run.  The
#: engine's true ratio is ~1.2x; the slack absorbs CI timer noise while
#: still catching any reintroduced O(state) copy (which measures >2x).
MAX_DEGRADATION = 1.5


#: Allowed growth of CoW views per committed tx from 0.25x to 1.0x run
#: length.  Updates that touch only dirty keys measure ~0.9x; copying
#: the whole orders/entries/shipments map on every update measured 2.8x
#: (orleans-transactions) and 3.0x (customized-orleans).
MAX_VIEW_GROWTH = 1.3


def build_baseline(app_name: str, duration_scale: float):
    env = Environment(seed=7)
    app = ALL_APPS[app_name](env, AppConfig(silos=2, cores_per_silo=2))
    return get_scenario("baseline").build_driver(
        env, app, duration_scale=duration_scale, data_seed=7)


def tx_per_wall_second(duration_scale: float, repeats: int = 1) -> float:
    best = 0.0
    for _ in range(repeats):
        driver = build_baseline("orleans-transactions", duration_scale)
        start = time.perf_counter()
        metrics = driver.run()
        wall = time.perf_counter() - start
        committed = sum(op.ok for op in metrics.ops.values())
        best = max(best, committed / wall)
    return best


def test_tx_per_wall_second_does_not_collapse_with_run_length():
    # Best-of-3 on BOTH cells: a one-off stall (GC, noisy CI
    # neighbour) in either cell must not skew the ratio.
    short = tx_per_wall_second(0.05, repeats=3)
    long = tx_per_wall_second(0.4, repeats=3)
    assert long > 0
    ratio = short / long
    assert ratio < MAX_DEGRADATION, (
        f"tx/s-wall degraded {ratio:.2f}x between duration_scale 0.05 "
        f"({short:.0f} tx/s) and 0.4 ({long:.0f} tx/s); an O(state) "
        f"copy is back on the hot path")


def views_per_committed_tx(monkeypatch, app_name: str,
                           duration_scale: float) -> float:
    """``CowState`` constructions per committed tx during the run."""
    driver = build_baseline(app_name, duration_scale)
    created = 0
    init = CowState.__init__

    def counting_init(self, base=None):
        nonlocal created
        created += 1
        init(self, base)

    with monkeypatch.context() as patch:
        patch.setattr(CowState, "__init__", counting_init)
        metrics = driver.run()
    committed = sum(op.ok for op in metrics.ops.values())
    assert committed > 0
    return created / committed


@pytest.mark.parametrize("app_name",
                         ["orleans-transactions", "customized-orleans"])
def test_cow_views_per_tx_do_not_grow_with_run_length(monkeypatch,
                                                      app_name):
    short = views_per_committed_tx(monkeypatch, app_name, 0.25)
    long = views_per_committed_tx(monkeypatch, app_name, 1.0)
    growth = long / short
    assert growth <= MAX_VIEW_GROWTH, (
        f"{app_name}: CoW views per committed tx grew {growth:.2f}x "
        f"between duration_scale 0.25 ({short:.1f}) and 1.0 "
        f"({long:.1f}); a state update copies a whole map again")
