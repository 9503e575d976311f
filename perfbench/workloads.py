"""The benchmark's workloads: which matrix cells one iteration runs.

Every workload is a list of cells of the existing scenario catalogue
(no new scenarios, no edited ones), run serially in one process through
``repro.core.matrix.run_matrix`` -> ``run_cell`` ->
``repro.control.run_scenario``.  The seed reaches the simulator only as
the cell seed, i.e. ``run_scenario(seed=...)``.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Workload:
    #: ``None`` means the whole catalogue on that axis.
    scenarios: tuple[str, ...] | None
    apps: tuple[str, ...] | None
    duration_scale: float
    #: Criteria every cell must pass.  Only atomicity (C1) and
    #: referential integrity (C3) are promised by every stack in a
    #: fault-free run; orleans-transactions fails C4/C5 on ``baseline``
    #: by design (see the README's matrix table).
    required_criteria: tuple[str, ...]
    #: Cells one iteration must finish ``ok``.
    expected_cells: int


WORKLOADS: dict[str, Workload] = {
    "txn-checkout-long": Workload(
        scenarios=("baseline",), apps=("orleans-transactions",),
        duration_scale=2.0,
        required_criteria=("C1-atomicity", "C3-integrity"),
        expected_cells=1),
    "dataflow-writes-long": Workload(
        scenarios=("heavy-writer",), apps=("statefun",),
        duration_scale=4.0,
        required_criteria=("C1-atomicity", "C3-integrity"),
        expected_cells=1),
    "catalogue-sweep": Workload(
        scenarios=None, apps=None, duration_scale=0.05,
        required_criteria=(), expected_cells=60),
}


def cells(name: str, seed: int) -> list:
    """The workload's cells for ``seed``, in the matrix's fixed order."""
    from repro.core.matrix import MatrixSpec

    workload = WORKLOADS[name]
    axes = {"seeds": (seed,), "duration_scale": workload.duration_scale}
    if workload.scenarios is not None:
        axes["scenarios"] = workload.scenarios
    if workload.apps is not None:
        axes["apps"] = workload.apps
    return MatrixSpec.full(**axes).cells()
