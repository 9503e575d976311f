"""Per-layer wall-time spans and work counters, attached from outside.

The tracer never edits the simulator's source.  After ``repro`` is
imported, :meth:`Tracer.install` replaces the public functions and
methods of each layer (named by module, see :data:`LAYERS`) with
wrappers that open a span on entry and close it on return.  Spans nest
on one stack: a layer's *self time* is the time its spans were open
minus the time their nested spans were open, so self times over all
layers sum to the root span's wall time exactly.  The root span is
charged to ``runtime``: whatever no wrapped layer claims (the kernel
loop, process resumption, unwrapped glue) is the kernel's share.

Generators are the simulator's unit of concurrency.  When a wrapped
call returns a generator, the wrapper returns another *real* generator
(so ``type(result) is GeneratorType`` checks still hold) that times
each ``send``/``throw`` step of the original as one span.  Time a
generator spends suspended in simulated waits is never charged.

The wrappers draw no random numbers and schedule no events, so a traced
run must produce byte-identical simulated output; the benchmark checks
that by digest.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
import types

_clock = time.perf_counter

#: Layer -> modules whose public functions and public methods (of the
#: classes defined there) are wrapped.  Order matters only for the
#: explicit entries in :data:`EXTRA`, which are wrapped first and win.
LAYERS: dict[str, tuple[str, ...]] = {
    "runtime": ("repro.runtime.resources",),
    "actors": ("repro.actors.cluster", "repro.actors.silo",
               "repro.actors.placement", "repro.actors.storage",
               "repro.actors.grain"),
    "txn": ("repro.txn.coordinator", "repro.txn.participant",
            "repro.txn.locks"),
    "marketplace.logic": ("repro.marketplace.logic.cart",
                          "repro.marketplace.logic.lifecycle",
                          "repro.marketplace.logic.order",
                          "repro.marketplace.logic.payment",
                          "repro.marketplace.logic.seller",
                          "repro.marketplace.logic.shipment"),
    "dataflow": ("repro.dataflow.runtime", "repro.dataflow.function"),
    "broker": ("repro.broker.topics",),
    "kvstore": ("repro.kvstore.store", "repro.kvstore.replication"),
    "sqlstore": ("repro.sqlstore.engine", "repro.sqlstore.table"),
    "apps": ("repro.apps.base", "repro.apps.orleans_eventual",
             "repro.apps.orleans_transactions", "repro.apps.statefun_app",
             "repro.apps.customized", "repro.apps.logstore"),
    "apps.grain": ("repro.apps.grains_eventual", "repro.apps.grains_txn",
                   "repro.apps.statefun_fns"),
    "core.driver": ("repro.core.driver.open_loop",
                    "repro.core.driver.issuer",
                    "repro.core.driver.metrics",
                    "repro.core.driver.arrivals"),
    "core.workload": ("repro.core.workload.generator",
                      "repro.core.workload.lazydataset",
                      "repro.core.workload.dataset",
                      "repro.core.workload.distributions",
                      "repro.core.workload.inputs"),
    "control": ("repro.control.plane", "repro.control.autoscaler",
                "repro.control.actions", "repro.control.signals"),
    "core.criteria": ("repro.core.criteria",),
}

#: Explicitly wrapped callables, as (layer, module, qualified name):
#: private methods on a layer's hot path, and the checkpoint path,
#: which gets a layer of its own so its self time can be reported.
EXTRA: tuple[tuple[str, str, str], ...] = (
    ("runtime", "repro.runtime.environment", "Environment.run"),
    ("actors", "repro.actors.silo", "Activation._execute_inner"),
    ("dataflow", "repro.dataflow.runtime", "Worker._process"),
    ("dataflow.checkpoint", "repro.dataflow.runtime",
     "StatefunRuntime.take_checkpoint"),
    ("dataflow.checkpoint", "repro.dataflow.runtime",
     "StatefunRuntime._snapshot_worker_states"),
    ("core.matrix", "repro.core.matrix", "cell_payload"),
    ("marketplace.logic", "repro.marketplace.logic.shipment",
     "_iter_packages"),
    ("marketplace.logic", "repro.marketplace.logic.seller",
     "_iter_entries"),
)

#: Partition scans of the marketplace logic: the records they yield
#: (or the length of what they return) count as records scanned.
SCANS = {("repro.marketplace.logic.shipment", "_iter_packages"),
         ("repro.marketplace.logic.seller", "_iter_entries")}

#: Queries whose plain result is counted as rows returned.
ROWS = {("repro.sqlstore.engine", "Snapshot.scan"): len,
        ("repro.sqlstore.engine", "Snapshot.read"):
            lambda row: row is not None}

#: Copy-on-write entry points, wrapped only where callers imported
#: them by name: patching ``repro.cow`` itself would also time the
#: recursion inside it.
COW_IMPORT_SITES: tuple[tuple[str, str], ...] = (
    ("repro.txn.participant", "materialize"),
    ("repro.dataflow.runtime", "clone"),
    ("repro.actors.cluster", "clone"),
    ("repro.marketplace.logic.seller", "scan_values"),
    ("repro.marketplace.logic.shipment", "scan_values"),
)

#: Inclusive timers, charged by the outermost call only.
TIMERS = {("repro.apps.base", "MarketplaceApp.ingest"): "ingest",
          ("repro.core.workload.generator", "generate_dataset"): "dataset",
          ("repro.core.criteria", "audit_app"): "audit"}


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span stack, per-layer self time and per-callable counters."""

    def __init__(self) -> None:
        #: layer -> seconds of self time.
        self.self_time: dict[str, float] = collections.defaultdict(float)
        #: "layer:qualname" -> calls (generator-returning calls count
        #: once, however many steps they take).
        self.calls: collections.Counter = collections.Counter()
        #: "label" -> items yielded or returned (scans, query rows).
        self.items: collections.Counter = collections.Counter()
        #: Count-only hooks (no span): views created, nodes copied.
        self.counts: collections.Counter = collections.Counter()
        #: group -> inclusive seconds of the outermost call.
        self.timers: dict[str, float] = collections.defaultdict(float)
        self._depth: collections.Counter = collections.Counter()
        self._stack: list[list] = []
        self.root_wall = 0.0

    # -- spans -----------------------------------------------------------
    def open_root(self) -> None:
        self._stack.append(["runtime", _clock(), 0.0])

    def close_root(self) -> None:
        layer, start, child = self._stack.pop()
        self.root_wall = _clock() - start
        self.self_time[layer] += self.root_wall - child
        if self._stack:
            raise RuntimeError("unbalanced spans")

    def _close(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = _clock() - start
        self.self_time[layer] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def _stepped(self, generator, layer: str, label: str | None):
        """A real generator that times each step of ``generator``."""
        stack = self._stack
        items = self.items
        to_send = None
        to_throw = None
        while True:
            stack.append([layer, _clock(), 0.0])
            try:
                if to_throw is not None:
                    error, to_throw = to_throw, None
                    value = generator.throw(error)
                else:
                    value = generator.send(to_send)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close()
            if label is not None:
                items[label] += 1
            try:
                to_send = yield value
            except GeneratorExit:
                stack.append([layer, _clock(), 0.0])
                try:
                    generator.close()
                finally:
                    self._close()
                raise
            except BaseException as error:  # noqa: BLE001 - re-thrown inside
                to_throw = error

    def wrap(self, function, layer: str, label: str,
             count_items: bool = False, measure=None, timer=None):
        """``function`` inside a span of ``layer``.

        ``count_items`` counts what a returned generator yields under
        ``label``; ``measure(result)`` adds a count for plain results;
        ``timer`` names an inclusive timer charged by outermost calls.
        """
        stack = self._stack
        calls = self.calls
        stepped = self._stepped
        close = self._close
        items = self.items
        item_label = label if count_items else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            calls[label] += 1
            if timer is not None:
                self._depth[timer] += 1
                begin = _clock()
            stack.append([layer, _clock(), 0.0])
            try:
                result = function(*args, **kwargs)
            finally:
                close()
                if timer is not None:
                    self._depth[timer] -= 1
                    if not self._depth[timer]:
                        self.timers[timer] += _clock() - begin
            if type(result) is types.GeneratorType:
                proxy = stepped(result, layer, item_label)
                proxy.__name__ = result.__name__
                proxy.__qualname__ = result.__qualname__
                return proxy
            if measure is not None:
                items[label] += measure(result)
            return result

        traced.perfbench_wrapped = True
        return traced

    def counter(self, function, key: str):
        """``function`` counting its calls under ``key``; no span."""
        counts = self.counts

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        counted.perfbench_wrapped = True
        return counted

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer.  Call once, after importing ``repro``."""
        for layer, module_name, qualname in EXTRA:
            self._wrap_attribute(layer, module_name, qualname)
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for name, value in list(vars(module).items()):
                    if name.startswith("_") or getattr(
                            value, "__module__", None) != module_name:
                        continue
                    if isinstance(value, types.FunctionType):
                        self._wrap_attribute(layer, module_name, name)
                    elif isinstance(value, type) \
                            and not issubclass(value, BaseException):
                        for method in list(vars(value)):
                            if not method.startswith("_"):
                                self._wrap_attribute(layer, module_name,
                                                     f"{name}.{method}")
        self._install_cow()

    def _wrap_attribute(self, layer: str, module_name: str,
                        qualname: str) -> None:
        owner, name = _resolve(module_name, qualname)
        raw = vars(owner).get(name)
        descriptor = None
        if isinstance(raw, (staticmethod, classmethod)):
            descriptor, raw = type(raw), raw.__func__
        if not isinstance(raw, types.FunctionType) \
                or getattr(raw, "perfbench_wrapped", False):
            return
        key = (module_name, qualname)
        wrapped = self.wrap(raw, layer, f"{layer}:{qualname}",
                            count_items=key in SCANS,
                            measure=len if key in SCANS else ROWS.get(key),
                            timer=TIMERS.get(key))
        if isinstance(owner, type):
            setattr(owner, name,
                    descriptor(wrapped) if descriptor else wrapped)
        else:
            _replace_everywhere(raw, wrapped)

    def _install_cow(self) -> None:
        cow = importlib.import_module("repro.cow")
        for cls in (cow.CowState, cow.CowList):
            cls.__init__ = self.counter(cls.__init__, "cow.views")
            cls._materialize = self.counter(cls._materialize,
                                            "cow.materialized_nodes")
        # Recursive clone calls resolve the module global: count them
        # all as copied nodes.
        cow.clone = self.counter(cow.clone, "cow.cloned_nodes")
        for module_name, name in COW_IMPORT_SITES:
            module = importlib.import_module(module_name)
            # ``cow.clone`` is the counting wrapper installed above.
            function = cow.clone if name == "clone" else getattr(module,
                                                                 name)
            setattr(module, name, self.wrap(function, "cow", f"cow:{name}"))


def _replace_everywhere(original, replacement) -> None:
    """Rebind every module-level name in ``repro`` bound to
    ``original``, so ``from x import f`` call sites see the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = replacement
