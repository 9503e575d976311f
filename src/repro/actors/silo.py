"""Silos and grain activations.

A silo hosts grain activations and owns a CPU :class:`Resource` with a
fixed number of cores.  Every grain-method invocation charges its CPU
cost on the hosting silo, so a silo under heavy load queues work and
latency climbs — the saturation behaviour the benchmark measures.

Silos have a lifecycle::

    running ──drain──▶ draining ──(handoff done)──▶ stopped
       │
       └──crash──▶ crashed

A *draining* silo accepts no new activations (the placement ring has
already forgotten it) but finishes the work its existing activations
have queued, persisting storage-backed state before deactivating.  A
*crashed* silo discards everything volatile on the spot: queued
messages are re-placed by the cluster, mid-execution calls fail with
:class:`~repro.actors.errors.SiloUnavailable`, and non-persistent grain
state is simply gone — the measurable anomaly the fault scenarios
count.
"""

from __future__ import annotations

import collections
import dataclasses
import inspect
import itertools
import typing
from types import GeneratorType as _GeneratorType

from repro.actors.errors import GrainCallError, SiloUnavailable
from repro.runtime.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.actors.cluster import Cluster
    from repro.actors.grain import Grain
    from repro.actors.placement import GrainDirectory
    from repro.runtime import Environment, Event

_message_ids = itertools.count(1)


class SiloState:
    """Lifecycle states of a silo (plain strings for cheap checks)."""

    RUNNING = "running"
    DRAINING = "draining"
    STOPPED = "stopped"
    CRASHED = "crashed"


@dataclasses.dataclass(eq=False)
class Message:
    """One grain-method invocation in flight (identity semantics: the
    same message object survives rerouting across silos)."""

    method: str
    args: tuple
    kwargs: dict
    promise: "Event"
    txn: object | None
    reply_latency: float
    enqueue_time: float = 0.0
    message_id: int = dataclasses.field(
        default_factory=lambda: next(_message_ids))
    #: Grain reference, kept so the cluster can re-place the message
    #: after a membership change (None for activation-local timer
    #: ticks, which die with their activation).
    ref: object | None = None
    #: Delivery attempts so far; rerouting is bounded by the cluster.
    attempts: int = 0


class Activation:
    """A live grain instance plus its mailbox and worker process."""

    def __init__(self, env: "Environment", silo: "Silo",
                 grain: "Grain", adopted: bool = False) -> None:
        self.env = env
        self.silo = silo
        self.grain = grain
        #: True when this activation received a live-migrated grain:
        #: its in-memory state travelled with it, so the storage read
        #: and ``on_activate`` hook are skipped.
        self.adopted = adopted
        self.mailbox: collections.deque[Message] = collections.deque()
        self._wakeup: "Event | None" = None
        self.ready: "Event" = env.event()  # fires after on_activate
        self.processed = 0
        self.last_activity = env.now
        self.collected = False
        #: Guards ``on_deactivate`` against double execution when a
        #: deactivation aborts (a message slipped in mid-hook) and is
        #: later retried.
        self.deactivate_hook_ran = False
        #: Set when the hosting silo crashes: the worker stops, queued
        #: work is re-placed and late replies are suppressed.
        self.defunct = False
        #: Messages currently being executed (≤1 unless reentrant), in
        #: start order: a crash fails their promises in this order, so
        #: it must not depend on object addresses (``Message`` hashes
        #: by identity).
        self.inflight: dict[Message, None] = {}
        self._timers: list["Event"] = []
        grain.activation = self
        env.process(self._start(), name=f"activate:{grain!r}")

    @property
    def busy(self) -> bool:
        """True while at least one message is mid-execution."""
        return bool(self.inflight)

    # ------------------------------------------------------------------
    def enqueue(self, message: Message) -> None:
        message.enqueue_time = self.env.now
        self.last_activity = self.env.now
        self.mailbox.append(message)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    # ------------------------------------------------------------------
    # grain timers (Orleans RegisterTimer analogue)
    # ------------------------------------------------------------------
    def register_timer(self, interval: float, method: str,
                       *args, **kwargs) -> None:
        """Invoke ``method`` on this grain every ``interval`` seconds.

        Timer ticks go through the normal mailbox (single-threaded with
        ordinary messages) and stop when the activation is collected.
        """
        if interval <= 0:
            raise ValueError("timer interval must be > 0")
        self.env.process(self._timer_loop(interval, method, args, kwargs),
                         name=f"timer:{self.grain!r}.{method}")

    def _timer_loop(self, interval: float, method: str, args, kwargs):
        while not self.collected:
            yield self.env.timeout(interval)
            if self.collected:
                return
            promise = self.env.event()
            self.grain.cluster.track_oneway(promise)
            self.enqueue(Message(method=method, args=args, kwargs=kwargs,
                                 promise=promise, txn=None,
                                 reply_latency=0.0))

    # ------------------------------------------------------------------
    def _start(self):
        grain = self.grain
        if not self.adopted:
            if grain.storage_name is not None:
                storage = grain.cluster.storage(grain.storage_name)
                state = yield from storage.read(type(grain).__name__,
                                                grain.key)
                if state is not None:
                    grain.state = state
            elif grain.cluster.working_set_limited:
                # Volatile grain evicted under the activation budget:
                # reload the paged snapshot (no-op — zero events — when
                # the grain was never paged out).
                yield from grain.cluster.page_in(grain)
            if self.defunct:
                return  # silo crashed during the state read
            hook = grain.on_activate()
            if inspect.isgenerator(hook):
                yield from hook
        self.ready.succeed()
        yield from self._worker()

    def _worker(self):
        while True:
            if self.defunct:
                return
            if not self.mailbox:
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
                continue
            message = self.mailbox.popleft()
            if self.grain.reentrant:
                # The method name alone is enough to identify the
                # process in error messages; formatting grain reprs
                # here costs more than the rest of the spawn.
                self.env.process(self._execute(message),
                                 name=message.method)
            else:
                yield from self._execute(message)

    def _execute(self, message: Message):
        grain = self.grain
        self.inflight[message] = None
        try:
            yield from self._execute_inner(message, grain)
        finally:
            self.inflight.pop(message, None)

    def _execute_inner(self, message: Message, grain: "Grain"):
        # Charge the method's CPU cost on this silo's cores.
        yield from self.silo.cpu.use(grain.cpu_cost)
        if self.defunct:
            return  # crashed while waiting for a core; promise failed
        method = getattr(grain, message.method, None)
        if method is None or not callable(method):
            self._reply(message, error=GrainCallError(
                f"{type(grain).__name__} has no method {message.method!r}"))
            return
        grain.current_txn = message.txn
        try:
            result = method(*message.args, **message.kwargs)
            if type(result) is _GeneratorType:
                result = yield from self._drive(result, message)
        except BaseException as exc:  # noqa: BLE001 - forwarded to caller
            grain.current_txn = None
            self._reply(message, error=exc)
            return
        grain.current_txn = None
        self.processed += 1
        self._reply(message, result=result)

    def _drive(self, generator, message: Message):
        """Drive a method generator, restoring the message's transaction
        context before *every* resumption.

        Reentrant grains interleave method executions on one grain
        instance; ``grain.current_txn`` is shared state, so without this
        restoration a method resuming after a wait would read (and
        charge its writes to) whichever transaction ran last — the
        actor-runtime analogue of async-local context flow.
        """
        grain = self.grain
        to_send: object = None
        to_throw: BaseException | None = None
        while True:
            if self.defunct:
                # The silo crashed while the method was suspended: a
                # fail-stop host must not resume the body and leak
                # side effects (nested calls, publishes, writes) from
                # beyond the grave.  The caller's promise was already
                # failed at crash time.
                generator.close()
                return None
            grain.current_txn = message.txn
            try:
                if to_throw is not None:
                    exc, to_throw = to_throw, None
                    event = generator.throw(exc)
                else:
                    event = generator.send(to_send)
            except StopIteration as stop:
                return stop.value
            try:
                to_send = yield event
            except BaseException as exc:  # noqa: BLE001 - re-thrown inside
                to_throw = exc

    def _reply(self, message: Message, result: object = None,
               error: BaseException | None = None) -> None:
        if self.defunct or message.promise.triggered:
            # The silo crashed under this call: the promise was already
            # failed with SiloUnavailable and this late outcome must
            # not escape the dead silo.
            return
        def deliver(_event):
            if message.promise.triggered:
                return  # crash failed the promise while the reply flew
            if error is not None:
                message.promise.fail(error)
            else:
                message.promise.succeed(result)
        # Raw pooled-event callback: a reply in flight has no process
        # body (see Cluster._route).
        self.env.call_after(message.reply_latency, deliver)


class Silo:
    """One node of the cluster: CPU cores plus hosted activations."""

    def __init__(self, env: "Environment", name: str, cores: int) -> None:
        self.env = env
        self.name = name
        self.cpu = Resource(env, capacity=cores)
        self.state = SiloState.RUNNING
        self.activations: dict[tuple[str, str], Activation] = {}
        self.messages_received = 0
        #: Set by the cluster so activation bookkeeping reaches the
        #: grain directory (None for silos used standalone in tests).
        self.directory: "GrainDirectory | None" = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Processing work (running or finishing a drain)."""
        return self.state in (SiloState.RUNNING, SiloState.DRAINING)

    @property
    def accepting_activations(self) -> bool:
        """Willing to host *new* activations."""
        return self.state == SiloState.RUNNING

    def crash(self) -> tuple[list[Message], list[Activation]]:
        """Fail-stop this silo.

        Returns ``(queued, discarded)``: the mailbox messages that had
        not started executing (safe to re-place — no effects yet) and
        the discarded activations.  Mid-execution messages have their
        promises failed with :class:`SiloUnavailable` immediately; any
        late outcome from their abandoned generators is suppressed.
        """
        self.state = SiloState.CRASHED
        queued: list[Message] = []
        discarded: list[Activation] = []
        for activation in self.activations.values():
            activation.defunct = True
            activation.collected = True
            queued.extend(activation.mailbox)
            activation.mailbox.clear()
            for message in list(activation.inflight):
                if not message.promise.triggered:
                    message.promise.fail(SiloUnavailable(
                        f"{self.name} crashed during "
                        f"{type(activation.grain).__name__}/"
                        f"{activation.grain.key}.{message.method}"))
            if (activation._wakeup is not None
                    and not activation._wakeup.triggered):
                activation._wakeup.succeed()  # let the worker exit
            discarded.append(activation)
        if self.directory is not None:
            self.directory.drop_silo(self)
        self.activations.clear()
        return queued, discarded

    # ------------------------------------------------------------------
    # activations
    # ------------------------------------------------------------------
    def activation_for(self, cluster: "Cluster",
                       grain_type: type["Grain"], key: str) -> Activation:
        """Find or create the activation for (grain_type, key)."""
        ident = (grain_type.__name__, key)
        activation = self.activations.get(ident)
        if activation is None:
            if not self.accepting_activations:
                raise SiloUnavailable(
                    f"{self.name} is {self.state}; cannot activate "
                    f"{grain_type.__name__}/{key}")
            grain = grain_type()
            grain.env = self.env
            grain.cluster = cluster
            grain.silo = self
            grain.key = key
            activation = Activation(self.env, self, grain)
            self.activations[ident] = activation
            cluster.note_activation(self)
            if self.directory is not None:
                self.directory.register(grain_type.__name__, key, self,
                                        cluster.placement.epoch)
        return activation

    def adopt(self, cluster: "Cluster", grain: "Grain") -> Activation:
        """Host a live-migrated grain, in-memory state and all.

        Used by drain and post-join rebalancing: the grain object moves
        from its old silo with its volatile state intact (the old
        activation must already be deactivated).  If the grain was
        re-activated here in the meantime, the existing activation
        wins and the migrated copy is dropped.
        """
        ident = (type(grain).__name__, grain.key)
        existing = self.activations.get(ident)
        if existing is not None:
            return existing
        if not self.accepting_activations:
            raise SiloUnavailable(
                f"{self.name} is {self.state}; cannot adopt "
                f"{ident[0]}/{ident[1]}")
        grain.silo = self
        activation = Activation(self.env, self, grain, adopted=True)
        self.activations[ident] = activation
        cluster.note_activation(self)
        if self.directory is not None:
            self.directory.register(ident[0], ident[1], self,
                                    cluster.placement.epoch)
        return activation

    def deactivate(self, grain_type_name: str, key: str) -> bool:
        """Drop an activation (its state remains in storage)."""
        activation = self.activations.pop((grain_type_name, key), None)
        if activation is None:
            return False
        activation.collected = True
        if self.directory is not None:
            self.directory.unregister(grain_type_name, key)
        return True

    def idle_activations(self, max_age: float) -> list[Activation]:
        """Activations idle (empty mailbox, no recent message) longer
        than ``max_age``."""
        now = self.env.now
        return [activation for activation in self.activations.values()
                if not activation.mailbox
                and now - activation.last_activity > max_age]

    @property
    def activation_count(self) -> int:
        return len(self.activations)

    def __repr__(self) -> str:
        return (f"<Silo {self.name} {self.state} "
                f"activations={self.activation_count}>")
