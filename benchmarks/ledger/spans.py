"""Span accounting for the traced run: the benchmark's own wrappers.

Nothing in ``src/repro`` is edited.  A traced run sees the program
through two kinds of wrapper, all defined here and all reading only the
clock (never an RNG, never protocol state), so a traced trajectory is
byte-identical to an untraced one — which the runner checks:

* **seam wrappers** — :class:`TimedCodec` and :class:`TimedTransport`
  are handed to ``run_runtime`` through its ``codec=`` / ``transport=``
  parameters;
* **shims** — :func:`install_shims` swaps timing closures in for public
  methods (``Node.send_phase``, ``FastEngine.execute_beat``,
  ``EventHeap.push`` ...) and :meth:`Shims.remove` puts the originals
  back.  The adversary, coin and link-model layers are shimmed rather
  than wrapped at their seams because ``run_campaign`` builds them by
  registry name inside pool workers, and a wrapping coin type would
  switch off the bulk engine's vectorized path.

Accounting: a span's *self time* is its duration minus the part its
child spans cover.  Everything runs on one thread, so the Python call
stack is the span stack: each wrapper saves the running child total,
zeroes it, runs the call, and hands its own duration to its parent.  An
``async`` method is wrapped as a :class:`_TimedAwaitable`, which times
every *step* of the coroutine — step time is busy time and nests like
any other span; the rest of the await is waiting and is kept apart.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.adversary.base import Adversary
from repro.analysis import campaign
from repro.analysis.campaign import ScenarioSpec
from repro.coin.interfaces import CoinInstance, InstanceContext
from repro.net.bulk import BulkEngine, BulkProgram
from repro.net.engine import FastEngine, ReferenceEngine
from repro.net.events import ContinuousSimulation, EventHeap, PulseSynchronizer
from repro.net.linkmodel import LinkModel
from repro.net.node import Node
from repro.net.simulator import Simulation
from repro.runtime.codec import Codec
from repro.runtime.node import RuntimeNode
from repro.runtime.sync import BeatSynchronizer

__all__ = [
    "LAYERS",
    "Ledger",
    "Shims",
    "TimedCodec",
    "TimedTransport",
    "add",
    "install_shims",
    "subtract",
]

_now = time.perf_counter_ns

#: Span layers, in ledger-row order.
LAYERS = (
    "core.send",
    "core.update",
    "coin",
    "adversary",
    "engine",
    "bulk.send",
    "bulk.update",
    "bulk.bind",
    "linkmodel",
    "events.heap",
    "events.sync",
    "events.loop",
    "codec.encode",
    "codec.decode",
    "transport.send",
    "transport.recv",
    "sync",
    "runtime.node",
    "analysis.build",
    "analysis.run",
    # The machine-speed gauge's kernel, where it has to run inside the
    # program (from a probe): a span of its own, so that no layer is
    # charged for it.
    "gauge",
)
_INDEX = {name: index for index, name in enumerate(LAYERS)}

#: Plain event counters kept beside the spans.
COUNTERS = (
    "coin.msgs",
    "adversary.msgs",
    "linkmodel.dropped",
    "codec.units",
    "codec.bytes",
    "transport.units",
)

#: Spans kept verbatim for the trace file; totals cover every span.
SPAN_SAMPLE = 20_000


class Ledger:
    """Per-layer self time, waiting time and call counts of one process."""

    def __init__(self) -> None:
        size = len(LAYERS)
        self.self_ns = [0] * size
        self.wait_ns = [0] * size
        self.calls = [0] * size
        self.counters = dict.fromkeys(COUNTERS, 0)
        #: Duration of the spans closed so far under the open span (or,
        #: at depth zero, of every root span: the attributed wall time).
        self.child = 0
        #: Sampled spans: (layer index, start ns, end ns, parent id).
        self.spans: list[tuple[int, int, int, int]] = []
        self.current = -1
        self._next_id = 0

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> "dict[str, int]":
        """Every total under one flat key space (``self:<layer>``,
        ``wait:<layer>``, ``calls:<layer>``, counter names, and
        ``attributed`` — the summed duration of root spans)."""
        flat = {"attributed": self.child, **self.counters}
        for layer, self_ns, wait_ns, calls in zip(
            LAYERS, self.self_ns, self.wait_ns, self.calls
        ):
            flat[f"self:{layer}"] = self_ns
            flat[f"wait:{layer}"] = wait_ns
            flat[f"calls:{layer}"] = calls
        return flat

    # -- wrappers ----------------------------------------------------------

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of ``layer``."""
        index = _INDEX[layer]
        ledger = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            saved_child = ledger.child
            parent = ledger.current
            ledger.child = 0
            ledger.current = span_id = ledger._next_id
            ledger._next_id = span_id + 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                duration = end - start
                ledger.self_ns[index] += duration - ledger.child
                ledger.calls[index] += 1
                ledger.child = saved_child + duration
                ledger.current = parent
                if span_id < SPAN_SAMPLE:
                    ledger.spans.append((index, start, end, parent))

        return timed

    def counting(self, counter: str, fn: Callable, amount=None) -> Callable:
        """``fn`` untimed, bumping ``counter`` by ``amount(result)`` (or 1)."""
        counters = self.counters

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            counters[counter] += 1 if amount is None else amount(result)
            return result

        return counted

    def awaitable(self, layer: str, fn: Callable) -> Callable:
        """An ``async`` ``fn`` whose every coroutine step is a span."""
        index = _INDEX[layer]

        def timed(*args: Any, **kwargs: Any) -> "_TimedAwaitable":
            return _TimedAwaitable(fn(*args, **kwargs), self, index)

        return timed


def subtract(after: "dict[str, int]", before: "dict[str, int]") -> dict:
    """What a ledger gained between two snapshots."""
    return {key: value - before[key] for key, value in after.items()}


def add(total: "dict[str, int] | None", part: "dict[str, int]") -> dict:
    """Sum of two snapshot deltas (pool workers report one per trial)."""
    if total is None:
        return dict(part)
    return {key: value + part[key] for key, value in total.items()}


class _TimedAwaitable:
    """Drives a coroutine, timing each step as a span of one layer.

    A step runs from a resume to the next suspension; whatever other
    tasks do in between is not this coroutine's time.  Steps nest: a
    coroutine awaited from inside another's step is that step's child.
    On completion the time spent suspended goes to the layer's
    ``wait_ns``.
    """

    __slots__ = ("_busy", "_coro", "_index", "_ledger", "_started")

    def __init__(self, coro: Any, ledger: Ledger, index: int) -> None:
        self._coro = coro
        self._ledger = ledger
        self._index = index
        self._busy = 0
        self._started = 0

    def __await__(self) -> "_TimedAwaitable":
        return self

    def __iter__(self) -> "_TimedAwaitable":
        return self

    def __next__(self) -> Any:
        return self._step(self._coro.send, None)

    def send(self, value: Any) -> Any:
        return self._step(self._coro.send, value)

    def throw(self, *exc_info: Any) -> Any:
        return self._step(self._coro.throw, *exc_info)

    def close(self) -> None:
        self._coro.close()

    def _step(self, resume: Callable, *args: Any) -> Any:
        ledger = self._ledger
        index = self._index
        saved_child = ledger.child
        ledger.child = 0
        start = _now()
        if not self._started:
            self._started = start
        finished = True
        try:
            result = resume(*args)
            finished = False
            return result
        finally:
            end = _now()
            duration = end - start
            ledger.self_ns[index] += duration - ledger.child
            ledger.child = saved_child + duration
            self._busy += duration
            if finished:
                ledger.calls[index] += 1
                ledger.wait_ns[index] += end - self._started - self._busy


# -- seam wrappers ---------------------------------------------------------


class TimedCodec(Codec):
    """``inner`` behind the ``Codec`` seam, with encode/decode spans and
    unit/byte counts.  Same name, same bytes."""

    def __init__(self, inner: Codec, ledger: Ledger) -> None:
        self.name = inner.name
        self.batched = inner.batched
        counters = ledger.counters

        def encode_batch(frames: Any) -> "tuple[bytes, ...]":
            units = inner.encode_batch(frames)
            counters["codec.units"] += len(units)
            counters["codec.bytes"] += sum(map(len, units))
            return units

        self.encode_batch = ledger.span("codec.encode", encode_batch)
        self.decode_batch = ledger.span("codec.decode", inner.decode_batch)


class _TimedEndpoint:
    def __init__(self, inner: Any, ledger: Ledger) -> None:
        self.node_id = inner.node_id
        self.send = ledger.awaitable(
            "transport.send", ledger.counting("transport.units", inner.send)
        )
        self.recv = ledger.awaitable("transport.recv", inner.recv)
        # The runtime probes for the non-blocking fast path; offer it
        # exactly when the wrapped endpoint does.
        if hasattr(inner, "send_nowait"):
            self.send_nowait = ledger.span(
                "transport.send",
                ledger.counting("transport.units", inner.send_nowait),
            )
        if hasattr(inner, "recv_nowait"):
            self.recv_nowait = ledger.span("transport.recv", inner.recv_nowait)


class TimedTransport:
    """``inner`` behind the ``Transport`` seam: every endpoint it opens
    times its sends and separates receive waiting from receive work."""

    def __init__(self, inner: Any, ledger: Ledger) -> None:
        self._inner = inner
        self._ledger = ledger
        self.name = inner.name

    async def open(self, node_id: int) -> _TimedEndpoint:
        return _TimedEndpoint(await self._inner.open(node_id), self._ledger)

    async def aclose(self) -> None:
        await self._inner.aclose()


# -- shims -----------------------------------------------------------------

#: (class, method, layer): the method is one span of the layer, wherever
#: under the class it is defined.  Only definitions are shimmed, so a
#: subclass that inherits a method is timed once, through its parent's.
_SPANNED = (
    (Node, "send_phase", "core.send"),
    (Node, "update_phase", "core.update"),
    (CoinInstance, "send_round", "coin"),
    (CoinInstance, "update_round", "coin"),
    (ReferenceEngine, "execute_beat", "engine"),
    (FastEngine, "execute_beat", "engine"),
    (BulkEngine, "bind", "bulk.bind"),
    (BulkProgram, "send", "bulk.send"),
    (BulkProgram, "update", "bulk.update"),
    (EventHeap, "push", "events.heap"),
    (EventHeap, "pop", "events.heap"),
    (PulseSynchronizer, "send", "events.sync"),
    (PulseSynchronizer, "deliver", "events.sync"),
    (PulseSynchronizer, "close", "events.sync"),
    (ContinuousSimulation, "run", "events.loop"),
    (ScenarioSpec, "build_config", "analysis.build"),
    (Simulation, "__init__", "analysis.build"),
    (Simulation, "scramble", "analysis.build"),
)


def _subclasses(root: type) -> list[type]:
    found, stack = [], [root]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


class Shims:
    """Installed timing shims; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def swap(self, owner: Any, attribute: str, wrap: Callable) -> None:
        """Replace ``owner.attribute`` by ``wrap(original)`` — for a
        class, on it and on every subclass that defines the attribute."""
        owners = _subclasses(owner) if isinstance(owner, type) else [owner]
        for each in owners:
            if attribute in vars(each):
                original = vars(each)[attribute]
                self._undo.append((each, attribute, original))
                setattr(each, attribute, wrap(original))

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def install_shims(ledger: Ledger) -> Shims:
    """Put a timing shim around every layer boundary the seams miss."""
    shims = Shims()
    span, counting = ledger.span, ledger.counting
    for owner, method, layer in _SPANNED:
        shims.swap(owner, method, lambda original, layer=layer: span(layer, original))
    shims.swap(
        InstanceContext, "send",
        lambda original: counting("coin.msgs", original),
    )
    shims.swap(
        Adversary, "craft_messages",
        lambda original: span(
            "adversary", counting("adversary.msgs", original, len)
        ),
    )
    shims.swap(
        LinkModel, "classify",
        lambda original: span(
            "linkmodel",
            counting("linkmodel.dropped", original, lambda delay: delay is None),
        ),
    )
    shims.swap(
        BeatSynchronizer, "collect",
        lambda original: ledger.awaitable("sync", original),
    )
    shims.swap(
        RuntimeNode, "run",
        lambda original: ledger.awaitable("runtime.node", original),
    )

    def trial(original: Callable) -> Callable:
        # Pool workers run trials back to back, so everything a worker's
        # ledger gained since its previous trial ended belongs to this
        # one (the spec's build_config runs just before run_trial).  The
        # delta rides home in the result's instance dict, which pickles.
        timed = span("analysis.run", original)
        mark = [ledger.snapshot()]

        def run_trial(config: Any, seed: int) -> Any:
            result = timed(config, seed)
            after = ledger.snapshot()
            object.__setattr__(
                result, "ledger_delta", subtract(after, mark[0])
            )
            mark[0] = after
            return result

        return run_trial

    shims.swap(campaign, "run_trial", trial)
    return shims
