"""Multi-process cluster orchestration for the live runtime.

:func:`run_runtime` keeps every node task inside one process; this module
launches a *cluster*: worker processes, each hosting a contiguous block
of node ids over :class:`~repro.runtime.transport.TcpTransport`, with the
Byzantine process (when the spec names an adversary) hosted by worker 0.
The entry points are declarative — a :class:`ClusterSpec` per experiment,
grouped into plain Python spec files that expose an ``experiments`` list
(:func:`load_specs`), the pattern simulation orchestration harnesses use
for their ``experiments/*.py`` trees — and the ``repro cluster run``
command drives them end to end.

Launch sequence (two-phase address exchange):

1. the parent partitions ``range(n)`` contiguously across
   ``spec.processes`` workers and starts each with a
   :mod:`multiprocessing` pipe;
2. every worker binds one ephemeral TCP listener per id it hosts and
   reports ``{node_id: (host, port)}`` up the pipe;
3. the parent merges the maps and broadcasts the full address book; each
   worker feeds it to
   :meth:`~repro.runtime.transport.TcpTransport.register_peers` and
   starts its beat loops;
4. workers stream back their per-node probe traces and wire statistics;
   the parent merges them into per-beat
   :class:`~repro.net.trace.BeatRecord` rows — the same JSONL trace
   shape every other harness in the repository emits.

Determinism: every worker builds the *complete*
:class:`~repro.net.world.World` — every id, not just its own block — and
scrambles all of it, exactly as :func:`~repro.runtime.runner.run_runtime`
does (ARCHITECTURE.md, "Shared kernel"), then hosts only the nodes it
owns.  Shared randomness stays aligned across processes because every
cross-node draw is keyed (coin outcomes memoized per ``(path, beat)``,
transport jitter per link counter), never streamed.  The one caveat:
adversaries whose ``divergence_chooser`` consumes the adversary RNG
stream would advance it differently per process, so cluster runs are
pinned against the simulator only for the fault-free and
stream-independent strategies the tests cover.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.campaign import ScenarioSpec
from repro.core.problem import converged_at
from repro.errors import ConfigurationError, TransportError
from repro.net.trace import BeatRecord, history_rows, records_from_traces
from repro.net.world import World
from repro.runtime.codec import DEFAULT_CODEC, resolve_codec
from repro.runtime.runner import (
    LiveResult,
    harvest,
    host_nodes,
    merge_harvests,
)
from repro.runtime.sync import check_sync_mode
from repro.runtime.transport import TcpTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = ["ClusterResult", "ClusterSpec", "load_specs", "run_cluster"]

#: Ceiling on one worker handshake or result wait, seconds.
_PIPE_TIMEOUT = 300.0


@dataclass(frozen=True)
class ClusterSpec:
    """One declarative cluster experiment.

    Everything is named, not instantiated, so a spec pickles cleanly into
    spawned worker processes and reads naturally in a spec file.  It is a
    scenario (:meth:`scenario` — what runs, validated and resolved by
    :class:`~repro.analysis.campaign.ScenarioSpec`) plus the deployment
    fields this class owns (codec, processes, host, barrier mode)::

        experiments = [
            ClusterSpec(name="smoke-n4", n=4, f=1, k=6, beats=12,
                        processes=2, codec="binary"),
        ]
    """

    name: str
    n: int
    f: int
    k: int = 8
    protocol: str = "clock-sync"
    coin: str = "oracle"
    adversary: str = "none"
    codec: str = DEFAULT_CODEC
    seed: int = 0
    beats: int = 30
    processes: int = 2
    beat_timeout: "float | None" = 30.0
    host: str = "127.0.0.1"
    scramble: bool = True
    #: Barrier mode: ``"beat"`` (fixed timeout) or ``"pulse"`` (drifting
    #: clock pulse schedule; ``beat_timeout`` is then ignored).
    sync: str = "beat"
    pulse_period: float = 0.2
    rho: float = 0.0

    def scenario(self) -> ScenarioSpec:
        """The run this cluster executes, minus how it is deployed."""
        return ScenarioSpec(
            n=self.n,
            f=self.f,
            k=self.k,
            protocol=self.protocol,
            coin=self.coin,
            adversary=self.adversary,
            max_beats=self.beats,
            scramble=self.scramble,
        )

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on an inconsistent spec."""
        if not self.name:
            raise ConfigurationError("cluster spec needs a non-empty name")
        self.scenario().validate()
        if not 1 <= self.processes <= self.n:
            raise ConfigurationError(
                f"processes must be in 1..n={self.n}, got {self.processes}"
            )
        resolve_codec(self.codec)  # unknown codec -> ConfigurationError
        check_sync_mode(self.sync, self.rho, self.pulse_period)


@dataclass(frozen=True)
class ClusterResult(LiveResult):
    """Merged outcome of one cluster run (the multi-process
    :class:`~repro.runtime.runner.RuntimeResult`)."""

    name: str
    n: int
    f: int
    seed: int
    codec: str
    processes: int
    beats_run: int
    records: "tuple[BeatRecord, ...]" = field(repr=False)
    converged_beat: "int | None" = None
    messages_sent: int = 0
    frames_sent: int = 0
    late_messages: int = 0
    premature_messages: int = 0
    barrier_timeouts: int = 0
    malformed_frames: int = 0
    elapsed_s: float = 0.0
    frames_by_node: "dict[int, int] | None" = None
    sync: str = "beat"
    pulse_timeouts: int = 0
    #: Pulse mode only: max pairwise barrier-close spread observed within
    #: any single worker, in real seconds.  Clocks are not comparable
    #: *across* worker processes, so this is a per-worker measurement
    #: merged by max — a lower bound on the cluster-wide skew.
    pulse_skew_s: "float | None" = None
    #: The merged counters re-homed onto a
    #: :class:`~repro.obs.MetricsRegistry`, as a single-process run's
    #: would be; excluded from equality so result comparison stays about
    #: the trajectory and its counters.
    metrics: "Any | None" = field(default=None, repr=False, compare=False)


def load_specs(path: str) -> "tuple[ClusterSpec, ...]":
    """Load the ``experiments`` list from a Python spec file.

    A spec file is ordinary Python: it imports :class:`ClusterSpec` (from
    :mod:`repro.runtime`) and assigns a module-level ``experiments`` list.
    Every loading problem — unreadable file, import error, missing or
    mistyped ``experiments``, invalid specs — raises
    :class:`ConfigurationError`.
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location("repro_cluster_spec", path)
    if spec is None or spec.loader is None:
        raise ConfigurationError(f"cannot load cluster spec file {path!r}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ConfigurationError:
        raise
    except Exception as error:
        raise ConfigurationError(
            f"cluster spec file {path!r} failed to import: {error}"
        ) from error
    experiments = getattr(module, "experiments", None)
    if experiments is None:
        raise ConfigurationError(
            f"cluster spec file {path!r} defines no `experiments` list"
        )
    specs = tuple(experiments)
    if not specs or not all(isinstance(s, ClusterSpec) for s in specs):
        raise ConfigurationError(
            f"`experiments` in {path!r} must be a non-empty list of "
            "ClusterSpec objects"
        )
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"duplicate experiment names in {path!r}: {sorted(names)}"
        )
    for s in specs:
        s.validate()
    return specs


# -- the worker side -------------------------------------------------------


async def _worker_async(
    spec: ClusterSpec,
    worker_index: int,
    block: "tuple[int, ...]",
    conn: "Connection",
) -> "dict[str, Any]":
    """One worker's whole run; returns its harvest for the parent."""
    scenario = spec.scenario()
    world = World.build(
        spec.n,
        spec.f,
        scenario.root_factory(),
        adversary=scenario.build_adversary(),
        seed=spec.seed,
    )
    if spec.scramble:
        world.scramble()
    # Worker 0 also speaks for the whole faulty coalition.
    owned = [i for i in block if i in world.nodes]
    if worker_index == 0:
        owned.extend(sorted(world.faulty_ids))
    transport = TcpTransport(host=spec.host)

    async def exchange_addresses() -> None:
        # Phase 1: report the ephemeral addresses this worker bound.
        conn.send(("addrs", {i: transport.address_of(i) for i in owned}))
        # Phase 2: learn everyone else's; the beat loops start next.
        if not conn.poll(_PIPE_TIMEOUT):
            raise TransportError("orchestrator never sent the address book")
        transport.register_peers(conn.recv())

    # Pulse deadlines are anchored per worker: workers start at different
    # wall instants, so skew is a within-worker measurement.
    runtime_nodes, process = await host_nodes(
        world,
        transport,
        owned,
        spec.beats,
        codec=resolve_codec(spec.codec),
        beat_timeout=spec.beat_timeout,
        pulse=(
            (spec.rho, spec.pulse_period) if spec.sync == "pulse" else None
        ),
        before_start=exchange_addresses,
    )
    return harvest(runtime_nodes, process, transport, spec.beats)


def _cluster_worker(
    spec: ClusterSpec,
    worker_index: int,
    block: "tuple[int, ...]",
    conn: "Connection",
) -> None:
    """Worker process entry point (module-level for spawn picklability)."""
    try:
        payload = asyncio.run(_worker_async(spec, worker_index, block, conn))
        conn.send(("ok", payload))
    except Exception as error:  # surfaced by the parent as TransportError
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except OSError:  # parent already gone
            pass
    finally:
        conn.close()


# -- the parent side -------------------------------------------------------


def _partition(n: int, processes: int) -> "list[tuple[int, ...]]":
    """Contiguous, non-empty blocks of ``range(n)``, one per process."""
    base, extra = divmod(n, processes)
    blocks, start = [], 0
    for index in range(processes):
        size = base + (1 if index < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def run_cluster(spec: ClusterSpec) -> ClusterResult:
    """Launch ``spec`` as a multi-process TCP cluster and merge the result.

    Worker failures (crash, import error, handshake timeout) terminate
    the whole cluster and raise :class:`TransportError` naming the
    failing worker.
    """
    spec.validate()
    context = multiprocessing.get_context("spawn")
    blocks = _partition(spec.n, spec.processes)
    workers: "list[tuple[int, Any, Connection]]" = []
    started = time.perf_counter()
    try:
        for index, block in enumerate(blocks):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_cluster_worker,
                args=(spec, index, block, child_conn),
                name=f"repro-cluster-{spec.name}-{index}",
            )
            process.start()
            child_conn.close()
            workers.append((index, process, parent_conn))

        address_book: dict[int, tuple[str, int]] = {}
        for index, _process, conn in workers:
            kind, value = _expect(conn, index, "addrs")
            address_book.update(value)
        missing = set(range(spec.n)) - set(address_book)
        if missing:
            raise TransportError(
                f"no worker bound node ids {sorted(missing)}"
            )
        for _index, _process, conn in workers:
            conn.send(address_book)

        payloads = []
        for index, _process, conn in workers:
            _kind, value = _expect(conn, index, "ok")
            payloads.append(value)
    except Exception:
        for _index, process, _conn in workers:
            if process.is_alive():
                process.terminate()
        raise
    finally:
        for _index, process, conn in workers:
            process.join(timeout=10.0)
            conn.close()
    elapsed = time.perf_counter() - started

    from repro.obs.metrics import MetricsRegistry, record_runtime

    counters = merge_harvests(payloads)
    records = records_from_traces(counters.pop("traces"), spec.beats)
    result = ClusterResult(
        name=spec.name,
        n=spec.n,
        f=spec.f,
        seed=spec.seed,
        codec=spec.codec,
        processes=spec.processes,
        beats_run=spec.beats,
        records=records,
        converged_beat=converged_at(history_rows(records), spec.k),
        elapsed_s=elapsed,
        sync=spec.sync,
        metrics=MetricsRegistry(),
        **counters,
    )
    record_runtime(result.metrics, result)
    return result


def _expect(conn: "Connection", index: int, want: str) -> tuple:
    """Receive one pipe message from worker ``index``, demanding ``want``."""
    try:
        if not conn.poll(_PIPE_TIMEOUT):
            raise TransportError(
                f"cluster worker {index} sent nothing within "
                f"{_PIPE_TIMEOUT:.0f}s"
            )
        kind, value = conn.recv()
    except (EOFError, OSError) as error:
        raise TransportError(
            f"cluster worker {index} died before reporting: {error}"
        ) from None
    if kind == "error":
        raise TransportError(f"cluster worker {index} failed: {value}")
    if kind != want:
        raise TransportError(
            f"cluster worker {index} sent {kind!r}, expected {want!r}"
        )
    return kind, value
