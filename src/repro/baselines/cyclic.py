"""Cyclic-agreement clocks: the shared scaffold of the deterministic rows.

Every deterministic comparator in Table 1 has the same shape: the clock
ticks +1 every beat, and a repeated Byzantine agreement re-anchors it —
one agreement cycle every ``depth`` beats, agreeing on the clock value
the cycle started from.  *Validity* makes an already-synchronized system
re-adopt its own ticked value (closure undisturbed); *agreement* makes an
unsynchronized system synchronized at the first complete cycle, i.e.
within at most ``2 * depth`` beats, deterministically, for any f < n/3.

:class:`CyclicAgreementClock` is that scaffold, parameterized by the
agreement substrate — any object with the ``send_round`` /
``update_round`` / ``output`` / ``scramble`` instance interface the
:mod:`repro.baselines.phase_king` and :mod:`repro.baselines.turpin_coan`
primitives expose.  Subclasses pick the substrate (and thereby the cycle
length and the per-round traffic); the registered protocol catalog is in
:mod:`repro.core.protocol`.

**Documented modelling concession** (shared by every subclass): the
agreement cycle boundary is derived from the global beat index
(``beat mod depth``), i.e. our global beat system hands nodes a shared
phase label along with the beat.  The reproduced paper's model does not
include such a label, and removing it — scheduling recurring agreements
without any prior synchrony — is exactly the technical contribution of
the deterministic protocols of Table 1 ([15]/[7]), which this library
does not re-derive.  A naive label-free pipelining of agreements admits
*frozen fixed points* (a regression test in ``tests/test_baselines.py``
keeps that failure mode alive); the baselines' role in the benches is
only to exhibit the deterministic O(f)-convergence rows.
"""

from __future__ import annotations

import random

from repro.coin.interfaces import InstanceContext
from repro.errors import ConfigurationError
from repro.net.component import BeatContext, Component

__all__ = ["CyclicAgreementClock"]


class CyclicAgreementClock(Component):
    """A k-clock re-anchored by one agreement instance per ``depth`` beats.

    Subclasses implement :meth:`_make_instance` to build one agreement
    instance (phase-king, Turpin-Coan, ...) on a given input value; the
    instance is driven through rounds ``1 .. depth`` — one round per
    beat — and its output re-anchors the ticking clock at cycle end.
    """

    def __init__(self, n: int, f: int, k: int, *, depth: int) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.n = n
        self.f = f
        self.k = k
        self.modulus = k
        #: Rounds per agreement cycle (= beats per cycle).
        self.depth = depth
        self.instance = self._make_instance(0)
        self.clock = 0

    def _make_instance(self, value: int):
        """Build one agreement instance with input ``value``."""
        raise NotImplementedError

    @property
    def clock_value(self) -> int:
        return self.clock

    @property
    def convergence_beats(self) -> int:
        """Deterministic bound: a partial cycle plus one full cycle."""
        return 2 * self.depth

    def _round_index(self, beat: int) -> int:
        """The agreement round scheduled at this beat (shared phase label)."""
        return beat % self.depth + 1

    def on_send(self, ctx: BeatContext) -> None:
        # The clock ticks every beat, like Fig. 4's line 2.
        self.clock = (self.clock + 1) % self.k
        round_index = self._round_index(ctx.beat)
        if round_index == 1:
            # New cycle: agree on the value this cycle's clock starts from.
            self.instance = self._make_instance(self.clock)
        # One instance per path: no tag, and a round's broadcast is one
        # fan-out record on this component's path.
        self.instance.send_round(round_index, InstanceContext.bound(ctx, []))

    def on_update(self, ctx: BeatContext) -> None:
        round_index = self._round_index(ctx.beat)
        inbox = [(e.sender, e.payload) for e in ctx.inbox]
        self.instance.update_round(round_index, InstanceContext.bound(ctx, inbox))
        if round_index == self.depth:
            # Cycle complete: re-anchor.  The cycle's input was the clock
            # at its first beat, which is depth - 1 ticks ago.
            self.clock = (self.instance.output() + self.depth - 1) % self.k

    def scramble(self, rng: random.Random) -> None:
        self.clock = rng.randrange(self.k)
        self.instance.scramble(rng)
