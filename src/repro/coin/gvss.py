"""Graded Verifiable Secret Sharing over the global-beat network.

Observation 2.1 of the paper: the Feldman-Micali common coin is built from
graded verifiable secret sharing with three logical phases — *share*,
*decide*, *recover* — where the secret stays unrecoverable by any ``f``
nodes until the one-round recover phase.  This module implements one node's
view of ``n`` concurrent dealings (every node deals one secret) in four
lock-step rounds:

1. **share** — dealer ``d`` draws a uniformly random symmetric bivariate
   polynomial ``S_d`` of degree ``f`` with ``S_d(0,0)`` its secret bit and
   privately sends node ``j`` the row ``S_d(x_j, ·)``.
2. **exchange** — node ``i`` privately sends node ``j`` the cross point
   ``row_i^d(x_j)`` for every dealer ``d``; symmetry makes
   ``row_i^d(x_j) == row_j^d(x_i)`` whenever both rows came from an honest
   dealing.
3. **decide (vote)** — node ``i`` broadcasts, per dealer, whether its row is
   well-formed and consistent with at least ``n - f`` cross points.
4. **recover** — node ``i`` grades every dealer from the received votes
   (grade 2 at ``>= n - f`` OKs, grade 1 at ``>= n - 2f``, else 0),
   broadcasts its zero-share ``row_i^d(0)`` for every well-formed row, and
   reconstructs each graded dealer's secret by Berlekamp-Welch decoding
   (degree ``f``, up to ``f`` lies).

Properties delivered (and unit-tested):

* an honest dealer reaches grade 2 at every correct node, and its secret is
  recovered *identically everywhere* — correct zero-shares dominate and
  unique decoding does the rest;
* if any correct node grades a dealer 2, every correct node grades it >= 1
  (vote counts seen by two correct nodes differ by at most ``f``);
* before round 4 the adversary holds at most ``f`` points of each honest
  zero polynomial of degree ``f`` — one short of interpolation — so the
  secret is information-theoretically hidden (*unpredictability*).

The one deliberate simplification versus full Feldman-Micali — votes are
cast on private cross points, with no public complaint round — and the
attack it admits are written up in :mod:`repro.adversary.mixed_dealing`;
:mod:`repro.coin.feldman_micali` says why the coin built on top still has
the properties the clock algorithms consume.

Nothing here is cached on the instance: the evaluation points and their
power tables are constants of ``n`` (Remark 2.3) served by the pure cached
functions of :mod:`repro.coin.polynomial` and :mod:`repro.coin.reedsolomon`,
so :meth:`GradedSharingState.scramble` still redraws *every* attribute a
transient fault can touch.

Rounds 3 and 4 are broadcasts: every receiver in a process is handed the
same payload *objects* (:mod:`repro.coin.interfaces`), and what a payload
says is a pure function of ``(n, field, payload)``.  Such a *reading of a
message* — neither a constant of the code nor node state — is computed
once per object and kept in two module-level tables: ``_readings`` (a
vote's accepted dealers, a share list's accepted ``(dealer, share)`` pairs,
``None`` for malformed) and ``_recoveries`` (the secrets decoded from one
set of readings under one tuple of graded dealers: one per class of
receivers).  They are keyed by **identity**, never by value —
``("vote", (1.0,))`` equals and hashes like ``("vote", (1,))`` yet is
malformed, and a faulty sender's twin read first must not speak for the
honest payload — and an entry holds the objects its key names, so no
``id`` is recycled under it.  Results are immutable or copied out.  A
miss runs exactly what a hit skips, so a full table just drops its older
half; what stays is a beat's working set (two readings per pipeline per
node) at the ``n`` this coin runs at.  A state driven alone
(one node per process; the live runtime, which decodes per link) misses
every time and behaves as one that shares.
"""

from __future__ import annotations

import random
from typing import Any

from repro.coin.field import PrimeField
from repro.coin.interfaces import InstanceContext
from repro.coin.polynomial import Coeffs, evaluate, evaluate_many
from repro.coin.reedsolomon import decode_best_effort
from repro.coin.shamir import SymmetricBivariate, node_point

__all__ = ["GradedSharingState", "GRADE_HIGH", "GRADE_LOW", "GRADE_NONE"]

GRADE_HIGH = 2
GRADE_LOW = 1
GRADE_NONE = 0

ROUND_SHARE = 1
ROUND_EXCHANGE = 2
ROUND_VOTE = 3
ROUND_RECOVER = 4

_READINGS_BOUND = 128
_RECOVERIES_BOUND = 32
#: ``(validator, n, modulus, id(payload)) -> (payload, reading)``.
_readings: dict[tuple, tuple[Any, Any]] = {}
#: ``(n, f, modulus, graded dealers, (sender, id(reading)), ...) ->
#: (the readings, dealer -> recovered secret)``.
_recoveries: dict[tuple, tuple[list, dict[int, int]]] = {}


def _remember(table: dict, bound: int, key: tuple, entry: tuple) -> tuple:
    if len(table) >= bound:  # a miss is always correct: drop the older half
        for stale in list(table)[: bound // 2]:
            del table[stale]
    table[key] = entry
    return entry


class GradedSharingState:
    """One node's state across the four GVSS rounds (all ``n`` dealings)."""

    ROUNDS = 4

    def __init__(self, n: int, f: int, field: PrimeField) -> None:
        self.n = n
        self.f = f
        self.field = field
        #: My dealing's secret bit (drawn at round 1).
        self.my_secret = 0
        #: Rows received in round 1: dealer id -> row coefficients (or None).
        self.rows: dict[int, Coeffs] = {}
        #: Cross points received in round 2: sender -> dealer -> value.
        self.cross_points: dict[int, dict[int, int]] = {}
        #: Votes received in round 3: sender -> set of dealers voted OK.
        self.votes: dict[int, frozenset[int]] = {}
        #: Grades computed in round 4: dealer -> 0/1/2.
        self.grades: dict[int, int] = {}
        #: Recovered secrets for graded dealers: dealer -> field element.
        self.recovered: dict[int, int] = {}

    def _node_points(self) -> tuple[int, ...]:
        """Every node's evaluation point — recomputed, never stored."""
        return tuple(map(node_point, range(self.n)))

    # -- round 1: share ----------------------------------------------------

    def send_share(self, ctx: InstanceContext) -> None:
        self.my_secret = ctx.rng.randrange(2)
        dealing = SymmetricBivariate.random(
            self.field, self.my_secret, self.f, ctx.rng
        )
        for receiver, row in enumerate(dealing.rows(range(self.n))):
            ctx.send(receiver, ("row", row))

    def update_share(self, ctx: InstanceContext) -> None:
        self.rows = {}
        for sender, payload in ctx.first_per_sender().items():
            row = self._validate_row(payload)
            if row is not None:
                self.rows[sender] = row

    def _validate_row(self, payload: Any) -> Coeffs | None:
        """Accept only a well-formed degree <= f row polynomial."""
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return None
        kind, row = payload
        if kind != "row" or not isinstance(row, tuple):
            return None
        if len(row) > self.f + 1:
            return None
        if not all(self.field.contains(c) for c in row):
            return None
        return row

    # -- round 2: exchange ----------------------------------------------------

    def send_exchange(self, ctx: InstanceContext) -> None:
        xs = self._node_points()
        dealers = sorted(self.rows)
        values = [evaluate_many(self.field, self.rows[d], xs) for d in dealers]
        for receiver in range(self.n):
            points = tuple((d, row[receiver]) for d, row in zip(dealers, values))
            ctx.send(receiver, ("xpt", points))

    def update_exchange(self, ctx: InstanceContext) -> None:
        self.cross_points = {}
        for sender, payload in ctx.first_per_sender().items():
            parsed = self._validate_pairs("xpt", payload)
            if parsed is not None:
                self.cross_points[sender] = parsed

    def _validate_pairs(self, kind: str, payload: Any) -> dict[int, int] | None:
        """A ``(kind, ((dealer, value), ...))`` payload as dealer -> value
        (in range, first entry wins), or ``None`` if any of it is malformed."""
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return None
        tag, pairs = payload
        if tag != kind or not isinstance(pairs, tuple):
            return None
        parsed: dict[int, int] = {}
        for entry in pairs:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                return None
            dealer, value = entry
            if not (isinstance(dealer, int) and self.field.contains(value)):
                return None
            if 0 <= dealer < self.n and dealer not in parsed:
                parsed[dealer] = value
        return parsed

    # -- round 3: vote -----------------------------------------------------------

    def send_vote(self, ctx: InstanceContext) -> None:
        ok: list[int] = []
        xs = self._node_points()
        for dealer, row in sorted(self.rows.items()):
            matches = sum(
                self.cross_points.get(peer, {}).get(dealer) == expected
                for peer, expected in enumerate(evaluate_many(self.field, row, xs))
            )
            # Up to f peers may withhold or lie about cross points, so an
            # honest dealing must not be vetoed by them.
            if matches >= self.n - self.f:
                ok.append(dealer)
        ctx.broadcast(("vote", tuple(ok)))

    def update_vote(self, ctx: InstanceContext) -> None:
        self.votes = {}
        for sender, payload in ctx.first_per_sender().items():
            voted = self._reading(GradedSharingState._validate_vote, payload)
            if voted is not None:
                self.votes[sender] = voted

    def _reading(self, validate, payload: Any) -> Any:
        """``validate(self, payload)``, computed once per payload object."""
        key = (validate, self.n, self.field.modulus, id(payload))
        entry = _readings.get(key)
        if entry is None or entry[0] is not payload:
            entry = _remember(
                _readings, _READINGS_BOUND, key, (payload, validate(self, payload))
            )
        return entry[1]

    def _validate_vote(self, payload: Any) -> frozenset[int] | None:
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return None
        kind, dealers = payload
        if kind != "vote" or not isinstance(dealers, tuple):
            return None
        if not all(isinstance(d, int) for d in dealers):
            return None
        return frozenset(d for d in dealers if 0 <= d < self.n)

    # -- round 4: recover -----------------------------------------------------

    def send_recover(self, ctx: InstanceContext) -> None:
        self.grades = self._compute_grades()
        shares = tuple(
            (dealer, evaluate(self.field, row, 0))
            for dealer, row in sorted(self.rows.items())
        )
        ctx.broadcast(("rshare", shares))

    def _compute_grades(self) -> dict[int, int]:
        grades: dict[int, int] = {}
        for dealer in range(self.n):
            ok_count = sum(1 for voted in self.votes.values() if dealer in voted)
            if ok_count >= self.n - self.f:
                grades[dealer] = GRADE_HIGH
            elif ok_count >= self.n - 2 * self.f:
                grades[dealer] = GRADE_LOW
            else:
                grades[dealer] = GRADE_NONE
        return grades

    def update_recover(self, ctx: InstanceContext) -> None:
        readings = []
        for sender, payload in ctx.first_per_sender().items():
            shares = self._reading(GradedSharingState._validate_recover, payload)
            if shares is not None:
                readings.append((sender, shares))
        graded = tuple(d for d, g in self.grades.items() if g != GRADE_NONE)
        # Same share lists from the same senders, same graded dealers: the
        # same secrets.  The first receiver of such a class decodes them.
        key = (
            self.n, self.f, self.field.modulus, graded,
            *[(sender, id(shares)) for sender, shares in readings],
        )
        entry = _recoveries.get(key) or _remember(
            _recoveries, _RECOVERIES_BOUND, key,
            (readings, self._recover(readings, graded)),
        )
        self.recovered = dict(entry[1])

    def _recover(
        self, readings: list[tuple[int, tuple]], graded: tuple[int, ...]
    ) -> dict[int, int]:
        zero_shares: dict[int, dict[int, int]] = {d: {} for d in range(self.n)}
        for sender, shares in readings:
            for dealer, value in shares:
                zero_shares[dealer][sender] = value
        recovered = {}
        for dealer in graded:
            points = [
                (node_point(sender), value)
                for sender, value in sorted(zero_shares[dealer].items())
            ]
            # Too few shares to decode at all is one more failure to decode.
            recovered[dealer] = decode_best_effort(
                self.field, points, degree=self.f, max_errors=self.f, fallback=0
            )
        return recovered

    def _validate_recover(self, payload: Any) -> tuple[tuple[int, int], ...] | None:
        parsed = self._validate_pairs("rshare", payload)
        return None if parsed is None else tuple(parsed.items())

    # -- output & faults -----------------------------------------------------

    def parity_output(self) -> int:
        """XOR of recovered secret parities over locally accepted dealers."""
        bit = 0
        for dealer, grade in sorted(self.grades.items()):
            if grade >= GRADE_LOW:
                bit ^= self.recovered.get(dealer, 0) & 1
        return bit

    # Plain functions, looked up once per class rather than bound per call.
    _HANDLERS = {
        ROUND_SHARE: (send_share, update_share),
        ROUND_EXCHANGE: (send_exchange, update_exchange),
        ROUND_VOTE: (send_vote, update_vote),
        ROUND_RECOVER: (send_recover, update_recover),
    }

    def run_round(self, round_index: int, ctx: InstanceContext, sending: bool) -> None:
        """Dispatch one round's send or update handler."""
        send_handler, update_handler = self._HANDLERS[round_index]
        (send_handler if sending else update_handler)(self, ctx)

    def scramble(self, rng: random.Random) -> None:
        """Transient fault: redraw every field within its domain."""
        modulus = self.field.modulus
        self.my_secret = rng.randrange(2)
        self.rows = {
            dealer: tuple(rng.randrange(modulus) for _ in range(self.f + 1))
            for dealer in range(self.n)
            if rng.random() < 0.5
        }
        self.cross_points = {
            sender: {
                dealer: rng.randrange(modulus)
                for dealer in range(self.n)
                if rng.random() < 0.5
            }
            for sender in range(self.n)
            if rng.random() < 0.5
        }
        self.votes = {
            sender: frozenset(
                dealer for dealer in range(self.n) if rng.random() < 0.5
            )
            for sender in range(self.n)
            if rng.random() < 0.5
        }
        self.grades = {
            dealer: rng.choice((GRADE_NONE, GRADE_LOW, GRADE_HIGH))
            for dealer in range(self.n)
        }
        self.recovered = {
            dealer: rng.randrange(modulus)
            for dealer in range(self.n)
            if rng.random() < 0.5
        }
