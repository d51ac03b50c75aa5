"""Deterministic randomness plumbing for simulations.

Every source of randomness in a simulation — each node's private coins, the
adversary's choices, the environment (``nature``) that resolves oracle-coin
events, and the transient-fault injector — draws from an independent
:class:`random.Random` stream derived from one master seed.  Re-running a
simulation with the same seed reproduces it bit-for-bit, which the test
suite relies on heavily.

Streams are derived with SHA-256 over a label, *not* Python's built-in
``hash``, so results do not depend on ``PYTHONHASHSEED``.

The byte layout — the master seed in decimal, then ``/`` and the ``repr``
of each label — is written once, in prefix form: :func:`seed_prefix` is
the hash state over the master seed and the *leading* labels, and
:func:`seed_from` finishes a copy of it with the rest, already rendered
by :func:`label_bytes`.  A caller that draws many times under one prefix
(a link model, once per directed link) hashes each draw's suffix only;
:func:`derive_seed` is the prefix form with no leading labels, so both
give the same bits.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator

__all__ = ["derive_seed", "label_bytes", "seed_from", "seed_prefix", "SeedSequence"]


def label_bytes(*labels: object) -> bytes:
    """A label path as :func:`derive_seed` hashes it, after the master
    seed: ``/`` and the ``repr`` of each label, so ints, strings and
    tuples all render stably."""
    return b"".join([b"/" + repr(label).encode("utf-8") for label in labels])


def seed_prefix(master_seed: int, *labels: object) -> "hashlib._Hash":
    """The hash state ``derive_seed(master_seed, *labels, ...)`` has
    reached after ``labels``; never finish it in place — see
    :func:`seed_from`."""
    return hashlib.sha256(
        str(int(master_seed)).encode("utf-8") + label_bytes(*labels)
    )


def seed_from(prefix: "hashlib._Hash", suffix: bytes) -> int:
    """The 64-bit seed of ``prefix`` followed by ``suffix`` (the
    :func:`label_bytes` of the remaining labels); ``prefix`` is copied,
    not consumed."""
    digest = prefix.copy()
    digest.update(suffix)
    return int.from_bytes(digest.digest()[:8], "big")


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a label path."""
    return seed_from(seed_prefix(master_seed), label_bytes(*labels))


class SeedSequence:
    """A factory of named, independent :class:`random.Random` streams.

    >>> seq = SeedSequence(42)
    >>> a = seq.stream("node", 0)
    >>> b = seq.stream("node", 1)
    >>> a is not b
    True

    Asking twice for the same label path returns *fresh* generators with the
    same seed, which keeps replays deterministic even if construction order
    changes between runs.
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)

    def seed_for(self, *labels: object) -> int:
        """Return the derived integer seed for a label path."""
        return derive_seed(self.master_seed, *labels)

    def stream(self, *labels: object) -> random.Random:
        """Return a fresh generator seeded for the given label path."""
        return random.Random(self.seed_for(*labels))

    def spawn(self, *labels: object) -> "SeedSequence":
        """Return a child sequence rooted at the given label path."""
        return SeedSequence(self.seed_for(*labels))

    def streams(self, prefix: str, count: int) -> Iterator[random.Random]:
        """Yield ``count`` independent streams labelled ``(prefix, i)``."""
        for index in range(count):
            yield self.stream(prefix, index)
