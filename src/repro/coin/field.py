"""Prime-field arithmetic for the secret-sharing substrate.

The Feldman-Micali coin shares secrets over GF(p).  Remark 2.3 of the paper:
the protocol "requires a prime p > n ... for example, let p be the smallest
prime that is larger than n" — constants derived deterministically from n so
they can be considered part of the code and survive transient faults.  We
follow that rule exactly (see :func:`smallest_prime_above`), with a floor so
secrets have a little slack room.

Elements are plain ints in ``[0, p)``; the :class:`PrimeField` object carries
the modulus and the operations.  Pure Python ints are exact; what a method
call per field operation is *not* is fast, so the per-beat paths of the coin
(:func:`repro.coin.polynomial.evaluate_many`, the Reed-Solomon decoder) take
``field.modulus`` and reduce inline against cached power tables, and the
methods here serve the once-per-dealing and test-facing code.
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError

__all__ = ["PrimeField", "is_prime", "smallest_prime_above"]

# Deterministic Miller-Rabin witnesses, valid for all 64-bit integers.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(value: int) -> bool:
    """Deterministic primality test for integers below 2**64."""
    if value < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if value % p == 0:
            return value == p
    d = value - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for witness in _MR_WITNESSES:
        x = pow(witness, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(r - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def smallest_prime_above(n: int) -> int:
    """The smallest prime strictly greater than ``n`` (Remark 2.3)."""
    candidate = max(n + 1, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


class PrimeField:
    """The field GF(p) for a prime modulus ``p``."""

    def __init__(self, modulus: int) -> None:
        if not is_prime(modulus):
            raise ConfigurationError(f"field modulus must be prime, got {modulus}")
        self.modulus = modulus

    @classmethod
    def for_system(cls, n: int) -> "PrimeField":
        """Field used by a system of ``n`` nodes.

        The evaluation points are 1..n and 0 is reserved for the secret, so
        any prime > n works; we take the smallest prime above ``max(n, 16)``
        to keep tiny systems from using a degenerate field.
        """
        return cls(smallest_prime_above(max(n, 16)))

    def element(self, value: int) -> int:
        """Reduce an arbitrary int into the field."""
        return value % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ``ZeroDivisionError`` for 0."""
        a %= self.modulus
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in a field")
        return pow(a, self.modulus - 2, self.modulus)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, exponent: int) -> int:
        return pow(a % self.modulus, exponent, self.modulus)

    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(self.modulus)

    def contains(self, value: object) -> bool:
        """Whether ``value`` is a canonical element of this field."""
        return isinstance(value, int) and 0 <= value < self.modulus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"
