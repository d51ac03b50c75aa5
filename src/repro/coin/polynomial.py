"""Univariate polynomials over a prime field.

Polynomials are coefficient tuples in ascending order: ``(c0, c1, c2)``
represents ``c0 + c1*x + c2*x**2``.  Tuples (not lists) so polynomials can
travel inside message payloads and be compared / hashed.
"""

from __future__ import annotations

import functools
import operator
import random
from typing import Sequence

from repro.coin.field import PrimeField
from repro.errors import ConfigurationError

__all__ = [
    "evaluate",
    "evaluate_many",
    "interpolate",
    "normalize",
    "poly_add",
    "poly_divmod",
    "poly_mul",
    "power_table",
    "random_polynomial",
]

Coeffs = tuple[int, ...]


def normalize(coeffs: Sequence[int]) -> Coeffs:
    """Strip trailing zero coefficients; the zero polynomial is ``()``."""
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    return tuple(trimmed)


def evaluate(field: PrimeField, coeffs: Sequence[int], x: int) -> int:
    """Evaluate the polynomial at ``x`` (Horner's method)."""
    result = 0
    for coefficient in reversed(coeffs):
        result = (result * x + coefficient) % field.modulus
    return result


@functools.lru_cache(maxsize=256)
def power_table(
    modulus: int, xs: tuple[int, ...], count: int
) -> tuple[tuple[int, ...], ...]:
    """Vandermonde rows: ``table[i][k] == xs[i] ** k mod modulus``, ``k < count``.

    A pure function of its arguments — for the coin, of constants that
    Remark 2.3 derives from ``n`` — so the cache is shared by every node,
    dealer and beat of a process and holds nothing a transient fault could
    corrupt.  Bounded, so adversarially varied share subsets cannot grow it.
    """
    return tuple(tuple(pow(x, k, modulus) for k in range(count)) for x in xs)


def evaluate_many(
    field: PrimeField, coeffs: Sequence[int], xs: tuple[int, ...]
) -> list[int]:
    """The polynomial's value at every point of ``xs``, off :func:`power_table`."""
    modulus = field.modulus
    return [
        sum(map(operator.mul, coeffs, powers)) % modulus
        for powers in power_table(modulus, xs, len(coeffs))
    ]


def random_polynomial(
    field: PrimeField,
    degree: int,
    rng: random.Random,
    constant_term: int | None = None,
) -> Coeffs:
    """A uniformly random polynomial of degree at most ``degree``.

    If ``constant_term`` is given it is pinned (used to share a secret at
    ``P(0)``); the remaining coefficients are uniform, including possibly
    zero leading coefficients — secrecy needs the *distribution*, not a
    fixed degree.
    """
    if degree < 0:
        raise ConfigurationError(f"degree must be >= 0, got {degree}")
    coeffs = [field.random_element(rng) for _ in range(degree + 1)]
    if constant_term is not None:
        coeffs[0] = field.element(constant_term)
    return tuple(coeffs)


def interpolate(field: PrimeField, points: Sequence[tuple[int, int]]) -> Coeffs:
    """Lagrange interpolation through distinct-x ``points``.

    Returns the unique polynomial of degree < len(points) through them.
    """
    xs = [x % field.modulus for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ConfigurationError("interpolation points must have distinct x")
    result: list[int] = [0] * len(points)
    for i, (xi, yi) in enumerate(points):
        # Build the i-th Lagrange basis polynomial incrementally.
        basis = [1]
        denominator = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = _mul_linear(field, basis, field.neg(xj))
            denominator = field.mul(denominator, field.sub(xi, xj))
        scale = field.div(field.element(yi), denominator)
        for k, coefficient in enumerate(basis):
            result[k] = field.add(result[k], field.mul(coefficient, scale))
    return normalize(result)


def _mul_linear(field: PrimeField, coeffs: list[int], constant: int) -> list[int]:
    """Multiply ``coeffs`` by ``(x + constant)``."""
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] = field.add(out[i], field.mul(c, constant))
        out[i + 1] = field.add(out[i + 1], c)
    return out


def poly_add(field: PrimeField, a: Sequence[int], b: Sequence[int]) -> Coeffs:
    size = max(len(a), len(b))
    padded_a = list(a) + [0] * (size - len(a))
    padded_b = list(b) + [0] * (size - len(b))
    return normalize([field.add(x, y) for x, y in zip(padded_a, padded_b)])


def poly_mul(field: PrimeField, a: Sequence[int], b: Sequence[int]) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ca, cb))
    return normalize(out)


def poly_divmod(
    field: PrimeField, numerator: Sequence[int], denominator: Sequence[int]
) -> tuple[Coeffs, Coeffs]:
    """Polynomial division: returns ``(quotient, remainder)``."""
    denom = normalize(denominator)
    if not denom:
        raise ZeroDivisionError("polynomial division by zero")
    remainder = list(normalize(numerator))
    quotient = [0] * max(len(remainder) - len(denom) + 1, 0)
    lead_inv = field.inv(denom[-1])
    while len(remainder) >= len(denom) and any(remainder):
        shift = len(remainder) - len(denom)
        factor = field.mul(remainder[-1], lead_inv)
        if factor == 0:
            remainder.pop()
            continue
        quotient[shift] = factor
        for i, c in enumerate(denom):
            remainder[shift + i] = field.sub(remainder[shift + i], field.mul(c, factor))
        remainder = list(normalize(remainder))
        if not remainder:
            break
    return normalize(quotient), normalize(remainder)
