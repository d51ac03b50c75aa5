"""Berlekamp-Welch error-correcting decoding over a prime field.

The GVSS recover phase reconstructs a degree-``f`` secret polynomial from
``m`` broadcast share points of which up to ``f`` may be Byzantine lies.
Unique decoding succeeds whenever ``m >= degree + 1 + 2*errors``; with
``n >= 3f + 1`` nodes, degree ``f`` and at most ``f`` lies, that bound is
exactly met, which is why the paper's resilience is tight.

The classic Berlekamp-Welch linearization: find an error locator
``E(x)`` (monic, degree ``e``) and ``Q(x)`` (degree <= ``deg + e``) with
``Q(x_i) = y_i * E(x_i)`` for every received point.  Whenever the true
error count is at most ``e``, every solution of that linear system
satisfies ``Q = P * E`` for the true polynomial ``P``, so ``P = Q / E``.
"""

from __future__ import annotations

import functools
import operator
from typing import Sequence

from repro.coin.field import PrimeField
from repro.coin.polynomial import (
    Coeffs,
    evaluate_many,
    normalize,
    poly_divmod,
    power_table,
)
from repro.errors import DecodingError

__all__ = ["decode", "decode_best_effort"]


def _dot(weights: Sequence[int], values: Sequence[int], modulus: int) -> int:
    return sum(map(operator.mul, weights, values)) % modulus


@functools.lru_cache(maxsize=256)
def _interpolation_table(
    modulus: int, xs: tuple[int, ...], degree: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Lagrange constants of interpolating through ``xs[:degree + 1]``.

    Returns ``(coefficient_rows, check_rows)``: with ``ys`` the values at
    those first ``degree + 1`` points and ``P`` their interpolant,
    ``_dot(coefficient_rows[k], ys)`` is ``P``'s ``x**k`` coefficient (row 0
    is the weights of ``P(0)``) and ``_dot(check_rows[j], ys)`` is ``P`` at
    the ``j``-th remaining x.  Cached like :func:`power_table`, and for the
    same reason: constants of the code, never node state.
    """
    head, rest = xs[: degree + 1], xs[degree + 1 :]
    master = [1]  # prod (x - b) over the head, ascending coefficients
    for b in head:
        master = [
            (low - b * high) % modulus
            for low, high in zip([0] + master, master + [0])
        ]
    basis = []  # basis[i] = the Lagrange polynomial that is 1 at head[i]
    for b, powers in zip(head, power_table(modulus, head, degree + 1)):
        quotient = [0] * (degree + 1)  # master / (x - b), synthetically
        carry = 0
        for k in range(degree, -1, -1):
            carry = quotient[k] = (master[k + 1] + b * carry) % modulus
        scale = pow(_dot(quotient, powers, modulus), modulus - 2, modulus)
        basis.append([c * scale % modulus for c in quotient])
    return tuple(zip(*basis)), tuple(
        tuple(_dot(polynomial, powers, modulus) for polynomial in basis)
        for powers in power_table(modulus, rest, degree + 1)
    )


def _solve_linear_system(
    field: PrimeField, matrix: list[list[int]], rhs: list[int]
) -> list[int] | None:
    """Gaussian elimination over GF(p); returns one solution or ``None``.

    Under-determined systems return the particular solution with free
    variables set to zero, which is sufficient for Berlekamp-Welch.
    """
    modulus = field.modulus
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    augmented = [list(row) + [value] for row, value in zip(matrix, rhs)]
    pivot_columns: list[int] = []
    row_index = 0
    for col in range(cols):
        pivot_row = next(
            (r for r in range(row_index, rows) if augmented[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        augmented[row_index], augmented[pivot_row] = (
            augmented[pivot_row],
            augmented[row_index],
        )
        inv = pow(augmented[row_index][col], modulus - 2, modulus)
        pivot = augmented[row_index] = [
            v * inv % modulus for v in augmented[row_index]
        ]
        for r in range(rows):
            factor = augmented[r][col]
            if r != row_index and factor != 0:
                augmented[r] = [
                    (v - factor * p) % modulus for v, p in zip(augmented[r], pivot)
                ]
        pivot_columns.append(col)
        row_index += 1
        if row_index == rows:
            break
    # Inconsistent system: a zero row with non-zero rhs.
    for r in range(row_index, rows):
        if augmented[r][cols] != 0 and all(v == 0 for v in augmented[r][:cols]):
            return None
    solution = [0] * cols
    for r, col in enumerate(pivot_columns):
        solution[col] = augmented[r][cols]
    return solution


def _berlekamp_welch(
    field: PrimeField,
    xs: tuple[int, ...],
    ys: list[int],
    degree: int,
    errors: int,
) -> Coeffs | None:
    """The codeword within ``errors >= 1`` corrupted points, if there is one."""
    modulus = field.modulus
    num_q = degree + errors + 1
    powers = power_table(modulus, xs, num_q)
    # Q(x) - y * (e_0 + e_1 x + ... + e_{errors-1} x^{errors-1})
    #   = y * x^errors
    matrix = [
        list(row) + [-y * power % modulus for power in row[:errors]]
        for row, y in zip(powers, ys)
    ]
    rhs = [y * row[errors] % modulus for row, y in zip(powers, ys)]
    solution = _solve_linear_system(field, matrix, rhs)
    if solution is None:
        return None
    q_coeffs = normalize(solution[:num_q])
    e_coeffs = normalize(solution[num_q:] + [1])  # monic locator
    quotient, remainder = poly_divmod(field, q_coeffs, e_coeffs)
    if remainder or len(quotient) > degree + 1:
        return None
    matches = sum(map(operator.eq, evaluate_many(field, quotient, xs), ys))
    return quotient if matches >= len(xs) - errors else None


def _decode(
    field: PrimeField,
    points: Sequence[tuple[int, int]],
    degree: int,
    max_errors: int,
    wanted: int,
) -> Sequence[int]:
    """:func:`decode`, returning only the ``wanted`` lowest coefficients
    (possibly fewer, when the codeword's degree is lower still)."""
    modulus = field.modulus
    xs = tuple(x % modulus for x, _ in points)
    if len(set(xs)) != len(xs):
        raise DecodingError("duplicate x coordinates in received shares")
    if len(xs) < degree + 1:
        raise DecodingError(
            f"need at least {degree + 1} points for degree {degree}, "
            f"got {len(xs)}"
        )
    ys = [y % modulus for _, y in points]
    budget = min(max_errors, (len(xs) - degree - 1) // 2)
    coefficient_rows, check_rows = _interpolation_table(modulus, xs, degree)
    head = ys[: degree + 1]
    misses = sum(
        _dot(weights, head, modulus) != y
        for weights, y in zip(check_rows, ys[degree + 1 :])
    )
    if misses <= budget:
        return [_dot(row, head, modulus) for row in coefficient_rows[:wanted]]
    if budget >= 1:
        codeword = _berlekamp_welch(field, xs, ys, degree, budget)
        if codeword is not None:
            return codeword[:wanted]
    raise DecodingError(
        f"no degree-{degree} polynomial within {budget} errors "
        f"explains {len(xs)} points"
    )


def decode(
    field: PrimeField,
    points: Sequence[tuple[int, int]],
    degree: int,
    max_errors: int,
) -> Coeffs:
    """Decode a degree-``degree`` polynomial from noisy ``points``.

    Returns the codeword within ``budget = min(max_errors, (m - degree -
    1) // 2)`` errors of the ``m`` points, or raises
    :class:`~repro.errors.DecodingError` when there is none.  That codeword
    is unique — two polynomials of degree <= ``degree`` that each miss at
    most ``budget`` of ``m >= degree + 1 + 2 * budget`` points agree on
    ``degree + 1`` of them — so the result does not depend on how it is
    looked for, and it is looked for cheapest-first:

    1. *Optimistically*: interpolate through the first ``degree + 1``
       points (cached Lagrange weights, no elimination) and count how many
       of the rest it misses.  At most ``budget`` misses and it is the
       codeword; this is every fault-free recover, and every recover whose
       liars sit outside those first points.
    2. Otherwise one Berlekamp-Welch elimination at ``errors = budget``.
       Whenever a codeword within ``budget`` exists, *every* solution of
       that system yields it (module docstring), so a failure here means
       none exists and smaller error counts need not be tried: they could
       only return a codeword that is also within ``budget``.
    """
    return normalize(_decode(field, points, degree, max_errors, degree + 1))


def decode_best_effort(
    field: PrimeField,
    points: Sequence[tuple[int, int]],
    degree: int,
    max_errors: int,
    fallback: int = 0,
) -> int:
    """Decode and evaluate at zero, or return ``fallback`` on failure.

    The GVSS recover phase must terminate with *some* deterministic value
    even for garbage dealt by a Byzantine dealer (or too few shares to
    decode at all); honest dealers always decode successfully, so the
    fallback never triggers for them.  Only ``P(0)`` is computed — on the
    optimistic path, one weighted sum of the first ``degree + 1`` shares.
    """
    try:
        constant = _decode(field, points, degree, max_errors, 1)
    except DecodingError:
        return fallback
    return constant[0] if constant else 0
