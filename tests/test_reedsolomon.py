"""Berlekamp-Welch decoding tests: the GVSS recover phase's backbone."""

from __future__ import annotations

import itertools
import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coin.field import PrimeField
from repro.coin.polynomial import (
    evaluate,
    interpolate,
    normalize,
    poly_divmod,
    random_polynomial,
)
from repro.coin.reedsolomon import decode, decode_best_effort
from repro.errors import DecodingError

FIELD = PrimeField(97)


def _codeword(poly, xs):
    return [(x, evaluate(FIELD, poly, x)) for x in xs]


def _corrupt(points, indices, rng):
    corrupted = list(points)
    for index in indices:
        x, y = corrupted[index]
        corrupted[index] = (x, (y + rng.randrange(1, 96)) % 97)
    return corrupted


class TestCleanDecoding:
    def test_no_errors(self):
        rng = random.Random(0)
        poly = random_polynomial(FIELD, 2, rng)
        points = _codeword(poly, range(1, 8))
        assert decode(FIELD, points, 2, 2) == normalize(poly)

    def test_too_few_points_raises(self):
        with pytest.raises(DecodingError):
            decode(FIELD, [(1, 1)], 2, 0)

    def test_duplicate_x_raises(self):
        with pytest.raises(DecodingError):
            decode(FIELD, [(1, 1), (1, 2), (2, 3)], 1, 0)


class TestErrorCorrection:
    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=100),
    )
    def test_corrects_up_to_f_errors(self, error_count, seed):
        """Paper-relevant configuration: n = 3f+1 points, degree f."""
        rng = random.Random(seed)
        f = 3
        n = 3 * f + 1
        poly = random_polynomial(FIELD, f, rng)
        points = _codeword(poly, range(1, n + 1))
        indices = rng.sample(range(n), error_count)
        corrupted = _corrupt(points, indices, rng)
        assert decode(FIELD, corrupted, f, f) == normalize(poly)

    def test_exactly_at_the_bound(self):
        # n = deg + 1 + 2e exactly: the tight case behind f < n/3.
        rng = random.Random(5)
        degree, errors = 2, 2
        poly = random_polynomial(FIELD, degree, rng)
        points = _codeword(poly, range(1, degree + 2 * errors + 2))
        corrupted = _corrupt(points, [0, 3], rng)
        assert decode(FIELD, corrupted, degree, errors) == normalize(poly)

    def test_beyond_budget_fails_or_misdecodes_never_silently(self):
        # With more corruption than the budget, decode must raise — the
        # received word is far from every codeword.
        rng = random.Random(7)
        poly = random_polynomial(FIELD, 2, rng)
        points = _codeword(poly, range(1, 10))
        corrupted = _corrupt(points, list(range(6)), rng)
        with pytest.raises(DecodingError):
            decode(FIELD, corrupted, 2, 1)

    def test_error_budget_capped_by_point_count(self):
        rng = random.Random(8)
        poly = random_polynomial(FIELD, 2, rng)
        points = _codeword(poly, range(1, 6))  # 5 points, deg 2 -> e <= 1
        corrupted = _corrupt(points, [2], rng)
        assert decode(FIELD, corrupted, 2, 5) == normalize(poly)


class TestBestEffort:
    def test_returns_secret_at_zero(self):
        rng = random.Random(1)
        poly = random_polynomial(FIELD, 2, rng, constant_term=55)
        points = _codeword(poly, range(1, 8))
        assert decode_best_effort(FIELD, points, 2, 2) == 55

    def test_fallback_on_garbage(self):
        rng = random.Random(2)
        garbage = [(x, rng.randrange(97)) for x in range(1, 10)]
        value = decode_best_effort(FIELD, garbage, 2, 1, fallback=0)
        # Either decoding legitimately found a close codeword or fell back;
        # both must be deterministic ints in the field.
        assert isinstance(value, int)
        assert 0 <= value < 97

    def test_fallback_value_respected(self):
        # Impossible configuration: fewer points than degree + 1.
        assert decode_best_effort(FIELD, [(1, 1)], 3, 1, fallback=42) == 42


# -- decode against its definition -------------------------------------------


def brute_force_decoder(field, xs, degree):
    """The definition, by enumeration: ``decoder(word, max_errors)`` is the
    unique polynomial of degree <= ``degree`` within ``budget`` of the word
    on ``xs``, or ``DecodingError`` when there is none."""
    codewords = [
        (normalize(coeffs), tuple(evaluate(field, coeffs, x) for x in xs))
        for coeffs in itertools.product(range(field.modulus), repeat=degree + 1)
    ]

    def decoder(word, max_errors):
        budget = min(max_errors, (len(xs) - degree - 1) // 2)
        close = [
            poly
            for poly, values in codewords
            if sum(map(operator.ne, values, word)) <= budget
        ]
        assert len(close) <= 1, "the budget is inside the unique-decoding radius"
        return close[0] if close else DecodingError

    return decoder


def _parent_solve_linear_system(field, matrix, rhs):
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    augmented = [list(row) + [value] for row, value in zip(matrix, rhs)]
    pivot_columns = []
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
        inv = field.inv(augmented[row_index][col])
        augmented[row_index] = [field.mul(v, inv) for v in augmented[row_index]]
        for r in range(rows):
            if r != row_index and augmented[r][col] != 0:
                factor = augmented[r][col]
                augmented[r] = [
                    field.sub(v, field.mul(factor, p))
                    for v, p in zip(augmented[r], augmented[row_index])
                ]
        pivot_columns.append(col)
        row_index += 1
        if row_index == rows:
            break
    for r in range(row_index, rows):
        if augmented[r][cols] != 0 and all(v == 0 for v in augmented[r][:cols]):
            return None
    solution = [0] * cols
    for r, col in enumerate(pivot_columns):
        solution[col] = augmented[r][cols]
    return solution


def _parent_attempt(field, points, degree, errors):
    if errors == 0:
        candidate = interpolate(field, list(points[: degree + 1]))
        if len(candidate) > degree + 1:
            return None
        if all(evaluate(field, candidate, x) == y % field.modulus for x, y in points):
            return candidate
        return None
    num_q = degree + errors + 1
    matrix, rhs = [], []
    for x, y in points:
        x = x % field.modulus
        y = y % field.modulus
        row = [field.pow(x, k) for k in range(num_q)]
        row.extend(field.neg(field.mul(y, field.pow(x, k))) for k in range(errors))
        matrix.append(row)
        rhs.append(field.mul(y, field.pow(x, errors)))
    solution = _parent_solve_linear_system(field, matrix, rhs)
    if solution is None:
        return None
    q_coeffs = normalize(solution[:num_q])
    e_coeffs = normalize(list(solution[num_q:]) + [1])
    quotient, remainder = poly_divmod(field, q_coeffs, e_coeffs)
    if remainder:
        return None
    if len(quotient) > degree + 1:
        return None
    matches = sum(
        1 for x, y in points if evaluate(field, quotient, x) == y % field.modulus
    )
    if matches < len(points) - errors:
        return None
    return quotient


def parent_decode(field, points, degree, max_errors):
    """Frozen copy of ``decode`` as it stood before the optimistic path
    (Berlekamp-Welch at every error count, descending): a second oracle."""
    distinct = {x % field.modulus for x, _ in points}
    if len(distinct) != len(points):
        raise DecodingError("duplicate x coordinates in received shares")
    if len(points) < degree + 1:
        raise DecodingError("too few points")
    budget = min(max_errors, (len(points) - degree - 1) // 2)
    for errors in range(budget, -1, -1):
        candidate = _parent_attempt(field, points, degree, errors)
        if candidate is not None:
            return candidate
    raise DecodingError("no codeword within the budget")


def _outcome(decoder, *args):
    try:
        return decoder(*args)
    except DecodingError:
        return DecodingError


class TestAgainstDefinition:
    @pytest.mark.parametrize(
        "modulus, m, degree",
        # (5, 5, 0) reaches budget 2; m = 5 over GF(5) also makes x = 5 a
        # non-canonical spelling of 0, which decode must reduce.
        [(5, 3, 0), (5, 4, 0), (5, 4, 1), (5, 5, 0), (5, 5, 1), (7, 3, 1), (7, 4, 1)],
    )
    def test_every_word_exhaustively(self, modulus, m, degree):
        """Every received word over the field, every error allowance."""
        field = PrimeField(modulus)
        xs = range(1, m + 1)
        definition = brute_force_decoder(field, xs, degree)
        for max_errors in range((m - degree - 1) // 2 + 2):
            for word in itertools.product(range(modulus), repeat=m):
                points = list(zip(xs, word))
                expected = definition(word, max_errors)
                assert _outcome(decode, field, points, degree, max_errors) == expected
                constant = decode_best_effort(
                    field, points, degree, max_errors, fallback=modulus
                )
                if expected is DecodingError:
                    assert constant == modulus
                else:
                    assert constant == evaluate(field, expected, 0)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_agrees_with_parent_on_garbage(self, seed):
        rng = random.Random(seed)
        degree = rng.randrange(0, 4)
        m = rng.randrange(1, 12)
        xs = rng.sample(range(97), m)
        points = [(x, rng.randrange(97)) for x in xs]
        max_errors = rng.randrange(0, 5)
        assert _outcome(decode, FIELD, points, degree, max_errors) == _outcome(
            parent_decode, FIELD, points, degree, max_errors
        )

    @given(st.integers(min_value=0, max_value=10_000))
    def test_agrees_with_parent_near_codewords(self, seed):
        """Words at distance budget - 1 .. budget + 1 of a codeword: both
        sides of the decoding radius, where an off-by-one would live."""
        rng = random.Random(seed)
        degree = rng.randrange(0, 4)
        m = rng.randrange(degree + 1, degree + 9)
        budget = (m - degree - 1) // 2
        xs = rng.sample(range(1, 97), m)
        poly = random_polynomial(FIELD, degree, rng)
        liars = rng.sample(range(m), min(m, max(0, budget + rng.randrange(-1, 2))))
        points = _corrupt(_codeword(poly, xs), liars, rng)
        assert _outcome(decode, FIELD, points, degree, budget) == _outcome(
            parent_decode, FIELD, points, degree, budget
        )


class TestPaperShape:
    """m = 3f + 1 points, degree f, budget f — the recover round."""

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    def test_f_liars_anywhere(self, f, seed, liars_first):
        """Up to f liars at arbitrary positions — ``liars_first`` puts them
        all inside the first f + 1 points, where the optimistic interpolant
        is wrong and Berlekamp-Welch has to take over."""
        rng = random.Random(seed)
        n = 3 * f + 1
        poly = random_polynomial(FIELD, f, rng)
        count = rng.randrange(f + 1)
        liars = rng.sample(range(f + 1) if liars_first else range(n), count)
        corrupted = _corrupt(_codeword(poly, range(1, n + 1)), liars, rng)
        assert decode(FIELD, corrupted, f, f) == normalize(poly)
        assert decode_best_effort(FIELD, corrupted, f, f, fallback=-1) == (
            evaluate(FIELD, poly, 0)
        )

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_more_than_f_liars_is_never_the_dealt_polynomial(self, f, seed):
        """f + 1 liars: decode raises, or (when the lies happen to land
        within f of *another* codeword) returns that one — never the dealt
        polynomial, and always what the parent's decoder returned."""
        rng = random.Random(seed)
        n = 3 * f + 1
        poly = random_polynomial(FIELD, f, rng)
        liars = rng.sample(range(n), f + 1)
        corrupted = _corrupt(_codeword(poly, range(1, n + 1)), liars, rng)
        outcome = _outcome(decode, FIELD, corrupted, f, f)
        assert outcome != normalize(poly)
        assert outcome == _outcome(parent_decode, FIELD, corrupted, f, f)

    def test_more_than_f_liars_raises(self):
        rng = random.Random(3)
        f, n = 2, 7
        poly = random_polynomial(FIELD, f, rng)
        corrupted = _corrupt(_codeword(poly, range(1, n + 1)), [0, 3, 6], rng)
        with pytest.raises(DecodingError):
            decode(FIELD, corrupted, f, f)
        assert decode_best_effort(FIELD, corrupted, f, f, fallback=42) == 42
