"""Shamir secret sharing, univariate and symmetric-bivariate.

Node ids are mapped to evaluation points ``x = id + 1`` (zero is reserved
for the secret).  The verifiable scheme uses a uniformly random *symmetric*
bivariate polynomial ``S(x, y)`` of degree ``f`` in each variable with
``S(0, 0) = secret``; node ``i`` receives the row ``S(x_i, ·)``.  Symmetry
gives the pairwise check ``row_i(x_j) == row_j(x_i)`` that the GVSS
exchange round uses, and the recover phase reconstructs the degree-``f``
zero polynomial ``S(·, 0)`` from the rows' constant terms.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.coin.field import PrimeField
from repro.coin.polynomial import (
    Coeffs,
    evaluate,
    evaluate_many,
    interpolate,
    normalize,
    random_polynomial,
)
from repro.coin.reedsolomon import decode
from repro.errors import ConfigurationError

__all__ = [
    "SymmetricBivariate",
    "node_point",
    "reconstruct",
    "reconstruct_with_errors",
    "share_secret",
]


def node_point(node_id: int) -> int:
    """The field evaluation point assigned to a node id."""
    return node_id + 1


def share_secret(
    field: PrimeField,
    secret: int,
    degree: int,
    node_ids: Sequence[int],
    rng: random.Random,
) -> dict[int, int]:
    """Univariate Shamir sharing: ``{node_id: P(x_id)}`` with ``P(0)=secret``."""
    if len(node_ids) <= degree:
        raise ConfigurationError(
            f"{len(node_ids)} shares cannot reconstruct a degree-{degree} secret"
        )
    poly = random_polynomial(field, degree, rng, constant_term=secret)
    return {i: evaluate(field, poly, node_point(i)) for i in node_ids}


def reconstruct(field: PrimeField, shares: dict[int, int]) -> int:
    """Reconstruct the secret from error-free shares."""
    points = [(node_point(i), v) for i, v in shares.items()]
    return evaluate(field, interpolate(field, points), 0)


def reconstruct_with_errors(
    field: PrimeField, shares: dict[int, int], degree: int, max_errors: int
) -> int:
    """Reconstruct from shares of which up to ``max_errors`` may be wrong."""
    points = [(node_point(i), v) for i, v in shares.items()]
    return evaluate(field, decode(field, points, degree, max_errors), 0)


class SymmetricBivariate:
    """A symmetric bivariate polynomial over GF(p), degree ``f`` per variable.

    Stored as the coefficient matrix ``c[i][j]`` with ``c[i][j] == c[j][i]``;
    ``S(x, y) = sum c[i][j] x^i y^j``.
    """

    def __init__(self, field: PrimeField, coefficients: Sequence[Sequence[int]]):
        self.field = field
        size = len(coefficients)
        rows = [tuple(field.element(v) for v in row) for row in coefficients]
        if any(len(row) != size for row in rows):
            raise ConfigurationError("coefficient matrix must be square")
        for i in range(size):
            for j in range(i + 1, size):
                if rows[i][j] != rows[j][i]:
                    raise ConfigurationError("coefficient matrix must be symmetric")
        self.coefficients = tuple(rows)
        self.degree = size - 1

    @classmethod
    def random(
        cls,
        field: PrimeField,
        secret: int,
        degree: int,
        rng: random.Random,
    ) -> "SymmetricBivariate":
        """Uniform symmetric bivariate with ``S(0,0) = secret``."""
        size = degree + 1
        matrix = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                value = field.random_element(rng)
                matrix[i][j] = value
                matrix[j][i] = value
        matrix[0][0] = field.element(secret)
        return cls(field, matrix)

    def evaluate(self, x: int, y: int) -> int:
        result = 0
        for i, row in enumerate(self.coefficients):
            x_power = self.field.pow(x, i)
            row_value = 0
            for j, c in enumerate(row):
                row_value = self.field.add(
                    row_value, self.field.mul(c, self.field.pow(y, j))
                )
            result = self.field.add(result, self.field.mul(x_power, row_value))
        return result

    def rows(self, node_ids: Sequence[int]) -> list[Coeffs]:
        """The row polynomials ``S(x_node, ·)`` of several nodes at once."""
        xs = tuple(map(node_point, node_ids))
        # A row's y**j coefficient is sum_i c[i][j] x**i — by symmetry,
        # matrix row j read as a polynomial in x: one evaluation of each
        # matrix row at every node point serves all the nodes.
        columns = [evaluate_many(self.field, c, xs) for c in self.coefficients]
        return [normalize(row) for row in zip(*columns)]

    def row(self, node_id: int) -> Coeffs:
        """The row polynomial ``S(x_node, ·)`` as univariate coefficients."""
        return self.rows((node_id,))[0]

    @property
    def secret(self) -> int:
        return self.coefficients[0][0]
