"""The paper's claims as statistics: one-sided bounds with a confidence.

A claim such as "stabilization takes more than B beats with probability
at most p" is checked over N independent seeds: with x of them over B,
:func:`clopper_pearson_upper` bounds the true probability from above
with confidence ``1 - alpha``, exactly (no normal approximation).  A
claim on a mean — of a quantity that stays inside ``[low, high]`` — is
:func:`hoeffding_upper`.  Both hold for any distribution, so a claim
that passes them is a statement, not a tuned threshold.
"""

from __future__ import annotations

import math

__all__ = ["binomial_cdf", "clopper_pearson_upper", "hoeffding_upper"]


def binomial_cdf(successes: int, trials: int, p: float) -> float:
    """``P(X <= successes)`` for ``X ~ Binomial(trials, p)``, summed in
    log space so thousands of trials do not overflow."""
    if p <= 0.0 or successes >= trials:
        return 1.0
    if p >= 1.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(trials + 1)
    return min(1.0, sum(
        math.exp(
            log_n - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
            + i * log_p + (trials - i) * log_q
        )
        for i in range(successes + 1)
    ))


def clopper_pearson_upper(successes: int, trials: int, alpha: float) -> float:
    """The one-sided ``1 - alpha`` Clopper–Pearson upper bound on a
    binomial proportion: the ``p`` at which seeing ``successes`` or fewer
    has probability ``alpha``, by bisection (the tail falls as ``p``
    grows).  Zero successes give ``1 - alpha ** (1 / trials)``."""
    if successes >= trials:
        return 1.0
    low, high = successes / trials, 1.0
    for _ in range(100):
        middle = (low + high) / 2
        if binomial_cdf(successes, trials, middle) > alpha:
            low = middle
        else:
            high = middle
    return high


def hoeffding_upper(
    mean: float, trials: int, alpha: float, low: float, high: float
) -> float:
    """The one-sided ``1 - alpha`` Hoeffding upper bound on the expected
    value of a quantity confined to ``[low, high]``, from the ``mean`` of
    ``trials`` independent draws of it."""
    return mean + (high - low) * math.sqrt(math.log(1 / alpha) / (2 * trials))
