"""Two-sample t statistics without a scipy dependency.

The test is Welch's unequal-variance t-test with the
Welch-Satterthwaite degrees of freedom. The two-sided p-value comes from the
identity

    p = I_x(df/2, 1/2),  x = df / (df + t^2)

where I is the regularized incomplete beta function, evaluated here with a
continued fraction (modified Lentz). The continued fraction converges to
near machine precision for the parameter ranges a t-test can produce; tests
pin it against high-precision numeric integration of the t density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

_CF_EPS = 3e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 500


class DegenerateInputError(ValueError):
    """Raised when a t-test is requested for inputs it cannot describe."""


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    degrees_freedom: float
    p_value: float


def _off_zero(value: float) -> float:
    """*value*, or a tiny positive stand-in when it is nearly zero."""
    return _CF_TINY if abs(value) < _CF_TINY else value


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Evaluate the continued fraction for the incomplete beta function.

    Modified Lentz iteration; see Numerical Recipes-style treatments. Valid
    for x < (a + 1) / (a + b + 2), which the caller guarantees.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _off_zero(1.0 + numerator * d)
        c = _off_zero(1.0 + numerator / c)
        h *= d * c
        # odd step
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _off_zero(1.0 + numerator * d)
        c = _off_zero(1.0 + numerator / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Compute I_x(a, b) for finite a, b > 0 and 0 <= x <= 1."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"beta parameters must be positive and finite, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Use the symmetric form whose continued fraction converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def two_sided_p_value(t_stat: float, degrees_freedom: float) -> float:
    """P(|T| >= |t|) for T distributed as Student's t."""
    if not 0 < degrees_freedom < math.inf:
        raise ValueError(
            f"degrees of freedom must be positive and finite, got {degrees_freedom}")
    if math.isnan(t_stat):
        raise ValueError("t statistic is NaN")
    x = degrees_freedom / (degrees_freedom + t_stat * t_stat)
    return regularized_incomplete_beta(degrees_freedom / 2.0, 0.5, x)


def _mean_and_sample_variance(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, variance


def welch_t_test(xs: Sequence[float], ys: Sequence[float]) -> TTestResult:
    """Welch's two-sided unequal-variance t-test of mean(xs) - mean(ys),
    with Welch-Satterthwaite degrees of freedom.

    Raises :class:`DegenerateInputError` if either sample has fewer than two
    observations or both sample variances are zero.
    """
    n1, n2 = len(xs), len(ys)
    if n1 < 2 or n2 < 2:
        raise DegenerateInputError(
            f"each sample needs at least two observations (got {n1} and {n2})"
        )
    mean1, var1 = _mean_and_sample_variance([float(v) for v in xs])
    mean2, var2 = _mean_and_sample_variance([float(v) for v in ys])
    if var1 == 0.0 and var2 == 0.0:
        raise DegenerateInputError("both samples have zero variance")

    se1 = var1 / n1
    se2 = var2 / n2
    standard_error = math.sqrt(se1 + se2)
    df = (se1 + se2) ** 2 / (se1 ** 2 / (n1 - 1) + se2 ** 2 / (n2 - 1))

    t_stat = (mean1 - mean2) / standard_error
    return TTestResult(
        t_stat=t_stat,
        degrees_freedom=df,
        p_value=two_sided_p_value(t_stat, df),
    )
