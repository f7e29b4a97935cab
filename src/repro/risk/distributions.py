"""Annualized risk distributions from rated per-event severities.

Each ensemble member is a Poisson event process with a fixed per-event
severity (downtime seconds, loss seconds, penalty dollars).  Over a
horizon the total severity is therefore a *compound Poisson* sum, and
the distributions here fold the whole ensemble into one such sum:

* the number of events of member *i* over horizon ``T`` is
  ``Poisson(rate_i * T)``, so the superposition has intensity
  ``Lambda = T * sum(rate_i)`` and per-event severity drawn from the
  rate-weighted mixture of the members' severities;
* the total-severity distribution is folded on a discretized severity
  grid through the compound-Poisson generating function, by FFT::

      g = irfft(exp(Lambda * (rfft(f, 2n) - 1)), 2n)[:n]

  where ``f`` is the severity mass function on the ``n``-bin grid and
  ``g`` the resulting total mass function; the zero padding to ``2n``
  keeps tail mass from wrapping onto the grid.  It is exact for the
  discretized severities up to rounding (the tests check it against
  the Panjer recursion), with no sampling error;
* members with *infinite* severity (a scenario the design cannot
  survive) contribute an atom at infinity: with combined intensity
  ``Lambda_inf`` the probability that the total stays finite is
  ``exp(-Lambda_inf)``, and quantiles above it are infinite.

For very large ``Lambda`` the fold's mass near zero underflows; there
the central limit theorem is already excellent and the quantiles switch
to the matched normal approximation.  Everything is
deterministic — byte-identical across runs, orderings and worker
counts — which is what lets the CLI diff serial/parallel/cached output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import RiskError
from ..units import PerSecond, Seconds

#: The reported quantiles, as (label, probability) pairs.
PERCENTILES: "Tuple[Tuple[str, float], ...]" = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p95", 0.95),
    ("p99", 0.99),
)

#: Above this Poisson intensity ``exp(-Lambda)`` underflows and the
#: grid fold degenerates; the matched normal approximation takes over
#: (its relative error is ~``1/sqrt(Lambda)`` — negligible here).
NORMAL_APPROX_INTENSITY = 600.0


@dataclass(frozen=True)
class RiskDistribution:
    """Summary of one annualized total-severity distribution."""

    mean: float
    p50: float
    p90: float
    p95: float
    p99: float

    def quantile(self, label: str) -> float:
        value = getattr(self, label, None)
        if value is None:
            raise RiskError(f"unknown quantile {label!r}")
        return float(value)

    def to_dict(self) -> "Dict[str, float]":
        return {
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
        }


def compound_poisson_distribution(
    entries: "Sequence[Tuple[PerSecond, float]]",
    horizon: Seconds,
    bins: int = 2048,
) -> RiskDistribution:
    """Fold ``(rate, per-event severity)`` pairs over a horizon.

    ``entries`` may repeat severities (rates add) and may include
    infinite severities (mass at infinity, see module docstring).
    Zero-severity entries affect nothing but are accepted — an event
    the design fully absorbs is still an event.
    """
    if not horizon > 0:
        raise RiskError(f"risk horizon must be positive, got {horizon!r}")
    if bins < 2:
        raise RiskError(f"severity grid needs >= 2 bins, got {bins}")
    for rate, severity in entries:
        if not rate > 0:
            raise RiskError(f"severity entry has non-positive rate {rate!r}")
        if math.isnan(severity) or severity < 0:
            raise RiskError(f"per-event severity {severity!r} is not >= 0")

    finite = [(r, s) for r, s in entries if math.isfinite(s)]
    lam_inf = sum(r for r, s in entries if not math.isfinite(s)) * horizon
    p_finite = math.exp(-lam_inf)

    lam = sum(r for r, _ in finite) * horizon
    mean_total = horizon * sum(r * s for r, s in finite)
    mean = float("inf") if lam_inf > 0 else mean_total

    quantiles = _finite_quantiles(finite, horizon, lam, mean_total, bins)
    values = {}
    for label, prob in PERCENTILES:
        if prob > p_finite or (prob == p_finite and lam_inf > 0):
            values[label] = float("inf")
        else:
            # Quantile of the full distribution = quantile of the
            # finite part at the conditional probability.
            values[label] = quantiles(min(1.0, prob / p_finite))
    return RiskDistribution(mean=mean, **values)


def empirical_distribution(samples: "np.ndarray") -> RiskDistribution:
    """Summarize Monte Carlo samples with the same quantile convention.

    Quantiles use the inverted-CDF definition (smallest sample with
    empirical CDF >= p) to match the analytic grid search — no
    interpolation, so infinite samples never bleed into finite
    quantiles.
    """
    if samples.size == 0:
        raise RiskError("cannot summarize an empty sample set")
    ordered = np.sort(samples)
    n = ordered.shape[0]
    values = {}
    for label, prob in PERCENTILES:
        index = min(n - 1, max(0, math.ceil(prob * n) - 1))
        values[label] = float(ordered[index])
    finite = ordered[np.isfinite(ordered)]
    if finite.size < n:
        mean = float("inf")
    else:
        mean = float(np.mean(ordered)) if n else 0.0
    return RiskDistribution(mean=mean, **values)


def _finite_quantiles(
    finite: "List[Tuple[PerSecond, float]]",
    horizon: Seconds,
    lam: float,
    mean_total: float,
    bins: int,
):
    """A quantile function for the finite-severity compound sum."""
    positive = [(r, s) for r, s in finite if s > 0]
    if lam == 0 or not positive:
        return lambda prob: 0.0

    second_moment = horizon * sum(r * s * s for r, s in finite)
    if lam > NORMAL_APPROX_INTENSITY:
        sigma = math.sqrt(second_moment)

        def normal_quantile(prob: float) -> float:
            return max(0.0, mean_total + _probit(prob) * sigma)

        return normal_quantile

    max_sev = max(s for _, s in finite)
    # Generous upper edge: mean + 10 sigma of the compound sum plus a
    # few single worst events; mass beyond it is far below 1e-6.
    grid_max = mean_total + 10.0 * math.sqrt(second_moment) + 4.0 * max_sev
    step = grid_max / (bins - 1)
    severity_mass = np.zeros(bins)
    total_rate = sum(r for r, _ in finite)
    for rate, severity in finite:
        index = min(bins - 1, int(round(severity / step)))
        severity_mass[index] += rate / total_rate

    total_mass = _fold(lam, severity_mass)
    cdf = np.cumsum(total_mass)
    grid = np.arange(bins) * step

    def grid_quantile(prob: float) -> float:
        index = int(np.searchsorted(cdf, prob, side="left"))
        if index >= bins:
            return float(grid[-1])
        return float(grid[index])

    return grid_quantile


def _probit(prob: float) -> float:
    """The standard normal quantile (Acklam's approximation).

    Relative error below 1.2e-9 over (0, 1) — far inside the normal
    approximation's own error at the intensities where it is used.
    """
    if not 0 < prob < 1:
        raise RiskError(f"probit needs a probability in (0, 1), got {prob!r}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if prob < p_low:
        q = math.sqrt(-2 * math.log(prob))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if prob > p_high:
        q = math.sqrt(-2 * math.log(1 - prob))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = prob - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


def _fold(lam: float, severity_mass: "np.ndarray") -> "np.ndarray":
    """The compound-Poisson total mass on the grid, by FFT.  Rounding
    can leave masses of about -1e-17; they are clipped at zero so the
    CDF the quantile search bisects never decreases."""
    bins = severity_mass.shape[0]
    spectrum = np.exp(lam * (np.fft.rfft(severity_mass, 2 * bins) - 1.0))
    return np.maximum(np.fft.irfft(spectrum, 2 * bins)[:bins], 0.0)
