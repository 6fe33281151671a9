"""The probabilistic deviance framework of Section 5 and Appendix E.1.

For a query with candidate plans P_1..P_n whose execution costs C_E(P_i) are
random in the environment E, define for a model M selecting plan P_M:

    D_E(M) = C_E(P_M) - C_E(P_Mo),        P_Mo = argmin_i C_e(P_i)

Theorem 1:  E[D(M)] >= E[D(M_b)] >= E[D(M_o)] = 0  for every model M that
cannot foresee the environment, where M_b selects the plan of minimum
*expected* cost.

Appendix E.1 machinery implemented here:

* execution costs are modelled as log-normal (validated by a KS test,
  Figure 15), with parameters fitted by MLE over repeated executions;
* the minimum cost C* over the non-selected candidates has the
  order-statistic density of Lemma 1,
  ``f_{C*}(x) = sum_i f_i(x) prod_{j != i} (1 - F_j(x))``;
* ``E[D(M)] = E[(C_sel - C*)^+]`` is evaluated by numerical integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# numpy 2.0 renamed trapz to trapezoid; support both.
_trapz = getattr(np, "trapezoid", None) or np.trapz


def _stats():
    """``scipy.stats``, imported on first use: it costs ~0.8 s and ~70 MB of
    resident memory, and ``import repro`` reaches this module in every
    serving process, none of which evaluates a normal CDF."""
    from scipy import stats

    return stats

__all__ = [
    "LogNormalCost",
    "fit_lognormal",
    "kolmogorov_smirnov_pvalue",
    "min_cost_pdf",
    "expected_minimum",
    "expected_deviance",
    "DevianceReport",
    "DevianceEstimator",
]


@dataclass(frozen=True)
class LogNormalCost:
    """Cost distribution of one plan: ``log C ~ Normal(mu, sigma)``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def mean(self) -> float:
        return float(np.exp(self.mu + 0.5 * self.sigma**2))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        positive = x > 0
        xp = x[positive]
        out[positive] = np.exp(-((np.log(xp) - self.mu) ** 2) / (2.0 * self.sigma**2)) / (
            xp * self.sigma * np.sqrt(2.0 * np.pi)
        )
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        positive = x > 0
        out[positive] = _stats().norm.cdf((np.log(x[positive]) - self.mu) / self.sigma)
        return out

    def ppf(self, q: float) -> float:
        return float(np.exp(self.mu + self.sigma * _stats().norm.ppf(q)))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)


def fit_lognormal(samples: np.ndarray) -> LogNormalCost:
    """Maximum-likelihood fit of a two-parameter log-normal."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise ValueError("need at least 2 samples to fit a log-normal")
    if np.any(samples <= 0):
        raise ValueError("log-normal samples must be positive")
    logs = np.log(samples)
    return LogNormalCost(mu=float(logs.mean()), sigma=float(max(logs.std(ddof=1), 1e-9)))


def kolmogorov_smirnov_pvalue(samples: np.ndarray, dist: LogNormalCost | None = None) -> float:
    """KS test of samples against a (fitted) log-normal — the validation the
    paper runs on recurring MaxCompute queries (average p-value ~0.6)."""
    samples = np.asarray(samples, dtype=np.float64)
    dist = dist or fit_lognormal(samples)
    result = _stats().kstest(np.log(samples), "norm", args=(dist.mu, dist.sigma))
    return float(result.pvalue)


# -- order statistics over candidate sets ---------------------------------------


def _shared_grid(dists: list[LogNormalCost], n_grid: int) -> np.ndarray:
    lo = min(d.ppf(1e-5) for d in dists)
    hi = max(d.ppf(1.0 - 1e-5) for d in dists)
    return np.exp(np.linspace(np.log(max(lo, 1e-12)), np.log(hi), n_grid))


def min_cost_pdf(dists: list[LogNormalCost], grid: np.ndarray) -> np.ndarray:
    """Lemma 1: density of ``min_i C_i`` for independent candidate costs."""
    if not dists:
        raise ValueError("need at least one distribution")
    pdfs = np.array([d.pdf(grid) for d in dists])
    survivals = np.array([1.0 - d.cdf(grid) for d in dists])
    out = np.zeros_like(grid)
    for i in range(len(dists)):
        others = np.prod(np.delete(survivals, i, axis=0), axis=0) if len(dists) > 1 else 1.0
        out += pdfs[i] * others
    return out


def expected_minimum(dists: list[LogNormalCost], *, n_grid: int = 2048) -> float:
    """E[min_i C_i] — the oracle model's expected cost."""
    if len(dists) == 1:
        return dists[0].mean
    grid = _shared_grid(dists, n_grid)
    pdf = min_cost_pdf(dists, grid)
    return float(_trapz(grid * pdf, grid))


def expected_deviance(
    selected: LogNormalCost,
    others: list[LogNormalCost],
    *,
    n_grid: int = 2048,
) -> float:
    """E[D] = E[(X - Y)^+] with X the selected plan's cost and Y the minimum
    over the other candidates (independent), per Appendix E.1.

    Uses the identity  E[(X - Y)^+] = ∫ f_X(x) (x F_Y(x) - PE_Y(x)) dx
    where PE_Y(x) = E[Y · 1{Y <= x}], evaluated on one shared grid.
    """
    if not others:
        return 0.0
    grid = _shared_grid([selected, *others], n_grid)
    f_x = selected.pdf(grid)
    f_y = min_cost_pdf(others, grid)
    # Cumulative quantities of Y on the grid (trapezoidal increments).
    dx = np.diff(grid)
    inc_mass = 0.5 * (f_y[1:] + f_y[:-1]) * dx
    inc_partial = 0.5 * (grid[1:] * f_y[1:] + grid[:-1] * f_y[:-1]) * dx
    cdf_y = np.concatenate([[0.0], np.cumsum(inc_mass)])
    partial_y = np.concatenate([[0.0], np.cumsum(inc_partial)])
    inner = grid * cdf_y - partial_y  # E[(x - Y)^+] for each grid point x
    return float(max(0.0, _trapz(f_x * inner, grid)))


# -- end-to-end estimation (Appendix E.1, practical part) -------------------------


@dataclass
class DevianceReport:
    """Deviance diagnostics of one query's candidate set."""

    distributions: list[LogNormalCost]
    oracle_cost: float  # E[min over all candidates]
    per_plan_deviance: list[float]  # E[D] if the model always picks plan i
    best_achievable_index: int  # M_b's selection (min expected cost)

    @property
    def best_achievable_deviance(self) -> float:
        return self.per_plan_deviance[self.best_achievable_index]

    def relative_deviance_of(self, index: int) -> float:
        return self.per_plan_deviance[index] / max(self.oracle_cost, 1e-12)

    @property
    def best_achievable_relative_deviance(self) -> float:
        return self.relative_deviance_of(self.best_achievable_index)

    def improvement_space(self, default_index: int) -> float:
        """D(M_d) normalized by the oracle cost — the per-query improvement
        space that drives project selection (Section 6)."""
        return self.relative_deviance_of(default_index)


class DevianceEstimator:
    """Fits candidate cost distributions from repeated executions and
    evaluates the deviance of any selection rule (Appendix E.1)."""

    def __init__(self, *, n_samples: int = 12, n_grid: int = 2048) -> None:
        if n_samples < 2:
            raise ValueError("need at least 2 executions per plan to fit costs")
        self.n_samples = n_samples
        self.n_grid = n_grid

    def fit_plan_costs(self, sample_costs: list[np.ndarray]) -> list[LogNormalCost]:
        return [fit_lognormal(samples) for samples in sample_costs]

    def report(self, dists: list[LogNormalCost]) -> DevianceReport:
        if not dists:
            raise ValueError("need at least one candidate distribution")
        per_plan = [
            expected_deviance(dist, [d for j, d in enumerate(dists) if j != i], n_grid=self.n_grid)
            for i, dist in enumerate(dists)
        ]
        return DevianceReport(
            distributions=dists,
            oracle_cost=expected_minimum(dists, n_grid=self.n_grid),
            per_plan_deviance=per_plan,
            best_achievable_index=int(np.argmin([d.mean for d in dists])),
        )

    def report_from_samples(self, sample_costs: list[np.ndarray]) -> DevianceReport:
        return self.report(self.fit_plan_costs(sample_costs))
