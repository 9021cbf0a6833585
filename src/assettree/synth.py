"""Synthetic panels and trees with known ground truth.

The return generator is a one-factor model, r_i(t) = beta_i f(t) +
sigma eps_i(t), with every stream drawn from one seeded numpy generator
(PCG64 via default_rng). Draw order is part of the contract: the factor
stream first, then the noise matrix, so a given seed always yields the
same panel. A hub-coupled variant overwrites a day interval with
r_i = gamma r_hub + (1 - gamma) r_i, which condenses the minimum
spanning tree onto the hub once gamma is large enough.

Dates are synthetic consecutive calendar days; return t is stamped
EPOCH + t + 1 days so that a price panel starting at EPOCH reproduces
the same dates through align_and_filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date, timedelta

import numpy as np

from .errors import ConfigurationError
from .ingestion import ReturnPanel

EPOCH = Date(2005, 1, 3)


def _tickers(n: int) -> list[str]:
    return ["V%04d" % i for i in range(n)]


def _dates(n_days: int) -> list[Date]:
    return [EPOCH + timedelta(days=t + 1) for t in range(n_days)]


@dataclass(frozen=True)
class FactorModelParams:
    n_companies: int
    n_days: int
    betas: tuple[float, ...]
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.n_companies < 2:
            raise ConfigurationError("n_companies must be at least 2")
        if self.n_days < 1:
            raise ConfigurationError("n_days must be positive")
        if len(self.betas) != self.n_companies:
            raise ConfigurationError(
                "%d betas for %d companies" % (len(self.betas), self.n_companies)
            )
        if not all(math.isfinite(b) for b in self.betas):
            raise ConfigurationError("betas must be finite")
        if not 0 < self.noise_sigma < math.inf:
            raise ConfigurationError("noise_sigma must be finite and positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative, got %d" % self.seed)


@dataclass(frozen=True)
class HubRegimeParams:
    base: FactorModelParams
    hub_index: int
    gamma: float
    regime_interval: tuple[int, int]

    def __post_init__(self):
        if not 0 <= self.hub_index < self.base.n_companies:
            raise ConfigurationError("hub_index %d out of range" % self.hub_index)
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in [0, 1)")
        start, end = self.regime_interval
        if not 0 <= start < end <= self.base.n_days:
            raise ConfigurationError(
                "regime interval [%d, %d) outside panel of %d days"
                % (start, end, self.base.n_days)
            )


def one_factor_returns(params: FactorModelParams) -> ReturnPanel:
    rng = np.random.default_rng(params.seed)
    factor = rng.standard_normal(params.n_days)
    noise = rng.standard_normal((params.n_companies, params.n_days))
    betas = np.asarray(params.betas, dtype=float)
    returns = betas[:, None] * factor[None, :] + params.noise_sigma * noise
    return ReturnPanel(_tickers(params.n_companies), _dates(params.n_days), returns)


def hub_regime_returns(params: HubRegimeParams) -> ReturnPanel:
    base = one_factor_returns(params.base)
    if params.gamma == 0.0:
        return base
    start, end = params.regime_interval
    hub = params.hub_index
    returns = base.returns.copy()
    window = base.returns[:, start:end]
    coupled = params.gamma * window[hub] + (1.0 - params.gamma) * window
    coupled[hub] = window[hub]
    returns[:, start:end] = coupled
    return ReturnPanel(base.tickers, base.dates, returns)
