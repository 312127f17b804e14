"""Run configuration and derived sampling parameters.

Both parameter profiles run the same estimators and samplers; they differ
only in their constants.

* "practical" scales every trial and sketch count by small calibrated
  constants.  These defaults were tuned with scripts/calibrate_fpras.py so the
  statistical acceptance suite passes at epsilon=0.2, delta=0.1 on desk-scale
  inputs within its time budget.

* "theory" instantiates the guarantee-carrying formulas verbatim, including
  the epsilon clamp, computed in exact rationals.  The resulting counts are
  astronomically large for any nontrivial input, so that profile finishes
  exactly on instances whose estimates never demand a sample (every union of
  derivations is a single product).

Every randomized run records what it did in one RunStats and reports it
through certificate().
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from fractions import Fraction


# Sampler calls allowed per sketch slot before the fill gives up.
FILL_ATTEMPTS = 64


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    epsilon: float = 0.2
    delta: float = 0.1
    seed: int = 0
    profile: str = "practical"
    # Scaling constants for the practical profile.
    c_sketch: int = 64
    c_trials: int = 16
    c_rho: int = 16

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ConfigError("epsilon must lie in (0, 1/2)")
        if not (0.0 < self.delta < 0.5):
            raise ConfigError("delta must lie in (0, 1/2)")
        if self.profile not in ("practical", "theory"):
            raise ConfigError(f"unknown profile {self.profile!r}")
        if min(self.c_sketch, self.c_trials, self.c_rho) < 1:
            raise ConfigError("scaling constants must be at least 1")


@dataclass
class RunStats:
    """Deterministic counters of one run, reported as a certificate's
    `warnings`.  A slice handle's tree sampler, sketch fills, run check and
    completion-NFA counters all bump its engine's one object.

    clamped_accepts       tree draws whose acceptance probability was cut to 1
    sample_failures       failed tree draws while filling a sketch slot
    nfa_clamped           word draws whose acceptance probability was cut to 1
    nfa_walk_caps         word draws stopped by the per-symbol rejection cap
    nfa_exhausted         label sample pools that ran out
    nfa_sampler_failures  failed word draws while filling a word sketch slot
    partition_nfas        completion layouts made; the run check has
                          passed, so none is empty
    partition_unions      completion layouts whose count needed the NFA
                          counter: some state has two live incoming
                          transitions
    pruned_by_run_check   partial trees given weight 0 without a layout
    """

    clamped_accepts: int = 0
    sample_failures: int = 0
    nfa_clamped: int = 0
    nfa_walk_caps: int = 0
    nfa_exhausted: int = 0
    nfa_sampler_failures: int = 0
    partition_nfas: int = 0
    partition_unions: int = 0
    pruned_by_run_check: int = 0

    def __add__(self, other: "RunStats") -> "RunStats":
        return RunStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


def certificate(config: Config, mode: str, stats: RunStats, **extra) -> dict:
    """What a randomized run reports: its mode, the configuration it ran
    under, its counters as `warnings`, then the `extra` fields."""
    return {
        "mode": mode,
        "profile": config.profile,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "seed": config.seed,
        "warnings": asdict(stats),
        **extra,
    }


@dataclass(frozen=True)
class EngineParams:
    """Resolved per-run parameters for the slice estimator.

    alpha        size of each stored sample set per (state, level)
    """

    alpha: int
    nfa: "NfaParams"


@dataclass(frozen=True)
class NfaParams:
    """Resolved parameters for the succinct-NFA counting layer.

    d_trials   per-transition trials for union overlap fractions
    beta       word sketch size per state
    m_rho      trials for the per-frontier failure-rate estimate
    walk_cap   rejection attempts allowed per emitted symbol
    """

    d_trials: int
    beta: int
    m_rho: int
    walk_cap: int


def _theory_nfa_params(
    r: int, eps: float | Fraction, gamma: float | Fraction, log_n_bound: float | Fraction
) -> NfaParams:
    """The succinct-NFA formulas for an NFA of size r whose word sets hold at
    most 2**log_n_bound words, in exact rationals."""
    eps, gamma, log_n_bound = map(Fraction, (eps, gamma, log_n_bound))
    return NfaParams(
        d_trials=math.ceil(gamma * r**5 / eps**2),
        beta=math.ceil(gamma * r**3 / eps**2),
        m_rho=math.ceil(Fraction(math.log2(max(2, log_n_bound / eps))) * gamma * r**10 / eps**2),
        walk_cap=math.ceil(10 * r**4 * Fraction(math.log2(max(2, r * log_n_bound / eps))) * gamma),
    )


def resolve_engine_params(config: Config, n: int, m: int) -> EngineParams:
    if config.profile == "practical":
        return EngineParams(
            alpha=config.c_sketch,
            nfa=NfaParams(
                d_trials=2 * config.c_trials,
                beta=max(8, config.c_sketch // 4),
                m_rho=2 * config.c_rho,
                walk_cap=64 * config.c_rho,
            ),
        )
    # Theory profile: the formulas as stated, in exact rationals, so that the
    # clamped epsilon and the counts stay exact at any n and m.
    nm = n * m
    eps = min(Fraction(config.epsilon), Fraction(1, (4 * nm) ** 18))
    log2_inv_delta = Fraction(math.log2(1.0 / config.delta))
    return EngineParams(
        alpha=math.ceil(log2_inv_delta**2 * nm**13 / eps**5),
        nfa=_theory_nfa_params(
            3 * nm**4,
            min(1, (4 * nm) ** 17 * eps),
            nm**3 * log2_inv_delta,
            nm**2 * Fraction(math.log2(max(2, nm))),
        ),
    )


def resolve_nfa_params(config: Config, r: int, k: int) -> NfaParams:
    """Parameters for counting a standalone succinct NFA of size r at length k."""
    eps = config.epsilon
    if config.profile == "practical":
        return NfaParams(
            d_trials=config.c_trials * math.ceil(1.0 / (eps * eps)),
            beta=max(16, config.c_sketch),
            m_rho=config.c_rho * math.ceil(1.0 / (eps * eps)),
            walk_cap=64 * config.c_rho,
        )
    return _theory_nfa_params(
        r,
        eps,
        math.log2(1.0 / config.delta),
        max(2.0, float(k) * math.log2(max(2, r))),
    )
