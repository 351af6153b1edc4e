"""Monte Carlo demonstration of gain hardening in i.i.d. fading.

As the array grows, the optimally combined gain per antenna concentrates
to E[|h|] times the perimeter constant of the feasible set, for any
circularly symmetric i.i.d. channel distribution.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds, solver
from .sets import DEFAULT_RESOLUTION, FeasibleSet

DISTRIBUTIONS = ("gaussian", "constant_modulus")


@dataclass(frozen=True)
class FadingConfig:
    fset: FeasibleSet
    n_list: tuple
    trials: int
    seed: int
    distribution: str = "gaussian"
    sigma: float = 1.0  # per-sample amplitude scale; gaussian variance is sigma^2
    resolution: int = DEFAULT_RESOLUTION  # hull samples of a continuous set

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        n_list = tuple(int(n) for n in self.n_list)
        if any(b <= a for a, b in zip(n_list, n_list[1:])) or not n_list:
            raise ValueError("n_list must be non-empty and strictly increasing")
        object.__setattr__(self, "n_list", n_list)


@dataclass(frozen=True)
class FadingRecord:
    N: int
    mean_normalized_gain: float
    std_normalized_gain: float
    target: float
    mean_ratio_to_ideal: float
    p_norm_estimates: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "mean_normalized_gain": self.mean_normalized_gain,
            "std_normalized_gain": self.std_normalized_gain,
            "target": self.target,
            "mean_ratio_to_ideal": self.mean_ratio_to_ideal,
            "p_norm_estimates": {str(p): v for p, v in self.p_norm_estimates.items()},
        }


def sample_channel(cfg: FadingConfig, N: int, trial: int) -> solver.PhasorChannel:
    """Deterministic i.i.d. draw keyed by (seed, N, trial)."""
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(N, trial))
    rng = np.random.default_rng(seq)
    if cfg.distribution == "gaussian":
        h = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / math.sqrt(2.0)
    else:
        h = np.exp(2j * math.pi * rng.random(N))
    return solver.PhasorChannel(cfg.sigma * h)


def expected_modulus(cfg: FadingConfig) -> float:
    """E[|h|]: sigma for constant modulus, sigma*sqrt(pi)/2 for Gaussian."""
    if cfg.distribution == "constant_modulus":
        return cfg.sigma
    return cfg.sigma * math.sqrt(math.pi) / 2.0


def _run_trial(args):
    cfg, N, trial = args
    ch = sample_channel(cfg, N, trial)
    sol = solver.solve_angle_sweep(ch, cfg.fset, resolution=cfg.resolution)
    return sol.gain, sol.ideal_gain, sol.ratio


def convergence_experiment(cfg: FadingConfig, workers: int = 1):
    """Solve `trials` channels per N and aggregate g_W / N statistics.

    Returns (records, rows) where rows are the per-trial
    (N, trial, gain, ideal_gain, ratio) tuples in deterministic order.
    """
    tasks = [(cfg, N, trial) for N in cfg.n_list for trial in range(cfg.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, tasks, chunksize=8))
    else:
        results = [_run_trial(t) for t in tasks]

    constant = bounds.best_constant(cfg.fset, cfg.resolution)
    target = expected_modulus(cfg) * constant
    records = []
    rows = []
    i = 0
    for N in cfg.n_list:
        gains = np.empty(cfg.trials)
        ratios = np.empty(cfg.trials)
        for trial in range(cfg.trials):
            gain, ideal, ratio = results[i]
            gains[trial] = gain
            ratios[trial] = ratio
            rows.append((N, trial, gain, ideal, ratio))
            i += 1
        norm = gains / N
        records.append(FadingRecord(
            N=N,
            mean_normalized_gain=float(norm.mean()),
            std_normalized_gain=float(norm.std()),
            target=target,
            mean_ratio_to_ideal=float(ratios.mean()),
            p_norm_estimates={1: float(norm.mean()), 2: float((norm ** 2).mean())},
        ))
    return records, rows
