"""Monte Carlo check of the Cramer-Rao relation sigma_theta = 1/sqrt(N F)
for the optimal two-outcome (survival) measurement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import _SurvivalModel, qfi
from .spin import SpinOperator, SpinState

_BISECT_TOL = 1e-12
# Generator.binomial takes the trial count as a signed 64-bit integer
_MAX_TRIALS = 2**63 - 1


@dataclass
class EstimationConfig:
    """One Monte Carlo experiment: `runs` repetitions of N survival trials.

    theta_true must sit strictly inside (0, first |dP/dtheta| peak), away
    from the stationary point of P at 0 where the inversion is singular;
    this is enforced where the estimator runs (crb_report), since the raw
    trial simulation is well defined for any angle.
    """

    psi: SpinState
    generator: SpinOperator
    theta_true: float
    trials_per_run: int
    runs: int
    seed: int

    def __post_init__(self):
        if self.generator.j != self.psi.j:
            raise ValueError("generator does not match the state dimension")
        if not self.generator.is_hermitian():
            raise ValueError("generator must be Hermitian")
        if (
            not isinstance(self.trials_per_run, (int, np.integer))
            or not 100 <= self.trials_per_run <= _MAX_TRIALS
        ):
            raise ValueError(
                f"trials_per_run must be an integer in [100, 2**63 - 1], got {self.trials_per_run!r}"
            )
        if not isinstance(self.runs, (int, np.integer)) or self.runs < 1:
            raise ValueError(f"runs must be a positive integer, got {self.runs!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not (math.isfinite(self.theta_true) and self.theta_true > 0):
            raise ValueError(f"theta_true must be positive and finite, got {self.theta_true!r}")
        self.trials_per_run = int(self.trials_per_run)
        self.runs = int(self.runs)
        self.seed = int(self.seed)


@dataclass
class EstimationResult:
    """Per-run estimates plus the empirical/CRB standard deviations.

    The estimates come from inverting P on the window (0, theta_peak];
    clipped_runs counts the runs whose frequency fell outside the range of
    P there and so were set to an endpoint of the window.
    """

    theta_hats: np.ndarray
    empirical_sigma: float
    crb_sigma: float
    ratio: float
    clipped_runs: int
    theta_peak: float

    def summary_dict(self) -> dict:
        return {
            "empirical_sigma": self.empirical_sigma,
            "crb_sigma": self.crb_sigma,
            "ratio": self.ratio,
            "clipped_runs": self.clipped_runs,
            "theta_peak": self.theta_peak,
        }

    def to_csv(self) -> str:
        lines = ["run,theta_hat"]
        for run, th in enumerate(self.theta_hats):
            lines.append(f"{run},{format(float(th), '.17g')}")
        return "\n".join(lines) + "\n"


def survival_probability(psi: SpinState, g: SpinOperator, theta: float) -> float:
    """P(theta) = |<psi|exp(-i theta G)|psi>|^2, clipped into [0, 1]."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return float(_SurvivalModel(psi, g).evaluate(float(theta))[0][0])


def _run_rng(seed: int, run_index: int) -> np.random.Generator:
    # counter-based streams keyed on (seed, run) make parallel order irrelevant;
    # an explicit uint64 key, since a plain list of a seed near 2**64 passes
    # through float64 and collapses to the key 0
    return np.random.Generator(np.random.Philox(key=np.array([seed, run_index], dtype=np.uint64)))


def simulate_trials(config: EstimationConfig) -> np.ndarray:
    """Count of 'still the original state' projections per run.

    The count of N Bernoulli trials at the true survival probability p is
    Binomial(N, p), so each run makes one binomial draw from its own
    counter-based stream keyed on (seed, run): the work is O(runs) for any
    N, and results are bit-identical regardless of evaluation order.
    """
    p = survival_probability(config.psi, config.generator, config.theta_true)
    counts = np.empty(config.runs, dtype=np.int64)
    for run in range(config.runs):
        counts[run] = _run_rng(config.seed, run).binomial(config.trials_per_run, p)
    return counts


def _invert_monotone(
    model: _SurvivalModel, targets: np.ndarray, bracket: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect all targets at once, each to its own width _BISECT_TOL; targets
    outside the range of P on the bracket clip to the matching endpoint.

    Returns the angles and the mask of clipped targets.  The bisection
    steps every target in lockstep and evaluates P alone, not dP/dtheta.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket!r}")
    grid = np.linspace(lo, hi, 257)
    probs, slopes = model.evaluate(grid)
    scale = float(np.max(np.abs(slopes)))
    if scale == 0.0:
        raise ValueError("degenerate model: P(theta) is flat on the bracket")
    signs = np.sign(slopes[np.abs(slopes) > 1e-13 * scale])
    if signs.size and (signs.max() - signs.min()) > 0:
        raise ValueError("non-monotone bracket: dP/dtheta changes sign inside it")
    increasing = signs[0] > 0 if signs.size else True

    p_min, p_max = (probs[0], probs[-1]) if increasing else (probs[-1], probs[0])
    lows = np.full(targets.shape, lo)
    highs = np.full(targets.shape, hi)
    live = (targets > p_min) & (targets < p_max) & (highs - lows > _BISECT_TOL)
    while live.any():
        mid = 0.5 * (lows + highs)
        # P as evaluate() computes it, without the unused dP/dtheta sum
        p_mid = np.clip(np.abs(model.amplitude(mid)[1]) ** 2, 0.0, 1.0)
        up = (p_mid < targets) == increasing
        lows = np.where(live & up, mid, lows)
        highs = np.where(live & ~up, mid, highs)
        live &= highs - lows > _BISECT_TOL
    theta = 0.5 * (lows + highs)
    above, below = targets >= p_max, targets <= p_min
    theta[above] = hi if increasing else lo
    theta[below] = lo if increasing else hi
    return theta, above | below


def estimate_theta(
    count: int,
    trials: int,
    psi: SpinState,
    g: SpinOperator,
    bracket: tuple[float, float],
) -> float:
    """Invert the survival model at the observed frequency by bisection.

    The bracket must lie where P(theta) is strictly monotone (checked; a
    sign change of dP/dtheta raises).  Frequencies outside the reachable
    range clip to the corresponding bracket endpoint.
    """
    if not 0 <= count <= trials:
        raise ValueError(f"count must lie in [0, {trials}], got {count}")
    theta, _ = _invert_monotone(_SurvivalModel(psi, g), np.array([count / trials]), bracket)
    return float(theta[0])


def crb_report(config: EstimationConfig) -> EstimationResult:
    """Simulate, estimate per run, and compare the spread against 1/sqrt(NF)."""
    if config.runs < 2:
        raise ValueError("need at least 2 runs for a sample standard deviation")
    fisher = qfi(config.psi, config.generator)
    if fisher <= 1e-12:
        raise ValueError("degenerate model: QFI is zero, the bound 1/sqrt(NF) is undefined")
    model = _SurvivalModel(config.psi, config.generator)
    theta_peak = model.first_slope_peak()
    if not 0.0 < config.theta_true < theta_peak:
        raise ValueError(
            f"theta_true = {config.theta_true!r} outside the invertible window (0, {theta_peak!r})"
        )
    counts = simulate_trials(config)
    n = config.trials_per_run
    theta_hats, clipped = _invert_monotone(model, counts / n, (0.0, theta_peak))
    empirical = float(np.std(theta_hats, ddof=1))
    crb = 1.0 / math.sqrt(n * fisher)
    return EstimationResult(
        theta_hats=theta_hats,
        empirical_sigma=empirical,
        crb_sigma=crb,
        ratio=empirical / crb,
        clipped_runs=int(np.count_nonzero(clipped)),
        theta_peak=theta_peak,
    )
