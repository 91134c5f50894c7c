"""Monte Carlo check of the Cramer-Rao relation sigma_theta = 1/sqrt(N F)
for the optimal two-outcome (survival) measurement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import _SurvivalModel, qfi
from .spin import SpinOperator, SpinState, _frozen, _integer

_BISECT_TOL = 1e-12
# angles of the table that brackets every target of _invert_monotone
_GRID_POINTS = 257
# Generator.binomial takes the trial count as a signed 64-bit integer
_MAX_TRIALS = 2**63 - 1


@dataclass(frozen=True)
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
        for name in ("trials_per_run", "runs", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if not 100 <= self.trials_per_run <= _MAX_TRIALS:
            raise ValueError(
                f"trials_per_run must be an integer in [100, 2**63 - 1], got {self.trials_per_run!r}"
            )
        if self.runs < 1:
            raise ValueError(f"runs must be a positive integer, got {self.runs!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if (
            isinstance(self.theta_true, (bool, np.bool_))
            or not math.isfinite(self.theta_true)
            or not self.theta_true > 0
        ):
            raise ValueError(f"theta_true must be positive and finite, got {self.theta_true!r}")
        object.__setattr__(self, "theta_true", float(self.theta_true))


@dataclass(frozen=True)
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


def simulate_trials(config: EstimationConfig) -> np.ndarray:
    """Count of 'still the original state' projections per run.

    The count of N Bernoulli trials at the true survival probability p is
    Binomial(N, p), so each run makes one binomial draw from its own
    counter-based stream keyed on (seed, run): the work is O(runs) for any
    N, and results are bit-identical regardless of evaluation order.
    """
    return _draw_counts(config, survival_probability(config.psi, config.generator, config.theta_true))


def _draw_counts(config: EstimationConfig, p: float) -> np.ndarray:
    """One Binomial(trials_per_run, p) draw per run, from the run's own stream.

    One Philox generator serves every run: before each draw its state is
    reset to what ``Philox(key=[seed, run])`` starts from (counter 0, an
    empty buffer), which is far cheaper than constructing a new generator.
    The state is built once from plain Python ints, and each run only sets
    the second key word: the state setter casts every value straight to
    uint64, so a seed near 2**64 keeps all its bits.  (The ``Philox(key=...)``
    constructor is different: it needs an explicit uint64 array, since there
    a plain list holding such a seed passes through float64 and collapses to
    the key 0.)  test_simulate_trials_matches_fresh_philox_streams fails if
    numpy changes this state layout.
    """
    bits = np.random.Philox(0)  # its state is replaced before each draw
    gen = np.random.Generator(bits)
    key = [config.seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    counts = np.empty(config.runs, dtype=np.int64)
    for run in range(config.runs):
        key[1] = run
        bits.state = state
        counts[run] = gen.binomial(config.trials_per_run, p)
    return counts


def _invert_monotone(
    model: _SurvivalModel, targets: np.ndarray, bracket: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Invert P at every target at once; targets outside the range of P on
    the bracket clip to the matching endpoint.

    Returns the angles and the mask of clipped targets.  The bracket is
    tabulated on _GRID_POINTS angles, and each unclipped target starts in
    the grid cell where q = +-(P - t), signed to increase with theta, first
    reaches 0, so q(low) < 0 <= q(high) on computed values.  All targets
    then step in lockstep, one evaluation of P and dP/dtheta per step for
    the targets still live (a safeguarded Newton iteration, Numerical
    Recipes 9.4 rtsafe):

    - the first step evaluates the cell's false-position point;
    - each later step takes the Newton step from the last point when it
      lands strictly inside the bracket, and bisects otherwise;
    - a Newton step shorter than _BISECT_TOL/2 is replaced by one of
      _BISECT_TOL/2 across the root, so the bracket closes;
    - from the third step on, steps go in pairs, and the second step of a
      pair that has not halved the bracket bisects (once per target it
      may close the bracket instead).

    Every pair but one per target halves the bracket, so from a cell of
    width w no target takes more than 2 * ceil(log2(w / _BISECT_TOL)) + 4
    steps.  Each target stops once its bracket is at most _BISECT_TOL wide,
    or holds no float strictly inside (at angles whose float spacing
    exceeds _BISECT_TOL), and returns the bracket's midpoint.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got {bracket!r}")
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket!r}")
    grid = np.linspace(lo, hi, _GRID_POINTS)
    probs, slopes = model.evaluate(grid)
    scale = float(np.max(np.abs(slopes)))
    if scale == 0.0:
        raise ValueError("degenerate model: P(theta) is flat on the bracket")
    signs = np.sign(slopes[np.abs(slopes) > 1e-13 * scale])
    if signs.size and (signs.max() - signs.min()) > 0:
        raise ValueError("non-monotone bracket: dP/dtheta changes sign inside it")
    increasing = signs[0] > 0 if signs.size else True

    p_min, p_max = (probs[0], probs[-1]) if increasing else (probs[-1], probs[0])
    above, below = targets >= p_max, targets <= p_min
    theta = np.where(above, hi if increasing else lo, lo if increasing else hi)
    live = np.flatnonzero((targets > p_min) & (targets < p_max))
    if live.size:
        sign = 1.0 if increasing else -1.0
        theta[live] = _newton_lockstep(model, sign, sign * targets[live], grid, sign * probs)
    return theta, above | below


def _newton_lockstep(
    model: _SurvivalModel, sign: float, t: np.ndarray, grid: np.ndarray, q_grid: np.ndarray
) -> np.ndarray:
    """The lockstep iteration of _invert_monotone for targets t strictly
    inside the range of q_grid = sign * P on the grid, which q_grid's
    running maximum orders."""
    cell = np.searchsorted(np.maximum.accumulate(q_grid), t)
    lows, highs = grid[cell - 1], grid[cell]
    q_low, q_high = q_grid[cell - 1] - t, q_grid[cell] - t
    x = lows + (highs - lows) * (q_low / (q_low - q_high))
    x = np.where((lows < x) & (x < highs), x, 0.5 * (lows + highs))
    theta = np.empty(t.shape)
    rows = np.arange(t.size)
    half = 0.5 * _BISECT_TOL
    pair_start = highs - lows
    may_close = np.ones(t.shape, dtype=bool)
    step = 0
    while True:
        step += 1
        p, dp = model.evaluate(x)
        q = sign * p - t
        rising = q < 0.0
        lows = np.where(rising, x, lows)
        highs = np.where(rising, highs, x)
        width = highs - lows
        mid = 0.5 * (lows + highs)
        done = (width <= _BISECT_TOL) | (mid <= lows) | (mid >= highs)
        if done.any():
            theta[rows[done]] = mid[done]
            keep = ~done
            if not keep.any():
                return theta
            rows, t, x, q, dp, rising = rows[keep], t[keep], x[keep], q[keep], dp[keep], rising[keep]
            lows, highs, width, mid = lows[keep], highs[keep], width[keep], mid[keep]
            pair_start, may_close = pair_start[keep], may_close[keep]
        with np.errstate(divide="ignore", invalid="ignore"):
            move = -q / (sign * dp)
        close = np.abs(move) < half
        move = np.where(close, np.where(rising, half, -half), move)
        nxt = x + move
        inside = (lows < nxt) & (nxt < highs)
        # the step about to be taken is step + 1; pairs are (3, 4), (5, 6), ...
        if step >= 3 and step % 2 == 1:
            guarded = width > 0.5 * pair_start
            closing = guarded & close & may_close
            may_close &= ~closing
            inside &= ~guarded | closing
        else:
            pair_start = width
        x = np.where(inside, nxt, mid)


def estimate_theta(
    count: int,
    trials: int,
    psi: SpinState,
    g: SpinOperator,
    bracket: tuple[float, float],
) -> float:
    """Invert the survival model at the observed frequency (_invert_monotone).

    The bracket must lie where P(theta) is strictly monotone (checked; a
    sign change of dP/dtheta raises).  Frequencies outside the reachable
    range clip to the corresponding bracket endpoint.
    """
    _integer(count, "count")
    _integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
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
    # the draw probability of simulate_trials, from the model already built
    counts = _draw_counts(config, float(model.evaluate(float(config.theta_true))[0][0]))
    n = config.trials_per_run
    theta_hats, clipped = _invert_monotone(model, counts / n, (0.0, theta_peak))
    empirical = float(np.std(theta_hats, ddof=1))
    crb = 1.0 / math.sqrt(n * fisher)
    return EstimationResult(
        theta_hats=_frozen(theta_hats),
        empirical_sigma=empirical,
        crb_sigma=crb,
        ratio=empirical / crb,
        clipped_runs=int(np.count_nonzero(clipped)),
        theta_peak=theta_peak,
    )
