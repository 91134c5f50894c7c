import math

import numpy as np
import pytest

from spinsense import (
    EstimationConfig,
    RotationAxis,
    SpinJ,
    SpinOperator,
    axis_generator,
    basis_state,
    build_spin_operators,
    crb_report,
    estimate_theta,
    noon_state,
    rotation_unitary,
    simulate_trials,
    survival_probability,
)
from spinsense import estimation, metrics
from spinsense.estimation import _BISECT_TOL, _invert_monotone
from spinsense.metrics import _SurvivalModel, qfi
from helpers import random_state

J2 = SpinJ(4)
JZ = build_spin_operators(J2).jz


def _noon_config(**overrides):
    defaults = dict(
        psi=noon_state(J2),
        generator=JZ,
        theta_true=0.05,
        trials_per_run=100_000,
        runs=200,
        seed=42,
    )
    defaults.update(overrides)
    return EstimationConfig(**defaults)


def test_survival_at_zero_is_one():
    assert survival_probability(noon_state(J2), JZ, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_survival_noon_closed_form():
    for theta in (0.05, 0.2, 0.7):
        expected = math.cos(2.0 * theta) ** 2
        assert survival_probability(noon_state(J2), JZ, theta) == pytest.approx(expected, abs=1e-13)
        # dense cross-check through the explicit rotation matrix
        u = rotation_unitary(J2, theta, RotationAxis.z())
        psi = noon_state(J2)
        dense = abs(np.vdot(psi.amplitudes, u.matrix @ psi.amplitudes)) ** 2
        assert dense == pytest.approx(expected, abs=1e-12)


def test_survival_eigenstate_is_flat():
    psi = basis_state(J2, 2)
    for theta in (0.0, 0.3, 2.0):
        assert survival_probability(psi, JZ, theta) == pytest.approx(1.0, abs=1e-14)


def test_simulate_trials_deterministic_and_order_free():
    cfg = _noon_config(runs=8, trials_per_run=1000)
    counts = simulate_trials(cfg)
    assert np.array_equal(counts, simulate_trials(cfg))
    # each run stream depends only on (seed, run index), not on the batch
    solo = simulate_trials(_noon_config(runs=1, trials_per_run=1000))
    assert counts[0] == solo[0]


def test_simulate_trials_extreme_probabilities():
    cfg = _noon_config(psi=basis_state(J2, 2), runs=3, trials_per_run=500)
    assert np.array_equal(simulate_trials(cfg), [500, 500, 500])
    # survival hits zero at theta = pi/4 for the balanced extremal state
    cfg0 = _noon_config(theta_true=math.pi / 4.0, runs=3, trials_per_run=500)
    assert np.array_equal(simulate_trials(cfg0), [0, 0, 0])


def test_simulate_trials_concentration():
    cfg = _noon_config(runs=1)
    p = math.cos(0.1) ** 2
    count = simulate_trials(cfg)[0]
    n = cfg.trials_per_run
    sigma = math.sqrt(n * p * (1.0 - p))
    assert abs(count - n * p) < 5.0 * sigma


def test_estimate_theta_inversion_consistency():
    # pick the frequency first so count/N equals P(theta) exactly
    count, n = 99_003, 100_000
    theta = math.acos(math.sqrt(count / n)) / 2.0
    est = estimate_theta(count, n, noon_state(J2), JZ, (0.0, 0.39))
    assert est == pytest.approx(theta, abs=1e-10)


def test_estimate_theta_clips_at_bracket():
    # frequency 1 exceeds every interior P on a decreasing branch
    est = estimate_theta(100, 100, noon_state(J2), JZ, (0.0, 0.39))
    assert est == 0.0
    est = estimate_theta(0, 100, noon_state(J2), JZ, (0.0, 0.39))
    assert est == 0.39


def test_estimate_theta_closed_form_inverse():
    count, n = 99_003, 100_000
    est = estimate_theta(count, n, noon_state(J2), JZ, (0.0, 0.39))
    assert est == pytest.approx(math.acos(math.sqrt(count / n)) / 2.0, abs=1e-10)


def test_estimate_theta_rejects_non_monotone_bracket():
    # P' changes sign at pi/4 for the J=2 extremal state
    with pytest.raises(ValueError, match="monotone"):
        estimate_theta(50, 100, noon_state(J2), JZ, (0.0, 1.2))


def test_estimate_theta_count_range():
    with pytest.raises(ValueError):
        estimate_theta(101, 100, noon_state(J2), JZ, (0.0, 0.39))


def test_config_validation():
    with pytest.raises(ValueError):
        _noon_config(trials_per_run=50)
    # Generator.binomial takes N as a signed 64-bit integer
    assert _noon_config(trials_per_run=2**63 - 1).trials_per_run == 2**63 - 1
    with pytest.raises(ValueError, match="trials_per_run"):
        _noon_config(trials_per_run=2**63)
    with pytest.raises(ValueError):
        _noon_config(runs=0)
    with pytest.raises(ValueError):
        _noon_config(seed=-1)
    with pytest.raises(ValueError):
        _noon_config(theta_true=0.0)
    with pytest.raises(ValueError):
        _noon_config(generator=build_spin_operators(SpinJ(2)).jz)


def test_crb_report_saturates_bound():
    result = crb_report(_noon_config())
    assert result.crb_sigma == pytest.approx(7.905694150420947e-4, rel=1e-12)
    assert 0.9 <= result.ratio <= 1.1
    # binomial efficiency of the optimal measurement: the sample ratio
    # concentrates around 1 like 1/sqrt(2 runs)
    assert abs(result.ratio - 1.0) <= 3.0 / math.sqrt(2.0 * 200)
    assert result.theta_hats.shape == (200,)


def test_crb_report_deterministic():
    a = crb_report(_noon_config())
    b = crb_report(_noon_config())
    assert np.array_equal(a.theta_hats, b.theta_hats)
    assert a.empirical_sigma == b.empirical_sigma


def test_crb_report_matches_per_count_estimates():
    rng = np.random.default_rng(71)
    j = SpinJ(5)
    psi = random_state(j, rng)
    g = axis_generator(j, RotationAxis.from_vector(rng.normal(size=3)))
    peak = _SurvivalModel(psi, g).first_slope_peak()
    configs = [
        _noon_config(),
        _noon_config(psi=psi, generator=g, theta_true=0.4 * peak, trials_per_run=1000, runs=50),
    ]
    for cfg in configs:
        bracket = (0.0, _SurvivalModel(cfg.psi, cfg.generator).first_slope_peak())
        n = cfg.trials_per_run
        one_by_one = [estimate_theta(c, n, cfg.psi, cfg.generator, bracket) for c in simulate_trials(cfg)]
        assert np.array_equal(crb_report(cfg).theta_hats, one_by_one)


def test_crb_report_rejects_degenerate_model():
    with pytest.raises(ValueError, match="degenerate"):
        crb_report(_noon_config(psi=basis_state(J2, 2)))


def test_crb_report_rejects_theta_outside_window():
    # the first slope peak for cos^2(2 theta) sits at pi/8
    with pytest.raises(ValueError, match="window"):
        crb_report(_noon_config(theta_true=0.6))


def test_crb_sigma_scales_with_trials():
    a = crb_report(_noon_config(runs=2, trials_per_run=10_000))
    b = crb_report(_noon_config(runs=2, trials_per_run=20_000))
    assert a.crb_sigma / b.crb_sigma == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_result_exports():
    result = crb_report(_noon_config(runs=4, trials_per_run=1000))
    csv = result.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "run,theta_hat"
    assert len(lines) == 5
    run, value = lines[1].split(",")
    assert run == "0"
    assert float(value) == result.theta_hats[0]
    summary = result.summary_dict()
    assert set(summary) == {"empirical_sigma", "crb_sigma", "ratio", "clipped_runs", "theta_peak"}
    assert summary["ratio"] == result.empirical_sigma / result.crb_sigma
    assert summary["clipped_runs"] == result.clipped_runs
    assert summary["theta_peak"] == result.theta_peak


def test_simulate_trials_is_one_binomial_draw_per_run_stream():
    cfg = _noon_config(runs=16, trials_per_run=12_345, seed=2024)
    p = survival_probability(cfg.psi, cfg.generator, cfg.theta_true)
    expected = [
        np.random.Generator(np.random.Philox(key=[cfg.seed, r])).binomial(cfg.trials_per_run, p)
        for r in range(cfg.runs)
    ]
    assert simulate_trials(cfg).tolist() == expected


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1])
def test_simulate_trials_matches_fresh_philox_streams(seed, monkeypatch):
    # simulate_trials resets one Philox to each (seed, run) start state instead
    # of building a generator per run; this fails if numpy's state layout moves
    for p in (0.0, 1e-9, 0.3, 0.5, 0.99, 1.0):
        monkeypatch.setattr("spinsense.estimation.survival_probability", lambda *_: p)
        for n in (100, 10**5, 2**62):
            expected = [
                np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64))).binomial(n, p)
                for r in range(64)
            ]
            got = simulate_trials(_noon_config(runs=64, trials_per_run=n, seed=seed))
            assert got.tolist() == expected, (p, n)


def test_simulate_trials_prefix_is_stable():
    for runs in (1, 5, 64):
        short = simulate_trials(_noon_config(runs=runs, seed=7))
        long = simulate_trials(_noon_config(runs=runs + 7, seed=7))
        assert np.array_equal(short, long[:runs])


def test_simulate_trials_distinct_streams_near_the_top_seed():
    # keys near 2**64 must not round through float64 onto one shared key
    draws = [simulate_trials(_noon_config(runs=4, trials_per_run=10**9, seed=s)).tolist()
             for s in (2**64 - 1, 2**64 - 3, 0)]
    assert draws[0] != draws[1] and draws[0] != draws[2] and draws[1] != draws[2]


def test_simulate_trials_binomial_moments():
    # cos^2(2 theta) = 0.7 for the J = 2 extremal state under Jz
    theta = math.acos(math.sqrt(0.7)) / 2.0
    cfg = _noon_config(theta_true=theta, trials_per_run=1000, runs=4000, seed=5)
    p = survival_probability(cfg.psi, cfg.generator, theta)
    assert p == pytest.approx(0.7, abs=1e-12)
    counts = simulate_trials(cfg)
    n, runs = cfg.trials_per_run, cfg.runs
    var = n * p * (1.0 - p)
    assert abs(counts.mean() - n * p) <= 5.0 * math.sqrt(var / runs)
    # the sample variance has relative spread about sqrt(2 / (runs - 1))
    assert abs(counts.var(ddof=1) / var - 1.0) <= 5.0 * math.sqrt(2.0 / (runs - 1))


def _scalar_inversion(model, target, lo, hi):
    """One target at a time by bisection: the reference for the lockstep inversion."""
    p_lo, p_hi = model.evaluate(lo)[0][0], model.evaluate(hi)[0][0]
    increasing = p_hi > p_lo
    if target >= max(p_lo, p_hi):
        return (hi if increasing else lo), True
    if target <= min(p_lo, p_hi):
        return (lo if increasing else hi), True
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if (model.evaluate(mid)[0][0] < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), False


def test_invert_monotone_equals_scalar_bisection():
    rng = np.random.default_rng(2024)
    j = SpinJ(7)
    random_model = _SurvivalModel(
        random_state(j, rng), axis_generator(j, RotationAxis.from_vector(rng.normal(size=3)))
    )
    for model, hi in ((_SurvivalModel(noon_state(J2), JZ), 0.39), (random_model, None)):
        hi = model.first_slope_peak() if hi is None else hi
        ends = model.evaluate(np.array([0.0, hi]))[0]
        p_min, p_max = float(ends.min()), float(ends.max())
        targets = np.concatenate(
            [
                rng.uniform(p_min, p_max, size=40),
                [p_min, p_max, p_min - 1e-3, p_max + 1e-3, -0.5, 1.5],
                [np.nextafter(p_min, 1.0), np.nextafter(p_max, 0.0)],
            ]
        )
        theta, clipped = _invert_monotone(model, targets, (0.0, hi))
        reference = [_scalar_inversion(model, t, 0.0, hi) for t in targets]
        # both stop within _BISECT_TOL of one sign change of the computed P
        assert np.all(np.abs(theta - [r[0] for r in reference]) <= _BISECT_TOL)
        assert np.array_equal(clipped, [r[1] for r in reference])
        assert np.count_nonzero(clipped) == 6
        # certificate: P - t changes sign across [theta - tol, theta + tol]
        uniform, found = targets[:40], theta[:40]
        below = model.evaluate(found - _BISECT_TOL)[0] - uniform
        above = model.evaluate(found + _BISECT_TOL)[0] - uniform
        assert np.all(below * above < 0.0)


def test_crb_report_counts_clipped_runs():
    result = crb_report(_noon_config())
    assert result.clipped_runs == 0
    assert result.theta_peak == _SurvivalModel(noon_state(J2), JZ).first_slope_peak()
    # at 100 trials and P(0.05) = 0.990, about a third of the runs see no decay
    # (frequency 1 = P(0)) and clip to 0
    small = crb_report(_noon_config(trials_per_run=100, runs=50))
    assert small.clipped_runs == np.count_nonzero(small.theta_hats == 0.0)
    assert 0 < small.clipped_runs < 50


def test_crb_report_at_a_trillion_trials():
    n = 10**12
    result = crb_report(_noon_config(trials_per_run=n, runs=3))
    assert result.crb_sigma == 1.0 / math.sqrt(n * qfi(noon_state(J2), JZ))
    assert result.clipped_runs == 0
    assert np.all(np.abs(result.theta_hats - 0.05) < 1e-5)


def _count_evaluations(monkeypatch) -> list[int]:
    calls = [0]
    evaluate = _SurvivalModel.evaluate

    def counting(self, theta):
        calls[0] += 1
        return evaluate(self, theta)

    monkeypatch.setattr(_SurvivalModel, "evaluate", counting)
    return calls


def test_invert_monotone_step_count(monkeypatch):
    model = _SurvivalModel(noon_state(J2), JZ)
    peak = model.first_slope_peak()
    cfg = _noon_config()
    targets = simulate_trials(cfg) / cfg.trials_per_run
    ends = model.evaluate(np.array([0.0, peak]))[0]
    p_min, p_max = float(ends.min()), float(ends.max())
    cell = peak / 256.0
    cap = 2 * math.ceil(math.log2(cell / _BISECT_TOL)) + 4
    calls = _count_evaluations(monkeypatch)
    _invert_monotone(model, targets, (0.0, peak))
    # one evaluation tabulates the grid, then one per lockstep step
    assert calls[0] - 1 <= 6
    for t in (np.nextafter(p_max, 0.0), p_max - 1e-15, p_min + 1e-15):
        calls[0] = 0
        theta, clipped = _invert_monotone(model, np.array([t]), (0.0, peak))
        assert not clipped[0]
        assert calls[0] - 1 <= cap, (t, calls[0])
        ref, _ = _scalar_inversion(model, t, 0.0, peak)
        assert abs(theta[0] - ref) <= _BISECT_TOL


class _Budgeted:
    """A survival model whose dP/dtheta is off by `factor`, and which fails
    past `budget` evaluations, so an inversion that never stops fails
    instead of hanging."""

    def __init__(self, model, factor, budget):
        self.model, self.factor, self.budget, self.calls = model, factor, budget, 0

    def evaluate(self, theta):
        self.calls += 1
        assert self.calls <= self.budget, "evaluation budget exceeded"
        p, dp = self.model.evaluate(theta)
        return p, self.factor * dp


@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_invert_monotone_keeps_its_cap_under_wrong_slopes(factor):
    # slopes 1e6 times too steep make every Newton step a closing step that
    # misses; 1e6 times too flat throw every Newton step out of the bracket
    model = _SurvivalModel(noon_state(J2), JZ)
    peak = model.first_slope_peak()
    cap = 2 * math.ceil(math.log2(peak / 256.0 / _BISECT_TOL)) + 4
    targets = np.linspace(0.55, 0.99, 9)
    wrong = _Budgeted(model, factor, 1 + cap)
    theta, clipped = _invert_monotone(wrong, targets, (0.0, peak))
    assert not clipped.any()
    reference = [_scalar_inversion(model, t, 0.0, peak)[0] for t in targets]
    assert np.all(np.abs(theta - reference) <= _BISECT_TOL)


def test_invert_monotone_stops_where_floats_are_coarser_than_the_tolerance():
    # about 1e-5 Jz the invertible window reaches theta ~ 4e4, where adjacent
    # floats are 7e-12 apart: no bracket there is _BISECT_TOL wide
    g = SpinOperator(J2, 1e-5 * np.asarray(JZ.matrix), "small")
    model = _SurvivalModel(noon_state(J2), g)
    peak = model.first_slope_peak()
    theta, clipped = _invert_monotone(_Budgeted(model, 1.0, 200), np.array([0.7, 0.9]), (0.0, peak))
    assert not clipped.any()
    exact = np.arccos(np.sqrt([0.7, 0.9])) / 2e-5
    assert np.all(np.abs(theta - exact) <= 1e-9)


def test_crb_report_builds_one_survival_model_and_draws_simulate_trials(monkeypatch):
    built = []
    drawn = []

    class Counting(_SurvivalModel):
        def __init__(self, psi, g):
            built.append(g.label)
            super().__init__(psi, g)

    draw = estimation._draw_counts

    def recording(config, p):
        drawn.append(draw(config, p))
        return drawn[-1]

    monkeypatch.setattr(metrics, "_SurvivalModel", Counting)
    monkeypatch.setattr(estimation, "_SurvivalModel", Counting)
    monkeypatch.setattr(estimation, "_draw_counts", recording)
    cfg = _noon_config()
    crb_report(cfg)
    assert len(built) == 1
    assert len(drawn) == 1
    monkeypatch.undo()
    assert np.array_equal(drawn[0], simulate_trials(cfg))
