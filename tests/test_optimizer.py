import math
import re

import numpy as np
import pytest

from campaignsim import optimizer
from campaignsim.channels import ChannelPlan, PlanError, build_augmented
from campaignsim.estimator import estimate_spread
from campaignsim.fixtures import ce_toy, preference_shift
from campaignsim.optimizer import (
    _STALL_ITERATIONS,
    CEConfig,
    CostModel,
    CrossEntropyState,
    InfeasiblePlanError,
    _initial_state,
    best_response_loop,
    ce_optimize,
    sample_plan,
)
from campaignsim.rng import derive_seed

UNIT = CostModel()


def quick_config(**kw):
    base = dict(n_samples=6, max_iterations=2, replications=200, tol=1e-9)
    base.update(kw)
    return CEConfig(**base)


def check_every_sample(monkeypatch):
    """Wrap optimizer.sample_plan so every plan it draws must fit its budget;
    returns the list of drawn plans."""
    real, sampled = optimizer.sample_plan, []

    def checked(state, cost_model, gamma, *args):
        plan = real(state, cost_model, gamma, *args)
        assert UNIT.plan_cost(plan) <= gamma + 1e-9
        sampled.append(plan)
        return plan

    monkeypatch.setattr(optimizer, "sample_plan", checked)
    return sampled


def test_counts_are_integers_not_bools():
    # True is an Integral, but as a count it is a flag passed by mistake;
    # the config and the estimator reject it alike, before any sampling
    for name in ("n_samples", "max_iterations", "replications", "workers"):
        with pytest.raises(ValueError, match=name):
            CEConfig(**{name: True})
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    with pytest.raises(ValueError, match="workers"):
        estimate_spread(aug, products, 10, 1, workers=True)
    with pytest.raises(ValueError, match="replications"):
        estimate_spread(aug, products, True, 1)


def test_plan_cost_arithmetic():
    plan = ChannelPlan(product=0, seeds=frozenset({1, 2, 3}), alpha=0.5, beta=(0.3, 0.2))
    assert UNIT.plan_cost(plan) == pytest.approx(4.0)
    weighted = CostModel(seed_unit_cost=2.0, alpha_unit_cost=0.5, beta_unit_cost=4.0)
    assert weighted.plan_cost(plan) == pytest.approx(6.0 + 0.25 + 2.0)


def test_sampled_plans_always_fit_the_budget():
    candidates = list(range(6))
    gamma = 3.0
    state = _initial_state(candidates, UNIT, gamma, horizon=2)
    rng = np.random.default_rng(2)
    for _ in range(500):
        plan = sample_plan(state, UNIT, gamma, 0, candidates, rng)
        assert UNIT.plan_cost(plan) <= gamma + 1e-9


def test_oversized_continuous_draws_scale_exactly_to_budget():
    state = CrossEntropyState(
        seed_probs=np.zeros(3),
        alpha_mean=50.0,
        alpha_std=1.0,
        beta_mean=np.full(2, 50.0),
        beta_std=np.full(2, 1.0),
    )
    rng = np.random.default_rng(1)
    gamma = 2.0
    for _ in range(50):
        plan = sample_plan(state, UNIT, gamma, 0, [0, 1, 2], rng)
        assert plan.seeds == frozenset()
        # the scale-down lands exactly on the budget
        assert UNIT.plan_cost(plan) == pytest.approx(gamma, abs=1e-9)


def test_unaffordable_seed_distribution_is_infeasible():
    state = CrossEntropyState(
        seed_probs=np.ones(5),
        alpha_mean=0.1,
        alpha_std=0.01,
        beta_mean=np.zeros(1),
        beta_std=np.zeros(1),
    )
    rng = np.random.default_rng(0)
    with pytest.raises(InfeasiblePlanError):
        sample_plan(state, UNIT, 2.0, 0, list(range(5)), rng)


def test_the_start_fits_the_budget():
    # the expected seed cost of a first sample, c * sum(p0), is within the budget
    for n in (1, 5, 100, 995, 10_000):
        for gamma in (0.0, 0.5, 1.0, 3.0, 1e4):
            for c in (0.25, 1.0, 7.0):
                state = _initial_state(list(range(n)), CostModel(seed_unit_cost=c), gamma, horizon=1)
                assert c * state.seed_probs.sum() <= gamma * (1 + 1e-12), (n, gamma, c)


def test_a_large_network_at_a_small_budget_starts(monkeypatch):
    # 995 candidates against product 1's plan: at budget 1 a sample may hold
    # one seed, so the search must start near one expected seed, not ten
    from test_seeded_outputs import _synth

    net, products, plans = _synth(1)
    rival = [p for p in plans if p.product == 1]
    config = CEConfig(n_samples=20, max_iterations=1, replications=8)
    sampled = check_every_sample(monkeypatch)
    for gamma in (1.0, 3.0):
        res = ce_optimize(net, products, 0, rival, UNIT, gamma, config, 1)
        assert UNIT.plan_cost(res.best_plan) <= gamma + 1e-9
    assert len(sampled) == 2 * 20


def test_cost_model_rejects_bad_unit_costs():
    for name in ("seed_unit_cost", "alpha_unit_cost", "beta_unit_cost"):
        for bad in (-1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                CostModel(**{name: bad})
    free = CostModel(seed_unit_cost=0.0, alpha_unit_cost=0.0, beta_unit_cost=0.0)
    assert free.plan_cost(ChannelPlan(product=0, seeds=frozenset({1}), alpha=1.0, beta=(1.0,))) == 0.0


def test_ce_config_rejects_out_of_range_fields():
    bad = {
        "n_samples": (0, -5, 2.5, 6.0),
        "elite_frac": (0.0, -0.1, 1.5, math.nan),
        "smoothing": (-0.1, 1.5, 5.0, math.nan),
        "max_iterations": (0, -1, 2.5),
        "tol": (-1e-3, math.inf, math.nan),
        "replications": (0, -10, 100.5),
        "workers": (0, -2, 2.5),
        "best_response_tol": (-1.0, math.inf, math.nan),
    }
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=name):
                CEConfig(**{name: value})
    # the estimator checks its worker count the same way
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    for value in bad["workers"]:
        with pytest.raises(ValueError, match="workers"):
            estimate_spread(aug, products, 10, 1, workers=value)
    # the edges of every range are accepted
    CEConfig(n_samples=1, elite_frac=1.0, smoothing=0.0, max_iterations=1, tol=0.0,
             replications=1, best_response_tol=0.0)
    CEConfig(smoothing=1.0)


def test_negative_budget_is_infeasible():
    net, products, _ = preference_shift()
    for gamma in (-1.0, math.inf, math.nan):
        with pytest.raises(InfeasiblePlanError):
            ce_optimize(net, products, 0, [], UNIT, gamma, quick_config(), 1, horizon=2)


def test_negative_horizon_is_rejected():
    net, products, _ = preference_shift()
    with pytest.raises(ValueError, match="horizon"):
        ce_optimize(net, products, 0, [], UNIT, 1.0, quick_config(), 1, horizon=-1)
    with pytest.raises(ValueError, match="horizon"):
        best_response_loop(net, products, [UNIT, UNIT], [1.0, 1.0], 1, quick_config(), 1, horizon=-2)
    # no media steps is a valid campaign
    res = ce_optimize(net, products, 0, [], UNIT, 1.0, quick_config(), 1, horizon=0)
    assert res.best_plan.beta == ()


def test_zero_budget_returns_the_empty_plan():
    net, products, _ = preference_shift()
    res = ce_optimize(net, products, 0, [], UNIT, 0.0, quick_config(), 3, horizon=2)
    assert res.best_plan.seeds == frozenset()
    assert res.best_plan.alpha == 0.0
    assert res.best_plan.beta == (0.0, 0.0)
    # every real node keeps threshold > 0 while roots alone provide nothing
    assert res.best_value == 0.0


def test_horizon_required_without_competitors():
    net, products, _ = preference_shift()
    with pytest.raises(ValueError, match="horizon"):
        ce_optimize(net, products, 0, [], UNIT, 1.0, quick_config(), 1)


def test_a_horizon_unlike_the_competitor_plans_is_rejected_before_sampling(monkeypatch):
    net, products, plans = preference_shift()
    rival = [p for p in plans if p.product == 1]  # horizon 2
    monkeypatch.setattr(optimizer, "sample_plan", lambda *a, **kw: pytest.fail("sampled"))
    with pytest.raises(ValueError, match="horizon 3 differs from the competitor plans' horizon 2"):
        ce_optimize(net, products, 0, rival, UNIT, 1.0, quick_config(), 1, horizon=3)


def test_an_unknown_focal_product_is_rejected_before_sampling(monkeypatch):
    net, products, horizon = ce_toy()
    monkeypatch.setattr(optimizer, "sample_plan", lambda *a, **kw: pytest.fail("sampled"))
    with pytest.raises(ValueError, match=re.escape("focal product 7 is not among the products [0]")):
        ce_optimize(net, products, 7, [], UNIT, 2.0, quick_config(), 1, horizon=horizon)


def test_focal_product_must_not_have_a_competitor_plan():
    net, products, _ = preference_shift()
    fixed = [ChannelPlan(product=0, beta=(0.0, 0.0))]
    with pytest.raises(PlanError, match="already cover"):
        ce_optimize(net, products, 0, fixed, UNIT, 1.0, quick_config(), 1)


def test_competitor_seeds_are_excluded_from_candidates():
    net, products, _ = preference_shift()
    fixed = [ChannelPlan(product=1, seeds=frozenset({1, 3}), beta=(0.0, 0.0))]
    res = ce_optimize(net, products, 0, fixed, UNIT, 5.0, quick_config(max_iterations=3), 5)
    assert not (res.best_plan.seeds & {1, 3})


def test_best_value_trace_is_non_decreasing_and_feasible(monkeypatch):
    net, products, _ = preference_shift()
    gamma = 2.0
    sampled = check_every_sample(monkeypatch)
    res = ce_optimize(net, products, 0, [], UNIT, gamma, quick_config(max_iterations=4), 11, horizon=2)
    bests = [row["best_value"] for row in res.trace]
    assert bests == sorted(bests)
    assert res.evaluations == len(res.trace) * 6 == len(sampled)
    assert UNIT.plan_cost(res.best_plan) <= gamma + 1e-9


def test_same_seed_reproduces_the_run_exactly():
    net, products, _ = preference_shift()
    a = ce_optimize(net, products, 0, [], UNIT, 2.0, quick_config(), 42, horizon=2)
    b = ce_optimize(net, products, 0, [], UNIT, 2.0, quick_config(), 42, horizon=2)
    assert a.best_plan == b.best_plan
    assert a.best_value == b.best_value
    assert a.trace == b.trace


def test_worker_count_does_not_change_the_optimize(monkeypatch):
    import campaignsim.estimator as estimator

    # 1,500 replications put two samples in a kernel call; with workers=2 an
    # iteration's six samples go out as four (two calls, on threads) and two
    # (one call, on the calling thread)
    pools = []
    real_pool = estimator.ThreadPoolExecutor
    monkeypatch.setattr(estimator, "ThreadPoolExecutor", lambda **kw: pools.append(kw) or real_pool(**kw))
    net, products, _ = preference_shift()
    runs = [
        ce_optimize(net, products, 0, [], UNIT, 2.0, quick_config(replications=1500, workers=w), 42, horizon=2)
        for w in (1, 2)
    ]
    assert pools == [{"max_workers": 2}] * 2
    a, b = runs
    assert (a.best_plan, a.best_value, a.trace, a.evaluations) == (b.best_plan, b.best_value, b.trace, b.evaluations)


def test_an_iteration_estimates_its_samples_a_kernel_call_at_a_time(monkeypatch):
    # 1,500 replications fit two samples in a 4,096-row call: each estimate
    # takes at most two samples, and holds at most that many networks
    batches = []
    real = optimizer.estimate_spreads

    def recording(pairs, *args, **kwargs):
        batches.append(len(pairs))
        return real(pairs, *args, **kwargs)

    monkeypatch.setattr(optimizer, "estimate_spreads", recording)
    net, products, _ = preference_shift()
    res = ce_optimize(net, products, 0, [], UNIT, 2.0, quick_config(n_samples=5, replications=1500), 42, horizon=2)
    assert batches == [2, 2, 1] * 2 and res.evaluations == 10
    batches.clear()
    ce_optimize(net, products, 0, [], UNIT, 2.0, quick_config(n_samples=5, replications=5000), 42, horizon=2)
    assert batches == [1] * 10  # more than a call's rows: one sample at a time, as alone


def test_pure_refit_matches_elite_statistics_exactly():
    # smoothing 1 and one iteration: the final state must equal the refit of
    # the elite set, which we reconstruct through the public seeding scheme
    net, products, _ = preference_shift()
    seed = 77
    config = quick_config(n_samples=6, max_iterations=1, smoothing=1.0, elite_frac=0.35)
    gamma = 3.0
    res = ce_optimize(net, products, 0, [], UNIT, gamma, config, seed, horizon=2)

    fixed = [ChannelPlan(product=1, beta=(0.0, 0.0))]
    candidates = [0, 1, 2, 3, 4]
    state0 = _initial_state(candidates, UNIT, gamma, 2)
    scored = []
    for s in range(6):
        rng = np.random.default_rng(derive_seed(seed, 1, s))
        plan = sample_plan(state0, UNIT, gamma, 0, candidates, rng)
        aug = build_augmented(net, products, fixed + [plan])
        value = estimate_spread(aug, products, 200, derive_seed(seed, 7001, s)).mean_of(0)
        scored.append((value, s, plan))
    scored.sort(key=lambda t: (-t[0], t[1]))
    elite = scored[: math.ceil(0.35 * 6)]
    freq = np.array([
        sum(1.0 for _, _, p in elite if c in p.seeds) / len(elite) for c in candidates
    ])
    alphas = [p.alpha for _, _, p in elite]
    assert np.array_equal(res.state.seed_probs, freq)
    assert res.state.alpha_mean == pytest.approx(float(np.mean(alphas)), abs=1e-12)
    assert res.best_value == max(v for v, _, _ in scored)


def test_best_response_single_product_equals_direct_optimization():
    net, products, _ = preference_shift()
    single = [products[0]]
    config = quick_config()
    br = best_response_loop(net, single, [UNIT], [2.0], 1, config, 9, horizon=2)
    direct = ce_optimize(net, single, 0, [], UNIT, 2.0, config, derive_seed(9, 0, 0), horizon=2)
    assert br.plans[0] == direct.best_plan
    assert br.values[0] == direct.best_value
    assert br.rounds_run == 1


def test_best_response_validates_arguments():
    net, products, _ = preference_shift()
    with pytest.raises(ValueError, match="rounds"):
        best_response_loop(net, products, [UNIT, UNIT], [1.0, 1.0], 0, quick_config(), 1, horizon=2)
    with pytest.raises(ValueError, match="match the product list"):
        best_response_loop(net, products, [UNIT], [1.0, 1.0], 1, quick_config(), 1, horizon=2)


def test_best_response_runs_and_reports_history():
    net, products, _ = preference_shift()
    res = best_response_loop(
        net, products, [UNIT, UNIT], [1.5, 1.5], 2, quick_config(), 13, horizon=2
    )
    assert 1 <= res.rounds_run <= 2
    assert len(res.history) == res.rounds_run
    assert all(len(h["values"]) == 2 for h in res.history)
    assert all(v >= 0.0 for v in res.values)
    # seed sets stay disjoint across the final plans
    assert not (res.plans[0].seeds & res.plans[1].seeds)


def test_best_response_stops_once_a_round_moves_no_value_beyond_the_tolerance():
    # the first round has no earlier values to compare with, so any
    # tolerance stops the loop after the second round at the earliest
    net, products, _ = preference_shift()
    config = quick_config(best_response_tol=1e9)
    res = best_response_loop(net, products, [UNIT, UNIT], [1.5, 1.5], 3, config, 13, horizon=2)
    assert res.rounds_run == 2
    assert len(res.history) == 2
    assert len(res.stop_reasons) == 2


def test_stalled_elite_threshold_stops_the_loop():
    # every real node bought at the first iteration's best plan: the elite
    # threshold sits at the maximum, 5.0, from then on
    net, products, horizon = ce_toy()
    config = quick_config(max_iterations=30)
    res = ce_optimize(net, products, 0, [], UNIT, 2.0, config, 3, horizon=horizon)
    assert res.stop_reason == "stalled"
    assert len(res.trace) == _STALL_ITERATIONS + 1 == 6
    assert res.evaluations == 6 * config.n_samples
    thresholds = [row["elite_threshold"] for row in res.trace]
    assert max(thresholds) - min(thresholds) <= config.tol
    assert res.best_value == 5.0
    # with 5 iterations the rule cannot fire; the run is the same up to there
    short = ce_optimize(net, products, 0, [], UNIT, 2.0, quick_config(max_iterations=5), 3, horizon=horizon)
    assert short.stop_reason == "max_iterations"
    assert short.trace == res.trace[:5]
    assert short.best_plan == res.best_plan


def test_moving_elite_threshold_runs_to_max_iterations():
    # against a rival plan, 50 replications leave Monte Carlo noise in every
    # iteration's elite threshold
    net, products, plans = preference_shift()
    rival = [p for p in plans if p.product == 1]
    res = ce_optimize(net, products, 0, rival, UNIT, 2.0, quick_config(max_iterations=12, replications=50), 0)
    assert res.stop_reason == "max_iterations"
    assert len(res.trace) == 12
    thresholds = [row["elite_threshold"] for row in res.trace]
    assert max(thresholds[-_STALL_ITERATIONS - 1:]) - min(thresholds[-_STALL_ITERATIONS - 1:]) > 0.01
    # a tolerance larger than any parameter move stops after one iteration
    loose = ce_optimize(net, products, 0, rival, UNIT, 2.0, quick_config(max_iterations=12, tol=10.0), 0)
    assert loose.stop_reason == "converged"
    assert len(loose.trace) == 1


def test_plateau_below_the_best_value_does_not_stall(monkeypatch):
    # every estimate reads 1.0 except the very first, 2.0: the elite threshold
    # holds at 1.0, but below the best value, so the loop keeps sampling
    values = iter([2.0])

    class Flat:
        def __init__(self, value):
            self.value = value

        def mean_of(self, product):
            return self.value

    monkeypatch.setattr(
        optimizer, "estimate_spreads", lambda pairs, *a, **kw: [Flat(next(values, 1.0)) for _ in pairs]
    )
    net, products, horizon = ce_toy()
    res = ce_optimize(net, products, 0, [], UNIT, 2.0, quick_config(max_iterations=10), 3, horizon=horizon)
    assert [row["elite_threshold"] for row in res.trace[2:]] == [1.0] * 8
    assert res.best_value == 2.0
    assert res.stop_reason == "max_iterations"
    assert len(res.trace) == 10
