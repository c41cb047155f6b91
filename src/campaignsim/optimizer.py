"""Budget allocation by cross-entropy search plus a best-response loop.

A candidate plan is sampled from independent Bernoulli inclusion
probabilities over seed nodes and truncated-at-zero normals for the
continuous alpha/beta budgets.  The search starts every candidate at seed
probability min(0.5, budget / (seed cost * candidates)), so the expected
seed cost of a first sample never exceeds the budget.  A seed set whose
cost alone exceeds the budget is redrawn, at most 100 times (``_SEED_DRAWS``);
the continuous part is then scaled down uniformly so the total cost never
exceeds the budget.  An iteration scores its samples as one array of focal
means in sample order, ranks it with ties broken by sample index, keeps the
top elite fraction, and refits and smooths every parameter by one rule:
smoothing * (fit to the elites) + (1 - smoothing) * (previous value).  The
returned plan is the best ever evaluated (the earliest, among equals), not
the last distribution mode.

The loop stops at the first of three tests (``CEResult.stop_reason``):

- ``"converged"``: no parameter moved by ``tol`` or more in the update, or
  the distribution has collapsed (entropy plus standard deviations < ``tol``);
- ``"stalled"``: the elite threshold (the worst elite's value) has held
  within ``tol`` for ``_STALL_ITERATIONS`` iterations, the textbook CE rule
  (de Boer, Kroese, Mannor & Rubinstein 2005), and sits within ``tol`` of
  the best value evaluated.  On such a plateau the elites are random picks
  among plans as good as the best, so the parameters keep moving although
  no iteration finds anything better.  Like any CE stopping rule this is a
  heuristic: a better plan the distribution rarely samples can be missed.
  Estimates with Monte Carlo noise well above ``tol`` keep the threshold
  moving, so on noisy instances the rule does not fire;
- ``"max_iterations"``: neither fired within ``max_iterations``.

Everything is seeded: sample draws and inner Monte Carlo estimates use
sub-seeds derived from (master seed, iteration, sample), so repeated runs
return the identical plan.  An iteration samples all its plans, then
compiles and estimates them a chunk at a time: each estimator.estimate_spreads
call packs about one full kernel call of replications per worker
(config.workers threads run the calls), so an iteration holds one chunk's
networks and estimates at a time.  A kernel call holds at most
estimator.CALL_CELLS cells (rows times nodes); a sample whose replications
do not fit one call runs in row chunks, and a chunk of the iteration is then
one sample per worker.  Each estimate is still the one its own sub-seed
gives alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelPlan, PlanError, build_augmented
from .estimator import call_rows, estimate_spreads
# estimate_spread is not called here; benchmarks/tracing.py still replaces it
from .estimator import estimate_spread  # noqa: F401
from .feature_space import Product
from .network import Network
from .rng import derive_seed


# iterations the elite threshold must hold (span the last this + 1 rows)
_STALL_ITERATIONS = 5
# seed-set draws before a sample gives up as infeasible
_SEED_DRAWS = 100


class InfeasiblePlanError(Exception):
    pass


@dataclass(frozen=True)
class CostModel:
    seed_unit_cost: float = 1.0
    alpha_unit_cost: float = 1.0
    beta_unit_cost: float = 1.0

    def __post_init__(self):
        # range test so NaN fails too: a NaN price disables the budget scale-down
        for name in ("seed_unit_cost", "alpha_unit_cost", "beta_unit_cost"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def plan_cost(self, plan: ChannelPlan) -> float:
        return (
            self.seed_unit_cost * len(plan.seeds)
            + self.alpha_unit_cost * plan.alpha
            + self.beta_unit_cost * sum(plan.beta)
        )


@dataclass
class CEConfig:
    n_samples: int | None = None  # default max(100, 2 * candidate count)
    elite_frac: float = 0.1
    smoothing: float = 0.7  # weight on the freshly fitted parameters
    max_iterations: int = 30
    tol: float = 1e-3
    replications: int = 10_000
    workers: int = 1
    best_response_tol: float = 1e-3

    def __post_init__(self):
        # range tests so NaN fails too; counts must be integers, not 2.5 or True
        def count(value):
            return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1

        for name, ok in (
            ("n_samples", self.n_samples is None or count(self.n_samples)),
            ("elite_frac", 0.0 < self.elite_frac <= 1.0),
            ("smoothing", 0.0 <= self.smoothing <= 1.0),
            ("max_iterations", count(self.max_iterations)),
            ("tol", 0.0 <= self.tol < math.inf),
            ("replications", count(self.replications)),
            ("workers", count(self.workers)),
            ("best_response_tol", 0.0 <= self.best_response_tol < math.inf),
        ):
            if not ok:
                raise ValueError(f"CEConfig out of range: {name}={getattr(self, name)!r}")


@dataclass
class CrossEntropyState:
    seed_probs: np.ndarray  # per candidate node
    alpha_mean: float
    alpha_std: float
    beta_mean: np.ndarray  # (horizon,)
    beta_std: np.ndarray
    iteration: int = 0


@dataclass
class CEResult:
    best_plan: ChannelPlan
    best_value: float
    trace: list[dict] = field(default_factory=list)
    state: CrossEntropyState | None = None
    evaluations: int = 0
    stop_reason: str = "max_iterations"  # or "converged", "stalled"


def sample_plan(
    state: CrossEntropyState,
    cost_model: CostModel,
    gamma: float,
    product_id: int,
    candidates: np.ndarray,
    rng: np.random.Generator,
) -> ChannelPlan:
    """Draw one budget-feasible plan from the current sampling distribution."""
    for _ in range(_SEED_DRAWS):
        mask = rng.random(len(candidates)) < state.seed_probs
        if cost_model.seed_unit_cost * int(mask.sum()) <= gamma:
            break
    else:
        raise InfeasiblePlanError(f"no feasible seed set within {_SEED_DRAWS} draws for budget {gamma}")
    seeds = frozenset(np.asarray(candidates)[mask].tolist())
    alpha = max(0.0, float(rng.normal(state.alpha_mean, state.alpha_std)))
    beta = np.maximum(0.0, rng.normal(state.beta_mean, state.beta_std))
    seed_cost = cost_model.seed_unit_cost * len(seeds)
    cont = cost_model.alpha_unit_cost * alpha + cost_model.beta_unit_cost * float(beta.sum())
    if seed_cost + cont > gamma and cont > 0.0:
        factor = (gamma - seed_cost) / cont
        alpha *= factor
        beta *= factor
    return ChannelPlan(product=product_id, seeds=seeds, alpha=alpha, beta=tuple(beta))


def _initial_state(candidates, cost_model, gamma, horizon) -> CrossEntropyState:
    # c * sum(p0) <= gamma: a first sample's expected seed cost fits the budget
    n = max(len(candidates), 1)
    p0 = min(0.5, gamma / cost_model.seed_unit_cost / n) if cost_model.seed_unit_cost > 0 else 0.5
    scale = gamma / (horizon + 2) if gamma > 0 else 1.0
    a_mean = scale / cost_model.alpha_unit_cost if cost_model.alpha_unit_cost > 0 else 1.0
    b_mean = scale / cost_model.beta_unit_cost if cost_model.beta_unit_cost > 0 else 1.0
    a_mean = max(a_mean, 1e-3)
    b_mean = max(b_mean, 1e-3)
    return CrossEntropyState(
        seed_probs=np.full(len(candidates), p0),
        alpha_mean=a_mean,
        alpha_std=a_mean,
        beta_mean=np.full(horizon, b_mean),
        beta_std=np.full(horizon, b_mean),
    )


def _bernoulli_entropy(p: np.ndarray) -> float:
    q = np.clip(p, 1e-12, 1.0 - 1e-12)
    ent = -(q * np.log(q) + (1.0 - q) * np.log(1.0 - q))
    ent[(p <= 0.0) | (p >= 1.0)] = 0.0
    return float(ent.max()) if ent.size else 0.0


def ce_optimize(
    net: Network,
    products: list[Product],
    focal_product: int,
    competitor_plans: list[ChannelPlan],
    cost_model: CostModel,
    gamma: float,
    config: CEConfig,
    seed: int,
    *,
    horizon: int | None = None,
) -> CEResult:
    """Cross-entropy search for the focal product's plan against fixed rivals."""
    if not 0.0 <= gamma < math.inf:
        raise InfeasiblePlanError("budget must be finite and >= 0")
    if horizon is None:
        if not competitor_plans:
            raise ValueError("horizon is required when there are no competitor plans")
        horizon = competitor_plans[0].horizon
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    ids = [p.id for p in products]
    if focal_product not in ids:
        raise ValueError(f"focal product {focal_product} is not among the products {ids}")
    taken = set()
    for plan in competitor_plans:
        if plan.horizon != horizon:
            raise ValueError(f"horizon {horizon} differs from the competitor plans' horizon {plan.horizon}")
        taken |= plan.seeds
    covered = {plan.product for plan in competitor_plans}
    if focal_product in covered:
        raise PlanError(f"competitor plans already cover product {focal_product}")
    # products without a stated rival plan sit out with an empty one
    fixed_plans = list(competitor_plans) + [
        ChannelPlan(product=p.id, seeds=frozenset(), alpha=0.0, beta=(0.0,) * horizon)
        for p in products
        if p.id != focal_product and p.id not in covered
    ]
    free = np.ones(net.node_count, dtype=bool)
    free[[v for v in taken if 0 <= v < net.node_count]] = False  # build_augmented rejects the others
    candidates = free.nonzero()[0]
    n_samples = config.n_samples or max(100, 2 * len(candidates))
    n_elite = max(1, math.ceil(config.elite_frac * n_samples))
    # samples per estimate: about one full kernel call for each worker
    chunk = config.workers * max(1, call_rows(net) // config.replications)
    lam = config.smoothing

    state = _initial_state(candidates, cost_model, gamma, horizon)
    best_plan = None
    best_value = -math.inf
    trace: list[dict] = []
    stop_reason = "max_iterations"

    for it in range(1, config.max_iterations + 1):
        plans = [
            sample_plan(state, cost_model, gamma, focal_product, candidates,
                        np.random.default_rng(derive_seed(seed, it, s)))
            for s in range(n_samples)
        ]
        means = []
        for lo in range(0, n_samples, chunk):  # one chunk's networks and estimates alive at a time
            pairs = [
                (build_augmented(net, products, fixed_plans + [plan]), derive_seed(seed, 7000 + it, s))
                for s, plan in enumerate(plans[lo : lo + chunk], lo)
            ]
            estimates = estimate_spreads(pairs, products, config.replications, workers=config.workers)
            means += [est.mean_of(focal_product) for est in estimates]
        means = np.array(means)  # focal means in sample order
        ranked = np.argsort(-means, kind="stable")  # by (-mean, sample index)
        elite, top = ranked[:n_elite], ranked[0]
        if means[top] > best_value:  # an equal later value keeps the earlier best
            best_value, best_plan = float(means[top]), plans[top]

        elite_seeds = np.fromiter((v for i in elite for v in plans[i].seeds), dtype=np.intp)
        freq = np.bincount(elite_seeds, minlength=net.node_count)[candidates] / len(elite)
        alphas = np.array([plans[i].alpha for i in elite])
        betas = np.array([plans[i].beta for i in elite])
        # in CrossEntropyState field order; alpha's pairwise sum stays apart from beta's
        fit = (freq, alphas.mean(), alphas.std(), betas.mean(axis=0), betas.std(axis=0))
        old = (state.seed_probs, state.alpha_mean, state.alpha_std, state.beta_mean, state.beta_std)
        new = [lam * f + (1 - lam) * o for f, o in zip(fit, old)]
        delta = max(float(np.max(np.abs(a - b), initial=0.0)) for a, b in zip(new, old))
        state = CrossEntropyState(*new, iteration=it)
        trace.append(
            {
                "iteration": it,
                "best_value": best_value,
                "iteration_best": float(means[top]),
                "iteration_mean": float(means[ranked].mean()),  # summed in rank order, as pinned
                "elite_threshold": float(means[elite[-1]]),
            }
        )
        spread_stat = _bernoulli_entropy(state.seed_probs) + state.alpha_std + float(state.beta_std.sum())
        if delta < config.tol or spread_stat < config.tol:
            stop_reason = "converged"
            break
        # the threshold has held, and held at the best value seen: every
        # recent iteration sampled at least n_elite plans as good as the best
        recent = [row["elite_threshold"] for row in trace[-_STALL_ITERATIONS - 1:]]
        if (
            len(recent) > _STALL_ITERATIONS
            and max(recent) - min(recent) <= config.tol
            and min(recent) >= best_value - config.tol
        ):
            stop_reason = "stalled"
            break

    return CEResult(
        best_plan=best_plan,
        best_value=best_value,
        trace=trace,
        state=state,
        evaluations=len(trace) * n_samples,
        stop_reason=stop_reason,
    )


@dataclass
class BestResponseResult:
    plans: list[ChannelPlan]
    values: list[float]
    history: list[dict] = field(default_factory=list)
    rounds_run: int = 0
    stop_reasons: list[list[str]] = field(default_factory=list)  # [round][product]


def best_response_loop(
    net: Network,
    products: list[Product],
    cost_models: list[CostModel],
    budgets: list[float],
    rounds: int,
    config: CEConfig,
    seed: int,
    *,
    horizon: int,
) -> BestResponseResult:
    """Sequential round-robin: each product re-optimizes against the others.

    Stops early once a full round moves no product's objective by more than
    config.best_response_tol.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    k = len(products)
    if len(cost_models) != k or len(budgets) != k:
        raise ValueError("cost_models and budgets must match the product list")
    plans = [
        ChannelPlan(product=p.id, seeds=frozenset(), alpha=0.0, beta=(0.0,) * horizon)
        for p in products
    ]
    values: list[float | None] = [None] * k
    history: list[dict] = []
    stop_reasons: list[list[str]] = []
    rounds_run = 0
    for rnd in range(rounds):
        max_delta = math.inf if any(v is None for v in values) else 0.0
        reasons: list[str] = []
        stop_reasons.append(reasons)
        for i, p in enumerate(products):
            competitors = [plans[j] for j in range(k) if j != i]
            res = ce_optimize(
                net, products, p.id, competitors, cost_models[i], budgets[i],
                config, derive_seed(seed, rnd, i), horizon=horizon,
            )
            if values[i] is not None:
                max_delta = max(max_delta, abs(res.best_value - values[i]))
            plans[i] = res.best_plan
            values[i] = res.best_value
            reasons.append(res.stop_reason)
        rounds_run = rnd + 1
        history.append({"round": rnd, "values": [float(v) for v in values]})
        if max_delta <= config.best_response_tol:
            break
    return BestResponseResult(
        plans=plans, values=[float(v) for v in values], history=history,
        rounds_run=rounds_run, stop_reasons=stop_reasons,
    )
