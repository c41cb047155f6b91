"""Seeded estimates pinned across commits, bit for bit.

tests/data/seeded_outputs.json holds exact spread sums, sums of squares
and per-node purchase counts over real nodes for the blocking demo (both
variants), preference_shift and the seed-41 synthetic channel instance,
activation-time histograms of the media timing instance, length included,
and two cross-entropy optimizes: best plan, best value, trace, evaluation
count and stop reason.  A change that moves any of them must say which and why, and
regenerate the file with

    PYTHONPATH=src:tests python tests/test_seeded_outputs.py
"""

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from campaignsim.channels import build_augmented, load_plans
from campaignsim.estimator import activation_time_histogram, estimate_spread
from campaignsim.feature_space import load_products
from campaignsim.fixtures import blocking_demo, ce_toy, preference_shift
from campaignsim.network import Network, load_network
from campaignsim.optimizer import CEConfig, CostModel, ce_optimize
from test_estimator import P_AXIS, media_instance

GOLDEN = Path(__file__).parent / "data" / "seeded_outputs.json"
INSTANCES = Path(__file__).parents[1] / "benchmarks" / "instances.py"


def _synth(seed: int):
    spec = importlib.util.spec_from_file_location("bench_instances", INSTANCES)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    with tempfile.TemporaryDirectory() as tmp:
        paths = instances.write_synth(seed, tmp)
        return load_network(paths["net"], paths["sim"]), load_products(paths["products"]), load_plans(paths["plans"])


def _estimate(instance, replications: int, seed: int) -> dict:
    net, products, plans = instance
    est = estimate_spread(build_augmented(net, products, plans), products, replications, seed)
    return {
        "replications": replications,
        "seed": seed,
        "spread_sums": est.spread_sums.tolist(),
        "spread_sumsq": est.spread_sumsq.tolist(),
        "node_counts": est.node_counts[:, : net.node_count].tolist(),
    }


def _optimize(net, products, rivals, horizon, config: CEConfig, seed: int) -> dict:
    res = ce_optimize(net, products, 0, rivals, CostModel(), 2.0, config, seed, horizon=horizon)
    plan = res.best_plan
    return {
        "best_plan": {"seeds": sorted(plan.seeds), "alpha": plan.alpha, "beta": list(plan.beta)},
        "best_value": res.best_value,
        "trace": res.trace,
        "evaluations": res.evaluations,
        "stop_reason": res.stop_reason,
    }


def _contested_with_similarities():
    """preference_shift with similarities on the contested node's in-edges,
    so that social advertising compiles to recommendations; the rival plan
    is product 1's."""
    net, products, plans = preference_shift()
    sims = {(int(u), 4): 0.5 for u in net.src[net.dst == 4]}
    edges = list(zip(net.src.tolist(), net.dst.tolist(), net.weight.tolist()))
    return Network.from_edges(net.node_count, edges, sims), products, [plans[1]], plans[1].horizon


def seeded_outputs() -> dict:
    toy_net, toy_products, toy_horizon = ce_toy()
    # blocking and preference_shift span three threshold tiles
    return {
        "blocking_base": _estimate(blocking_demo("base"), 2 * 4096 + 123, 101),
        "blocking_extra_seed": _estimate(blocking_demo("extra_seed"), 2 * 4096 + 123, 102),
        "preference_shift": _estimate(preference_shift(), 2 * 4096 + 123, 103),
        "synth_41": _estimate(_synth(41), 48, 41),
        "media_histograms": [
            activation_time_histogram(media_instance(t=t), [P_AXIS], 1, 20_000, 50 + t).tolist()
            for t in (1, 2, 3)
        ],
        # focal product 0 on a budget of 2; ce_toy runs 100 samples per iteration
        "ce_toy": _optimize(toy_net, toy_products, [], toy_horizon, CEConfig(replications=500), 71),
        # two orthogonal products: purchase ties, recommendations, a rival plan
        "ce_contested": _optimize(
            *_contested_with_similarities(), CEConfig(n_samples=24, max_iterations=4, replications=700), 72
        ),
    }


def test_seeded_outputs_match_the_golden_file():
    assert seeded_outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(seeded_outputs(), sort_keys=True) + "\n")
    sys.exit(0)
