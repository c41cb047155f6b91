"""Seeded estimates pinned across commits, bit for bit.

tests/data/seeded_outputs.json holds exact spread sums, sums of squares
and per-node purchase counts over real nodes for the blocking demo (both
variants), preference_shift and the seed-41 synthetic channel instance,
plus activation-time histograms of the media timing instance, length
included.  A change that moves any of them must say which and why, and
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
from campaignsim.fixtures import blocking_demo, preference_shift
from campaignsim.network import load_network
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


def seeded_outputs() -> dict:
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
    }


def test_seeded_outputs_match_the_golden_file():
    assert seeded_outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(seeded_outputs(), sort_keys=True) + "\n")
    sys.exit(0)
