"""What the benchmark harness reaches into, exercised at tier 1.

benchmarks/run.py and benchmarks/tracing.py do not change with the package:
they load the instances benchmarks/instances.py writes, read a few network
and channel attributes, and trace the layers by replacing module-level
functions the layers call each other through.  A change that renames one of
those names, or stops calling through it, breaks the benchmark or leaves a
span silently empty; this test shows it without running the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

import campaignsim.diffusion as diffusion_mod
import campaignsim.estimator as estimator_mod
import campaignsim.optimizer as optimizer_mod
from campaignsim import (
    CEConfig,
    ChannelPlan,
    CostModel,
    build_augmented,
    ce_optimize,
    estimate_spread,
    load_network,
    load_plans,
    load_products,
)
from campaignsim.estimator import estimate_spreads
from campaignsim.fixtures import blocking_demo
from campaignsim.network import NodeKind
from campaignsim.rng import derive_seed

INSTANCES = Path(__file__).parents[1] / "benchmarks" / "instances.py"


def counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_benchmark_instances_and_hooks(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_instances", INSTANCES)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    ce_paths, horizon = instances.write_ce_toy(str(tmp_path / "ce_toy"))
    written = {
        "blocking": instances.write_blocking(str(tmp_path / "blocking")),
        "synth": instances.write_synth(1, str(tmp_path / "synth")),
        "ce_toy": ce_paths,
    }
    loaded = {}
    for name, paths in written.items():
        net = load_network(paths["net"], paths["sim"])
        products = load_products(paths["products"])
        plans = load_plans(paths["plans"]) if "plans" in paths else [ChannelPlan(0, beta=(0.0,) * horizon)]
        aug = build_augmented(net, products, plans)
        # the shape lines of run.py
        assert aug.net.node_count == net.node_count and len(aug.net.edges) == len(net.edges) > 0
        assert np.count_nonzero(aug.net.node_kind == NodeKind.SOCIAL_GADGET) == 0
        assert aug.scale.shape == (net.node_count,) and aug.product_ids.index(0) >= 0
        loaded[name] = net, products, aug
    assert len(loaded["synth"][0].edges) == 4000

    # the functions tracing.py replaces are the ones the layers call
    calls: dict[str, int] = {}
    for module, name in (
        (estimator_mod, "simulate_batch"),
        (estimator_mod, "tile_rng"),
        (diffusion_mod, "key_uniform"),
        (optimizer_mod, "sample_plan"),
        (optimizer_mod, "build_augmented"),
        (optimizer_mod, "estimate_spreads"),
    ):
        counting(monkeypatch, module, name, calls)
    _, products, aug = loaded["synth"]
    estimate_spread(aug, products, 8, derive_seed(1, 0))  # mirror-image products tie
    assert {"simulate_batch", "tile_rng", "key_uniform"} <= calls.keys()
    net, products, _ = loaded["ce_toy"]
    config = CEConfig(n_samples=4, max_iterations=1, replications=8)
    ce_optimize(net, products, 0, [], CostModel(), 2.0, config, derive_seed(1, 0), horizon=horizon)
    assert {"sample_plan", "build_augmented", "estimate_spreads"} <= calls.keys()
    # tracing.py still replaces optimizer.estimate_spread, which the loop no longer calls
    assert optimizer_mod.estimate_spread is estimate_spread


def test_kernel_calls_give_tracing_the_network_and_row_shapes(monkeypatch):
    # tracing.py wraps estimator.simulate_batch as (net, *args, **kwargs),
    # counts len(net.edges) per replication and reads (R, n) from the
    # activation times the call returns
    net, products, plans = blocking_demo("base")
    aug = build_augmented(net, products, plans)
    real = estimator_mod.simulate_batch
    seen = []

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append((args, result))
        return result

    monkeypatch.setattr(estimator_mod, "simulate_batch", recording)
    estimate_spreads([(aug, 1), (aug, 2)], products, 10)
    estimate_spread(aug, products, 7, 3)
    assert len(seen) == 2
    for args, result in seen:
        assert args[0] is aug.net
        act_time, purchased = result
        R = sum(block.rows for block in args[2])
        assert act_time.shape == purchased.shape == (R, net.node_count)
    assert [args[3].shape[0] for args, _ in seen] == [20, 7]


class _OnlyRandom:
    """Like tracing.py's _TimedGenerator: a tile generator offering only random."""

    def __init__(self, gen):
        self._gen = gen

    def random(self, *args, **kwargs):
        return self._gen.random(*args, **kwargs)


def test_row_chunks_skip_ahead_inside_tile_rng(monkeypatch):
    # a traced run wraps each generator estimator.tile_rng returns, so the
    # estimator may only call random on it: a chunk's skip-ahead lives in
    # tile_rng itself
    from test_seeded_outputs import _synth

    net, products, plans = _synth(1)
    aug = build_augmented(net, products, plans)
    reps, seed = 300, derive_seed(1, 0)
    plain = estimate_spread(aug, products, reps, seed)
    real_tile_rng = estimator_mod.tile_rng
    draws = []
    monkeypatch.setattr(
        estimator_mod, "tile_rng", lambda *a, **kw: draws.append(a) or _OnlyRandom(real_tile_rng(*a, **kw))
    )
    wrapped = estimate_spread(aug, products, reps, seed)
    assert len(draws) == 3  # three 100-row chunks of one tile
    assert np.array_equal(wrapped.spread_sums, plain.spread_sums)
    assert np.array_equal(wrapped.spread_sumsq, plain.spread_sumsq)
    assert np.array_equal(wrapped.node_counts, plain.node_counts)
