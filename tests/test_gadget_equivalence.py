"""Compiled recommendations against the paper's relay gadget, bit for bit.

The kernel runs the compiled network with thresholds chi[:, :n] and the
gadget reference (tests/gadget_reference.py) with chi; every column that
is not a relay must hold the same activation times and purchases.
"""

import importlib.util
from pathlib import Path

import numpy as np

from campaignsim.channels import ChannelPlan, build_augmented, load_plans
from campaignsim.diffusion import simulate_batch
from campaignsim.feature_space import angular_distance, load_products, normalize_product
from campaignsim.network import Edge, Network, load_network
from gadget_reference import gadget_network

INSTANCES = Path(__file__).parents[1] / "benchmarks" / "instances.py"


def assert_equivalent(aug, products, chi, master_seed=0, rep_offset=0):
    ref, _ = gadget_network(aug, products)
    n = aug.net.node_count
    assert ref.node_count == n + len(aug.recommendations) == chi.shape[1]
    seeds = aug.seed_assignment()
    at, pu = simulate_batch(
        aug.net, products, seeds, chi[:, :n], recommendations=aug.recommendations,
        master_seed=master_seed, rep_offset=rep_offset,
    )
    ref_at, ref_pu = simulate_batch(ref, products, seeds, chi, master_seed=master_seed, rep_offset=rep_offset)
    assert np.array_equal(at, ref_at[:, :n])
    assert np.array_equal(pu, ref_pu[:, :n])
    return ref_at[:, n:]


def test_synthetic_channel_instances(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_instances", INSTANCES)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    for seed in (1, 41, 7):
        paths = instances.write_synth(seed, str(tmp_path / str(seed)))
        products = load_products(paths["products"])
        aug = build_augmented(
            load_network(paths["net"], paths["sim"]), products, load_plans(paths["plans"])
        )
        assert len(aug.recommendations) > 2 * aug.net.node_count  # most of the gadget graph
        rng = np.random.default_rng(seed)
        chi = rng.random((16, aug.net.node_count + len(aug.recommendations)))
        relay_times = assert_equivalent(aug, products, chi, master_seed=seed, rep_offset=4096 * seed)
        assert (relay_times >= 0).any()


def random_instance(rng):
    """Off-axis products at least 0.01 rad apart, seeds that are
    recommendation sources, gaps in beta, an unsorted edge list."""
    n = int(rng.integers(3, 10))
    edges = {}
    for v in range(n):
        deg = int(rng.integers(0, min(4, n)))
        if deg == 0:
            continue
        srcs = rng.choice([u for u in range(n) if u != v], size=deg, replace=False)
        raw = rng.random(deg)
        budget = rng.uniform(0.2, 0.95)
        for u, r in zip(srcs.tolist(), raw):
            edges[(u, v)] = float(r / raw.sum() * budget)
    sims = {}
    for u, v in edges:
        if rng.random() < 0.6:
            sims[(min(u, v), max(u, v))] = float(rng.uniform(0.1, 1.0))
    if not sims:
        return None
    k = int(rng.integers(2, 4))
    products = []
    while len(products) < k:
        p = normalize_product(rng.random(3), null_index=2, product_id=len(products))
        if all(angular_distance(p.vector, q) >= 0.01 for q in products):
            products.append(p)
    sources = sorted({u for u, v in edges if (min(u, v), max(u, v)) in sims})
    free = [v for v in rng.permutation(n).tolist() if v not in sources]
    pool = [int(s) for s in rng.permutation(sources)] + free
    horizon = 3
    plans = []
    for i in range(k):
        seeds = {pool.pop(0)} if pool and rng.random() < 0.8 else set()
        alpha = float(rng.uniform(0.1, 2.0)) if i == 0 or rng.random() < 0.6 else 0.0
        # zero slots between spending ones
        beta = tuple(float(rng.uniform(0.0, 0.6)) if rng.random() < 0.5 else 0.0 for _ in range(horizon))
        plans.append(ChannelPlan(product=i, seeds=frozenset(seeds), alpha=alpha, beta=beta))
    order = rng.permutation(len(edges)).tolist()
    items = list(edges.items())
    net = Network.from_edges(n, [Edge(*items[j][0], items[j][1]) for j in order], sims)
    if net.validate():
        return None
    return build_augmented(net, products, plans), products


def test_random_instances():
    rng = np.random.default_rng(2026)
    kept = seeded_sources = gaps = relays_fired = 0
    while kept < 200:
        drawn = random_instance(rng)
        if drawn is None or not len(drawn[0].recommendations):
            continue
        aug, products = drawn
        kept += 1
        rec = aug.recommendations
        seeded = set().union(*(plan.seeds for plan in aug.plans))
        seeded_sources += bool(seeded & set(rec.src.tolist()))
        gaps += any(b == 0.0 and any(plan.beta[t:]) for plan in aug.plans for t, b in enumerate(plan.beta, 1))
        chi = rng.random((8, aug.net.node_count + len(rec)))
        relay_times = assert_equivalent(aug, products, chi, master_seed=kept, rep_offset=kept * 8)
        relays_fired += bool((relay_times >= 0).any())
    assert seeded_sources > 100 and gaps > 50 and relays_fired > 100
