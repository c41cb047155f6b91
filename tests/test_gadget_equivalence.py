"""Compiled channels against the paper's construction, bit for bit.

The kernel runs the compiled network, with its media and recommendations,
on thresholds chi[:, :n], and the paper's construction (roots, media chains
and relays, tests/gadget_reference.py) on chi with every pseudonode's fixed
threshold written in; every real column must hold the same activation
times and purchases.
"""

import importlib.util
from pathlib import Path

import numpy as np

from campaignsim.channels import ChannelPlan, build_augmented, load_plans
from campaignsim.diffusion import RowBlock, simulate_batch
from campaignsim.feature_space import angular_distance, load_products, normalize_product
from campaignsim.network import Edge, Network, ValidationError, load_network
from gadget_reference import media_edges, paper_network
from scalar_reference import in_neighbors

INSTANCES = Path(__file__).parents[1] / "benchmarks" / "instances.py"


def assert_equivalent(aug, products, chi, master_seed=0, rep_offset=0):
    """Pseudonode activation times of the paper's construction."""
    ref = paper_network(aug, products)
    n = aug.net.node_count
    assert ref.net.node_count == aug.threshold_width + len(aug.recommendations) == chi.shape[1]
    R = chi.shape[0]
    at, pu = simulate_batch(aug.net, products, [aug.row_block(R, master_seed, rep_offset)], chi[:, :n])
    block = RowBlock(R, ref.seeds, master_seed=master_seed, rep_offset=rep_offset)
    ref_at, ref_pu = simulate_batch(ref.net, products, [block], ref.thresholds(chi))
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
        # most of the paper's graph
        assert np.count_nonzero(aug.media) and len(aug.recommendations) > 2 * aug.net.node_count
        rng = np.random.default_rng(seed)
        chi = rng.random((16, aug.threshold_width + len(aug.recommendations)))
        pseudo_times = assert_equivalent(aug, products, chi, master_seed=seed, rep_offset=4096 * seed)
        assert (pseudo_times[:, aug.threshold_width - aug.net.node_count :] >= 0).any()  # relays fired


def random_instance(rng):
    """Off-axis products at least 0.01 rad apart, seeds that are
    recommendation sources, horizons up to 4 with gaps in beta, nodes
    without in-edges, an unsorted edge list."""
    n = int(rng.integers(2, 10))
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
    k = int(rng.integers(2, 4))
    products = []
    while len(products) < k:
        p = normalize_product(rng.random(3), null_index=2, product_id=len(products))
        if all(angular_distance(p.vector, q) >= 0.01 for q in products):
            products.append(p)
    sources = sorted({u for u, v in edges if (min(u, v), max(u, v)) in sims})
    free = [v for v in rng.permutation(n).tolist() if v not in sources]
    pool = [int(s) for s in rng.permutation(sources)] + free
    horizon = int(rng.integers(1, 5))
    plans = []
    for i in range(k):
        seeds = {pool.pop(0)} if pool and rng.random() < 0.8 else set()
        alpha = float(rng.uniform(0.1, 2.0)) if i == 0 or rng.random() < 0.6 else 0.0
        # zero slots between spending ones
        beta = tuple(float(rng.uniform(0.0, 0.6)) if rng.random() < 0.5 else 0.0 for _ in range(horizon))
        plans.append(ChannelPlan(product=i, seeds=frozenset(seeds), alpha=alpha, beta=beta))
    order = rng.permutation(len(edges)).tolist()
    items = list(edges.items())
    try:
        net = Network.from_edges(n, [Edge(*items[j][0], items[j][1]) for j in order], sims)
    except ValidationError:
        return None
    return build_augmented(net, products, plans), products


def test_random_instances():
    rng = np.random.default_rng(2026)
    kept = seeded_sources = gaps = shared_steps = media_only = late_media = relays_fired = 0
    while kept < 240:
        drawn = random_instance(rng)
        if drawn is None or not (np.count_nonzero(drawn[0].media) or len(drawn[0].recommendations)):
            continue
        aug, products = drawn
        kept += 1
        n, rec = aug.net.node_count, aug.recommendations
        m_step, m_product, m_node, _ = media_edges(aug.media)
        seeded = set().union(*(plan.seeds for plan in aug.plans))
        seeded_sources += bool(seeded & set(rec.src.tolist()))
        gaps += any(b == 0.0 and any(plan.beta[t:]) for plan in aug.plans for t, b in enumerate(plan.beta, 1))
        steps = set(zip(m_step.tolist(), m_product.tolist()))
        shared_steps += any((t, j) in steps for t, i in steps for j in range(i + 1, len(products)))
        media_only += any(not in_neighbors(aug.net, v) for v in set(m_node.tolist()))
        late_media += bool(m_step.size) and int(m_step[-1]) > n - 1
        chi = rng.random((8, aug.threshold_width + len(rec)))
        pseudo_times = assert_equivalent(aug, products, chi, master_seed=kept, rep_offset=kept * 8)
        relays_fired += bool((pseudo_times[:, aug.threshold_width - n :] >= 0).any())
    assert seeded_sources > 100 and gaps > 50 and relays_fired > 100
    assert shared_steps > 100 and media_only > 100 and late_media > 30
