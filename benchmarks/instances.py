"""Input files for the benchmark workloads, written in the repo's file formats.

Every workload loads its instance from files, so set-up time includes
parsing.  The synthetic instance is a pure function of the workload seed;
the two fixture instances are fixed and the seed only drives the Monte Carlo
and cross-entropy streams.
"""

from __future__ import annotations

import os

import numpy as np

from campaignsim.channels import ChannelPlan, save_plans
from campaignsim.feature_space import normalize_product, save_products
from campaignsim.fixtures import ce_toy, write_fixtures
from campaignsim.network import Edge, Network, save_network

SYNTH_NODES = 1000
SYNTH_IN_DEGREE = 4
SYNTH_SIM_FRAC = 1 / 3
SYNTH_SEEDS_PER_PRODUCT = 5
SYNTH_HORIZON = 2


def _paths(d: str, with_plans: bool = True) -> dict:
    paths = {
        "net": os.path.join(d, "edges.txt"),
        "sim": os.path.join(d, "similarity.txt"),
        "products": os.path.join(d, "products.txt"),
    }
    if with_plans:
        paths["plans"] = os.path.join(d, "plans.json")
    return paths


def write_synth(seed: int, out_dir: str) -> dict:
    """Seeded channel-heavy instance.

    Each node gets SYNTH_IN_DEGREE distinct in-neighbours with weights in
    [0.05, 0.2], so incoming weight stays below 1 and every node has
    residual capacity for channels.  About a third of the edges carry a
    similarity, which gives each product one relay gadget per such edge.
    The two products are mirror images off the axes, and both campaigns
    spend the same media budget, so nodes reached only by media see an
    exact purchase tie: the tie-hash path runs on every replication.
    """
    rng = np.random.default_rng([int(seed), 0x51D])
    n = SYNTH_NODES
    edges = []
    sims: dict[tuple[int, int], float] = {}
    for v in range(n):
        srcs = rng.choice(n - 1, size=SYNTH_IN_DEGREE, replace=False)
        srcs[srcs >= v] += 1
        weights = np.round(rng.uniform(0.05, 0.2, SYNTH_IN_DEGREE), 4)
        has_sim = rng.random(SYNTH_IN_DEGREE) < SYNTH_SIM_FRAC
        h = np.round(rng.uniform(0.1, 1.0, SYNTH_IN_DEGREE), 3)
        for u, w, s, hv in zip(srcs.tolist(), weights.tolist(), has_sim.tolist(), h.tolist()):
            edges.append(Edge(u, v, w))
            key = (min(u, v), max(u, v))
            if s and key not in sims:
                sims[key] = hv
    net = Network.from_edges(n, edges, sims)
    products = [
        normalize_product([0.8, 0.6, 0.0], null_index=2, product_id=0),
        normalize_product([0.6, 0.8, 0.0], null_index=2, product_id=1),
    ]
    seeds = rng.choice(n, size=2 * SYNTH_SEEDS_PER_PRODUCT, replace=False).tolist()
    beta = (0.2,) * SYNTH_HORIZON
    plans = [
        ChannelPlan(product=0, seeds=frozenset(seeds[:SYNTH_SEEDS_PER_PRODUCT]), alpha=0.5, beta=beta),
        ChannelPlan(product=1, seeds=frozenset(seeds[SYNTH_SEEDS_PER_PRODUCT:]), alpha=0.5, beta=beta),
    ]
    paths = _paths(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    save_network(net, paths["net"], paths["sim"])
    save_products(products, paths["products"])
    save_plans(plans, paths["plans"])
    return paths


def write_blocking(out_dir: str) -> dict:
    """The 37-node blocking demo, base variant, as the CLI's fixtures write it."""
    write_fixtures(out_dir)
    return _paths(os.path.join(out_dir, "blocking_demo"))


def write_ce_toy(out_dir: str) -> tuple[dict, int]:
    """The 5-node CE instance (network and products only) and its horizon."""
    net, products, horizon = ce_toy()
    paths = _paths(out_dir, with_plans=False)
    os.makedirs(out_dir, exist_ok=True)
    save_network(net, paths["net"], paths["sim"])
    save_products(products, paths["products"])
    return paths, horizon
