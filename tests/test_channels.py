import json
import math
from pathlib import Path

import numpy as np
import pytest

from campaignsim.channels import (
    ChannelPlan,
    PlanError,
    build_augmented,
    load_plans,
    plans_to_payload,
    save_augmented,
    save_plans,
)
from campaignsim.diffusion import simulate_batch
from campaignsim.feature_space import Product, normalize_product
from campaignsim.network import Edge, Network, NodeKind, ValidationError
from campaignsim.rng import tile_rng
from gadget_reference import GadgetParams, gadget_network
from scalar_reference import run_diffusion, sample_thresholds

P_AXIS = Product(id=0, features=(1.0, 0.0), null_index=1)
Q_AXIS = Product(id=1, features=(0.0, 1.0), null_index=0)


def two_node_net(weight=0.1, h=0.5):
    return Network.from_edges(2, [(0, 1, weight)], similarities={(0, 1): h})


# -- plans and parameters -----------------------------------------------


def test_plan_rejects_negative_budget_components():
    with pytest.raises(PlanError, match="alpha"):
        ChannelPlan(product=0, alpha=-0.1)
    with pytest.raises(PlanError, match="beta"):
        ChannelPlan(product=0, beta=(0.2, -0.2))
    for bad in (math.inf, math.nan):
        with pytest.raises(PlanError, match="alpha"):
            ChannelPlan(product=0, alpha=bad)
        with pytest.raises(PlanError, match="beta"):
            ChannelPlan(product=0, beta=(0.2, bad))


def test_gadget_params_ordering_enforced():
    GadgetParams(chi_w=0.5, epsilon=0.25)
    for chi_w, eps in ((0.5, 0.5), (0.5, 0.0), (1.2, 0.3), (0.2, 0.3)):
        with pytest.raises(PlanError):
            GadgetParams(chi_w=chi_w, epsilon=eps)


def test_plan_file_round_trip(tmp_path):
    plans = [
        ChannelPlan(product=0, seeds=frozenset({3, 1}), alpha=0.5, beta=(0.2, 0.0)),
        ChannelPlan(product=1, seeds=frozenset(), alpha=0.0, beta=(0.0, 1.0)),
    ]
    path = tmp_path / "plans.json"
    save_plans(plans, str(path))
    back = load_plans(str(path))
    assert back == plans
    payload = plans_to_payload(back)
    assert payload["horizon"] == 2
    assert payload["plans"][0]["seeds"] == [1, 3]


def test_plan_file_beta_length_must_match_horizon(tmp_path):
    path = tmp_path / "plans.json"
    path.write_text(json.dumps({"horizon": 3, "plans": [{"product": 0, "beta": [0.1]}]}))
    with pytest.raises(PlanError, match="beta length"):
        load_plans(str(path))


# -- scaling rule --------------------------------------------------------


def test_scaling_zero_when_capacity_is_exhausted():
    net = Network.from_edges(3, [(0, 2, 0.6), (1, 2, 0.4)])
    plans = [ChannelPlan(product=0, alpha=1.0, beta=(0.5,))]
    assert build_augmented(net, [P_AXIS], plans).scale[2] == 0.0


def test_scaling_fills_the_residual_exactly():
    # residual 0.4; nominal load alpha*h + sum(beta) = 0.5 + 0.5 = 1.0
    net = two_node_net(weight=0.6, h=0.5)
    plans = [ChannelPlan(product=0, alpha=1.0, beta=(0.2, 0.3))]
    assert build_augmented(net, [P_AXIS], plans).scale[1] == pytest.approx(0.4)


def test_scaling_zero_when_no_channel_budget():
    net = two_node_net()
    plans = [ChannelPlan(product=0, seeds=frozenset({0}))]
    assert build_augmented(net, [P_AXIS], plans).scale[1] == 0.0


def test_scaling_sums_over_products():
    net = two_node_net(weight=0.5, h=0.5)
    plans = [
        ChannelPlan(product=0, alpha=1.0, beta=(0.25,)),
        ChannelPlan(product=1, alpha=0.0, beta=(0.25,)),
    ]
    # denominator 0.5 + 0.25 + 0.25 = 1.0, residual 0.5
    assert build_augmented(net, [P_AXIS, Q_AXIS], plans).scale[1] == pytest.approx(0.5)


def test_channel_weights_never_break_capacity_random_sweep():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        edges = {}
        for v in range(n):
            for u in range(n):
                if u != v and rng.random() < 0.3:
                    edges[(u, v)] = float(rng.uniform(0.05, 0.4))
        in_sums = {}
        for (u, v), w in edges.items():
            in_sums[v] = in_sums.get(v, 0.0) + w
        if any(s > 1.0 for s in in_sums.values()):
            continue
        sims = {}
        for (u, v) in edges:
            key = (min(u, v), max(u, v))
            if rng.random() < 0.5:
                sims[key] = float(rng.uniform(0.1, 1.0))
        net = Network.from_edges(n, [Edge(u, v, w) for (u, v), w in edges.items()], sims)
        plans = [
            ChannelPlan(
                product=0,
                seeds=frozenset({int(rng.integers(n))}),
                alpha=float(rng.uniform(0, 2)),
                beta=tuple(rng.uniform(0, 1, size=2)),
            ),
            ChannelPlan(product=1, alpha=float(rng.uniform(0, 2)), beta=tuple(rng.uniform(0, 1, size=2))),
        ]
        aug = build_augmented(net, [P_AXIS, Q_AXIS], plans)
        assert aug.net.validate() == []
        # the one-pass ratio equals the closed form summed node by node
        for v in range(n):
            in_sum = sum(wt for _, wt in net.in_neighbors(v))
            h_sum = sum(net.similarity_of(u, v) for u, _ in net.in_neighbors(v))
            load = 0.0
            for plan in plans:
                load += plan.alpha * h_sum + sum(plan.beta)
            assert aug.scale[v] == (max(0.0, 1.0 - in_sum) / load if load > 0.0 else 0.0)
        # pseudoedges and recommendations into each base node fill the
        # residual exactly when scaled
        rec = aug.recommendations
        for v in range(n):
            base_in = sum(wt for _, wt in net.in_neighbors(v))
            total_in = sum(e.weight for e in aug.net.edges if e.dst == v) + rec.weight[rec.dst == v].sum()
            if aug.scale[v] > 0:
                assert total_in == pytest.approx(1.0, abs=1e-9)
            else:
                assert total_in == pytest.approx(base_in, abs=1e-12)


# -- structure of the augmentation --------------------------------------


def test_zero_budget_plans_add_only_isolated_roots():
    net = two_node_net()
    plans = [ChannelPlan(product=0, seeds=frozenset({0})), ChannelPlan(product=1)]
    aug = build_augmented(net, [P_AXIS, Q_AXIS], plans)
    assert aug.net.node_count == 4  # two real + one root per product
    assert aug.base_node_count == 2
    assert sorted(aug.roots) == [2, 3]
    assert len(aug.net.edges) == len(net.edges)
    kinds = aug.net.node_kind
    assert kinds[2] == NodeKind.PRODUCT_ROOT and kinds[3] == NodeKind.PRODUCT_ROOT
    seeds = aug.seed_assignment()
    assert seeds.by_product == (frozenset({0, 2}), frozenset({3}))


def test_base_network_with_pseudonodes_is_rejected():
    net = two_node_net()
    aug = build_augmented(net, [P_AXIS, Q_AXIS], [ChannelPlan(product=0), ChannelPlan(product=1)])
    with pytest.raises(PlanError, match="already contains pseudonodes"):
        build_augmented(aug.net, [P_AXIS, Q_AXIS], [ChannelPlan(product=0), ChannelPlan(product=1)])


def test_plan_set_must_cover_products_exactly():
    net = two_node_net()
    with pytest.raises(PlanError, match="no channel plan for product 1"):
        build_augmented(net, [P_AXIS, Q_AXIS], [ChannelPlan(product=0)])
    with pytest.raises(PlanError, match="unknown product"):
        build_augmented(net, [P_AXIS], [ChannelPlan(product=0), ChannelPlan(product=7)])
    with pytest.raises(PlanError, match="more than one plan"):
        build_augmented(net, [P_AXIS], [ChannelPlan(product=0), ChannelPlan(product=0)])
    with pytest.raises(PlanError, match="share one horizon"):
        build_augmented(
            net, [P_AXIS, Q_AXIS],
            [ChannelPlan(product=0, beta=(0.1,)), ChannelPlan(product=1, beta=(0.1, 0.2))],
        )
    with pytest.raises(PlanError, match="seeded for more than one"):
        build_augmented(
            net, [P_AXIS, Q_AXIS],
            [ChannelPlan(product=0, seeds=frozenset({0})), ChannelPlan(product=1, seeds=frozenset({0}))],
        )
    with pytest.raises(PlanError, match="not a node"):
        build_augmented(net, [P_AXIS], [ChannelPlan(product=0, seeds=frozenset({9}))])


def test_media_chain_nodes_activate_one_step_before_their_slot():
    # horizon 4 with spend only at t=4 still materializes the full chain
    net = two_node_net(weight=0.1, h=0.0)
    plans = [ChannelPlan(product=0, beta=(0.0, 0.0, 0.0, 0.5))]
    aug = build_augmented(net, [P_AXIS], plans)
    chi = sample_thresholds(aug.net, tile_rng(0, 0))
    out = run_diffusion(aug.net, [P_AXIS], aug.seed_assignment(), chi)
    assert out.activation_time[aug.roots[0]] == 0  # the chain starts at the root
    for t in (2, 3, 4):
        assert out.activation_time[aug.chain[(0, t)]] == t - 1


def test_media_pseudoedge_weight_is_ratio_times_beta():
    net = two_node_net(weight=0.6, h=0.0)
    plans = [ChannelPlan(product=0, beta=(0.2, 0.3))]
    aug = build_augmented(net, [P_AXIS], plans)
    w = {(e.src, e.dst): e.weight for e in aug.net.edges}
    root = aug.roots[0]
    second = aug.chain[(0, 2)]
    # ratio = residual / nominal load = 0.4 / 0.5
    assert w[root, 1] == pytest.approx(0.8 * 0.2)
    assert w[second, 1] == pytest.approx(0.8 * 0.3)
    assert w[root, 1] + w[second, 1] == pytest.approx(0.4)
    # node 0 has full residual 1.0 and the same nominal load
    assert w[root, 0] == pytest.approx(0.2 / 0.5)
    assert w[second, 0] == pytest.approx(0.3 / 0.5)


def test_recommendation_per_similar_edge_and_product_in_source_order():
    # edge (u, v) with similarity h gives product p the weight ratio(v) * alpha_p * h
    net = Network.from_edges(
        4, [(2, 1, 0.2), (0, 1, 0.1), (3, 0, 0.3), (1, 3, 0.2), (0, 3, 0.1)],
        similarities={(1, 2): 0.5, (0, 1): 0.25, (0, 3): 0.8},
    )
    plans = [ChannelPlan(product=0, alpha=1.0, beta=(0.1,)), ChannelPlan(product=1, alpha=0.5, beta=(0.0,))]
    aug = build_augmented(net, [P_AXIS, Q_AXIS], plans)
    rec = aug.recommendations
    got = list(zip(rec.src.tolist(), rec.dst.tolist(), rec.product.tolist(), rec.weight.tolist()))
    want = []
    for u, v in sorted((e.src, e.dst) for e in net.edges):
        for i, plan in enumerate(plans):
            w = aug.scale[v] * plan.alpha * net.similarity_of(u, v)
            if w > 0.0:
                want.append((u, v, i, w))
    assert got == want
    assert {(u, v) for u, v, _, _ in got} == {(2, 1), (0, 1), (3, 0), (0, 3)}
    # no relay pseudonodes: real nodes, roots, and no chain without a step-2 slot
    assert aug.net.node_count == 4 + 2
    assert aug.net.validate(delayed=rec.edges()) == []


def test_relay_fires_only_for_its_own_product():
    # the paper's relay pseudonode, as the test-side reference builds it
    net = two_node_net(weight=0.1, h=0.5)
    products = [P_AXIS, Q_AXIS]
    for source_product in (0, 1):
        plans = [
            ChannelPlan(product=0, seeds=frozenset({0}) if source_product == 0 else frozenset(), alpha=1.0, beta=(0.0,)),
            ChannelPlan(product=1, seeds=frozenset({0}) if source_product == 1 else frozenset(), alpha=0.0, beta=(0.0,)),
        ]
        aug = build_augmented(net, products, plans)
        ref, relays = gadget_network(aug, products)
        relay = relays[(0, 0, 1)]
        chi = np.full(ref.node_count, 0.99)
        out = run_diffusion(ref, products, aug.seed_assignment(), chi)
        if source_product == 0:
            # equality case: (chi_w - eps) + eps lands exactly on the threshold
            assert out.activation_time[relay] == 1
        else:
            # orthogonal purchase: norm sqrt(0.25^2 + 0.25^2) < 0.5
            assert out.activation_time[relay] == -1


def test_relay_fires_on_schedule_for_non_axis_products():
    # in the reference, a seeded source that bought p must fire p's relay at
    # step 1 whatever p's direction; rounding in the aggregate's norm must
    # not leave it unfired
    rng = np.random.default_rng(13)
    net = two_node_net(weight=0.1, h=0.7)
    for _ in range(200):
        chi_w = float(rng.uniform(0.05, 0.95))
        eps = float(chi_w * rng.uniform(0.05, 0.95))
        p = normalize_product(rng.random(3), null_index=2, product_id=0)
        aug = build_augmented(net, [p], [ChannelPlan(product=0, seeds=frozenset({0}), alpha=0.5)])
        ref, relays = gadget_network(aug, [p], GadgetParams(chi_w=chi_w, epsilon=eps))
        relay = relays[(0, 0, 1)]
        w = {(e.src, e.dst): e.weight for e in ref.edges}
        assert ref.fixed_threshold[relay] <= w[aug.roots[0], relay] + w[0, relay]
        chi = np.full((1, ref.node_count), 0.99)
        at, bought = simulate_batch(ref, [p], aug.seed_assignment(), chi)
        assert (at[0, relay], bought[0, relay]) == (1, 0), (p.features, chi_w, eps)


def test_relayed_influence_arrives_two_steps_after_the_source():
    # source activates at step 1 via media; its relay would fire at 2, and
    # the neighbor hears the recommendation at 3
    net = two_node_net(weight=0.1, h=1.0)
    products = [P_AXIS, Q_AXIS]
    plans = [
        ChannelPlan(product=0, alpha=4.0, beta=(1.0,)),
        ChannelPlan(product=1, alpha=0.0, beta=(0.0,)),
    ]
    aug = build_augmented(net, products, plans)
    chi = np.full((1, aug.net.node_count), 0.5)
    at, bought = simulate_batch(aug.net, products, aug.seed_assignment(), chi, recommendations=aug.recommendations)
    assert at[0, 0] == 1  # media reaches node 0 at step 1
    assert (at[0, 1], bought[0, 1]) == (3, 0)
    ref, relays = gadget_network(aug, products)
    out = run_diffusion(ref, products, aug.seed_assignment(), np.full(ref.node_count, 0.5))
    assert out.activation_time[relays[(0, 0, 1)]] == 2
    assert out.activation_time[1] == 3


def test_no_relay_without_similarity_or_alpha():
    net = two_node_net(weight=0.1, h=0.0)
    aug = build_augmented(
        net, [P_AXIS], [ChannelPlan(product=0, alpha=2.0, beta=(0.5,))]
    )
    assert len(aug.recommendations) == 0
    net2 = two_node_net(weight=0.1, h=0.9)
    aug2 = build_augmented(net2, [P_AXIS], [ChannelPlan(product=0, alpha=0.0, beta=(0.5,))])
    assert len(aug2.recommendations) == 0


def test_augmented_dump_files(tmp_path):
    net = two_node_net(weight=0.3, h=0.5)
    aug = build_augmented(
        net, [P_AXIS, Q_AXIS],
        [ChannelPlan(product=0, seeds=frozenset({0}), alpha=1.0, beta=(0.5,)), ChannelPlan(product=1, beta=(0.0,))],
    )
    e, s, ps = tmp_path / "e.txt", tmp_path / "s.txt", tmp_path / "pseudo.json"
    save_augmented(aug, str(e), str(s), str(ps))
    payload = json.loads(ps.read_text())
    assert payload["base_node_count"] == 2
    kinds = {entry["kind"] for entry in payload["pseudonodes"].values()}
    assert kinds == {"product_root"}
    for node, entry in payload["pseudonodes"].items():
        assert 0.0 <= entry["fixed_threshold"] <= 1.0
        assert int(node) >= 2
    w = aug.recommendations.weight[0]
    assert payload["recommendations"] == [{"kind": "recommendation", "product": 0, "edge": [0, 1], "weight": w}]


GOLDEN = Path(__file__).parent / "data"


def test_augmented_dump_matches_the_golden_file(tmp_path):
    # two products with ids unlike their indices, media chains of length 3
    # and recommendations for both products: every pseudonode role,
    # recommendation, edge weight and scaling ratio is pinned
    p = Product(id=7, features=(1.0, 0.0), null_index=1)
    q = Product(id=3, features=(0.0, 1.0), null_index=0)
    net = Network.from_edges(
        3, [(0, 1, 0.2), (1, 2, 0.3), (2, 0, 0.1), (0, 2, 0.25)],
        similarities={(0, 1): 0.5, (1, 2): 0.8},
    )
    plans = [
        ChannelPlan(product=7, seeds=frozenset({0}), alpha=1.0, beta=(0.0, 0.3, 0.2)),
        ChannelPlan(product=3, seeds=frozenset({2}), alpha=0.5, beta=(0.1, 0.0, 0.4)),
    ]
    aug = build_augmented(net, [p, q], plans)
    e, s, ps = tmp_path / "e.txt", tmp_path / "s.txt", tmp_path / "pseudo.json"
    save_augmented(aug, str(e), str(s), str(ps))
    assert ps.read_bytes() == (GOLDEN / "augmented_pseudo.json").read_bytes()
    # every node number and weight bit: weights are written with repr
    assert e.read_bytes() == (GOLDEN / "augmented_edges.txt").read_bytes()
    assert aug.scale.tobytes() == (GOLDEN / "augmented_scale.bin").read_bytes()
