import dataclasses
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
from campaignsim.diffusion import RowBlock, simulate_batch
from campaignsim.feature_space import Product, normalize_product
from campaignsim.fixtures import blocking_demo
from campaignsim.network import WEIGHT_SUM_TOL, Edge, Network
from campaignsim.rng import tile_rng
from gadget_reference import CHAIN_THRESHOLD, GadgetParams, media_edges, paper_network
from scalar_reference import in_neighbors, run_diffusion

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
        drawn = [
            ChannelPlan(
                product=0,
                seeds=frozenset({int(rng.integers(n))}),
                alpha=float(rng.uniform(0, 2)),
                beta=tuple(rng.uniform(0, 1, size=2)),
            ),
            ChannelPlan(product=1, alpha=float(rng.uniform(0, 2)), beta=tuple(rng.uniform(0, 1, size=2))),
        ]
        # extreme but finite budgets: some channel weights underflow to 0, and
        # where no similar edge enters a node, ratio * alpha overflows to inf
        # and meets h = 0, which adds nothing
        extreme = [
            ChannelPlan(product=0, seeds=drawn[0].seeds, alpha=1e300, beta=(1e-300, 1e-300)),
            ChannelPlan(product=1, alpha=1e-300, beta=(1e-300, 0.0)),
        ]
        for plans in (drawn, extreme):
            aug = build_augmented(net, [P_AXIS, Q_AXIS], plans)
            # the one-pass ratio equals the closed form summed node by node
            for v in range(n):
                in_sum = sum(wt for _, wt in in_neighbors(net, v))
                h_sum = sum(sims.get((min(u, v), max(u, v)), 0.0) for u, _ in in_neighbors(net, v))
                load = 0.0
                for plan in plans:
                    load += plan.alpha * h_sum + sum(plan.beta)
                assert aug.scale[v] == (max(0.0, 1.0 - in_sum) / load if load > 0.0 else 0.0)
            # media and recommendations into each node fill the residual
            # exactly when scaled, and never more than the capacity 1
            _, _, m_node, m_weight = media_edges(aug.media)
            rec = aug.recommendations
            weights = np.concatenate([m_weight, rec.weight])
            assert ((weights > 0.0) & (weights <= 1.0)).all()
            for v in range(n):
                base_in = sum(wt for _, wt in in_neighbors(net, v))
                total_in = base_in + m_weight[m_node == v].sum() + rec.weight[rec.dst == v].sum()
                assert total_in <= 1.0 + WEIGHT_SUM_TOL
                if aug.scale[v] > 0:
                    assert total_in == pytest.approx(1.0, abs=1e-9)
                else:
                    assert total_in == pytest.approx(base_in, abs=1e-12)


# -- structure of the augmentation --------------------------------------


def test_zero_budget_plans_add_only_isolated_roots():
    # compiled: the base network alone, threshold rows two real nodes plus
    # one root per product wide; in the paper's construction the roots are
    # seeded and isolated
    net = two_node_net()
    plans = [ChannelPlan(product=0, seeds=frozenset({0})), ChannelPlan(product=1)]
    aug = build_augmented(net, [P_AXIS, Q_AXIS], plans)
    assert aug.net is net
    assert not np.count_nonzero(aug.media) and not len(aug.recommendations)
    assert aug.threshold_width == 4
    assert aug.row_block(1).seeds == (frozenset({0}), frozenset())
    assert not net.node_kind.any()  # NodeKind.REAL is 0
    ref = paper_network(aug, [P_AXIS, Q_AXIS])
    assert ref.roots == (2, 3) and ref.net.node_count == 4 and not ref.chain
    assert ref.net.edges == net.edges
    assert ref.seeds == (frozenset({0, 2}), frozenset({3}))


@pytest.mark.parametrize("beta", [(1e308, 1e308), (5e-324, 0.0)], ids=["load-overflows", "ratio-overflows"])
def test_budgets_that_overflow_raise_plan_error(beta):
    # finite budgets whose load overflowed used to zero every scaling ratio
    # silently, and a ratio that overflowed reached the caller as a
    # RuntimeWarning and an infinite channel weight
    net, products, plans = blocking_demo("base")
    plans[0] = dataclasses.replace(plans[0], beta=beta)
    with pytest.raises(PlanError, match="not finite"):
        build_augmented(net, products, plans)
    plans[0] = dataclasses.replace(plans[0], beta=(1.0, 1.0))
    assert np.count_nonzero(build_augmented(net, products, plans).media) == 6


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
    # the only check on seeds: row blocks carry the plans' seed sets as they are
    with pytest.raises(PlanError, match=r"^node 0 seeded for more than one product$"):
        build_augmented(
            net, [P_AXIS, Q_AXIS],
            [ChannelPlan(product=0, seeds=frozenset({0, 1})), ChannelPlan(product=1, seeds=frozenset({0}))],
        )
    for seed in (-1, 2, 9):
        with pytest.raises(PlanError, match=rf"^seed {seed} is not a node of the base network$"):
            build_augmented(net, [P_AXIS], [ChannelPlan(product=0, seeds=frozenset({seed}))])


def test_media_chain_nodes_activate_one_step_before_their_slot():
    # horizon 4 with spend only at t=4: the compiled media all sit at step 4,
    # and the paper's construction still materializes the full chain
    net = two_node_net(weight=0.1, h=0.0)
    plans = [ChannelPlan(product=0, beta=(0.0, 0.0, 0.0, 0.5))]
    aug = build_augmented(net, [P_AXIS], plans)
    step, _, node, _ = media_edges(aug.media)
    assert step.tolist() == [4, 4] and node.tolist() == [0, 1]
    assert aug.threshold_width == 2 + 1 + 3
    ref = paper_network(aug, [P_AXIS])
    chi = ref.thresholds(tile_rng(0, 0).random(ref.net.node_count))
    assert chi[2:].tolist() == [CHAIN_THRESHOLD] * 4
    out = run_diffusion(ref.net, [P_AXIS], ref.seeds, chi)
    assert out.activation_time[ref.roots[0]] == 0  # the chain starts at the root
    for t in (2, 3, 4):
        assert out.activation_time[ref.chain[(0, t)]] == t - 1
    assert len(aug.recommendations) == 0
    at, _ = simulate_batch(aug.net, [P_AXIS], [aug.row_block(1)], chi[None, :2])
    assert at[0].tolist() == out.activation_time[:2].tolist()


def test_media_pseudoedge_weight_is_ratio_times_beta():
    net = two_node_net(weight=0.6, h=0.0)
    plans = [ChannelPlan(product=0, beta=(0.2, 0.3))]
    aug = build_augmented(net, [P_AXIS], plans)
    step, _, node, weight = media_edges(aug.media)
    w = dict(zip(zip(step.tolist(), node.tolist()), weight.tolist()))
    # ratio = residual / nominal load = 0.4 / 0.5
    assert w[1, 1] == pytest.approx(0.8 * 0.2)
    assert w[2, 1] == pytest.approx(0.8 * 0.3)
    assert w[1, 1] + w[2, 1] == pytest.approx(0.4)
    # node 0 has full residual 1.0 and the same nominal load
    assert w[1, 0] == pytest.approx(0.2 / 0.5)
    assert w[2, 0] == pytest.approx(0.3 / 0.5)
    # each is the paper's pseudoedge from the root or chain node of its step
    ref = paper_network(aug, [P_AXIS])
    pseudo = {(e.src, e.dst): e.weight for e in ref.net.edges}
    sender = {1: ref.roots[0], 2: ref.chain[(0, 2)]}
    assert w == {(t, v): pseudo[sender[t], v] for t, v in w}


def test_recommendation_per_similar_edge_and_product_in_source_order():
    # edge (u, v) with similarity h gives product p the weight ratio(v) * alpha_p * h
    edges = [(2, 1, 0.2), (0, 1, 0.1), (3, 0, 0.3), (1, 3, 0.2), (0, 3, 0.1)]
    sims = {(1, 2): 0.5, (0, 1): 0.25, (0, 3): 0.8}
    net = Network.from_edges(4, edges, sims)
    plans = [ChannelPlan(product=0, alpha=1.0, beta=(0.1,)), ChannelPlan(product=1, alpha=0.5, beta=(0.0,))]
    aug = build_augmented(net, [P_AXIS, Q_AXIS], plans)
    rec = aug.recommendations
    got = list(zip(rec.src.tolist(), rec.dst.tolist(), rec.product.tolist(), rec.weight.tolist()))
    want = []
    for u, v, _ in sorted(edges):
        for i, plan in enumerate(plans):
            w = aug.scale[v] * plan.alpha * sims.get((min(u, v), max(u, v)), 0.0)
            if w > 0.0:
                want.append((u, v, i, w))
    assert got == want
    assert {(u, v) for u, v, _, _ in got} == {(2, 1), (0, 1), (3, 0), (0, 3)}
    # no pseudonodes; the threshold width counts the real nodes, the roots,
    # and no chain without a step-2 slot
    assert aug.net is net and aug.threshold_width == 4 + 2
    # the capacity rule, summed here: channel weights in (0, 1], in-weights at most 1
    _, _, m_node, m_weight = media_edges(aug.media)
    weights = np.concatenate([m_weight, rec.weight])
    assert ((weights > 0.0) & (weights <= 1.0)).all()
    ins = ((net.dst, net.weight), (m_node, m_weight), (rec.dst, rec.weight))
    in_sums = sum(np.bincount(dst, weight, 4) for dst, weight in ins)
    assert (in_sums <= 1.0 + WEIGHT_SUM_TOL).all()


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
        ref = paper_network(aug, products)
        relay = ref.relays[(0, 0, 1)]
        chi = ref.thresholds(np.full(ref.net.node_count, 0.99))
        out = run_diffusion(ref.net, products, ref.seeds, chi)
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
        ref = paper_network(aug, [p], GadgetParams(chi_w=chi_w, epsilon=eps))
        relay = ref.relays[(0, 0, 1)]
        w = {(e.src, e.dst): e.weight for e in ref.net.edges}
        chi = ref.thresholds(np.full((1, ref.net.node_count), 0.99))
        assert chi[0, relay] <= w[ref.roots[0], relay] + w[0, relay]
        at, bought = simulate_batch(ref.net, [p], [RowBlock(1, ref.seeds)], chi)
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
    at, bought = simulate_batch(aug.net, products, [aug.row_block(1)], chi)
    assert at[0, 0] == 1  # media reaches node 0 at step 1
    assert (at[0, 1], bought[0, 1]) == (3, 0)
    ref = paper_network(aug, products)
    out = run_diffusion(ref.net, products, ref.seeds, ref.thresholds(np.full(ref.net.node_count, 0.5)))
    assert out.activation_time[ref.relays[(0, 0, 1)]] == 2
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
    assert e.read_text().splitlines()[1:] == ["0 1 0.3"]  # the base network
    payload = json.loads(ps.read_text())
    media = media_edges(aug.media)[3].tolist()
    assert payload["media"] == [
        {"product": 0, "step": 1, "node": 0, "weight": media[0]},
        {"product": 0, "step": 1, "node": 1, "weight": media[1]},
    ]
    w = aug.recommendations.weight[0]
    assert payload["recommendations"] == [{"kind": "recommendation", "product": 0, "edge": [0, 1], "weight": w}]


GOLDEN = Path(__file__).parent / "data"


def test_augmented_dump_matches_the_golden_file(tmp_path):
    # two products with ids unlike their indices, media up to step 3 and
    # recommendations for both products: every media edge, recommendation,
    # edge weight and scaling ratio is pinned
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
    # every weight bit: weights are written with repr
    assert e.read_bytes() == (GOLDEN / "augmented_edges.txt").read_bytes()
    assert aug.scale.tobytes() == (GOLDEN / "augmented_scale.bin").read_bytes()
