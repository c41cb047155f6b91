import dataclasses
import itertools
import math

import numpy as np
import pytest

from campaignsim import oracle
from campaignsim.channels import ChannelPlan, build_augmented
from campaignsim.diffusion import PurchaseTieError, Recommendations, SeedAssignment
from campaignsim.feature_space import Product, normalize_product
from campaignsim.fixtures import BRIDGE, TARGET, blocking_demo, ce_toy, preference_shift
from campaignsim.network import Edge, Network, NodeKind
from campaignsim.oracle import (
    EnumerationCapError,
    GridSpec,
    analytic_blocking_demo,
    exact_spread_grid,
)
from gadget_reference import gadget_network
from scalar_reference import run_diffusion

P_AXIS = Product(id=0, features=(1.0, 0.0), null_index=1)
Q_AXIS = Product(id=1, features=(0.0, 1.0), null_index=0)


def media_037():
    net = Network.from_edges(3, [Edge(0, 2, 1.0), Edge(2, 0, 1.0), Edge(2, 1, 0.63)])
    plans = [ChannelPlan(product=0, seeds=frozenset(), alpha=0.0, beta=(0.0, 1.0))]
    return build_augmented(net, [P_AXIS], plans)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(resolution=0)


def test_single_pseudoedge_probability_is_exact_on_the_grid():
    # midpoints (i-0.5)/100: exactly 37 of them are <= 0.37
    aug = media_037()
    res = exact_spread_grid(aug, [P_AXIS], GridSpec(resolution=100))
    assert res.spread_of(0) == pytest.approx(0.37, abs=1e-12)
    assert res.node_probability[0, 1] == pytest.approx(0.37, abs=1e-12)
    assert res.node_probability[0, 0] == 0.0
    assert res.node_probability[0, 2] == 0.0


def test_sure_chain_spread_is_resolution_independent():
    net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    aug = build_augmented(net, [P_AXIS], [ChannelPlan(product=0, seeds=frozenset({0}))])
    for m in (1, 3, 64):
        res = exact_spread_grid(aug, [P_AXIS], GridSpec(resolution=m))
        assert res.spread_of(0) == 3.0


def test_blocking_demo_base_matches_the_closed_form():
    net, products, plans = blocking_demo("base")
    aug = build_augmented(net, products, plans)
    res = exact_spread_grid(aug, products, GridSpec(resolution=50))
    values = analytic_blocking_demo("base")
    # every branch probability (0.6, 0.3) is exactly representable at m=50
    assert res.spread_of(0) == pytest.approx(values.focal_spread, abs=1e-9)
    assert res.node_probability[1, BRIDGE] == pytest.approx(values.bridge_competitor_prob, abs=1e-12)
    assert res.node_probability[0, TARGET] == pytest.approx(values.target_focal_prob, abs=1e-12)


def test_blocking_demo_extra_seed_on_the_grid():
    # the bridge crossing sqrt(0.52) ~ 0.7211 is not grid-aligned: 36 of the
    # 50 midpoints sit below it, so the grid activation probability is 0.72
    net, products, plans = blocking_demo("extra_seed")
    aug = build_augmented(net, products, plans)
    res = exact_spread_grid(aug, products, GridSpec(resolution=50))
    p_target = (1.0 - 0.72) * 0.3
    assert res.spread_of(0) == pytest.approx(4 + p_target * 31, abs=1e-9)
    grid_bridge = (res.node_probability[0, BRIDGE] + res.node_probability[1, BRIDGE])
    assert grid_bridge == pytest.approx(0.72, abs=1e-12)


def test_analytic_values_are_the_frozen_constants():
    base = analytic_blocking_demo("base")
    extra = analytic_blocking_demo("extra_seed")
    assert base.focal_spread == pytest.approx(6.72, abs=1e-12)
    assert base.bridge_competitor_prob == 0.6
    assert base.target_focal_prob == pytest.approx(0.12, abs=1e-12)
    assert extra.bridge_competitor_prob == pytest.approx(0.7211102550927979, abs=1e-15)
    assert extra.focal_spread == pytest.approx(6.593674627636979, abs=1e-12)
    assert extra.focal_spread < base.focal_spread
    with pytest.raises(ValueError):
        analytic_blocking_demo("nope")


def test_pinned_threshold_overrides_enumeration():
    net, products, plans = blocking_demo("base")
    aug = build_augmented(net, products, plans)
    # held above 0.6 the bridge never activates and the focal product takes
    # the target with probability 0.3
    res = exact_spread_grid(aug, products, GridSpec(resolution=50), pinned={BRIDGE: 0.65})
    assert res.spread_of(0) == pytest.approx(3 + 0.3 * 31, abs=1e-9)
    assert res.node_probability[1, BRIDGE] == 0.0


def brute_force_grid(aug, products, m):
    """Independent route: enumerate the full m^n grid with the scalar engine
    on the paper's relay gadget."""
    net, _ = gadget_network(aug, products)
    seeds = aug.seed_assignment()
    seeded = set()
    for ns in seeds.by_product:
        seeded |= ns
    base_chi = np.full(net.node_count, 2.0)
    fixed = ~np.isnan(net.fixed_threshold)
    base_chi[fixed] = net.fixed_threshold[fixed]
    free = [
        v
        for v in range(net.node_count)
        if net.node_kind[v] == NodeKind.REAL and v not in seeded and net.in_neighbors(v)
    ]
    mids = [(i + 0.5) / m for i in range(m)]
    real = net.real_nodes()
    k = len(products)
    spread = np.zeros(k)
    count = 0
    for combo in itertools.product(mids, repeat=len(free)):
        chi = base_chi.copy()
        for slot, v in enumerate(free):
            chi[v] = combo[slot]
        out = run_diffusion(net, products, seeds, chi)
        for j in range(k):
            spread[j] += float(np.sum(out.purchased[real] == j))
        count += 1
    return spread / count


def test_collapsed_enumeration_equals_the_full_grid():
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    m = 6
    res = exact_spread_grid(aug, products, GridSpec(resolution=m))
    brute = brute_force_grid(aug, products, m)
    assert res.spread[0] == pytest.approx(brute[0], abs=1e-12)
    assert res.spread[1] == pytest.approx(brute[1], abs=1e-12)
    # the contested node crosses sqrt(0.41) for 4 of the 6 midpoints
    assert res.spread_of(0) == pytest.approx(2 + 4 / 6, abs=1e-12)
    assert res.spread_of(1) == pytest.approx(2.0, abs=1e-12)
    # far fewer tuples than 6^3: the sure relays collapse to one cell each
    assert res.tuples_evaluated < m**3


def test_collapsed_enumeration_equals_full_grid_with_channels():
    net = Network.from_edges(
        4, [(0, 1, 0.4), (1, 2, 0.35), (0, 3, 0.2), (3, 2, 0.3)], similarities={(1, 2): 0.6}
    )
    products = [P_AXIS, Q_AXIS]
    plans = [
        ChannelPlan(product=0, seeds=frozenset({0}), alpha=0.8, beta=(0.3, 0.0)),
        ChannelPlan(product=1, seeds=frozenset(), alpha=0.0, beta=(0.0, 0.4)),
    ]
    aug = build_augmented(net, products, plans)
    m = 5
    res = exact_spread_grid(aug, products, GridSpec(resolution=m))
    brute = brute_force_grid(aug, products, m)
    assert res.spread[0] == pytest.approx(brute[0], abs=1e-12)
    assert res.spread[1] == pytest.approx(brute[1], abs=1e-12)


def test_node_probabilities_sum_to_spread():
    net, products, plans = blocking_demo("base")
    aug = build_augmented(net, products, plans)
    res = exact_spread_grid(aug, products, GridSpec(resolution=20))
    for j in range(2):
        assert res.node_probability[j].sum() == pytest.approx(float(res.spread[j]), abs=1e-9)


def test_enumeration_cap_is_enforced():
    net, products, plans = blocking_demo("base")
    aug = build_augmented(net, products, plans)
    with pytest.raises(EnumerationCapError):
        exact_spread_grid(aug, products, GridSpec(resolution=50, max_tuples=2))


def test_oracle_refuses_tied_instances():
    net = Network.from_edges(3, [(0, 2, 0.3), (1, 2, 0.3)])
    plans = [
        ChannelPlan(product=0, seeds=frozenset({0})),
        ChannelPlan(product=1, seeds=frozenset({1})),
    ]
    aug = build_augmented(net, [P_AXIS, Q_AXIS], plans)
    with pytest.raises(PurchaseTieError):
        exact_spread_grid(aug, [P_AXIS, Q_AXIS], GridSpec(resolution=10))


def gadget_oracle(aug, products, grid, monkeypatch):
    """exact_spread_grid on the paper's relay gadget: relays are pseudonodes
    that can only ever buy their own product."""
    ref, relays = gadget_network(aug, products)
    empty = np.zeros(0, dtype=np.intp)
    ref_aug = dataclasses.replace(aug, net=ref, recommendations=Recommendations(empty, empty, empty, np.zeros(0)))
    owners = oracle._source_products
    with monkeypatch.context() as m:
        m.setattr(oracle, "_source_products", lambda a: owners(a) | {node: key[0] for key, node in relays.items()})
        return exact_spread_grid(ref_aug, products, grid)


def test_oracle_on_recommendations_equals_the_oracle_on_relays(monkeypatch):
    # each recommendation in-edge brings its breakpoints {0, w * p}; without
    # them the piece collapsing merges midpoints whose outcomes differ
    net, products, _ = ce_toy()
    instances = [
        (net, products, [ChannelPlan(product=0, seeds=frozenset({0}), alpha=0.5, beta=(0.25, 0.25))]),
        (net, products, [ChannelPlan(product=0, seeds=frozenset({3}), alpha=1.25, beta=(0.0, 0.5))]),
        (
            Network.from_edges(
                4, [(0, 1, 0.4), (1, 2, 0.35), (0, 3, 0.2), (3, 2, 0.3)], similarities={(1, 2): 0.6, (0, 3): 0.9}
            ),
            [
                normalize_product((0.9, 0.3), null_index=1, product_id=0),
                normalize_product((0.2, 0.8), null_index=1, product_id=1),
            ],
            [
                ChannelPlan(product=0, seeds=frozenset({0}), alpha=0.8, beta=(0.3, 0.0)),
                ChannelPlan(product=1, seeds=frozenset(), alpha=0.6, beta=(0.0, 0.4)),
            ],
        ),
    ]
    for net, products, plans in instances:
        aug = build_augmented(net, products, plans)
        assert len(aug.recommendations)
        n = aug.net.node_count
        for m in (7, 20):
            got = exact_spread_grid(aug, products, GridSpec(resolution=m))
            want = gadget_oracle(aug, products, GridSpec(resolution=m), monkeypatch)
            assert got.tuples_evaluated == want.tuples_evaluated
            assert np.array_equal(got.spread, want.spread)
            assert np.array_equal(got.node_probability, want.node_probability[:, :n])
            assert not want.node_probability[:, n:].any()
