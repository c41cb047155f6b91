import dataclasses
import itertools
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from campaignsim import oracle
from campaignsim.channels import ChannelPlan, build_augmented
from campaignsim.diffusion import PurchaseTieError, Recommendations, simulate_batch
from campaignsim.estimator import CALL_CELLS
from campaignsim.feature_space import Product, normalize_product
from campaignsim.fixtures import BRIDGE, TARGET, blocking_demo, ce_toy, preference_shift
from campaignsim.network import Edge, Network
from campaignsim.oracle import (
    EnumerationCapError,
    GridSpec,
    analytic_blocking_demo,
    exact_spread_grid,
)
from gadget_reference import paper_network
from scalar_reference import in_neighbors, run_diffusion

P_AXIS = Product(id=0, features=(1.0, 0.0), null_index=1)
Q_AXIS = Product(id=1, features=(0.0, 1.0), null_index=0)


def media_037():
    net = Network.from_edges(3, [Edge(0, 2, 1.0), Edge(2, 0, 1.0), Edge(2, 1, 0.63)])
    plans = [ChannelPlan(product=0, seeds=frozenset(), alpha=0.0, beta=(0.0, 1.0))]
    return build_augmented(net, [P_AXIS], plans)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(resolution=0)


def test_grid_resolution_must_be_an_integer():
    # 2.5 midpoints per node is no grid: product 0's "exact" spread on
    # preference_shift read 3.616 with only nodes 0, 2 and 4 in its reach
    for bad in (2.5, 4.0, True, "4"):
        with pytest.raises(ValueError, match="grid resolution must be an integer >= 1"):
            GridSpec(resolution=bad)
    assert GridSpec(resolution=np.int64(4)).resolution == 4


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


@pytest.mark.parametrize("node", [-1, 37, BRIDGE - 37])
def test_a_pinned_node_outside_the_network_raises(node):
    # -34 used to pin node 3 while still enumerating it, and 37 raised
    # numpy's IndexError
    net, products, plans = blocking_demo("base")
    aug = build_augmented(net, products, plans)
    with pytest.raises(ValueError, match=f"node {node} is not one of the network's 37 nodes"):
        exact_spread_grid(aug, products, GridSpec(resolution=50), pinned={node: 0.65})


def brute_force_grid(aug, products, m):
    """Independent route: enumerate the full m^n grid with the scalar engine
    on the paper's construction."""
    ref = paper_network(aug, products)
    net, seeds, n = ref.net, ref.seeds, aug.net.node_count
    seeded = set()
    for ns in seeds:
        seeded |= ns
    base_chi = ref.thresholds(np.full(net.node_count, 2.0))
    free = [v for v in range(n) if v not in seeded and in_neighbors(net, v)]
    mids = [(i + 0.5) / m for i in range(m)]
    real = np.arange(n)
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


def test_skipped_breakpoints_give_the_collapsed_result(monkeypatch):
    # past the breakpoint cap every midpoint is a cell of its own: more
    # tuples, the same values
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    m = 6
    collapsed = exact_spread_grid(aug, products, GridSpec(resolution=m))
    monkeypatch.setattr(oracle, "_MAX_NORM_COMBOS", 1)
    full = exact_spread_grid(aug, products, GridSpec(resolution=m))
    assert full.tuples_evaluated == m**3  # nodes 2, 3 and 4 are free
    assert collapsed.tuples_evaluated < full.tuples_evaluated
    assert np.allclose(full.spread, collapsed.spread, rtol=0, atol=1e-12)
    assert np.allclose(full.node_probability, collapsed.node_probability, rtol=0, atol=1e-12)


def test_kernel_calls_stay_within_the_cell_cap(monkeypatch):
    # 12 free nodes of two cells each on a 40-node network: 4,096 tuples,
    # more rows than one call over 40 nodes may hold
    n, free = 40, range(1, 13)
    net = Network.from_edges(n, [Edge(0, v, 0.5) for v in free])
    plans = [ChannelPlan(product=0, seeds=frozenset({0}), alpha=0.0, beta=())]
    aug = build_augmented(net, [P_AXIS], plans)
    calls = []

    def recording(net, products, blocks, thresholds, **kwargs):
        calls.append((sum(b.rows for b in blocks), net.node_count))
        return simulate_batch(net, products, blocks, thresholds, **kwargs)

    monkeypatch.setattr(oracle, "simulate_batch", recording)
    res = exact_spread_grid(aug, [P_AXIS], GridSpec(resolution=4))
    assert res.tuples_evaluated == 2 ** len(free) == sum(rows for rows, _ in calls)
    assert len(calls) > 1
    assert all(rows * nodes <= CALL_CELLS for rows, nodes in calls)
    # each free node buys iff its threshold is at most 0.5: two of four midpoints
    assert res.spread_of(0) == pytest.approx(1 + 0.5 * len(free), abs=1e-12)


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


def test_oracle_takes_the_compiled_products_in_order():
    # one product of two used to fail with an IndexError, and a reversed
    # list ran each plan with the other product's vector
    net, products, plans = blocking_demo("base")
    aug = build_augmented(net, products, plans)
    for wrong in (products[:1], products[::-1]):
        with pytest.raises(ValueError, match="compiled plans' products"):
            exact_spread_grid(aug, wrong, GridSpec(4))


def test_oracle_refuses_tied_instances():
    net = Network.from_edges(3, [(0, 2, 0.3), (1, 2, 0.3)])
    plans = [
        ChannelPlan(product=0, seeds=frozenset({0})),
        ChannelPlan(product=1, seeds=frozenset({1})),
    ]
    aug = build_augmented(net, [P_AXIS, Q_AXIS], plans)
    with pytest.raises(PurchaseTieError):
        exact_spread_grid(aug, [P_AXIS, Q_AXIS], GridSpec(resolution=10))


def paper_oracle(aug, products, grid):
    """exact_spread_grid on the paper's construction: its pseudonodes are
    pinned at their fixed thresholds and the roots seeded, with no channel
    edges left; each pseudonode in-edge then brings the breakpoints of every
    product, a superset of what it can carry."""
    ref = paper_network(aug, products)
    n = aug.net.node_count
    ref_aug = dataclasses.replace(
        aug,
        net=ref.net,
        plans=tuple(dataclasses.replace(plan, seeds=seeds) for plan, seeds in zip(aug.plans, ref.seeds)),
        media=np.zeros((0, 0, 0)),
        recommendations=Recommendations(
            np.zeros(ref.net.node_count + 1, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros((len(products), 0))
        ),
    )
    pinned = {int(v): float(t) for v, t in enumerate(ref.fixed, start=n)}
    return exact_spread_grid(ref_aug, products, grid, pinned=pinned)


def test_oracle_on_recommendations_equals_the_oracle_on_relays():
    # each media and recommendation in-edge brings its breakpoints {0, w * p};
    # without them the piece collapsing merges midpoints whose outcomes differ
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
        assert len(aug.recommendations) and np.count_nonzero(aug.media)
        n = aug.net.node_count
        for m in (7, 20):
            got = exact_spread_grid(aug, products, GridSpec(resolution=m))
            want = paper_oracle(aug, products, GridSpec(resolution=m))
            assert got.tuples_evaluated <= want.tuples_evaluated
            # real nodes only: the paper's pseudonodes also buy
            assert np.allclose(got.node_probability, want.node_probability[:, :n], rtol=0, atol=1e-12)
            assert np.allclose(got.spread, got.node_probability.sum(axis=1), rtol=0, atol=1e-12)


def materialised_cells(norms, m):
    """The collapsed cells built from every midpoint, as their definition
    reads: midpoints in the same gap between breakpoints share a cell."""
    mids = (np.arange(m) + 0.5) / m
    piece = np.searchsorted(norms, mids, side="left")
    cells = []
    for pid in np.unique(piece):
        idx = np.flatnonzero(piece == pid)
        cells.append((float(mids[idx[0]]), int(idx.size)))
    return np.array([mid for mid, _ in cells]), np.array([count for _, count in cells])


def random_breakpoints(rng, m):
    """Sorted distinct norms: random ones, some midpoints of m and their
    float neighbours, 0, 1 and a norm just past 1."""
    mids = (rng.integers(0, m, size=5) + 0.5) / m
    return np.unique(np.concatenate([
        rng.random(8), mids, np.nextafter(mids, 0.0), np.nextafter(mids, 2.0), [0.0, 1.0, 1.0 + 1e-10],
    ]))


def test_cells_from_breakpoints_equal_the_materialised_cells():
    rng = np.random.default_rng(8)
    for m in [*range(1, 201), 10**6]:
        for _ in range(3):
            norms = random_breakpoints(rng, m)
            starts = oracle._piece_starts(norms, m)
            assert_same_cells(oracle._cells(starts, m), materialised_cells(norms, m))
    # skipped breakpoints: every midpoint is a cell of its own
    assert oracle._piece_starts(None, 9) is None
    assert_same_cells(oracle._cells(None, 9), ((np.arange(9) + 0.5) / 9, np.ones(9, dtype=np.int64)))


def assert_same_cells(got, want):
    """(midpoints, counts) arrays equal bit for bit, midpoints as floats and counts as ints."""
    (mids, counts), (want_mids, want_counts) = got, want
    assert mids.dtype == np.float64 and counts.dtype.kind == "i"
    assert np.array_equal(mids, want_mids) and np.array_equal(counts, want_counts)


def test_huge_resolution_runs_in_bounded_memory():
    # 10^9 midpoints take 8 GB as one array; the cells come from the
    # breakpoints alone, so the oracle runs within a 1 GiB address space
    m = 10**9
    code = (
        "from campaignsim.channels import build_augmented\n"
        "from campaignsim.fixtures import preference_shift\n"
        "from campaignsim.oracle import GridSpec, exact_spread_grid\n"
        "net, products, plans = preference_shift()\n"
        f"res = exact_spread_grid(build_augmented(net, products, plans), products, GridSpec(resolution={m}))\n"
        "print(res.tuples_evaluated, res.spread.tolist())\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    net, products, plans = preference_shift()
    res = exact_spread_grid(build_augmented(net, products, plans), products, GridSpec(resolution=m))
    assert proc.stdout.split(maxsplit=1) == [str(res.tuples_evaluated), f"{res.spread.tolist()}\n"]
