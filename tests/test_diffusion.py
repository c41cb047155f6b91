import math
import platform
import resource

import numpy as np
import pytest

from campaignsim.channels import ChannelPlan, build_augmented
from campaignsim.diffusion import PurchaseTieError, RowBlock, simulate_batch
from campaignsim.estimator import estimate_spread
from campaignsim.feature_space import COS_TIE_TOL, Product, normalize_product
from campaignsim.fixtures import (
    BRIDGE,
    COMPETITOR_SEED,
    FIRST_FOLLOWER,
    FOCAL_SEED,
    HELPER,
    SURE_A,
    SURE_B,
    TARGET,
    blocking_demo,
    preference_shift,
)
from campaignsim.network import Edge, Network
from campaignsim.rng import key_uniform
from gadget_reference import CHAIN_THRESHOLD, media_edges, paper_network
from lt_reference import classical_lt, random_lt_instance
from scalar_reference import DiffusionNotConverged, in_neighbors, initial_state, run_diffusion, step

P_AXIS = Product(id=0, features=(1.0, 0.0), null_index=1)
Q_AXIS = Product(id=1, features=(0.0, 1.0), null_index=0)


def run_both(net, products, seeds, chi, *, seed=0, rep=0):
    """Scalar reference and batch kernel on one threshold draw; must agree."""
    out = run_diffusion(net, products, seeds, chi, tie_key=(seed, rep))
    at, pu = simulate_batch(net, products, [RowBlock(1, seeds, master_seed=seed, rep_offset=rep)], chi[None, :])
    assert np.array_equal(out.activation_time, at[0])
    assert np.array_equal(out.purchased, pu[0])
    return out


# -- staggered-influence narrative --------------------------------------


def test_contested_node_waits_for_the_second_wave():
    net, products, _ = preference_shift()
    seeds = (frozenset({0}), frozenset({1}))
    chi = np.array([0.9, 0.9, 0.5, 0.5, 0.45])
    # step 1: relays hear their seeds (norm 1); the contested node hears
    # (0.4, 0.2), norm sqrt(0.2) ~ 0.447 < 0.45, and waits
    s1 = step(net, products, initial_state(net, products, seeds), chi)
    assert s1.activation_time.tolist() == [0, 0, 1, 1, -1]
    # step 2: the relays add (0.1, 0.2); norm sqrt(0.41) ~ 0.64 crosses,
    # and (0.5, 0.4) still leans to product 0
    s2 = step(net, products, s1, chi)
    assert s2.activation_time.tolist() == [0, 0, 1, 1, 2]
    assert s2.purchased.tolist() == [0, 1, 0, 1, 0]
    out = run_both(net, products, seeds, chi)
    assert out.purchased.tolist() == [0, 1, 0, 1, 0]


def test_contested_node_eager_threshold_buys_at_step_one():
    net, products, _ = preference_shift()
    seeds = (frozenset({0}), frozenset({1}))
    chi = np.array([0.9, 0.9, 0.5, 0.5, 0.3])
    out = run_both(net, products, seeds, chi)
    assert out.activation_time.tolist() == [0, 0, 1, 1, 1]
    assert out.purchased[4] == 0


# -- bridge-blocking narrative ------------------------------------------


def blocking_chi(bridge, target):
    net, products, _ = blocking_demo("base")
    chi = np.full(net.node_count, 0.8)
    chi[BRIDGE] = bridge
    chi[TARGET] = target
    return net, products, chi


def test_active_bridge_blocks_the_target():
    net, products, chi = blocking_chi(bridge=0.5, target=0.2)
    seeds = (frozenset({FOCAL_SEED}), frozenset({COMPETITOR_SEED}))
    out = run_both(net, products, seeds, chi)
    # bridge crosses 0.6 at step 1 and buys the competitor product
    assert out.activation_time[BRIDGE] == 1 and out.purchased[BRIDGE] == 1
    # at step 2 the target hears 0.3 p + 0.7 q (norm ~0.762) and follows q
    assert out.activation_time[TARGET] == 2 and out.purchased[TARGET] == 1
    assert all(out.purchased[FIRST_FOLLOWER + i] == 1 for i in range(30))
    assert out.activation_time[SURE_A] == 1 and out.activation_time[SURE_B] == 1
    assert out.activation_time[HELPER] == -1


def test_inactive_bridge_lets_the_focal_product_through():
    net, products, chi = blocking_chi(bridge=0.7, target=0.2)
    seeds = (frozenset({FOCAL_SEED}), frozenset({COMPETITOR_SEED}))
    out = run_both(net, products, seeds, chi)
    assert out.activation_time[BRIDGE] == -1
    # the 0.3 focal edge comes through the relay node, so step 2, not 1
    assert out.activation_time[TARGET] == 2 and out.purchased[TARGET] == 0
    assert all(out.purchased[FIRST_FOLLOWER + i] == 0 for i in range(30))


def test_extra_seed_wakes_the_helper_and_strengthens_the_bridge():
    net, products, _ = blocking_demo("extra_seed")
    seeds = (frozenset({FOCAL_SEED, HELPER}), frozenset({COMPETITOR_SEED}))
    chi = np.full(net.node_count, 0.8)
    chi[BRIDGE] = 0.65  # above 0.6, below sqrt(0.52) ~ 0.721
    chi[TARGET] = 0.2
    out = run_both(net, products, seeds, chi)
    # with both feeds the bridge aggregate is (0.4, 0.6); it still buys q
    assert out.activation_time[BRIDGE] == 1 and out.purchased[BRIDGE] == 1
    assert out.purchased[TARGET] == 1


# -- purchase immutability ----------------------------------------------


def test_early_purchase_withstands_a_later_stronger_wave():
    net = Network.from_edges(5, [(0, 2, 0.3), (1, 3, 1.0), (3, 4, 1.0), (4, 2, 0.6)])
    products = [P_AXIS, Q_AXIS]
    seeds = (frozenset({0}), frozenset({1}))
    chi = np.array([0.9, 0.9, 0.25, 0.5, 0.5])
    out = run_both(net, products, seeds, chi)
    assert out.activation_time[2] == 1 and out.purchased[2] == 0
    # same network, higher threshold: the node waits and the q wave wins
    chi2 = chi.copy()
    chi2[2] = 0.5
    out2 = run_both(net, products, seeds, chi2)
    assert out2.activation_time[2] == 3 and out2.purchased[2] == 1


# -- structural properties ----------------------------------------------


def random_vector_instance(rng):
    n = int(rng.integers(3, 12))
    edges = {}
    for v in range(n):
        deg = int(rng.integers(0, min(4, n)))
        if deg == 0:
            continue
        srcs = rng.choice([u for u in range(n) if u != v], size=deg, replace=False)
        raw = rng.random(deg)
        budget = rng.uniform(0.3, 1.0)
        for u, r in zip(srcs, raw):
            w = float(r / raw.sum() * budget)
            if w > 0:
                edges[(int(u), v)] = w
    net = Network.from_edges(n, [Edge(u, v, b) for (u, v), b in edges.items()])
    k = int(rng.integers(1, 4))
    raw = rng.uniform(0.05, 1.0, size=(k, 3))
    # half the time one feature, at any index, is in no product: the kernel
    # drops its column, and the scalar reference keeps it
    unused = int(rng.integers(0, 6))
    if unused < 3:
        raw[:, unused] = 0.0
    products = [normalize_product(raw[i], 0, product_id=i) for i in range(k)]
    nodes = list(rng.permutation(n))
    per = [frozenset({int(nodes[i])}) for i in range(min(k, n))]
    per += [frozenset()] * (k - len(per))
    return net, products, tuple(per)


def test_batch_equals_scalar_on_random_instances():
    rng = np.random.default_rng(21)
    for case in range(30):
        net, products, seeds = random_vector_instance(rng)
        R = 8
        chi = rng.random((R, net.node_count))
        at, pu = simulate_batch(net, products, [RowBlock(R, seeds, master_seed=77, rep_offset=3)], chi)
        for r in range(R):
            out = run_diffusion(net, products, seeds, chi[r], tie_key=(77, 3 + r))
            assert np.array_equal(out.activation_time, at[r]), f"case {case} rep {r}"
            assert np.array_equal(out.purchased, pu[r])


def channel_instance(products, rng, n=12):
    """Base graph with similarities plus equal media and social plans per product.

    Every product gets the same alpha and schedule, so a node that hears only
    media sees an exact purchase tie among all products; the last two nodes
    have no base in-edges and hear nothing else.
    """
    edges, sims = {}, {}
    for v in range(n - 2):
        for u in rng.choice([u for u in range(n - 2) if u != v], size=2, replace=False):
            edges[(int(u), v)] = float(rng.uniform(0.1, 0.3))
            if rng.random() < 0.6:
                sims[(min(int(u), v), max(int(u), v))] = float(rng.uniform(0.2, 1.0))
    net = Network.from_edges(n, [Edge(u, v, w) for (u, v), w in edges.items()], sims)
    plans = [
        ChannelPlan(product=p.id, seeds=frozenset({i}), alpha=0.6, beta=(0.3, 0.3))
        for i, p in enumerate(products)
    ]
    return build_augmented(net, products, plans)


def test_batch_equals_scalar_on_augmented_instances_with_ties():
    rng = np.random.default_rng(23)
    mirror = [
        normalize_product([0.8, 0.6, 0.0], 2, product_id=0),
        normalize_product([0.6, 0.8, 0.0], 2, product_id=1),
    ]
    # cyclic permutations: equal media from all three gives a 3-way tie
    cyclic = [
        normalize_product(np.roll([0.7, 0.2, 0.1], i).tolist() + [0.0], 3, product_id=i) for i in range(3)
    ]
    for products in (mirror, cyclic):
        aug = channel_instance(products, rng)
        net = aug.net
        assert np.count_nonzero(aug.media) and len(aug.recommendations)
        # the scalar engine runs the paper's construction in their place
        ref = paper_network(aug, products)
        n = net.node_count
        media_only = [n - 2, n - 1]
        bought = set()
        for R, master, offset in ((1, 0, 0), (1, 2**63 + 7, 2**32 + 3), (17, 5, 4096), (17, 2**64 - 1, 2**40 + 1)):
            chi = ref.thresholds(rng.random((R, ref.net.node_count)))
            with pytest.raises(PurchaseTieError):
                simulate_batch(net, products, [aug.row_block(R)], chi[:, :n], on_tie="raise")
            at, pu = simulate_batch(net, products, [aug.row_block(R, master, offset)], chi[:, :n])
            for r in range(R):
                out = run_diffusion(ref.net, products, ref.seeds, chi[r], tie_key=(master, offset + r))
                assert np.array_equal(out.activation_time[:n], at[r]), (len(products), R, r)
                assert np.array_equal(out.purchased[:n], pu[r]), (len(products), R, r)
            bought |= set(pu[:, media_only].ravel().tolist()) - {-1}
        # the media-only nodes broke their ties every way there is
        assert bought == set(range(len(products)))


def test_recommendations_add_after_direct_contributions_in_source_order():
    # seeds 0 and 1 recommend to node 4 at step 2, when nodes 2 and 3 (fed
    # by seed 0) also reach it directly; the float sum depends on the order,
    # and a threshold on the contract's sum is met only in that order
    net = Network.from_edges(
        5, [(0, 2, 1.0), (0, 3, 1.0), (0, 4, 0.05), (1, 4, 0.05), (2, 4, 0.05), (3, 4, 0.15)],
        similarities={(0, 4): 0.9, (1, 4): 0.7},
    )
    aug = build_augmented(net, [P_AXIS], [ChannelPlan(product=0, seeds=frozenset({0, 1}), alpha=1.0)])
    w0, w1 = aug.recommendations.listing()[3].tolist()
    contract = 0.05 + 0.05 + 0.05 + 0.15 + w0 + w1  # step 1, then step 2: direct, then recommendations
    assert contract > 0.05 + 0.05 + w0 + w1 + 0.05 + 0.15  # recommendations first
    assert contract > 0.05 + 0.05 + 0.05 + 0.15 + w1 + w0  # descending source
    chi = np.full((2, aug.net.node_count), 0.5)
    chi[:, 4] = [contract, math.nextafter(contract, math.inf)]
    assert np.count_nonzero(aug.media) == 0
    at, _ = simulate_batch(aug.net, [P_AXIS], [aug.row_block(2)], chi)
    assert at[:, 4].tolist() == [2, -1]
    # beside a block without channels, where node 4 never gets there, each
    # block's rows come out as alone
    plain = RowBlock(2, aug.row_block(2).seeds)
    both, _ = simulate_batch(aug.net, [P_AXIS], [plain, aug.row_block(2)], np.vstack([chi, chi]))
    assert both[2:].tolist() == at.tolist() and both[:2, 4].tolist() == [-1, -1]


def kernel_norm(*contributions):
    """Norm of the sum of weight * product in the given order, as the kernel
    sums it: per feature onto a running total, squares in feature order."""
    agg = [0.0] * len(contributions[0][1].features)
    for w, p in contributions:
        agg = [a + x * w for a, x in zip(agg, p.features)]
    norm2 = 0.0
    for a in agg:
        norm2 = norm2 + a * a
    return math.sqrt(norm2)


def test_media_add_after_direct_contributions_and_before_recommendations():
    # node 2 hears seed 0 directly at step 1; at step 2 it hears node 1
    # directly, both products' media and seed 0's recommendation; the norm
    # depends on the order, and a threshold on the contract's norm is met
    # only in that order
    p = normalize_product([0.8, 0.6], 1, product_id=0)
    q = normalize_product([0.6, 0.8], 1, product_id=1)
    net = Network.from_edges(3, [(0, 1, 1.0), (0, 2, 0.05), (1, 2, 0.1)], similarities={(0, 2): 0.7})
    plans = [
        ChannelPlan(product=0, seeds=frozenset({0}), alpha=0.5, beta=(0.0, 0.3)),
        ChannelPlan(product=1, alpha=0.0, beta=(0.0, 0.2)),
    ]
    aug = build_augmented(net, [p, q], plans)
    m0, m1 = aug.media[1, :, 2].tolist()  # step 2, node 2
    (r,) = aug.recommendations.listing()[3].tolist()
    step1 = (0.05, p)
    contract = kernel_norm(step1, (0.1, p), (m0, p), (m1, q), (r, p))
    assert contract > kernel_norm(step1, (m0, p), (m1, q), (0.1, p), (r, p))  # media first
    assert contract > kernel_norm(step1, (0.1, p), (r, p), (m0, p), (m1, q))  # recommendations first
    assert contract > kernel_norm(step1, (0.1, p), (m1, q), (m0, p), (r, p))  # descending product
    chi = np.full((2, 3), 0.5)
    chi[:, 2] = [contract, math.nextafter(contract, math.inf)]
    at, _ = simulate_batch(net, [p, q], [aug.row_block(2)], chi)
    assert at[:, 2].tolist() == [2, -1]


def test_batch_runs_to_its_last_media_step():
    # nothing is seeded and nothing activates before step 4, when media
    # reach node 1; node 2 follows at step 5
    net = Network.from_edges(3, [(1, 2, 1.0), (2, 0, 1.0), (0, 1, 0.5)])
    aug = build_augmented(net, [P_AXIS], [ChannelPlan(product=0, beta=(0.0, 0.0, 0.0, 1.0))])
    step, _, node, _ = media_edges(aug.media)
    assert step.tolist() == [4] and node.tolist() == [1] and aug.media.shape == (4, 1, 3)
    assert len(aug.recommendations) == 0
    at, pu = simulate_batch(net, [P_AXIS], [aug.row_block(3)], np.full((3, 3), 0.4))
    assert at.tolist() == [[6, 4, 5]] * 3 and pu.tolist() == [[0, 0, 0]] * 3


def test_merged_products_dominate_cell_by_cell():
    """Products are unit vectors with non-negative features, so the norm of
    any mix of weighted products is at most the sum of its weights.  Merge
    both products into product 0, summing the seeds, the alphas and the
    betas step by step: the merged plan has the same channel load, so the
    same scaling, and every weight into a node is the sum of the two runs'.
    Under the same threshold rows, every cell active in the two-product run
    is then active in the merged run, at the same step or earlier.  Only
    rounding at an exact threshold tie could flip a cell."""
    from test_seeded_outputs import _synth

    net, products, (p0, p1) = _synth(1)
    seeds = (p0.seeds, p1.seeds)
    mixes = [  # (alpha, beta) of product 0, then of product 1
        ((0.5, (0.2, 0.2)), (0.0, (0.0, 0.0))),
        ((0.0, (0.3, 0.3)), (0.9, (0.0, 0.0))),
        ((0.1, (0.0, 0.5)), (0.2, (0.1, 0.1))),
        ((0.0, (0.0, 0.0)), (0.0, (0.0, 0.0))),
    ]
    chi = np.random.default_rng(1).random((256, net.node_count))
    active = active_merged = 0
    for mix in mixes:
        plans = [ChannelPlan(i, s, a, b) for i, s, (a, b) in zip((0, 1), seeds, mix)]
        merged = ChannelPlan(
            0, p0.seeds | p1.seeds, mix[0][0] + mix[1][0], tuple(x + y for x, y in zip(mix[0][1], mix[1][1]))
        )
        aug, one = build_augmented(net, products, plans), build_augmented(net, products[:1], [merged])
        at, _ = simulate_batch(net, products, [aug.row_block(256)], chi)
        at_merged, _ = simulate_batch(net, products[:1], [one.row_block(256)], chi)
        on = at >= 0
        assert not (on & ((at_merged < 0) | (at_merged > at))).any(), mix
        active, active_merged = active + int(on.sum()), active_merged + int((at_merged >= 0).sum())
    assert active_merged > active > 500_000


def test_first_crossing_matches_two_sided_condition():
    rng = np.random.default_rng(31)
    for _ in range(30):
        net, products, seeds = random_vector_instance(rng)
        chi = rng.random(net.node_count)
        out = run_diffusion(net, products, seeds, chi)
        pmat = np.array([p.vector for p in products])

        def agg_norm(v, t):
            # aggregate over nodes influenced by the end of step t
            acc = np.zeros(pmat.shape[1])
            for u, w in in_neighbors(net, v):
                if 0 <= out.activation_time[u] <= t:
                    acc += w * pmat[out.purchased[u]]
            return float(np.linalg.norm(acc))

        seeded = set()
        for ns in seeds:
            seeded |= ns
        for v in range(net.node_count):
            t = out.activation_time[v]
            if v in seeded:
                continue
            if t >= 1:
                assert agg_norm(v, t - 1) >= chi[v]
                if t >= 2:
                    assert agg_norm(v, t - 2) < chi[v]
            else:
                final = agg_norm(v, out.steps)
                assert final < chi[v] or final == 0.0


def test_node_iteration_order_is_irrelevant():
    rng = np.random.default_rng(41)
    for _ in range(10):
        net, products, seeds = random_vector_instance(rng)
        chi = rng.random(net.node_count)
        base = run_diffusion(net, products, seeds, chi, tie_key=(1, 1))
        order = list(rng.permutation(net.node_count))
        alt = run_diffusion(net, products, seeds, chi, tie_key=(1, 1), node_order=order)
        assert np.array_equal(base.activation_time, alt.activation_time)
        assert np.array_equal(base.purchased, alt.purchased)


def test_zero_aggregate_never_activates_even_at_zero_threshold():
    # node 2 has an in-edge from a node that never fires, and threshold 0
    net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, 0.5)])
    products = [P_AXIS]
    seeds = (frozenset(),)
    chi = np.zeros(3)
    out = run_both(net, products, seeds, chi)
    assert out.activation_time.tolist() == [-1, -1, -1]
    # the kernel only reads its thresholds: here a read-only, non-contiguous
    # view of a wider draw and a read-only copy of it, zero on seed 0, which
    # hears node 1 from step 2 on, and on node 3, whose aggregate has norm 0:
    # seed 0 reaches it at weight 5e-324, whose square underflows to 0, and
    # node 2 never fires
    net = Network.from_edges(4, [(0, 1, 1.0), (0, 3, 5e-324), (1, 0, 1.0), (2, 3, 0.5)])
    wide = np.random.default_rng(3).random((2, 7))
    wide[:, [0, 1, 3]] = 0.0
    wide.setflags(write=False)
    kept = wide.tobytes()
    contiguous = wide[:, :4].copy()
    contiguous.setflags(write=False)
    for chi in (wide[:, :4], contiguous):
        at, pu = simulate_batch(net, products, [RowBlock(2, (frozenset({0}),))], chi)
        assert at.tolist() == [[0, 1, -1, -1]] * 2 and pu.tolist() == [[0, 0, -1, -1]] * 2
    assert wide.tobytes() == kept and contiguous.tobytes() == wide[:, :4].tobytes()
    # every cell is tested at a media step: media reach nodes 2 and 3 at steps
    # 1 to 3, but nodes 0 and 1 fill each other's capacity, so no media reach
    # them, and at threshold 0 neither ever fires
    net = Network.from_edges(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 0.5)])
    aug = build_augmented(net, products, [ChannelPlan(product=0, beta=(0.2, 0.2, 0.2))])
    step, _, node, _ = media_edges(aug.media)
    assert sorted(set(node.tolist())) == [2, 3] and step[-1] == 3
    at, pu = simulate_batch(net, products, [aug.row_block(2)], np.zeros((2, 4)))
    assert at.tolist() == [[-1, -1, 1, 1]] * 2 and pu.tolist() == [[-1, -1, 0, 0]] * 2


def test_purchase_tie_raise_and_keyed_break():
    net = Network.from_edges(3, [(0, 2, 0.3), (1, 2, 0.3)])
    products = [P_AXIS, Q_AXIS]
    seeds = (frozenset({0}), frozenset({1}))
    chi = np.array([0.9, 0.9, 0.4])
    with pytest.raises(PurchaseTieError):
        simulate_batch(net, products, [RowBlock(1, seeds)], chi[None, :], on_tie="raise")
    # keyed tie-breaks: reproducible per replication, both outcomes occur
    picks = []
    for rep in range(200):
        at, pu = simulate_batch(net, products, [RowBlock(1, seeds, master_seed=5, rep_offset=rep)], chi[None, :])
        assert at[0, 2] == 1
        picks.append(int(pu[0, 2]))
    again = [
        int(simulate_batch(net, products, [RowBlock(1, seeds, master_seed=5, rep_offset=rep)], chi[None, :])[1][0, 2])
        for rep in range(200)
    ]
    assert picks == again
    assert set(picks) == {0, 1}
    assert 40 < sum(picks) < 160


# three cyclic permutations of one off-axis vector: every pair of products has
# the same inner product c, so weights w0 = w2 tie products 0 and 2 exactly
# and w0 = w1 = w2 ties all three
_A = normalize_product((3.0, 1.0, 2.0), null_index=1).features
CYCLIC = [Product(id=j, features=_A[-j:] + _A[:-j], null_index=(1 + j) % 3) for j in range(3)]


def fed_by_seeds(weights):
    """Seeds 0, 1, 2 and one target per weight triple, fed by seed s at weight[s]."""
    return Network.from_edges(3 + len(weights), [(s, v, ws[s]) for v, ws in enumerate(weights, start=3) for s in range(3)])


def reference_purchases(weights, products, master_seed, rep):
    """Purchases of targets fed by seeds 0, 1, 2 (products 0, 1, 2) at step 1.

    Python floats throughout: each aggregate feature adds the seeds' weight *
    feature in seed order, norm and dots sum in feature order, and ties within
    COS_TIE_TOL * norm take the floor(u01 * count)-th candidate.
    """
    out = []
    for v, ws in enumerate(weights, start=3):
        agg = [0.0] * 3
        for w, p in zip(ws, products):
            agg = [a + x * w for a, x in zip(agg, p.features)]
        norm2 = 0.0
        for a in agg:
            norm2 = norm2 + a * a
        dots = []
        for p in products:
            d = agg[0] * p.features[0]
            for a, x in zip(agg[1:], p.features[1:]):
                d = d + a * x
            dots.append(d)
        floor = max(dots) - COS_TIE_TOL * math.sqrt(norm2)
        cand = [j for j, d in enumerate(dots) if d >= floor]
        out.append(cand[int(key_uniform(master_seed, rep, v, 1) * len(cand))])
    return out


def test_purchase_choice_matches_a_feature_order_reference():
    rng = np.random.default_rng(8)
    w, lo = 0.3, 0.1
    c = sum(a * b for a, b in zip(CYCLIC[0].features, CYCLIC[2].features))
    weights = [tuple(rng.uniform(0.01, 0.33, 3)) for _ in range(40)]
    weights += [(w, lo, w)] * 6  # exact tie between products 0 and 2
    weights += [(w, w, w)] * 6  # three-way tie
    weights += [(lo, w, w)] * 3  # exact tie between products 1 and 2
    # product 2 ahead of product 0 by factor * COS_TIE_TOL * norm
    norm = float(np.linalg.norm(w * CYCLIC[0].vector + lo * CYCLIC[1].vector + w * CYCLIC[2].vector))
    near = [
        (w, lo, w * (1 + factor * COS_TIE_TOL * norm / (w * (1 - c))))
        for factor in (0.5, 0.9, 1.1, 1.5, 3.0, 10.0, -1.1, -3.0)
    ]
    weights += near
    n = 3 + len(weights)
    net = fed_by_seeds(weights)
    seeds = tuple(frozenset({j}) for j in range(3))
    R, offset, master = 6, 40, 9
    block = RowBlock(R, seeds, master_seed=master, rep_offset=offset)
    at, pu = simulate_batch(net, CYCLIC, [block], np.zeros((R, n)))
    assert (at[:, 3:] == 1).all()
    ref = np.array([reference_purchases(weights, CYCLIC, master, offset + r) for r in range(R)])
    assert np.array_equal(pu[:, 3:], ref)
    # ties broke every way there is; near-ties outside the tolerance did not tie
    assert set(pu[:, 43:49].ravel().tolist()) == {0, 2}
    assert set(pu[:, 49:55].ravel().tolist()) == {0, 1, 2}
    near_cols = pu[:, n - len(near):]
    assert set(near_cols[:, :2].ravel().tolist()) == {0, 2}
    assert (near_cols[:, 2:6] == 2).all() and (near_cols[:, 6:] == 0).all()

    with pytest.raises(PurchaseTieError, match=f"purchase tie at node 43, step 1, replication {offset}$"):
        simulate_batch(net, CYCLIC, [block], np.zeros((R, n)), on_tie="raise")
    # without the ties, raise mode runs through and agrees
    untied = weights[:40] + near[2:]
    _, pu = simulate_batch(
        fed_by_seeds(untied), CYCLIC, [RowBlock(1, seeds)], np.zeros((1, 3 + len(untied))), on_tie="raise"
    )
    assert pu[0, 3:].tolist() == reference_purchases(untied, CYCLIC, 0, 0)


def test_purchases_past_32767_products_keep_their_index():
    # product 32,768 is the only one with media, and both nodes buy it at step 1
    k = 32_769
    net = Network.from_edges(2, [(0, 1, 0.5)])
    products = [Product(j, (0.0, 1.0), 0) for j in range(k - 1)] + [Product(k - 1, (1.0, 0.0), 1)]
    plans = [ChannelPlan(j, beta=(0.0,)) for j in range(k - 1)] + [ChannelPlan(k - 1, beta=(1.0,))]
    aug = build_augmented(net, products, plans)
    at, pu = simulate_batch(net, products, [aug.row_block(1)], np.full((1, 2), 0.4))
    assert at.tolist() == [[1, 1]] and pu.tolist() == [[k - 1, k - 1]]
    assert estimate_spread(aug, products, 64, 1).mean_of(k - 1) == 2.0


def test_not_converged_raised_when_capped_below_activity():
    # the scalar reference keeps a step cap of its own
    net = Network.from_edges(2, [(0, 1, 1.0)])
    seeds = (frozenset({0}),)
    chi = np.array([0.9, 0.5])
    with pytest.raises(DiffusionNotConverged):
        run_diffusion(net, [P_AXIS], seeds, chi, max_steps=0)
    # the converged return beats the cap check: an already-quiet run is fine
    out = run_diffusion(net, [P_AXIS], seeds, chi, max_steps=1)
    assert out.activation_time.tolist() == [0, 1]
    # the kernel needs none: a step activates a new cell or ends the batch, so
    # a sure path, the longest cascade there is, ends at step n - 1
    n = 30
    path = Network.from_edges(n, [(v, v + 1, 1.0) for v in range(n - 1)])
    at, _ = simulate_batch(path, [P_AXIS], [RowBlock(2, seeds)], np.full((2, n), 0.5))
    assert at.tolist() == [list(range(n))] * 2


def test_batch_shape_validation():
    net = Network.from_edges(2, [(0, 1, 0.5)])
    seeds = (frozenset({0}),)
    with pytest.raises(ValueError, match="width does not match node count"):
        simulate_batch(net, [P_AXIS], [RowBlock(2, seeds)], np.full((2, 3), 0.5))
    for blocks in ([RowBlock(1, seeds)], [RowBlock(1, seeds), RowBlock(2, seeds)], []):
        with pytest.raises(ValueError, match="row blocks do not cover the threshold rows"):
            simulate_batch(net, [P_AXIS], blocks, np.full((2, 2), 0.5))


def test_on_tie_must_be_random_or_raise():
    # a misspelt mode used to break ties at random; it now fails before any
    # work, ahead of the shape checks
    net = Network.from_edges(2, [(0, 1, 0.5)])
    for mode in ("rais", "RANDOM", None):
        with pytest.raises(ValueError, match=f"on_tie must be 'random' or 'raise', got {mode!r}"):
            simulate_batch(net, [P_AXIS], [], np.full((2, 3), 0.5), on_tie=mode)


def test_threshold_sampling_respects_fixed_values():
    # the paper's construction writes its pseudonodes' fixed thresholds into
    # a copy of the caller's rows and leaves the real columns as drawn
    net = Network.from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)], similarities={(0, 1): 0.5})
    aug = build_augmented(net, [P_AXIS], [ChannelPlan(product=0, seeds=frozenset({0}), alpha=1.0, beta=(0.0, 0.2))])
    ref = paper_network(aug, [P_AXIS])
    assert ref.net.node_count == 3 + 2 + 1  # root, one chain node, one relay
    drawn = np.random.default_rng(9).random((4, ref.net.node_count))
    kept = drawn.copy()
    chi = ref.thresholds(drawn)
    assert np.array_equal(drawn, kept)
    assert np.array_equal(chi[:, :3], drawn[:, :3])
    relay = ref.relays[(0, 0, 1)]
    assert (chi[:, 3:5] == CHAIN_THRESHOLD).all() and (chi[:, relay] == 0.5).all()
    for r in range(4):
        out = run_diffusion(ref.net, [P_AXIS], ref.seeds, chi[r])
        at, _ = simulate_batch(net, [P_AXIS], [aug.row_block(1)], chi[r : r + 1, :3])
        assert out.activation_time[:3].tolist() == at[0].tolist()


def test_single_feature_degeneration_spot_check():
    # the acceptance suite sweeps 100 graphs; this is one quick instance
    rng = np.random.default_rng(99)
    n, weights, seed_set = random_lt_instance(rng)
    chi = rng.uniform(1e-6, 1.0, size=n)
    ref_active, ref_time = classical_lt(n, weights, seed_set, chi)
    net = Network.from_edges(n, [Edge(u, v, b) for (u, v), b in weights.items()])
    product = Product(id=0, features=(1.0,), null_index=0)
    out = run_both(net, [product], (frozenset(seed_set),), chi)
    assert set(np.flatnonzero(out.activation_time >= 0).tolist()) == ref_active
    for v, t in ref_time.items():
        assert out.activation_time[v] == t


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator thresholds")
def test_repeated_batches_reuse_their_memory():
    # 2000 nodes, 64 replications: a few MB of (R, n) arrays per batch, which
    # the next batch must find still mapped instead of faulting them in again
    rng = np.random.default_rng(5)
    n = 2000
    edges = [Edge(int(u), v, 0.2) for v in range(n) for u in rng.choice(np.delete(np.arange(n), v), 3, replace=False)]
    net = Network.from_edges(n, edges)
    seeds = (frozenset(range(0, 40, 2)), frozenset(range(1, 40, 2)))
    chi = rng.random((64, n))
    faults = []
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        simulate_batch(net, [P_AXIS, Q_AXIS], [RowBlock(64, seeds)], chi)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    # with glibc's default dynamic thresholds a batch here faults in over 1000 pages
    assert max(faults[1:]) < 50, faults
