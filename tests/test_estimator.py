import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from campaignsim import estimator
from campaignsim.channels import ChannelPlan, build_augmented
from campaignsim.diffusion import simulate_batch
from campaignsim.estimator import activation_time_histogram, estimate_spread, estimate_spreads
from campaignsim.feature_space import Product
from campaignsim.fixtures import blocking_demo, preference_shift
from campaignsim.network import Edge, Network
from campaignsim.oracle import GridSpec, exact_spread_grid
from campaignsim.rng import TILE_SIZE, tile_rng
from live_edge_reference import live_edge_spreads

P_AXIS = Product(id=0, features=(1.0, 0.0), null_index=1)
Q_AXIS = Product(id=1, features=(0.0, 1.0), null_index=0)


def sure_chain():
    """Seeded weight-1 chain: the outcome is the same in every replication."""
    net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    plans = [ChannelPlan(product=0, seeds=frozenset({0}), beta=())]
    return build_augmented(net, [P_AXIS], plans)


def media_instance(t, horizon=3):
    """A node whose only live influence is one media edge of weight 0.37.

    Nodes 0 and 2 hold each other's incoming capacity at 1.0 and are never
    seeded, so neither ever activates and node 1 sees channel weight
    (1 - 0.63) * one-hot schedule = 0.37 at step t exactly.
    """
    net = Network.from_edges(3, [Edge(0, 2, 1.0), Edge(2, 0, 1.0), Edge(2, 1, 0.63)])
    beta = tuple(1.0 if i == t - 1 else 0.0 for i in range(horizon))
    plans = [ChannelPlan(product=0, seeds=frozenset(), alpha=0.0, beta=beta)]
    return build_augmented(net, [P_AXIS], plans)


def test_deterministic_instance_has_zero_stderr_and_exact_sums():
    aug = sure_chain()
    est = estimate_spread(aug, [P_AXIS], 5000, 1)
    assert est.mean_of(0) == 3.0
    assert est.stderr_of(0) == 0.0
    assert est.spread_sums[0] == 15000
    assert est.spread_sumsq[0] == 45000


def test_single_replication_reports_zero_stderr():
    aug = sure_chain()
    est = estimate_spread(aug, [P_AXIS], 1, 1)
    assert est.mean_of(0) == 3.0
    assert est.stderr_of(0) == 0.0


def test_replications_must_be_positive():
    with pytest.raises(ValueError):
        estimate_spread(sure_chain(), [P_AXIS], 0, 1)
    with pytest.raises(ValueError):
        activation_time_histogram(sure_chain(), [P_AXIS], 2, 0, 1)


def test_media_pseudoedge_probability_near_effective_weight():
    aug = media_instance(t=2)
    est = estimate_spread(aug, [P_AXIS], 100_000, 7)
    # activation probability equals the media weight 0.37;
    # 0.0035 is ~2.3 binomial sigma but the seed is fixed, so this is stable
    assert est.mean_of(0) == pytest.approx(0.37, abs=0.0035)
    assert est.node_probability(1, 0) == est.mean_of(0)
    assert est.node_probability(0, 0) == 0.0
    assert est.node_probability(2, 0) == 0.0


def test_a_node_outside_the_network_raises(monkeypatch):
    # node -1 used to read node 4's figures, and node 5 raised numpy's
    # IndexError, in the histogram only after a kernel call
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    est = estimate_spread(aug, products, 50, 1)
    monkeypatch.setattr(estimator, "simulate_batch", None)  # no kernel call may start
    for node in (-1, 5):
        with pytest.raises(ValueError, match=f"node {node} is not one of the network's 5 nodes"):
            est.node_probability(node, 0)
        with pytest.raises(ValueError, match=f"node {node} is not one of the network's 5 nodes"):
            activation_time_histogram(aug, products, node, 50, 1)


def test_an_unknown_product_id_names_itself():
    # every lookup used to raise "tuple.index(x): x not in tuple"
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    est = estimate_spread(aug, products, 50, 1)
    exact = exact_spread_grid(aug, products, GridSpec(resolution=4))
    lookups = (est.mean_of, est.stderr_of, lambda pid: est.node_probability(0, pid), exact.spread_of)
    for lookup in lookups:
        assert lookup(1) >= 0.0
        with pytest.raises(ValueError, match=r"^product 7 is not one of the result's products \(0, 1\)$"):
            lookup(7)


def test_activation_time_histogram_hits_the_scheduled_step():
    for t in (1, 2, 3):
        aug = media_instance(t=t)
        hist = activation_time_histogram(aug, [P_AXIS], 1, 20_000, 50 + t)
        # the kernel's bound L + n: media up to step t over 3 nodes
        assert hist.size == t + 3
        active = int(hist.sum())
        assert hist[t] == active  # never at any other step
        assert active / 20_000 == pytest.approx(0.37, abs=0.01)


def test_activation_time_histogram_reaches_past_n_through_recommendations():
    # a similarity path 0 -> 1 -> 2 -> 3 seeded at 0: each edge carries 0.1
    # and its recommendation the other 0.9, so a node whose threshold is
    # above 0.1 waits for the recommendation, two steps after its source;
    # node 3 then activates at step 6, the last step of the kernel's bound
    # L + 2(n - 1) with no media (L = 0) over 4 nodes
    net = Network.from_edges(
        4, [(0, 1, 0.1), (1, 2, 0.1), (2, 3, 0.1)], similarities={(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5}
    )
    aug = build_augmented(net, [P_AXIS], [ChannelPlan(product=0, seeds=frozenset({0}), alpha=1.0)])
    assert aug.media.shape[0] == 0 and len(aug.recommendations) == 3
    reps = 4000
    hist = activation_time_histogram(aug, [P_AXIS], 3, reps, 9)
    assert hist.size == 2 * 3 + 1
    assert hist[:3].sum() == 0
    # each hop takes one step with probability 0.1 and two otherwise, so
    # node 3 activates at step 3 + (two-step hops among three): 0.1^3,
    # 3 * 0.1^2 * 0.9 and 3 * 0.1 * 0.9^2 at steps 3, 4 and 5
    got = hist[3:6] / reps
    assert np.all(np.abs(got - (0.001, 0.027, 0.243)) <= (0.01, 0.01, 0.03)), got
    # steps 2, 4 and 6 for all three thresholds above 0.1: probability 0.9^3
    assert hist[6] / reps == pytest.approx(0.729, abs=0.03)
    assert hist.sum() == reps


def test_activation_time_histogram_length_is_the_kernels_tight_bound():
    # a weight-1 path 0 -> 1 -> 2 -> 3: only node 0 has residual capacity,
    # so product 0's whole media budget reaches it at step 3 with weight 1,
    # and the path activates one node a step, node 3 at step L + n - 1 = 6
    net = Network.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    plans = [ChannelPlan(product=0, beta=(0.0, 0.0, 1.0)), ChannelPlan(product=1, beta=(0.0, 0.0, 0.0))]
    aug = build_augmented(net, [P_AXIS, Q_AXIS], plans)
    hist = activation_time_histogram(aug, [P_AXIS, Q_AXIS], 3, 1000, 5)
    assert hist.size == 3 + 4
    assert hist[-1] == 1000


def test_thresholds_do_not_depend_on_the_plan(monkeypatch):
    # one seed over one network and its products: every media schedule,
    # with or without a step past the first, sees the same threshold rows
    net, products, plans = blocking_demo("base")
    drawn = []
    monkeypatch.setattr(
        estimator, "simulate_batch", lambda *a, **kw: drawn.append(a[3].copy()) or simulate_batch(*a, **kw)
    )
    for beta in ((0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3)):
        varied = [ChannelPlan(plan.product, plan.seeds, plan.alpha, beta) for plan in plans]
        estimate_spread(build_augmented(net, products, varied), products, 300, 4)
    assert len(drawn) == 4
    assert all(np.array_equal(chi, drawn[0]) for chi in drawn[1:])


def test_spread_sum_equals_node_count_total():
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    est = estimate_spread(aug, products, 3000, 11)
    for j in range(len(products)):
        # exact integer identity between the two accumulators
        assert est.spread_sums[j] == est.node_counts[j].sum()


def test_same_seed_is_bit_identical_and_different_seed_is_not():
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    a = estimate_spread(aug, products, 5000, 3)
    b = estimate_spread(aug, products, 5000, 3)
    c = estimate_spread(aug, products, 5000, 4)
    assert np.array_equal(a.spread_sums, b.spread_sums)
    assert np.array_equal(a.spread_sumsq, b.spread_sumsq)
    assert np.array_equal(a.node_counts, b.node_counts)
    assert not np.array_equal(a.node_counts, c.node_counts)


def test_worker_count_does_not_change_results():
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    # spans three tiles so the reduction order matters
    reps = 2 * TILE_SIZE + 123
    serial = estimate_spread(aug, products, reps, 9)
    pooled = estimate_spread(aug, products, reps, 9, workers=3)
    assert np.array_equal(serial.spread_sums, pooled.spread_sums)
    assert np.array_equal(serial.spread_sumsq, pooled.spread_sumsq)
    assert np.array_equal(serial.node_counts, pooled.node_counts)
    assert serial.means.tolist() == pooled.means.tolist()


def test_threads_sharing_one_network_keep_results_under_fast_switching():
    # more workers than cores, and the interpreter switching threads every
    # microsecond: every tile's sums still land, in tile order
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    reps = 5 * TILE_SIZE + 7
    serial = estimate_spread(aug, products, reps, 11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = [estimate_spread(aug, products, reps, 11, workers=8) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for est in pooled:
        assert np.array_equal(serial.spread_sums, est.spread_sums)
        assert np.array_equal(serial.spread_sumsq, est.spread_sumsq)
        assert np.array_equal(serial.node_counts, est.node_counts)


def test_single_tile_estimate_starts_no_thread_pool(monkeypatch):
    import campaignsim.estimator as estimator

    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    serial = estimate_spread(aug, products, TILE_SIZE, 9)

    def no_pool(*args, **kwargs):
        raise AssertionError("a single tile started a thread pool")

    monkeypatch.setattr(estimator, "ThreadPoolExecutor", no_pool)
    pooled = estimate_spread(aug, products, TILE_SIZE, 9, workers=2)
    assert np.array_equal(serial.spread_sums, pooled.spread_sums)
    assert np.array_equal(serial.spread_sumsq, pooled.spread_sumsq)
    assert np.array_equal(serial.node_counts, pooled.node_counts)


def test_batch_rows_are_independent_replications():
    # running replications one by one with matching offsets reproduces the batch
    net, products, plans = preference_shift()
    aug = build_augmented(net, products, plans)
    n = aug.net.node_count
    chi = tile_rng(33, 0).random((TILE_SIZE, n))[:7]
    at_all, pu_all = simulate_batch(aug.net, products, [aug.row_block(7, 33, 0)], chi)
    for r in range(7):
        at_r, pu_r = simulate_batch(aug.net, products, [aug.row_block(1, 33, r)], chi[r : r + 1])
        assert np.array_equal(at_all[r], at_r[0])
        assert np.array_equal(pu_all[r], pu_r[0])


def test_replication_outcomes_do_not_depend_on_total_count():
    # the first R replications of a longer run equal a shorter run exactly
    aug = media_instance(t=1)
    short = estimate_spread(aug, [P_AXIS], 1000, 21)
    longer = estimate_spread(aug, [P_AXIS], 1000 + TILE_SIZE, 21)
    # per-tile means differ, but the shared prefix can be checked through sums
    # of the first tile alone: re-run the first 1000 as their own call
    again = estimate_spread(aug, [P_AXIS], 1000, 21)
    assert np.array_equal(short.node_counts, again.node_counts)
    assert int(longer.spread_sums[0]) >= int(short.spread_sums[0])


def test_mean_and_stderr_definitions():
    aug = media_instance(t=1)
    est = estimate_spread(aug, [P_AXIS], 4000, 5)
    R = 4000
    s, sq = float(est.spread_sums[0]), float(est.spread_sumsq[0])
    var = (sq - s * s / R) / (R - 1)
    assert est.means[0] == s / R
    assert est.stderrs[0] == pytest.approx(np.sqrt(var / R), rel=1e-12)


def _assert_same_estimates(batched, pairs, products, reps):
    assert len(batched) == len(pairs)
    for est, (aug, seed) in zip(batched, pairs):
        alone = estimate_spread(aug, products, reps, seed)
        assert np.array_equal(est.spread_sums, alone.spread_sums)
        assert np.array_equal(est.spread_sumsq, alone.spread_sumsq)
        assert np.array_equal(est.node_counts, alone.node_counts)
        assert est.means.tolist() == alone.means.tolist() and est.stderrs.tolist() == alone.stderrs.tolist()


def test_batched_estimates_equal_separate_estimates_on_mixed_plans(monkeypatch):
    # the seed-41 synthetic instance: mirror-image products tie on every
    # replication, so each row block must hash ties with its own key
    from test_seeded_outputs import _synth

    net, products, (p0, p1) = _synth(41)

    def variant(plan, **kw):
        return ChannelPlan(**{**dict(product=plan.product, seeds=plan.seeds, alpha=plan.alpha, beta=plan.beta), **kw})

    plan_sets = [
        [p0, p1],
        [variant(p0, beta=(0.3, 0.0)), p1],  # product 0's media end a step early
        [variant(p0, beta=(0.0, 0.0)), variant(p1, beta=(0.0, 0.0))],  # no media
        [variant(p0, alpha=0.0), variant(p1, alpha=0.0)],  # no recommendations
        [variant(p0, seeds=frozenset()), variant(p1, beta=(0.0, 0.4))],
    ]
    augs = [build_augmented(net, products, plans) for plans in plan_sets]
    assert np.count_nonzero(augs[2].media) == 0 and len(augs[3].recommendations) == 0
    pairs = [(augs[0], 41), (augs[1], 7), (augs[2], 41), (augs[3], 8), (augs[4], 9), (augs[0], 10)]
    # over 1,000 nodes, 5 replications each put all six row blocks in one
    # call; 48 each put two pairs in a call; 200 each split every pair's
    # tile into two 100-row chunks, each in a call of its own
    assert 100 <= estimator.call_rows(net) < 3 * 48
    calls = []
    monkeypatch.setattr(
        estimator, "simulate_batch", lambda *a, **kw: calls.append(len(a[2])) or simulate_batch(*a, **kw)
    )
    for reps, blocks in ((5, [6]), (48, [2, 2, 2]), (200, [1] * 12)):
        calls.clear()
        batched = estimate_spreads(pairs, products, reps)
        assert calls == blocks
        _assert_same_estimates(batched, pairs, products, reps)


def test_packed_calls_stop_at_the_cell_budget(monkeypatch):
    # 1,000 nodes: a call holds at most 131 rows; a larger tile splits into
    # equal row chunks, packed in order like smaller tiles
    from test_seeded_outputs import _synth

    net, products, plans = _synth(1)
    aug = build_augmented(net, products, plans)
    assert estimator.call_rows(net) == 131
    rows = []
    monkeypatch.setattr(
        estimator, "simulate_batch", lambda *a, **kw: rows.append(len(a[3])) or simulate_batch(*a, **kw)
    )
    for pairs, reps, want in (
        (5, 30, [120, 30]),
        (2, 100, [100, 100]),
        (2, 280, [93, 93, 93, 93, 94, 94]),  # chunks of rows [0, 93), [93, 186), [186, 280)
    ):
        rows.clear()
        estimate_spreads([(aug, s) for s in range(pairs)], products, reps)
        assert rows == want


def test_row_chunks_equal_the_whole_tile(monkeypatch):
    # one tile of the seed-1 synthetic instance, run in 1-row chunks, in
    # uneven chunks of 7 and 8 rows and as one call: row chunks draw from
    # their own place in the tile's stream, so every count is the same
    from test_seeded_outputs import _synth

    net, products, plans = _synth(1)
    aug = build_augmented(net, products, plans)
    reps, seed = 300, 5
    rows = []
    monkeypatch.setattr(
        estimator, "simulate_batch", lambda *a, **kw: rows.append(len(a[3])) or simulate_batch(*a, **kw)
    )
    estimates, hists = [], []
    for limit, want in ((1, [1] * 300), (8, [7] * 4 + [8] * 34), (reps, [reps])):
        monkeypatch.setattr(estimator, "CALL_CELLS", limit * net.node_count)
        for workers in (1, 2):
            rows.clear()
            estimates.append(estimate_spread(aug, products, reps, seed, workers=workers))
            assert sorted(rows) == want
        rows.clear()
        hists.append(activation_time_histogram(aug, products, 7, reps, seed))
        assert sorted(rows) == want
    whole = estimates[-1]
    assert whole.spread_sums.min() > 0 and hists[-1].sum() > 0
    for est in estimates:
        assert np.array_equal(est.spread_sums, whole.spread_sums)
        assert np.array_equal(est.spread_sumsq, whole.spread_sumsq)
        assert np.array_equal(est.node_counts, whole.node_counts)
    for hist in hists:
        assert np.array_equal(hist, hists[-1])


def test_two_worker_estimate_runs_in_bounded_memory():
    # two full tiles of the 1,000-node synthetic instance on two threads: a
    # whole 4,096-row tile per call would need about 0.75 GB per thread, row
    # chunks keep the estimate within a 1 GiB address space
    code = (
        "from campaignsim import build_augmented, estimate_spread\n"
        "from campaignsim.rng import TILE_SIZE\n"
        "from test_seeded_outputs import _synth\n"
        "net, products, plans = _synth(1)\n"
        "est = estimate_spread(build_augmented(net, products, plans), products, 2 * TILE_SIZE, 1, workers=2)\n"
        "print(est.replications, est.spread_sums.sum() == est.node_counts.sum())\n"
    )
    paths = [str(Path(__file__).parents[1] / "src"), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(paths))
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{2 * TILE_SIZE} True\n"


def test_batched_estimates_pack_partial_tiles_for_any_worker_count():
    net, products, plans = preference_shift()
    media_plans = [ChannelPlan(product=0, seeds=frozenset({0}), beta=(0.3, 0.0)), plans[1]]
    augs = [build_augmented(net, products, plans), build_augmented(net, products, media_plans)]
    pairs = [(augs[0], 101), (augs[1], 5), (augs[0], 6)]
    reps = 2 * TILE_SIZE + 123  # the partial tiles of all three share one kernel call
    serial = estimate_spreads(pairs, products, reps)
    _assert_same_estimates(serial, pairs, products, reps)
    _assert_same_estimates(estimate_spreads(pairs, products, reps, workers=2), pairs, products, reps)


def test_batched_estimates_share_one_base_network():
    net, products, plans = preference_shift()
    other, _, _ = preference_shift()
    pairs = [(build_augmented(net, products, plans), 1), (build_augmented(other, products, plans), 2)]
    with pytest.raises(ValueError, match="one base network"):
        estimate_spreads(pairs, products, 10)
    assert estimate_spreads([], products, 10) == []


def test_estimates_take_the_compiled_products_in_order():
    # one product of two used to fail inside the kernel with an IndexError,
    # and a reordered list ran each plan with the other product's vector
    net, products, plans = blocking_demo("base")
    aug = build_augmented(net, products, plans)
    for wrong in (products[:1], products[::-1]):
        with pytest.raises(ValueError, match="compiled plans' products"):
            estimate_spreads([(aug, 1)], wrong, 10)
        with pytest.raises(ValueError, match="compiled plans' products"):
            activation_time_histogram(aug, wrong, 5, 10, 1)


def test_an_estimate_call_holds_few_bytes_per_cell():
    # the tracemalloc peak of one estimate_spread call, per cell (rows x
    # nodes), each instance in one kernel call: 95 and 123 B while a kernel
    # step's arrays lived on into the next step and the last threshold draw
    # through the kernel call, 61 and 85 B since neither does; a histogram
    # over the same rows holds what the estimate holds (69 B on the blocking
    # demo while it handed the kernel a view into the full-width draw)
    from test_seeded_outputs import _synth

    def peak_per_cell(run, cells):
        run(1)  # numpy's one-off allocations are not the call's
        tracemalloc.start()
        try:
            run(2)
            return tracemalloc.get_traced_memory()[1] / cells
        finally:
            tracemalloc.stop()

    for (net, products, plans), reps, bound in ((blocking_demo("base"), 2048, 75), (_synth(1), 128, 100)):
        aug = build_augmented(net, products, plans)
        assert reps <= estimator.call_rows(net)
        cells = reps * net.node_count
        per_cell = peak_per_cell(lambda seed: estimate_spread(aug, products, reps, seed), cells)
        assert per_cell <= bound, (net.node_count, per_cell)
        hist = peak_per_cell(lambda seed: activation_time_histogram(aug, products, 5, reps, seed), cells)
        assert hist <= per_cell + 2, (net.node_count, hist, per_cell)


def test_one_product_estimates_agree_with_live_edges():
    # Kempe, Kleinberg & Tardos's live-edge draws give the final set of the
    # one-product threshold model under every channel mix, media and
    # recommendations included; the means agree within 4 combined stderrs,
    # at 1,000 nodes and at 10,000, where a kernel call holds 13 rows
    from test_seeded_outputs import _synth

    for nodes, reps in ((1000, 2000), (10_000, 500)):
        net, products, (plan, _) = _synth(1, nodes)
        assert net.node_count == nodes
        for alpha, beta in ((0.0, (0.0, 0.0)), (plan.alpha, (0.0, 0.0)), (0.0, plan.beta), (plan.alpha, plan.beta)):
            aug = build_augmented(net, products[:1], [ChannelPlan(0, plan.seeds, alpha, beta)])
            est = estimate_spread(aug, products[:1], reps, 3)
            live = live_edge_spreads(aug, reps, 4)
            se = np.hypot(est.stderr_of(0), live.std(ddof=1) / np.sqrt(reps))
            assert abs(est.mean_of(0) - live.mean()) <= 4 * se, (nodes, alpha, beta, est.mean_of(0), live.mean())
