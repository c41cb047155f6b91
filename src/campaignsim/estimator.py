"""Monte Carlo spread estimation over augmented networks.

Replications are partitioned into fixed-size tiles; tile k draws its
thresholds from a counter-based stream keyed by (master seed, k), so the
values a given replication sees depend only on the master seed and its global
index.  _run_call draws the thresholds of every sampled kernel run (an
estimate's calls, a histogram's, the CLI's single-replication trajectory)
and owns the rule of which threshold row and which tie key replication r
gets; the stream being counter-based, it draws any run of a tile's rows
without the rows before it.  Estimates keep two exact integer tallies per
(plan, product), node purchase counts and sums of squared purchase counts,
reduced in replication order, so bit-identical for any worker count and any
split of rows into kernel calls; spread sums are the node counts' totals.

A kernel call's memory grows with its cells (rows times nodes), so no call
holds more than call_rows(net) rows, at most CALL_CELLS cells: a tile over
that limit runs in equal row chunks.  estimate_spreads estimates several
compiled plans over one base network at once, as the optimizer does for an
iteration's samples.  Each (plan, seed) pair still draws its rows from its
own seed, so each estimate is bit for bit what estimate_spread gives for
that pair alone.  _plan_calls packs the pairs' chunks and smaller tiles in
order into kernel calls, one row block per (pair, chunk) (see
diffusion.RowBlock); _run_call copies a call's threshold rows into one
n-wide array, which the kernel only reads, so no full-width draw is alive
while the kernel runs.  Workers are threads sharing the read-only network
that run the kernel calls; they overlap where numpy releases the
interpreter lock, and each holds one call at a time, so an estimate's
kernel memory stays within workers times CALL_CELLS cells.

Threshold rows are n + k wide for n nodes and k products, a contract like
TILE_SIZE that no plan changes: with one seed, two plans see the same
thresholds and tie keys.  The kernel reads the first n columns of a row.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import AugmentedNetwork
from .diffusion import simulate_batch
from .feature_space import Product
from .rng import TILE_SIZE, tile_rng


# cells (rows x nodes) up to which a kernel call runs
CALL_CELLS = 1 << 17


def call_rows(net) -> int:
    """Rows up to which a kernel call over net runs."""
    return max(1, min(TILE_SIZE, CALL_CELLS // net.node_count))


def _product_index(product_ids: tuple[int, ...], product_id) -> int:
    if product_id not in product_ids:
        raise ValueError(f"product {product_id!r} is not one of the result's products {product_ids}")
    return product_ids.index(product_id)


@dataclass
class SpreadEstimate:
    product_ids: tuple[int, ...]
    means: np.ndarray  # (k,) expected purchasers per product
    stderrs: np.ndarray  # (k,)
    replications: int
    spread_sums: np.ndarray  # (k,) int64, exact
    spread_sumsq: np.ndarray  # (k,) int64, exact
    node_counts: np.ndarray  # (k, n) int64 purchase counts

    def mean_of(self, product_id: int) -> float:
        return float(self.means[_product_index(self.product_ids, product_id)])

    def stderr_of(self, product_id: int) -> float:
        return float(self.stderrs[_product_index(self.product_ids, product_id)])

    def node_probability(self, node: int, product_id: int) -> float:
        _check_node(node, self.node_counts.shape[1])
        j = _product_index(self.product_ids, product_id)
        return float(self.node_counts[j, node]) / self.replications

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "products": [
                {
                    "product": pid,
                    "mean": float(self.means[j]),
                    "stderr": float(self.stderrs[j]),
                }
                for j, pid in enumerate(self.product_ids)
            ],
        }


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_node(node, n: int) -> None:
    # a negative index would read another node from the end
    if not (isinstance(node, numbers.Integral) and 0 <= node < n):
        raise ValueError(f"node {node!r} is not one of the network's {n} nodes 0..{n - 1}")


def _plan_calls(pairs: int, replications: int, limit: int) -> list[list[tuple[int, int, int, int]]]:
    """The kernel calls that estimate replications rows for each of pairs
    (aug, seed) pairs: lists of (pair index, tile_idx, rows, lo) segments, in
    replication order.  A tile of L rows splits into p = ceil(L / limit)
    chunks, rows [L*c//p, L*(c+1)//p); chunk by chunk, each pair's segment is
    packed in order into calls of at most limit rows."""
    calls, used = [], limit + 1
    for tile_idx in range(-(-replications // TILE_SIZE)):
        tile_len = min(TILE_SIZE, replications - tile_idx * TILE_SIZE)
        p = -(-tile_len // limit)
        for c in range(p):
            lo = tile_len * c // p
            rows = tile_len * (c + 1) // p - lo
            for s in range(pairs):
                if used + rows > limit:
                    calls.append([])
                    used = 0
                calls[-1].append((s, tile_idx, rows, lo))
                used += rows
    return calls


def _run_call(products: list[Product], segments) -> tuple[np.ndarray, np.ndarray]:
    """simulate_batch over one kernel call, one row block per (aug, seed,
    tile_idx, rows, lo) segment, all over one base network.

    Replication r = tile_idx * TILE_SIZE + lo + i of a segment takes row
    lo + i of tile tile_idx's stream of seed as its thresholds and (seed, r)
    as its tie key.
    """
    net = segments[0][0].net
    w = net.node_count + len(products)  # the row width, the same for every plan
    thresholds = np.empty((sum(segment[3] for segment in segments), net.node_count))
    blocks, at = [], 0
    for aug, seed, tile_idx, rows, lo in segments:
        # each full-width draw dies once its first n columns are copied
        thresholds[at : at + rows] = tile_rng(seed, tile_idx, lo * w).random((rows, w))[:, : net.node_count]
        blocks.append(aug.row_block(rows, seed, tile_idx * TILE_SIZE + lo))
        at += rows
    return simulate_batch(net, products, blocks, thresholds)


def estimate_spreads(
    pairs: list[tuple[AugmentedNetwork, int]],
    products: list[Product],
    replications: int,
    *,
    workers: int = 1,
) -> list[SpreadEstimate]:
    """estimate_spread(aug, products, replications, seed) for each (aug, seed)
    pair, bit for bit, over one shared base network.

    Chunk by chunk, each pair's rows are drawn exactly as for its own
    estimate, and pairs are packed in order into kernel calls of at most
    call_rows(net) rows, one row block per (pair, chunk).  With workers > 1
    the calls run on up to that many threads.  products must be the plans'
    products in the order they were compiled.
    """
    _check_count("replications", replications)
    _check_count("workers", workers)
    if not pairs:
        return []
    net = pairs[0][0].net
    if any(aug.net is not net for aug, _ in pairs):
        raise ValueError("estimates in one batch must share one base network")
    for aug, _ in pairs:
        aug.check_products(products)
    calls = _plan_calls(len(pairs), replications, call_rows(net))
    k = len(products)

    def run(call):  # exact sums of squares and node counts per segment
        _, purchased = _run_call(products, [(*pairs[s], *chunk) for s, *chunk in call])
        starts = np.cumsum([0] + [rows for _, _, rows, _ in call[:-1]])
        sumsq = np.zeros((len(call), k), dtype=np.int64)
        node_counts = np.zeros((len(call), k, net.node_count), dtype=np.int64)
        for j in range(k):
            bought = purchased == j  # (R, n)
            per_rep = bought.sum(axis=1, dtype=np.int64)
            sumsq[:, j] = np.add.reduceat(per_rep * per_rep, starts)
            node_counts[:, j] = np.add.reduceat(bought, starts, axis=0, dtype=np.int64)
        return sumsq, node_counts

    sumsq = np.zeros((len(pairs), k), dtype=np.int64)
    node_counts = np.zeros((len(pairs), k, net.node_count), dtype=np.int64)

    def reduce(results):  # each call's tallies as they arrive, in call order
        for call, (call_sumsq, call_counts) in zip(calls, results):
            for i, (s, *_) in enumerate(call):  # calls hold chunks in order
                sumsq[s] += call_sumsq[i]
                node_counts[s] += call_counts[i]

    if workers > 1 and len(calls) > 1:  # a single call runs on the calling thread
        with ThreadPoolExecutor(max_workers=min(workers, len(calls))) as pool:
            reduce(pool.map(run, calls))  # map keeps call order
    else:
        reduce(map(run, calls))
    sums = node_counts.sum(axis=2)  # every purchase is one node's count
    R = replications
    means = sums / R
    stderrs = np.zeros_like(means)
    if R > 1:
        var = (sumsq - sums.astype(float) ** 2 / R) / (R - 1)
        stderrs = np.sqrt(np.maximum(var, 0.0) / R)
    return [
        SpreadEstimate(aug.product_ids, m, e, R, s, sq, nc)
        for (aug, _), m, e, s, sq, nc in zip(pairs, means, stderrs, sums, sumsq, node_counts)
    ]


def estimate_spread(
    aug: AugmentedNetwork,
    products: list[Product],
    replications: int,
    seed: int,
    *,
    workers: int = 1,
) -> SpreadEstimate:
    """Mean and standard error of per-product purchase counts."""
    return estimate_spreads([(aug, seed)], products, replications, workers=workers)[0]


def activation_time_histogram(
    aug: AugmentedNetwork,
    products: list[Product],
    node: int,
    replications: int,
    seed: int,
) -> np.ndarray:
    """Counts of replications in which the node activated at each step.

    Index t holds the count for activation at exactly step t; replications
    where the node never activates are not counted anywhere.  The length is
    the latest possible step plus one (see diffusion): L + n with media up to
    step L over n nodes, or L + 2(n - 1) + 1 with recommendations.
    """
    _check_count("replications", replications)
    n = aug.net.node_count
    _check_node(node, n)
    aug.check_products(products)
    L = aug.media.shape[0]
    hist = np.zeros(L + 2 * (n - 1) + 1 if len(aug.recommendations) else L + n, dtype=np.int64)
    for call in _plan_calls(1, replications, call_rows(aug.net)):  # the calls of estimate_spread
        times = _run_call(products, [(aug, seed, *chunk) for _, *chunk in call])[0][:, node]
        hist += np.bincount(times[times >= 0], minlength=hist.size)
    return hist
