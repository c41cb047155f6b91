"""Monte Carlo spread estimation over augmented networks.

Replications are partitioned into fixed-size tiles; tile k draws its
thresholds from a counter-based stream keyed by (master seed, k), so the
values a given replication sees depend only on the master seed and its global
index.  simulate_tile owns that rule (which threshold row and which tie key
replication r gets); every run of the kernel on sampled thresholds, including
the CLI's single-replication trajectory, goes through it.  Per-replication
purchase counts are accumulated as exact integers and tiles are reduced in
index order, which makes every estimate bit-identical for any worker count.

Threshold rows are aug.threshold_width wide, the node count of the
paper's media construction (see channels), and the kernel reads their first
n columns; media and recommendations cost no draws of their own.
"""

from __future__ import annotations

import contextlib
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import AugmentedNetwork
from .diffusion import simulate_batch
from .feature_space import Product
from .rng import TILE_SIZE, tile_rng


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
        return float(self.means[self.product_ids.index(product_id)])

    def stderr_of(self, product_id: int) -> float:
        return float(self.stderrs[self.product_ids.index(product_id)])

    def node_probability(self, node: int, product_id: int) -> float:
        j = self.product_ids.index(product_id)
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


def _tile_bounds(replications: int):
    for tile_idx in range(0, (replications + TILE_SIZE - 1) // TILE_SIZE):
        lo = tile_idx * TILE_SIZE
        yield tile_idx, min(TILE_SIZE, replications - lo)


def simulate_tile(
    aug: AugmentedNetwork, products: list[Product], seed: int, tile_idx: int, tile_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """(activation_time, purchased) of the first tile_len replications of a tile.

    Replication r = tile_idx * TILE_SIZE + i takes row i of
    tile_rng(seed, tile_idx) as its thresholds and (seed, r) as its tie key.
    """
    # Philox fills rows in order: these are the first tile_len rows of the full tile
    chi = tile_rng(seed, tile_idx).random((tile_len, aug.threshold_width))
    return simulate_batch(
        aug.net, products, aug.seed_assignment(), chi[:, : aug.net.node_count],
        media=aug.media, recommendations=aug.recommendations, master_seed=seed, rep_offset=tile_idx * TILE_SIZE,
    )


def _check_count(name: str, value) -> None:
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


_WORKER_CTX: dict = {}


def _init_worker(aug, products, seed):
    _WORKER_CTX.update(aug=aug, products=products, seed=seed)


def _tile_task(args):
    tile_idx, tile_len = args
    ctx = _WORKER_CTX
    return _run_tile(ctx["aug"], ctx["products"], ctx["seed"], tile_idx, tile_len)


def _run_tile(aug, products, seed, tile_idx, tile_len):
    _, purchased = simulate_tile(aug, products, seed, tile_idx, tile_len)
    k = len(products)
    sums = np.zeros(k, dtype=np.int64)
    sumsq = np.zeros(k, dtype=np.int64)
    node_counts = np.zeros((k, aug.net.node_count), dtype=np.int64)
    for j in range(k):
        bought = purchased == j  # (R, n)
        per_rep = bought.sum(axis=1).astype(np.int64)
        sums[j] = per_rep.sum()
        sumsq[j] = np.dot(per_rep, per_rep)
        node_counts[j] = bought.sum(axis=0)
    return sums, sumsq, node_counts


def estimate_spread(
    aug: AugmentedNetwork,
    products: list[Product],
    replications: int,
    seed: int,
    *,
    workers: int = 1,
) -> SpreadEstimate:
    """Mean and standard error of per-product purchase counts."""
    _check_count("replications", replications)
    _check_count("workers", workers)
    k = len(products)
    sums = np.zeros(k, dtype=np.int64)
    sumsq = np.zeros(k, dtype=np.int64)
    node_counts = np.zeros((k, aug.net.node_count), dtype=np.int64)
    tiles = list(_tile_bounds(replications))
    with contextlib.ExitStack() as stack:
        if workers > 1 and len(tiles) > 1:  # a single tile runs in-process
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(workers, len(tiles)), initializer=_init_worker, initargs=(aug, products, seed)
            ))
            results = pool.map(_tile_task, tiles)  # map preserves tile order
        else:
            results = (_run_tile(aug, products, seed, i, length) for i, length in tiles)
        for s, sq, nc in results:
            sums += s
            sumsq += sq
            node_counts += nc
    R = replications
    means = sums / R
    if R > 1:
        var = (sumsq - sums.astype(float) ** 2 / R) / (R - 1)
        stderrs = np.sqrt(np.maximum(var, 0.0) / R)
    else:
        stderrs = np.zeros_like(means)
    return SpreadEstimate(
        product_ids=aug.product_ids,
        means=means,
        stderrs=stderrs,
        replications=R,
        spread_sums=sums,
        spread_sumsq=sumsq,
        node_counts=node_counts,
    )


def activation_time_histogram(
    aug: AugmentedNetwork,
    products: list[Product],
    node: int,
    replications: int,
    seed: int,
) -> np.ndarray:
    """Counts of replications in which the node activated at each step.

    Index t holds the count for activation at exactly step t; replications
    where the node never activates are not counted anywhere.  With w the
    threshold width, the length is w, or 2w - 1 with recommendations: at
    least the latest possible step plus one (see diffusion).
    """
    _check_count("replications", replications)
    w = aug.threshold_width
    hist = np.zeros(2 * w - 1 if len(aug.recommendations) else w, dtype=np.int64)
    for tile_idx, tile_len in _tile_bounds(replications):
        times = simulate_tile(aug, products, seed, tile_idx, tile_len)[0][:, node]
        hist += np.bincount(times[times >= 0], minlength=hist.size)
    return hist
