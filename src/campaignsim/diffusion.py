"""Synchronous threshold diffusion with vector-valued influence.

Each influenced node u contributes weight * product-vector to the aggregate
of its out-neighbors.  An uninfluenced node v activates at step t when the
Euclidean norm of its aggregate over nodes influenced by the end of t-1
reaches its threshold (non-strict >=; the paper's relay gadget relies on
the equality case).  On activation the node purchases the product at
minimal angular distance from that same aggregate, immutably.

All updates within a step read only the previous step's influenced set, so
the outcome is independent of node iteration order.  Because product
components are non-negative, aggregate norms are non-decreasing over time
and first-crossing detection coincides with the two-sided formulation
(crossed now, not crossed one step earlier).

Channels arrive through two kinds of edges kept beside the network, which
stand for the paper's pseudonodes (see channels).  Mass media are scheduled
edges (t, v, i, w) that add w * products[i] to v's aggregate at step t in
every replication.  Recommendations are delayed edges (u, v, i, w) that add
w * products[i] to v's aggregate at step t_u + 2, and only if u bought
product i.  The kernel adds exactly what the pseudonodes would, in the same
order, without their cells.

The kernel advances many replications at once; a single run is a batch of
one.  A batch's rows come in consecutive row blocks that share the network
and products, each with its own seeds, media, recommendations and tie key:
the blocks' channel edges sit side by side in one table, and a cell sends
along its own block's, so every row comes out exactly as in a batch of its
block alone.  The kernel never writes the thresholds it is given.  A node
whose aggregate is exactly the zero vector never activates, whatever its
threshold, and an influenced node never activates again.  A batch runs at
least to its last media step; past it, a step that activates no cell ends
the batch unless a recommendation is still in flight.  So with media up to
step L, activation times stay within L + n - 1, and with recommendations a
replication activates a node at least every second step until it settles,
within L + 2 * (n - 1).

Influence is permanent and purchases are immutable, so the kernel keeps a
running aggregate per (replication, node) cell and updates it
incrementally: at step t only the cells activated at step t-1 (the
frontier) add weight * product-vector along their out-edges, read from the
network's CSR arrays, every replication adds the media of step t, and the
cells activated at step t-2 add their recommendations, in one scatter.
Only cells touched that step can newly cross their threshold, so norms,
thresholds and purchases are evaluated for those cells alone.  An aggregate
is therefore summed in activation-step order, and within a step in
frontier order (ascending cell) then CSR edge order, then the step's media
in product order, then its recommendations in ascending source order,
without BLAS; its norm sums the squared features in feature order.  A
newly activated cell's dot product with each product is summed the same way,
per product in feature order and without BLAS, so purchases do not depend on
the BLAS vendor or its thread count; the first maximal dot wins unless
another lies within COS_TIE_TOL * norm of it.  Every purchase tie of a step
is broken by one keyed-hash call over all tied cells.  Memory is
O(R * n * f) for R replications, n nodes and f features, plus O(E) for the
edge arrays and each block's media and recommendations; there is no n x n
matrix.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass

import numpy as np

from .feature_space import COS_TIE_TOL, Product, product_matrix
from .network import Network
from .rng import MASK64, key_uniform

# glibc mallopt parameters and the ceilings its dynamic rule moves towards
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _keep_batch_memory() -> None:
    """Fix glibc's mmap and trim thresholds at the ceilings of its dynamic rule.

    A batch allocates a few MB of (R, n) arrays and frees them on return.
    By default glibc moves its mmap threshold to the largest block freed so
    far and trims the heap top above twice that, so whether a call's arrays
    come from pages still mapped or from pages the kernel must fault in and
    zero again depends on the heap layout the process happened to build:
    on a 1000-node channel instance, 1.5k or 3.8k page faults per 32-row
    batch, by process, and 17 or 20 ms per call.  Fixed thresholds keep
    freed batch memory in the heap for the next call in every process.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_batch_memory()


class PurchaseTieError(Exception):
    """An exact purchase tie occurred where the caller forbade randomness."""


@dataclass(frozen=True)
class SeedAssignment:
    """Seed sets per product, index-aligned with the products list."""

    by_product: tuple[frozenset[int], ...]

    def validate(self, net: Network) -> None:
        seen: set[int] = set()
        for nodes in self.by_product:
            for v in nodes:
                if not (0 <= v < net.node_count):
                    raise ValueError(f"seed {v} is not a node")
                if v in seen:
                    raise ValueError(f"node {v} seeded for more than one product")
                seen.add(v)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        nodes, prods = [], []
        for idx, ns in enumerate(self.by_product):
            for v in sorted(ns):
                nodes.append(v)
                prods.append(idx)
        return np.array(nodes, dtype=np.int64), np.array(prods, dtype=np.int64)


@dataclass(frozen=True)
class Recommendations:
    """Delayed edges: weight[j] * products[product[j]] reaches dst[j] two
    steps after src[j] activates, and only if src[j] bought that product.

    Aligned arrays of product indices, node numbers and weights.
    """

    src: np.ndarray
    dst: np.ndarray
    product: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return self.src.size


@dataclass(frozen=True)
class Media:
    """Scheduled edges: weight[j] * products[product[j]] reaches dst[j] at
    step[j] >= 1 in every replication.

    Aligned arrays of steps, node numbers, product indices and weights, in
    (step, product, target) order.
    """

    step: np.ndarray
    dst: np.ndarray
    product: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return self.step.size


_NO_MEDIA = Media(*(np.zeros(0, dtype=np.intp),) * 3, np.zeros(0))
_NO_RECOMMENDATIONS = Recommendations(*(np.zeros(0, dtype=np.intp),) * 3, np.zeros(0))


@dataclass(frozen=True)
class RowBlock:
    """Consecutive rows of a batch that run one program over the shared network.

    Row i of the block is replication rep_offset + i of a run keyed by
    master_seed: purchase ties hash (master_seed, rep_offset + i, node, step).
    """

    rows: int
    seeds: SeedAssignment
    media: Media = _NO_MEDIA
    recommendations: Recommendations = _NO_RECOMMENDATIONS
    master_seed: int = 0
    rep_offset: int = 0


def simulate_batch(
    net: Network,
    products: list[Product],
    blocks: list[RowBlock],
    thresholds: np.ndarray,
    *,
    on_tie: str = "random",
) -> tuple[np.ndarray, np.ndarray]:
    """Advance R replications at once over a shared network.

    thresholds is (R, n) and is only read: any float array, a read-only or
    non-contiguous view included, is left as it was.  The row blocks split
    the R rows in order, each with its own seeds, media, recommendations and
    tie key, so each block's rows come out exactly as a batch of that block
    alone would, however the replications are batched.
    Returns (activation_time, purchased), both (R, n).
    """
    R, n = thresholds.shape
    if n != net.node_count:
        raise ValueError("threshold matrix width does not match node count")
    if sum(b.rows for b in blocks) != R:
        raise ValueError("row blocks do not cover the threshold rows")
    for b in blocks:
        b.seeds.validate(net)
    block_rows = [b.rows for b in blocks]
    n_edges = net.dst.size
    pmat = product_matrix(products)
    k, f = pmat.shape
    # edge e carrying product j has key j * E + e; its weighted features by key.
    # A cell of node u that bought product j sends along group j * n + u (slot
    # j): its out-edges, keys group_lo[g] to group_lo[g] + group_deg[g] - 1.
    # All blocks share these groups; each block appends its channels' groups.
    key_dst = [net.dst] * k
    key_contrib = [(pmat.T[:, :, None] * net.weight).reshape(f, k * n_edges)]
    group_lo = [net.indptr[:-1] + j * n_edges for j in range(k)]
    group_deg = [net.indptr[1:] - net.indptr[:-1]] * k
    n_keys, n_groups = k * n_edges, k * n
    recommending = any(len(b.recommendations) for b in blocks)
    last_step = max((int(b.media.step[-1]) for b in blocks if len(b.media)), default=0)
    rec_start, step_start = [], []  # per block
    for b in blocks:
        if recommending:
            # and one step later along group rec_start + j * n + u: its
            # recommendations of product j
            rec = b.recommendations
            group = rec.product * n + rec.src
            order = group.argsort(kind="stable")
            rec_lo = n_keys + group[order].searchsorted(np.arange(k * n + 1))
            group_lo.append(rec_lo[:-1])
            group_deg.append(rec_lo[1:] - rec_lo[:-1])
            key_dst.append(rec.dst[order])
            key_contrib.append(pmat.T[:, rec.product[order]] * rec.weight[order])
            rec_start.append(n_groups)
            n_keys, n_groups = n_keys + len(rec), n_groups + k * n
        if last_step:
            # each of its replications' first cell sends, at step t, along
            # group step_start + t: the block's media of step t, if any
            med = b.media
            step_lo = n_keys + med.step.searchsorted(np.arange(1, last_step + 2))
            group_lo.append(step_lo[:-1])
            group_deg.append(step_lo[1:] - step_lo[:-1])
            key_dst.append(med.dst)
            key_contrib.append(pmat.T[:, med.product] * med.weight)
            step_start.append(n_groups - 1)
            n_keys, n_groups = n_keys + len(med), n_groups + last_step
    key_dst, group_lo, group_deg = np.concatenate(key_dst), np.concatenate(group_lo), np.concatenate(group_deg)
    key_contrib = np.concatenate(key_contrib, axis=1)
    # per row: its block's media groups and recommendation shift
    if last_step:
        first_cells = np.arange(0, R * n, n)
        step_group = np.repeat(step_start, block_rows)
    if recommending:
        rec_shift = np.repeat(rec_start, block_rows)
    # per block: its tie key; row r of block i is replication rep_base[i] + r
    block_end = np.cumsum(block_rows)
    tie_seed = np.array([b.master_seed & MASK64 for b in blocks], dtype=np.uint64)
    rep_base = np.array([b.rep_offset for b in blocks]) - (block_end - block_rows)
    # per-replication arrays are flat over cells r * n + v; agg is feature-major
    thr = np.asarray(thresholds, dtype=float).reshape(-1)
    purchased = np.full(R * n, -1, dtype=np.int16)
    activation_time = np.full(R * n, -1, dtype=np.int32)
    agg = np.zeros((f, R * n))
    touched = np.zeros(R * n, dtype=bool)

    lo = 0
    for b in blocks:
        snodes, sprods = b.seeds.arrays()
        purchased.reshape(R, n)[lo : lo + b.rows, snodes] = sprods
        activation_time.reshape(R, n)[lo : lo + b.rows, snodes] = 0
        lo += b.rows
    front = (activation_time == 0).nonzero()[0]  # cells activated last step, ascending
    front_prod = purchased[front].astype(np.intp)
    held = None  # (first cell, group) of the step before last's recommendations
    t = 0
    while front.size or held is not None or t < last_step:
        t += 1
        # out-edges of last step's activations, in frontier then CSR order,
        # then this step's media, then the recommendations of the step
        # before last's activations, in frontier order
        u = front % n
        base, group = front - u, front_prod * n + u
        later = []
        if t <= last_step:
            later.append((first_cells, step_group + t))
        if held is not None:
            later.append(held)
        if recommending:
            held = (base, group + rec_shift[base // n]) if front.size else None
        if later:
            base = np.concatenate([base, *(b for b, _ in later)])
            group = np.concatenate([group, *(g for _, g in later)])
        deg = group_deg[group]
        ends = deg.cumsum()
        if not (ends.size and ends[-1]):  # nothing reaches any cell this step
            front = front_prod = ends[:0]
            continue
        key = np.repeat(group_lo[group] - ends + deg, deg) + np.arange(ends[-1])
        cell = np.repeat(base, deg) + key_dst[key]
        for i in range(f):  # unbuffered: adds in key order onto the running sums
            np.add.at(agg[i], cell, key_contrib[i][key])
        # only cells whose aggregate changed can newly cross their threshold
        touched[cell] = True
        cells = touched.nonzero()[0]
        touched[cells] = False
        norm2 = 0.0
        for i in range(f):  # squares summed in feature order
            x = agg[i][cells]
            norm2 = norm2 + x * x
        norms = np.sqrt(norm2)
        # a zero aggregate never activates, nor does an influenced cell again
        newly = (norms >= thr[cells]) & (norms > 0.0) & (activation_time[cells] < 0)
        front = cells[newly]
        if not front.size:
            front_prod = front
            continue
        choice = np.zeros(front.size, dtype=np.intp)
        if k > 1:
            # dots[j] = <aggregate, p_j>, summed in feature order like norm2
            dots = np.zeros((k, front.size))
            for i in range(f):
                x = agg[i][front]
                for j in range(k):
                    dots[j] += x * pmat[j, i]
            # cut is the running maximum, then the lowest dot that still ties it;
            # only a strictly greater dot replaces the choice, so the first maximum wins
            cut = dots[0].copy()
            for j in range(1, k):
                choice[dots[j] > cut] = j
                np.maximum(cut, dots[j], out=cut)
            cut -= COS_TIE_TOL * norms[newly]
            count = np.zeros(front.size, dtype=np.min_scalar_type(k))
            for j in range(k):
                count += dots[j] >= cut
            multi = (count > 1).nonzero()[0]
            if multi.size:  # some cell has more than one candidate
                rows, cols = np.divmod(front[multi], n)
                block = block_end.searchsorted(rows, side="right")
                key_seed, reps = tie_seed[block], rep_base[block] + rows
                if on_tie == "raise":
                    raise PurchaseTieError(f"purchase tie at node {cols[0]}, step {t}, replication {reps[0]}")
                # the i-th tied candidate, i = floor(u01 * count), hashed per (rep, node, step)
                u01 = key_uniform(key_seed, reps, cols, t)
                pick = (u01 * count[multi]).astype(np.intp)
                # it is the first product whose running candidate count exceeds pick
                seen = (dots[:, multi] >= cut[multi]).cumsum(axis=0)  # (k, len(multi))
                choice[multi] = (seen <= pick).sum(axis=0)
        front_prod = choice
        purchased[front] = choice
        activation_time[front] = t
    return activation_time.reshape(R, n), purchased.reshape(R, n)
