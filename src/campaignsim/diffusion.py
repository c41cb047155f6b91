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

Channels arrive compiled beside the network, standing for the paper's
pseudonodes (see channels).  Mass media are dense vectors: media[t-1, i, v]
is the weight w for which w * products[i] reaches v's aggregate at step t
in every replication, 0 where no media edge reaches v.  Recommendations are
a layer of edges e = (u, v) like the network's: weight[i, e] * products[i]
reaches v at step t_u + 2, and only if u bought product i.  The kernel adds
exactly what the pseudonodes would, in the same order, without their cells.

The kernel advances many replications at once; a single run is a batch of
one.  A batch's rows come in consecutive row blocks that share the network
and products, each with its own seeds, media, recommendations and tie key:
the network and the blocks' recommendation layers sit side by side in one
key table and a cell sends along its own block's layer, a block's media
reach its own rows, and so every row comes out exactly as in a batch of its
block alone.  The kernel never writes the thresholds it is given.  A node
whose aggregate is exactly the zero vector never activates, whatever its
threshold, and an influenced node never activates again.  A batch runs at
least to its last media step; past it, a step that activates no cell ends
the batch unless a recommendation is still in flight.  So with media up to
step L, activation times stay within L + n - 1, and with recommendations a
replication activates a node at least every second step until it settles,
within L + 2 * (n - 1); estimator.activation_time_histogram takes its
length from this bound.

Influence is permanent and purchases are immutable, so the kernel keeps a
running aggregate per (replication, node) cell and updates it
incrementally: at step t the cells activated at step t-1 (the frontier)
add weight * product-vector along their out-edges, read from the network's
CSR arrays, in one scatter; then the media of step t arrive as one dense add
per (row block, product) of the block's compiled vector for that step and
product, unless it is all zero; then the cells activated at step t-2 add
their recommendations in a second scatter.  Off media steps, only cells the
scatter touched can newly cross their threshold, so norms, thresholds and
purchases are evaluated for those cells alone; at a media step every cell
is tested.  An aggregate is therefore summed in activation-step order, and
within a step in frontier order (ascending cell) then CSR edge order, then
the step's media in product order, then its recommendations in ascending
source order, without BLAS; its norm sums the squared features in feature
order.  A newly activated cell's dot product with each product is summed
the same way, per product in feature order and without BLAS, so purchases
do not depend on the BLAS vendor or its thread count; the first maximal dot
wins unless another lies within COS_TIE_TOL * norm of it.  Every purchase
tie of a step is broken by one keyed-hash call over all tied cells.  A
feature that no product has would only add 0.0 to these sums, so the kernel
drops it and it costs nothing.  Memory is O(R * n * f) for R replications, n
nodes and f used features, plus O(k * E) for the network's and each block's
layer; each block's media are O(L * k * n) for k products and media up to
step L, and are read where they are; there is no n x n matrix.  From one
step to the next the kernel keeps its per-cell state (aggregates, purchases,
activation times, a mark) and only the frontier, its purchases and the held
recommendations: the arrays of a step's scatter, threshold test and purchase
choice die with the step.  One estimate call, its thresholds included, peaks
at about 61 bytes per cell (row x node) on the 37-node blocking demo (two
features) and 85 on a 1000-node channel instance (tracemalloc).
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass, field

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
class Recommendations:
    """Social advertising as an edge layer in the network's CSR shape: source
    u's edges are indptr[u] to indptr[u + 1] - 1, in ascending target, and
    weight[j, e] * products[j] reaches dst[e] two steps after u activates,
    and only if u bought product j; weight[j, e] is 0 where j has none."""

    indptr: np.ndarray  # (n + 1,)
    dst: np.ndarray  # (m,)
    weight: np.ndarray  # (k, m)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.weight))

    def listing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, product, weight) of each recommendation, in (source, target, product) order."""
        e, j = self.weight.T.nonzero()
        src = np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))
        return src[e], self.dst[e], j, self.weight[j, e]


@dataclass(frozen=True)
class RowBlock:
    """Consecutive rows of a batch that run one program over the shared network.

    Row i of the block is replication rep_offset + i of a run keyed by
    master_seed: purchase ties hash (master_seed, rep_offset + i, node, step).
    seeds holds one seed set per product, index-aligned with the products
    list.  The kernel takes them as given: build_augmented has checked that
    every seed is a node and lies in one set only.  media is (L, k, n):
    media[t-1, i, v] is the weight of product i's media into node v at step
    t, 0 where there is none, and L the last step with media.
    """

    rows: int
    seeds: tuple[frozenset[int], ...]
    media: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))
    recommendations: Recommendations = field(
        default_factory=lambda: Recommendations(np.zeros(1, np.intp), np.zeros(0, np.intp), np.zeros((0, 0)))
    )
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
    alone would, however the replications are batched.  on_tie "random"
    breaks each purchase tie by the blocks' tie keys, and "raise" raises
    PurchaseTieError at the first tie instead.
    Returns (activation_time, purchased), both (R, n).
    """
    if on_tie not in ("random", "raise"):
        raise ValueError(f"on_tie must be 'random' or 'raise', got {on_tie!r}")
    R, n = thresholds.shape
    if n != net.node_count:
        raise ValueError("threshold matrix width does not match node count")
    if sum(b.rows for b in blocks) != R:
        raise ValueError("row blocks do not cover the threshold rows")
    block_rows = [b.rows for b in blocks]
    pmat = product_matrix(products)
    # a feature no product has would add 0.0 to every running sum below, which
    # leaves each sum's bits as they are, so its column is dropped
    pmat = pmat[:, pmat.any(axis=0)]
    k, f = pmat.shape
    # layer 0 is the network, its weight the same for every product, and
    # layer 1 + i block i's recommendations.  A cell of node u that bought
    # product j sends along group (layer * k + j) * n + u: u's out-edges in
    # the layer, keys group_lo[g] to group_lo[g] + group_deg[g] - 1.  Edge e
    # of a layer of m edges has key j * m + e after the layers before it and
    # carries pmat[j] * weight[j, e]; a product with no weight in a layer
    # sends nothing along it, nor does a block's layer without edges.
    recommending = any(len(b.recommendations) for b in blocks)
    layers = [(net.indptr, net.dst, net.weight)]
    if recommending:  # and per row, the shift to its block's layer
        layers += [(r.indptr, r.dst, r.weight) for r in (b.recommendations for b in blocks)]
        rec_shift = np.repeat(np.arange(1, len(blocks) + 1) * (k * n), block_rows)
    group_lo, group_deg = np.zeros((2, len(layers), k, n), dtype=np.intp)
    key_dst, key_contrib, n_keys = [], [], 0
    for layer, (indptr, dst, weight) in enumerate(layers):
        if dst.size or not layer:  # the network's always, so no key table is empty
            group_lo[layer] = indptr[:-1] + (n_keys + dst.size * np.arange(k))[:, None]
            group_deg[layer] = (indptr[1:] - indptr[:-1]) * weight.any(axis=-1, keepdims=True)
            key_dst += [dst] * k
            key_contrib.append((pmat.T[:, :, None] * weight).reshape(f, k * dst.size))
            n_keys += k * dst.size
    key_dst, key_contrib = np.concatenate(key_dst), np.concatenate(key_contrib, axis=1)
    group_lo, group_deg = group_lo.reshape(-1), group_deg.reshape(-1)
    # per block: its tie key; row r of block i is replication rep_base[i] + r
    block_end = np.cumsum(block_rows)
    tie_seed = np.array([b.master_seed & MASK64 for b in blocks], dtype=np.uint64)
    rep_base = np.array([b.rep_offset for b in blocks]) - (block_end - block_rows)
    # per-replication arrays are flat over cells r * n + v; agg is feature-major
    thr = np.asarray(thresholds, dtype=float).reshape(-1)
    purchased = np.full(R * n, -1, dtype=np.min_scalar_type(-k))
    activation_time = np.full(R * n, -1, dtype=np.int32)
    agg = np.zeros((f, R * n))
    agg_rows = agg.reshape(f, R, n)
    touched = np.zeros(R * n, dtype=bool)
    last_step = max((b.media.shape[0] for b in blocks), default=0)
    # media_at[t - 1]: (first row, end row, j, w) per block and product whose
    # media at step t are not all zero, in product order; w holds the weights by target
    media_at = [[] for _ in range(last_step)]
    lo = 0
    for b in blocks:  # the seed sets are disjoint, so placement order is free
        cols = [v for nodes in b.seeds for v in nodes]
        bought = [j for j, nodes in enumerate(b.seeds) for _ in nodes]
        purchased.reshape(R, n)[lo : lo + b.rows, cols] = bought
        activation_time.reshape(R, n)[lo : lo + b.rows, cols] = 0
        for t, j in zip(*b.media.any(axis=2).nonzero()):  # in (step, product) order
            media_at[t].append((lo, lo + b.rows, j, b.media[t, j]))
        lo += b.rows

    def scatter(sends):
        """Add the keys of each (cell, group) pair to agg, in order; return the cells reached."""
        base, group = sends[0] if len(sends) == 1 else map(np.concatenate, zip(*sends))
        deg = group_deg[group]
        ends = deg.cumsum()
        if not (ends.size and ends[-1]):
            return ends[:0]
        key = np.repeat(group_lo[group] - ends + deg, deg) + np.arange(ends[-1])
        cell = np.repeat(base, deg) + key_dst[key]
        for i in range(f):  # unbuffered: adds in key order onto the running sums
            np.add.at(agg[i], cell, key_contrib[i][key])
        return cell

    def reach(t, sends):
        """Add step t's influence to agg: the frontier's out-edges (sends[0]),
        then at a media step the step's media, then the recommendations of the
        step before last's activations (sends[1], if any).  Return the cells
        to test, ascending, or None to test every cell."""
        if t > last_step:
            cell = scatter(sends)
            if not cell.size:  # nothing reaches any cell this step
                return cell
            # only cells whose aggregate changed can newly cross their threshold
            touched[cell] = True
            tested = touched.nonzero()[0]
            touched[tested] = False
            return tested
        scatter(sends[:1])
        for lo, hi, j, w in media_at[t - 1]:
            # pmat[j, i] * w[v] is the one product a media edge would add;
            # where w is 0 it is a zero, which leaves any aggregate (>= +0.0) as it is
            agg_rows[:, lo:hi] += (pmat[j][:, None] * w)[:, None]
        if len(sends) > 1:
            scatter(sends[1:])
        # every cell is tested, none marked: a cell whose aggregate did not
        # change since its last test cannot activate now, as its aggregate
        # is zero, or was below its threshold then, or it is influenced
        return None

    def activate(tested):
        """(front, norms): the tested cells, every cell if None, that cross
        their threshold now, ascending, and their aggregates' norms, which
        only a choice between products needs (None with one product)."""
        if tested is not None and not tested.size:
            return tested, None
        at = slice(None) if tested is None else tested
        norm2 = 0.0
        for i in range(f):  # squares summed in feature order
            x = agg[i][at]
            norm2 = norm2 + x * x
        norms = np.sqrt(norm2)
        # a zero aggregate never activates, nor does an influenced cell again
        newly = (norms >= thr[at]) & (norms > 0.0) & (activation_time[at] < 0)
        front = newly.nonzero()[0] if tested is None else np.compress(newly, tested)
        return front, np.compress(newly, norms) if k > 1 else None

    def choose(front, norms, t):
        """(front, choice): choice[c] is the product, as intp, that cell
        front[c], whose aggregate has norm norms[c], buys at step t."""
        choice = np.zeros(front.size, dtype=np.intp)
        if k == 1 or not front.size:
            return front, choice
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
            np.putmask(choice, dots[j] > cut, j)
            np.maximum(cut, dots[j], out=cut)
        cut -= COS_TIE_TOL * norms
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
        return front, choice

    # a step carries only its frontier (the cells activated last step, ascending),
    # their purchases and the held recommendations to the next; the arrays of
    # a step's scatter, test and purchase choice die inside reach, activate and choose
    front = (activation_time == 0).nonzero()[0]
    front_prod = purchased[front].astype(np.intp)
    held = None  # (cell, group) of the step before last's recommendations
    t = 0
    while front.size or held is not None or t < last_step:
        t += 1
        # out-edges of last step's activations, in frontier then CSR order,
        # then this step's media, then the recommendations of the step
        # before last's activations, in frontier order
        rows = front // n
        base = rows * n
        sends = [(base, front_prod * n + (front - base))]
        if held is not None:
            sends.append(held)
        held = (base, sends[0][1] + rec_shift[rows]) if recommending and front.size else None
        front, front_prod = choose(*activate(reach(t, sends)), t)
        if front.size:
            purchased[front] = front_prod
            activation_time[front] = t
    return activation_time.reshape(R, n), purchased.reshape(R, n)
