"""Synchronous threshold diffusion with vector-valued influence.

Each influenced node u contributes weight * product-vector to the aggregate
of its out-neighbors.  An uninfluenced node v activates at step t when the
Euclidean norm of its aggregate over nodes influenced by the end of t-1
reaches its threshold (non-strict >=; pseudonode constructions rely on the
equality case).  On activation the node purchases the product at minimal
angular distance from that same aggregate, immutably.

All updates within a step read only the previous step's influenced set, so
the outcome is independent of node iteration order.  Because product
components are non-negative, aggregate norms are non-decreasing over time
and first-crossing detection coincides with the two-sided formulation
(crossed now, not crossed one step earlier).

The kernel advances many replications at once; a single run is a batch of
one.  A node whose aggregate is exactly the zero vector never activates,
whatever its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feature_space import COS_TIE_TOL, Product, product_matrix
from .network import Network, NodeKind
from .rng import key_uniform


class DiffusionNotConverged(Exception):
    """max_steps exhausted while activations were still occurring."""


class PurchaseTieError(Exception):
    """An exact purchase tie occurred where the caller forbade randomness."""


@dataclass(frozen=True)
class SeedAssignment:
    """Seed sets per product, index-aligned with the products list."""

    by_product: tuple[frozenset[int], ...]

    def validate(self, net: Network) -> None:
        seen: set[int] = set()
        for idx, nodes in enumerate(self.by_product):
            for v in nodes:
                if not (0 <= v < net.node_count):
                    raise ValueError(f"seed {v} is not a node")
                kind = NodeKind(net.node_kind[v])
                if kind not in (NodeKind.REAL, NodeKind.PRODUCT_ROOT):
                    raise ValueError(f"seed {v} has kind {kind.name}; only real nodes and product roots may be seeded")
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


def apply_fixed_thresholds(net: Network, chi: np.ndarray) -> np.ndarray:
    """Overwrite pseudonode columns of a (R, n) threshold matrix in place."""
    fixed = ~np.isnan(net.fixed_threshold)
    chi[..., fixed] = net.fixed_threshold[fixed]
    return chi


def simulate_batch(
    net: Network,
    products: list[Product],
    seeds: SeedAssignment,
    thresholds: np.ndarray,
    *,
    master_seed: int = 0,
    rep_offset: int = 0,
    max_steps: int | None = None,
    on_tie: str = "random",
) -> tuple[np.ndarray, np.ndarray]:
    """Advance R replications at once over a shared network.

    thresholds is (R, n) with pseudonode columns already fixed.  Replication
    r in the batch is globally indexed rep_offset + r for tie-break hashing,
    which keeps outcomes identical however the replications are batched.
    Returns (activation_time, purchased), both (R, n).
    """
    if max_steps is None:
        max_steps = net.node_count + 2
    seeds.validate(net)
    R, n = thresholds.shape
    if n != net.node_count:
        raise ValueError("threshold matrix width does not match node count")
    W = net.weight_matrix()
    pmat = product_matrix(products)
    f = pmat.shape[1]

    influenced = np.zeros((R, n), dtype=bool)
    purchased = np.full((R, n), -1, dtype=np.int16)
    activation_time = np.full((R, n), -1, dtype=np.int32)
    snodes, sprods = seeds.arrays()
    influenced[:, snodes] = True
    purchased[:, snodes] = sprods
    activation_time[:, snodes] = 0

    agg = np.empty((R, n, f))
    t = 0
    while True:
        t += 1
        contrib = pmat[np.clip(purchased, 0, None)]  # (R, n, f)
        contrib *= influenced[:, :, None]
        for i in range(f):
            np.matmul(contrib[:, :, i], W, out=agg[:, :, i])
        norms = np.sqrt(np.sum(agg * agg, axis=2))
        newly = ~influenced & (norms >= thresholds) & (norms > 0.0)
        if not newly.any():
            return activation_time, purchased
        if t > max_steps:
            raise DiffusionNotConverged(f"no fixed point within {max_steps} steps")
        rows, cols = np.nonzero(newly)
        sel = agg[rows, cols, :]  # (m, f)
        dots = sel @ pmat.T  # (m, k)
        best = dots.max(axis=1)
        tie_mask = dots >= (best - COS_TIE_TOL * norms[rows, cols])[:, None]
        choice = np.argmax(dots, axis=1)
        multi = np.flatnonzero(tie_mask.sum(axis=1) > 1)
        if multi.size:
            if on_tie == "raise":
                r0, v0 = rows[multi[0]], cols[multi[0]]
                raise PurchaseTieError(f"purchase tie at node {v0}, step {t}, replication {rep_offset + r0}")
            for i in multi:
                cands = np.flatnonzero(tie_mask[i])
                u01 = key_uniform(master_seed, rep_offset + int(rows[i]), int(cols[i]), t)
                choice[i] = cands[int(u01 * len(cands))]
        influenced[rows, cols] = True
        purchased[rows, cols] = choice.astype(np.int16)
        activation_time[rows, cols] = t
