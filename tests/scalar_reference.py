"""Per-node scalar diffusion engine, the reference the batch kernel is checked against.

It implements the rule of campaignsim.diffusion one node at a time: plain
loops over in-neighbors, one replication per call, and a Python argmax over
cosines for the purchase.  Only the product matrix, the tie tolerance and
the tie-break hash are shared with the package, so the kernel's vectorized
aggregation, thresholding and tie detection are compared against an
independent formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from campaignsim.feature_space import COS_TIE_TOL, Product, ProductError, product_matrix
from campaignsim.network import Network
from campaignsim.rng import key_uniform


class DiffusionNotConverged(Exception):
    """max_steps exhausted while activations were still occurring."""


@dataclass
class DiffusionState:
    time: int
    influenced: np.ndarray  # bool (n,)
    purchased: np.ndarray  # int16 (n,), product index or -1
    activation_time: np.ndarray  # int32 (n,), -1 if never


@dataclass
class DiffusionOutcome:
    activation_time: np.ndarray
    purchased: np.ndarray
    steps: int


def tied_candidates(aggregate: np.ndarray, products: list[Product]) -> list[int]:
    """Indices of products at the minimal angular distance.

    More than one index is returned only when cosines agree within
    COS_TIE_TOL.  Products are unit vectors, so the angular argmin is the
    cosine argmax and no arccos is needed here.
    """
    a = np.asarray(aggregate, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise ProductError("cannot choose a product for the zero vector")
    cosines = np.array([float(np.dot(a, p.vector)) for p in products]) / norm
    best = float(np.max(cosines))
    return [i for i, c in enumerate(cosines) if best - c <= COS_TIE_TOL]


def in_neighbors(net: Network, v: int) -> list[tuple[int, float]]:
    """(src, weight) of each in-edge of v, in ascending source order."""
    into = np.flatnonzero(net.dst == v)
    return list(zip(net.src[into].tolist(), net.weight[into].tolist()))


def initial_state(net: Network, products: list[Product], seeds: tuple[frozenset[int], ...]) -> DiffusionState:
    """Step 0: seeds[j] bought product j.  A seed outside the network or in
    two sets raises ValueError."""
    n = net.node_count
    influenced = np.zeros(n, dtype=bool)
    purchased = np.full(n, -1, dtype=np.int16)
    activation_time = np.full(n, -1, dtype=np.int32)
    for j, nodes in enumerate(seeds):
        for v in sorted(nodes):
            if not (0 <= v < n):
                raise ValueError(f"seed {v} is not a node")
            if influenced[v]:
                raise ValueError(f"node {v} seeded for more than one product")
            influenced[v] = True
            purchased[v] = j
            activation_time[v] = 0
    return DiffusionState(0, influenced, purchased, activation_time)


def step(
    net: Network,
    products: list[Product],
    state: DiffusionState,
    thresholds: np.ndarray,
    *,
    tie_key: tuple[int, int] = (0, 0),
    node_order=None,
) -> DiffusionState:
    """Advance one synchronous step; returns a new state.

    tie_key is (master seed, replication index); purchase ties hash it with
    (node, step) so iteration order is irrelevant.  node_order exists for
    order-independence checks and defaults to ascending ids.
    """
    t = state.time + 1
    pmat = product_matrix(products)
    influenced = state.influenced.copy()
    purchased = state.purchased.copy()
    activation_time = state.activation_time.copy()
    order = range(net.node_count) if node_order is None else node_order
    for v in order:
        if state.influenced[v]:
            continue
        acc = np.zeros(pmat.shape[1])
        for u, w in in_neighbors(net, v):
            if state.influenced[u]:
                acc += w * pmat[state.purchased[u]]
        norm = float(np.sqrt(np.sum(acc * acc)))
        if norm <= 0.0 or norm < thresholds[v]:
            continue
        tied = tied_candidates(acc, products)
        if len(tied) == 1:
            choice = tied[0]
        else:
            u01 = key_uniform(tie_key[0], tie_key[1], v, t)
            choice = tied[int(u01 * len(tied))]
        influenced[v] = True
        purchased[v] = choice
        activation_time[v] = t
    return DiffusionState(t, influenced, purchased, activation_time)


def run_diffusion(
    net: Network,
    products: list[Product],
    seeds: tuple[frozenset[int], ...],
    thresholds: np.ndarray,
    *,
    tie_key: tuple[int, int] = (0, 0),
    max_steps: int | None = None,
    node_order=None,
) -> DiffusionOutcome:
    """Run to the fixed point; raises DiffusionNotConverged past max_steps."""
    if max_steps is None:
        max_steps = net.node_count + 2
    state = initial_state(net, products, seeds)
    while True:
        nxt = step(net, products, state, thresholds, tie_key=tie_key, node_order=node_order)
        if np.array_equal(nxt.influenced, state.influenced):
            return DiffusionOutcome(state.activation_time, state.purchased, state.time)
        if nxt.time > max_steps:
            raise DiffusionNotConverged(f"no fixed point within {max_steps} steps")
        state = nxt
