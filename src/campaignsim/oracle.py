"""Exact expected-spread computation for small instances.

Thresholds are discretized to the m midpoints (i - 0.5)/m per node and every
joint assignment is diffused deterministically.  The outcome of a diffusion
is piecewise constant in each node's threshold, with pieces bounded by the
norms of aggregates the node could ever receive, so midpoints falling in the
same piece are collapsed into one representative cell weighted by its
midpoint count.  The collapsed enumeration equals the full m^n grid average
exactly while keeping the tuple count far below the hard cap.  Tuples run
in kernel calls of estimator.call_rows rows, at most CALL_CELLS cells each.

Midpoints sit strictly between the decimal weights typical of input files,
so grid probabilities of simple events are exact (a single incoming weight w
at m=100 yields activation probability w for two-decimal w).

Purchase ties abort the computation: the oracle is only defined for
tie-free instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import AugmentedNetwork
from .diffusion import simulate_batch
from .estimator import _check_count, _check_node, _product_index, call_rows
from .feature_space import Product, product_matrix


class EnumerationCapError(Exception):
    pass


# cap on the breakpoint pre-computation per node; beyond it every midpoint
# becomes its own cell (correct, just slower)
_MAX_NORM_COMBOS = 200_000


@dataclass(frozen=True)
class GridSpec:
    resolution: int
    max_tuples: int = 1 << 24

    def __post_init__(self):
        _check_count("grid resolution", self.resolution)  # 2.5 midpoints per node is no grid


@dataclass
class OracleResult:
    product_ids: tuple[int, ...]
    spread: np.ndarray  # (k,) exact expected real-node purchasers
    node_probability: np.ndarray  # (k, n)
    tuples_evaluated: int

    def spread_of(self, product_id: int) -> float:
        return float(self.spread[_product_index(self.product_ids, product_id)])


def _in_edges(aug: AugmentedNetwork) -> dict[int, list[tuple[float, int | None]]]:
    """(weight, product index or None for any) of each in-edge per target:
    base edges in ascending source order, then media in (step, product)
    order, then recommendations in source order, which is where the paper's
    pseudonodes would sit."""
    into: dict[int, list[tuple[float, int | None]]] = {}
    # one stable pass over the (source, target)-sorted edges
    for v, w in zip(aug.net.dst.tolist(), aug.net.weight.tolist()):
        into.setdefault(v, []).append((w, None))
    step, prod, node = aug.media.nonzero()  # in (step, product, target) order
    for _, dst, product, weight in ((step, node, prod, aug.media[step, prod, node]), aug.recommendations.listing()):
        for v, w, i in zip(dst.tolist(), weight.tolist(), product.tolist()):
            into.setdefault(v, []).append((w, i))
    return into


def _breakpoint_norms(products: list[Product], ins: list[tuple[float, int | None]]) -> np.ndarray | None:
    """Norms of all aggregate vectors a node could receive (superset of reachable).

    ins holds (weight, product index the source can ever buy, or None for
    any) per in-edge.
    """
    pmat = product_matrix(products)
    options: list[np.ndarray] = []
    total = 1
    for w, pi in ins:
        if pi is None:
            opts = np.vstack([np.zeros(pmat.shape[1]), w * pmat])
        else:
            opts = np.vstack([np.zeros(pmat.shape[1]), w * pmat[pi]])
        options.append(opts)
        total *= opts.shape[0]
        if total > _MAX_NORM_COMBOS:
            return None
    acc = np.zeros((1, pmat.shape[1]))
    for opts in options:
        acc = (acc[:, None, :] + opts[None, :, :]).reshape(-1, pmat.shape[1])
    return np.unique(np.sqrt(np.sum(acc * acc, axis=1)))


def _piece_starts(norms: np.ndarray | None, m: int) -> np.ndarray | None:
    """First midpoint index of each constant-outcome piece, then m; None when
    the breakpoints are skipped and every midpoint is a piece of its own.

    Midpoint i is (i + 0.5) / m and a breakpoint x starts a piece at the
    count of midpoints <= x, so memory follows the breakpoints, not m.
    """
    if norms is None:
        return None
    count = np.clip(np.floor(norms * m + 0.5), 0, m).astype(np.int64)
    while True:  # correct the rounded estimate by exact comparison with the midpoints
        down = (count > 0) & ((count - 0.5) / m > norms)
        up = (count < m) & ((count + 0.5) / m <= norms)
        if not (down.any() or up.any()):
            return np.unique(np.concatenate([[0, m], count]))
        count += up.astype(np.int64) - down


def _cells(starts: np.ndarray | None, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(representative midpoints, midpoint counts), one entry per constant-outcome piece."""
    if starts is None:
        return (np.arange(m) + 0.5) / m, np.ones(m, dtype=np.int64)
    return (starts[:-1] + 0.5) / m, np.diff(starts)


def exact_spread_grid(
    aug: AugmentedNetwork,
    products: list[Product],
    grid: GridSpec,
    *,
    pinned: dict[int, float] | None = None,
) -> OracleResult:
    """Exact expected spread under midpoint-discretized thresholds.

    Thresholds are enumerated for every unseeded real node with incoming
    influence, except real nodes listed in pinned, whose thresholds are held at
    the given values.  Raises EnumerationCapError past grid.max_tuples and
    PurchaseTieError on any purchase tie.
    """
    aug.check_products(products)
    pinned = pinned or {}
    net = aug.net
    n = net.node_count
    k = len(products)
    seeded = set().union(*(plan.seeds for plan in aug.plans))

    base_chi = np.full(n, 2.0)
    for node, value in pinned.items():
        _check_node(node, n)
        base_chi[node] = value

    into = _in_edges(aug)
    free = [v for v in range(n) if v not in seeded and v not in pinned and v in into]
    m = grid.resolution
    starts = [_piece_starts(_breakpoint_norms(products, into[v]), m) for v in free]
    total = math.prod(m if s is None else s.size - 1 for s in starts)
    if total > grid.max_tuples:
        raise EnumerationCapError(f"{total} threshold tuples exceed the cap {grid.max_tuples}")
    cells = [_cells(s, m) for s in starts]
    shape = tuple(mids.size for mids, _ in cells)

    spread = np.zeros(k)
    node_prob = np.zeros((k, n))
    rows = call_rows(net)
    for lo in range(0, total, rows):  # tuples lo .. lo+R-1 in itertools.product order
        R = min(rows, total - lo)
        index = np.unravel_index(np.arange(lo, lo + R), shape) if shape else ()
        chi = np.tile(base_chi, (R, 1))
        weights = np.ones(R)
        for v, (mids, counts), i in zip(free, cells, index):
            chi[:, v] = mids[i]
            weights *= counts[i] / m
        _, purchased = simulate_batch(net, products, [aug.row_block(R, 0, lo)], chi, on_tie="raise")
        for j in range(k):
            bought = purchased == j
            spread[j] += float(np.dot(weights, bought.sum(axis=1)))
            node_prob[j] += weights @ bought
    return OracleResult(
        product_ids=aug.product_ids,
        spread=spread,
        node_probability=node_prob,
        tuples_evaluated=total,
    )


@dataclass(frozen=True)
class BlockingDemoValues:
    """Closed-form quantities for the competitor-blocking demo fixture."""

    bridge_competitor_prob: float  # P(bridge node buys the competitor product)
    target_focal_prob: float  # P(contested target buys the focal product)
    focal_spread: float  # expected real-node purchasers of the focal product


def analytic_blocking_demo(variant: str = "base") -> BlockingDemoValues:
    """Hand-derived expectations for the 37-node blocking demo.

    The fixture (see fixtures.blocking_demo) has a bridge node fed 0.6 by the
    competitor seed and 0.4 by an optional extra focal seed, and a contested
    target fed 0.3 of focal influence and 0.7 from the bridge, with 30 sure
    followers behind the target.  In the base variant the extra seed is off:
    the bridge activates (buying the competitor product) iff chi <= 0.6, and
    the target buys focal iff the bridge stayed inactive and chi <= 0.3.
    With the extra seed on, the bridge sees aggregate norm sqrt(0.6^2+0.4^2)
    but still prefers the competitor, so it blocks the target more often.
    """
    if variant == "base":
        p_bridge = 0.6
        p_target = (1.0 - p_bridge) * 0.3
        focal_seeds = 1
    elif variant == "extra_seed":
        p_bridge = math.sqrt(0.6**2 + 0.4**2)
        p_target = (1.0 - p_bridge) * 0.3
        focal_seeds = 2
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # seeds + two surely-influenced intermediates + the target and its 30 followers
    spread = focal_seeds + 2 + p_target * 31
    return BlockingDemoValues(p_bridge, p_target, spread)
