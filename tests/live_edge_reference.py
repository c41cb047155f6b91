"""Live-edge reference for one product (Kempe, Kleinberg & Tardos, KDD 2003,
Claim 2.6).

With a single product every aggregate is its summed weight times one unit
vector, so the threshold rule is the classical linear-threshold model, and
under uniform thresholds its final active set is distributed as the set
reached from the seeds when each node keeps at most one in-edge, edge e with
probability w_e.  Channels are in-edges like any other: media come from a
root that is always active, recommendations from their source.  Activation
times do not matter here, only who is reached.
"""

from __future__ import annotations

import numpy as np
from gadget_reference import media_edges


def live_edge_spreads(aug, reps: int, seed: int) -> np.ndarray:
    """Final active real nodes in each of reps live-edge draws of aug's one product."""
    n = aug.net.node_count
    root, none = n, n + 1  # the media root, and the parent of a node that keeps no edge
    _, _, m_node, m_weight = media_edges(aug.media)
    r_src, r_dst, _, r_weight = aug.recommendations.listing()
    src = np.concatenate([aug.net.src, np.full(m_node.size, root), r_src])
    dst = np.concatenate([aug.net.dst, m_node, r_dst])
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    cum = np.cumsum(np.concatenate([aug.net.weight, m_weight, r_weight])[order])
    lo, hi = dst.searchsorted(np.arange(n)), dst.searchsorted(np.arange(n), side="right")
    before = np.concatenate(([0.0], cum))[lo]  # in-weight summed over the nodes before v
    u = np.random.default_rng(seed).random((reps, n))
    # v keeps its in-edge e where u falls in e's slice of v's cumulative in-weight
    e = cum.searchsorted(before + u, side="right")
    parent = np.where(e < hi, src[np.minimum(e, src.size - 1)], none)
    active = np.zeros((reps, n + 2), dtype=bool)
    active[:, root] = True
    active[:, sorted(set().union(*(plan.seeds for plan in aug.plans)))] = True
    parent = np.concatenate([parent, np.full((reps, 2), none)], axis=1)
    while True:  # reached: active, or kept an edge from a reached node
        grown = active | np.take_along_axis(active, parent, axis=1)
        if (grown == active).all():
            return active[:, :n].sum(axis=1)
        active = grown
