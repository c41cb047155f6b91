"""The paper's social-advertising relay gadget, the reference that compiled
recommendations are checked against.

build_augmented compiles social advertising into delayed recommendation
edges.  gadget_network expands them back into the paper's construction: per
recommendation (u, v, product i, weight w) a relay pseudonode that hears
chi_w - eps from product i's root and eps from u, fires by the non-strict
threshold comparison when u buys exactly i (one step after u), and passes
w * p_i on to v one step later.  Relays are numbered after the compiled
nodes in (source, target, product) order, so their contributions reach an
aggregate after the step's other contributions, in ascending source order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from campaignsim.channels import AugmentedNetwork, PlanError
from campaignsim.feature_space import Product
from campaignsim.network import Edge, Network, NodeKind


@dataclass(frozen=True)
class GadgetParams:
    """Relay pseudonode geometry; requires 0 < epsilon < chi_w <= 1."""

    chi_w: float = 0.5
    epsilon: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.epsilon < self.chi_w <= 1.0):
            raise PlanError(f"invalid gadget parameters chi_w={self.chi_w}, epsilon={self.epsilon}")


def relay_threshold(root_weight: float, source_weight: float, product: Product) -> float:
    """Threshold of a relay whose in-edges weigh root_weight and source_weight.

    The sum of the weights, lowered to the float norm simulate_batch computes
    for root_weight * p + source_weight * p where rounding puts that norm
    below the sum: per feature x * root_weight + x * source_weight, squares
    summed in feature order, then the square root.  So a source that bought p
    fires the relay for every direction of p; an axis product gives the sum.
    """
    norm2 = 0.0
    for x in product.features:
        a = x * root_weight + x * source_weight
        norm2 = norm2 + a * a
    return min(root_weight + source_weight, math.sqrt(norm2))


def gadget_network(
    aug: AugmentedNetwork, products: list[Product], gadget: GadgetParams = GadgetParams()
) -> tuple[Network, dict[tuple[int, int, int], int]]:
    """aug's network with every recommendation expanded into a relay
    pseudonode, and the relay node of each (product index, u, v)."""
    net = aug.net
    rec = aug.recommendations
    b_root, eps = gadget.chi_w - gadget.epsilon, gadget.epsilon
    entries = sorted(zip(rec.src.tolist(), rec.dst.tolist(), rec.product.tolist(), rec.weight.tolist()))
    edges = list(net.edges)
    relays: dict[tuple[int, int, int], int] = {}
    thresholds = []
    for relay, (u, v, i, w) in enumerate(entries, start=net.node_count):
        relays[(i, u, v)] = relay
        edges += (Edge(aug.roots[i], relay, b_root), Edge(u, relay, eps), Edge(relay, v, w))
        thresholds.append(relay_threshold(b_root, eps, products[i]))
    ref = Network(
        node_count=net.node_count + len(entries),
        edges=edges,
        similarity=dict(net.similarity),
        node_kind=np.concatenate([net.node_kind, np.full(len(entries), NodeKind.SOCIAL_GADGET, dtype=np.int8)]),
        fixed_threshold=np.concatenate([net.fixed_threshold, np.array(thresholds, dtype=float)]),
    )
    assert ref.validate() == []
    return ref, relays
