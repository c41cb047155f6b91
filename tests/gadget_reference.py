"""The paper's channel construction, the reference that compiled channels
are checked against.

build_augmented compiles mass media into dense per-step vectors and social
advertising into delayed recommendation edges, beside the base network.
paper_network expands them back into the paper's pseudonodes:

- a root per product, seeded with it at step 0;
- per product, a chain of media nodes linked by weight-1 edges, the t-th
  influenced at step t - 1, up to the product's last media step; the root
  and the t-th chain node send step t's media edges (t, i, v, w), the
  non-zero entries w = media[t - 1, i, v], as pseudoedges of weight w to v,
  which fire at step t;
- per recommendation (u, v, product i, weight w) a relay that hears
  chi_w - eps from product i's root and eps from u, fires by the non-strict
  threshold comparison when u buys exactly i (one step after u), and passes
  w * p_i on to v one step later.

Pseudonodes are numbered after the real nodes: roots in product order, then
the chains product by product and step by step, then the relays in
(source, target, product) order.  So within a step their contributions
reach an aggregate after the direct ones, media in product order, then
recommendations in ascending source order, and the node count before the
relays is the compiled threshold width.  Pseudonode thresholds are fixed:
thresholds() writes them into a caller's threshold rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from campaignsim.channels import AugmentedNetwork, PlanError
from campaignsim.feature_space import Product
from campaignsim.network import Edge, Network

CHAIN_THRESHOLD = 0.5  # chain nodes hear weight 1 times a unit product


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


def media_edges(media: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(step, product index, node, weight) of each media edge, the non-zero
    entries of a compiled media array, in (step, product, target) order."""
    t, i, v = media.nonzero()
    return t + 1, i, v, media[t, i, v]


@dataclass
class PaperNetwork:
    net: Network  # real nodes, then roots, media chains and relays
    base_node_count: int
    seeds: tuple[frozenset[int], ...]  # per product, the plan's seeds plus its root
    fixed: np.ndarray  # threshold of pseudonode base_node_count + j at j
    roots: tuple[int, ...]  # per product index
    chain: dict[tuple[int, int], int]  # (product index, t >= 2) -> media chain node
    relays: dict[tuple[int, int, int], int]  # (product index, u, v) -> relay node

    def thresholds(self, chi: np.ndarray) -> np.ndarray:
        """chi's rows, node_count wide, with every pseudonode's fixed threshold."""
        out = np.array(chi, dtype=float)
        out[..., self.base_node_count :] = self.fixed
        return out


def paper_network(
    aug: AugmentedNetwork, products: list[Product], gadget: GadgetParams = GadgetParams()
) -> PaperNetwork:
    """aug's network with its media and recommendations expanded into the
    paper's pseudonodes."""
    n, k = aug.net.node_count, len(products)
    m_step, m_product, m_node, m_weight = media_edges(aug.media)
    rec = aug.recommendations
    edges = list(aug.net.edges)
    roots = tuple(range(n, n + k))
    chain: dict[tuple[int, int], int] = {}
    node = n + k
    for i in range(k):
        sent = m_product == i
        last = int(m_step[sent].max(initial=0))
        steps = [roots[i], *range(node, node + max(last - 1, 0))]  # steps[t - 1] sends step t's media
        chain.update({(i, t): c for t, c in enumerate(steps[1:], start=2)})
        edges += [Edge(a, b, 1.0) for a, b in zip(steps, steps[1:])]
        edges += [
            Edge(steps[t - 1], v, w)
            for t, v, w in zip(m_step[sent].tolist(), m_node[sent].tolist(), m_weight[sent].tolist())
        ]
        node += len(steps) - 1
    assert node == aug.threshold_width
    fixed = [CHAIN_THRESHOLD] * (node - n)
    b_root, eps = gadget.chi_w - gadget.epsilon, gadget.epsilon
    relays: dict[tuple[int, int, int], int] = {}
    for relay, (u, v, i, w) in enumerate(
        sorted(zip(rec.src.tolist(), rec.dst.tolist(), rec.product.tolist(), rec.weight.tolist())), start=node
    ):
        relays[(i, u, v)] = relay
        edges += (Edge(roots[i], relay, b_root), Edge(u, relay, eps), Edge(relay, v, w))
        fixed.append(relay_threshold(b_root, eps, products[i]))
    ref = Network.from_edges(node + len(relays), edges, aug.net.similarity)
    seeds = tuple(frozenset(plan.seeds) | {roots[i]} for i, plan in enumerate(aug.plans))
    return PaperNetwork(ref, n, seeds, np.array(fixed, dtype=float), roots, chain, relays)
