"""Marketing channels compiled once, beside the network: dense per-step
vectors for mass media, an edge layer for social advertising.

A channel plan per product carries direct seeds, a social-advertising rate
alpha, and a mass-media schedule beta over a shared horizon.  The compiled
network is the base network itself; channels add no nodes.

Direct seeds need no compiling: build_augmented checks once that every seed
is a node of the base network and is seeded for one product only, and each
row block then carries the plans' seed sets as they are, one per product.

Mass media compile once into a dense array media[t-1, i, v], the weight
w of product i's media into real node v at step t, 0 where there is no
media edge: w * p_i reaches v's aggregate at step t in every replication.
The paper builds it as a root pseudonode per product, seeded at step 0,
and a chain of media pseudonodes linked by weight-1 edges so that the t-th
chain node is influenced at step t-1 and its pseudoedge to v fires at step
t.  The dense add brings the same vector at the same step without the
chain's cells.

Social advertising compiles once into an edge layer shaped like the
network's (diffusion.Recommendations): the edges (u, v) with a weight w > 0
for some product p, where w * p reaches v's aggregate two steps after u
activates, and only if u bought p.  The paper builds each as a relay
pseudonode per (edge, product) that hears chi_w - eps from p's root and eps
from u, so that by the non-strict threshold comparison it fires exactly
when u buys p, one step after u, and passes w * p on to v one step later.
The layer adds the same vector at the same step without the relay's cells.

Channel weights into a real node are scaled by a common ratio so that they
exactly fill the node's residual incoming capacity 1 - sum(b_uv):

    ratio(v) = (1 - sum_u b_uv) / sum_p (alpha_p * sum_u h_uv + sum_t beta_p[t])

with ratio 0 when the denominator is 0.  One array pass computes it for
every base node: both sums over u run in ascending source order, and the
denominator adds the plans in plan order.  A media edge weighs
ratio(v) * beta_p[t] and a recommendation ratio(v) * alpha_p * h_uv.

The media array runs to the last step with a media edge, and the layer
lists recommendations in (source, target, product) order.  Within a
step the kernel adds the direct contributions to an aggregate first, then
the media in product order, then the recommendations in ascending source
order: the order of the paper's pseudonodes, numbered after the real
nodes (roots, then chains product by product, then relays in the network's
(source, target) edge order, product-minor).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .diffusion import Recommendations, RowBlock
from .feature_space import Product
from .network import Network, _decode_utf8, save_network


class PlanError(Exception):
    pass


@dataclass(frozen=True)
class ChannelPlan:
    product: int  # product id
    seeds: frozenset[int] = frozenset()
    alpha: float = 0.0
    beta: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "seeds", frozenset(int(s) for s in self.seeds))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        # range tests so NaN fails too; an infinite budget would zero every scaling ratio
        if not 0.0 <= self.alpha < math.inf:
            raise PlanError(f"plan for product {self.product}: alpha must be finite and >= 0")
        if not all(0.0 <= b < math.inf for b in self.beta):
            raise PlanError(f"plan for product {self.product}: beta entries must be finite and >= 0")

    @property
    def horizon(self) -> int:
        return len(self.beta)


@dataclass
class AugmentedNetwork:
    net: Network  # the base network
    plans: tuple[ChannelPlan, ...]  # aligned with the products list
    product_ids: tuple[int, ...]
    scale: np.ndarray  # per-node channel scaling ratio
    media: np.ndarray  # (last media step, product, node): mass media weights, 0 where none
    recommendations: Recommendations  # social advertising: the compiled edge layer

    def check_products(self, products: list[Product]) -> None:
        """Raise ValueError unless products are the compiled plans' products, in their order."""
        if tuple(p.id for p in products) != self.product_ids:
            raise ValueError("products must be the compiled plans' products, in their order")

    def row_block(self, rows: int, master_seed: int = 0, rep_offset: int = 0) -> RowBlock:
        """rows replications of the plans' seeds and channels, keyed from (master_seed, rep_offset)."""
        seeds = tuple(plan.seeds for plan in self.plans)
        return RowBlock(rows, seeds, self.media, self.recommendations, master_seed, rep_offset)


def build_augmented(
    net: Network,
    products: list[Product],
    plans: list[ChannelPlan],
) -> AugmentedNetwork:
    """Compile channel plans into media and recommendations over the base network.

    Every Network is valid and the scaling ratio fills exactly each node's
    residual capacity, so the compiled network keeps the capacity rule by
    construction.  Budgets whose loads or channel weights overflow to a
    non-finite value raise PlanError.
    """
    by_id = {plan.product: plan for plan in plans}
    if len(by_id) != len(plans):
        raise PlanError("more than one plan for the same product")
    ordered = []
    for p in products:
        if p.id not in by_id:
            raise PlanError(f"no channel plan for product {p.id}")
        ordered.append(by_id[p.id])
    if len(by_id) != len(products):
        raise PlanError("plan references an unknown product")
    horizons = {plan.horizon for plan in ordered}
    if len(horizons) > 1:
        raise PlanError("plans must share one horizon")

    seen_seeds: set[int] = set()
    for plan in ordered:
        for s in plan.seeds:
            if not (0 <= s < net.node_count):
                raise PlanError(f"seed {s} is not a node of the base network")
            if s in seen_seeds:
                raise PlanError(f"node {s} seeded for more than one product")
            seen_seeds.add(s)

    n = net.node_count
    # the edges are in (source, target) order, so sums per target run in ascending source order
    src, dst, h = net.src, net.dst, net.h
    in_sum = np.bincount(dst, net.weight, minlength=n)
    h_sum = np.bincount(dst, h, minlength=n)
    # an overflow leaves inf, or NaN where it meets a zero budget or similarity;
    # both raise PlanError below, but for a recommendation's NaN, whose weight
    # is 0 and is dropped with the others
    with np.errstate(over="ignore", invalid="ignore"):
        load = np.zeros(n)
        for plan in ordered:
            load += plan.alpha * h_sum + sum(plan.beta)
        scale = np.zeros(n)
        np.divide(np.maximum(0.0, 1.0 - in_sum), load, out=scale, where=load > 0.0)
        reach = np.array([plan.beta for plan in ordered], dtype=float).T[:, :, None] * scale
        rec = np.array([plan.alpha for plan in ordered], dtype=float)[:, None] * scale[dst] * h

    # a recommendation per (product, edge) with a weight > 0, on the layer of
    # the edges that carry one; a weight that is not, NaN included, is 0
    kept = rec > 0.0
    on = kept.any(axis=0)
    recommendations = Recommendations(src[on].searchsorted(np.arange(n + 1)), dst[on], np.where(kept, rec, 0.0)[:, on])
    checked = {"channel load": load, "media weight": reach, "recommendation weight": recommendations.weight}
    for what, values in checked.items():
        if not np.isfinite(values).all():
            raise PlanError(f"channel budgets overflow: a {what} is not finite")
    # the media run to the last step with a media edge
    last_step = (np.arange(1, len(reach) + 1) * reach.any(axis=(1, 2))).max(initial=0)
    return AugmentedNetwork(
        net=net,
        plans=tuple(ordered),
        product_ids=tuple(p.id for p in products),
        scale=scale,
        media=reach[:last_step],
        recommendations=recommendations,
    )


_NUMBER = (int, float)


def _typed(value, kind, what: str):
    """value if it has the JSON type kind; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        name = "number" if kind is _NUMBER else kind.__name__
        raise PlanError(f"{what}: expected {name}, got {value!r}")
    return value


def load_plans(path: str) -> list[ChannelPlan]:
    """Read a JSON plan file: {"horizon": T, "plans": [{product, seeds, alpha, beta}]}.

    Text that is not UTF-8 (a byte-order mark is skipped), text that is not
    JSON and any other shape raise PlanError that starts with the file's path.
    """
    with open(path, "rb") as fh:
        text = _decode_utf8(fh.read(), path, PlanError)
    try:
        payload = json.loads(text)
        horizon = _typed(_typed(payload, dict, "plan file").get("horizon"), int, "horizon")
        if horizon < 0:
            raise PlanError(f"horizon must be >= 0, got {horizon}")
        plans = []
        for entry in _typed(payload.get("plans"), list, "plans"):
            product = _typed(_typed(entry, dict, "plan entry").get("product"), int, "product")
            what = f"plan for product {product}"
            seeds = _typed(entry.get("seeds", []), list, f"{what}: seeds")
            beta = _typed(entry.get("beta", []), list, f"{what}: beta")
            if len(beta) != horizon:
                raise PlanError(f"{what}: beta length != horizon")
            plans.append(
                ChannelPlan(
                    product=product,
                    seeds=[_typed(v, int, f"{what}: seed") for v in seeds],
                    alpha=float(_typed(entry.get("alpha", 0.0), _NUMBER, f"{what}: alpha")),
                    beta=[_typed(b, _NUMBER, f"{what}: beta") for b in beta],
                )
            )
        if not plans:
            raise PlanError("no plans")
    except (PlanError, json.JSONDecodeError) as exc:
        raise PlanError(f"{path}: {exc}") from None
    return plans


def plans_to_payload(plans: list[ChannelPlan]) -> dict:
    if not plans:
        raise PlanError("no plans")
    if len({p.horizon for p in plans}) != 1:
        raise PlanError("plans must share one horizon")
    return {
        "horizon": plans[0].horizon,
        "plans": [
            {
                "product": p.product,
                "seeds": sorted(p.seeds),
                "alpha": p.alpha,
                "beta": list(p.beta),
            }
            for p in plans
        ],
    }


def save_plans(plans: list[ChannelPlan], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plans_to_payload(plans), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_augmented(aug: AugmentedNetwork, edge_path: str, similarity_path: str, pseudo_path: str) -> None:
    """Write the base network plus a JSON sidecar listing the media edges, in
    (step, product, target) order, and the recommendations."""
    save_network(aug.net, edge_path, similarity_path)
    pids = aug.product_ids
    media = aug.media.nonzero()
    payload = {
        "media": [
            {"product": pids[i], "step": t + 1, "node": v, "weight": w}
            for t, i, v, w in zip(*(a.tolist() for a in media), aug.media[media].tolist())
        ],
        "recommendations": [
            {"kind": "recommendation", "product": pids[i], "edge": [u, v], "weight": w}
            for u, v, i, w in zip(*(a.tolist() for a in aug.recommendations.listing()))
        ],
    }
    with open(pseudo_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
