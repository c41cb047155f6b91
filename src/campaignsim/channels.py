"""Marketing channels compiled into edges beside the network: scheduled
edges for mass media, delayed edges for social advertising.

A channel plan per product carries direct seeds, a social-advertising rate
alpha, and a mass-media schedule beta over a shared horizon.  The compiled
network is the base network itself; channels add no nodes.

Direct seeds need no compiling: build_augmented checks once that every seed
is a node of the base network and is seeded for one product only, and each
row block then carries the plans' seed sets as they are, one per product.

Mass media at step t becomes one scheduled edge per real node v with a
non-zero weight: it adds w * p to v's aggregate at step t in every
replication (diffusion.Media).  The paper builds it as a root pseudonode
per product, seeded at step 0, and a chain of media pseudonodes linked by
weight-1 edges so that the t-th chain node is influenced at step t-1 and
its pseudoedge to v fires at step t.  The scheduled edge adds the same
vector at the same step without the chain's cells.

Social advertising on an edge (u, v) becomes one recommendation per product
p with a non-zero weight: a delayed edge that adds w * p to v's aggregate
two steps after u activates, and only if u bought p
(diffusion.Recommendations).  The paper builds it as a relay pseudonode per
(edge, product) that hears chi_w - eps from p's root and eps from u, so that
by the non-strict threshold comparison it fires exactly when u buys p, one
step after u, and passes w * p on to v one step later.  The compiled edge
adds the same vector at the same step without the relay's cells.

Channel weights into a real node are scaled by a common ratio so that they
exactly fill the node's residual incoming capacity 1 - sum(b_uv):

    ratio(v) = (1 - sum_u b_uv) / sum_p (alpha_p * sum_u h_uv + sum_t beta_p[t])

with ratio 0 when the denominator is 0.  One array pass computes it for
every base node: both sums over u run in ascending source order, and the
denominator adds the plans in plan order.  A media edge weighs
ratio(v) * beta_p[t] and a recommendation ratio(v) * alpha_p * h_uv.

Media edges are listed in (step, product, target) order and recommendations
in (source, target, product) order.  Within a step the kernel adds the
direct contributions to an aggregate first, then the media in product
order, then the recommendations in ascending source order: the order of the
paper's pseudonodes, numbered after the real nodes (roots, then chains
product by product, then relays in the network's (source, target) edge
order, product-minor).

Threshold rows have a width that is a contract, because seeded outputs
depend on it: threshold_width is the node count of the paper's media
construction, n real nodes plus one root per product plus one chain node
per step after the first, up to each product's last step with a media
edge.  The kernel reads the first n columns of each row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .diffusion import Media, Recommendations, RowBlock
from .feature_space import Product
from .network import Network


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
    media: Media  # mass media, in (step, product, target) order
    recommendations: Recommendations  # social advertising, in (source, target, product) order
    threshold_width: int  # columns per threshold row

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

    n, k = net.node_count, len(products)
    # the edges are in (source, target) order, so sums per target run in ascending source order
    src, dst, h = net.src, net.dst, net.h
    in_sum = np.bincount(dst, net.weight, minlength=n)
    h_sum = np.bincount(dst, h, minlength=n)
    # an overflow leaves inf, raised as PlanError below, or NaN where it meets a
    # zero budget or similarity, whose weight is 0 and is dropped with the others
    with np.errstate(over="ignore", invalid="ignore"):
        load = np.zeros(n)
        for plan in ordered:
            load += plan.alpha * h_sum + sum(plan.beta)
        scale = np.zeros(n)
        np.divide(np.maximum(0.0, 1.0 - in_sum), load, out=scale, where=load > 0.0)
        reach = np.array([plan.beta for plan in ordered], dtype=float).T[:, :, None] * scale
        rec = scale[dst][:, None] * np.array([plan.alpha for plan in ordered], dtype=float) * h[:, None]

    # one media edge per (step, product, target) with a non-zero weight, in that order
    t_idx, p_idx, v_idx = (reach > 0.0).nonzero()
    media = Media(step=t_idx + 1, dst=v_idx, product=p_idx, weight=reach[t_idx, p_idx, v_idx])
    last_step = np.zeros(k, dtype=np.intp)
    np.maximum.at(last_step, media.product, media.step)

    # one recommendation per (edge, product) with a non-zero weight, in
    # (source, target, product) order
    e_idx, p_idx = (rec > 0.0).nonzero()
    recommendations = Recommendations(src=src[e_idx], dst=dst[e_idx], product=p_idx, weight=rec[e_idx, p_idx])
    checked = {"channel load": load, "media weight": media.weight, "recommendation weight": recommendations.weight}
    for what, values in checked.items():
        if not np.isfinite(values).all():
            raise PlanError(f"channel budgets overflow: a {what} is not finite")
    return AugmentedNetwork(
        net=net,
        plans=tuple(ordered),
        product_ids=tuple(p.id for p in products),
        scale=scale,
        media=media,
        recommendations=recommendations,
        threshold_width=n + k + int(np.maximum(last_step - 1, 0).sum()),
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

    Any other shape raises PlanError naming the file.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        payload = json.load(fh)
    try:
        horizon = _typed(_typed(payload, dict, "plan file").get("horizon"), int, "horizon")
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
    except PlanError as exc:
        raise PlanError(f"{path}: {exc}") from None
    return plans


def plans_to_payload(plans: list[ChannelPlan]) -> dict:
    horizons = {p.horizon for p in plans}
    if len(horizons) != 1:
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
    """Write the base network plus a JSON sidecar listing the media edges and
    the recommendations."""
    from .network import save_network

    save_network(aug.net, edge_path, similarity_path)
    pids = aug.product_ids
    media, rec = aug.media, aug.recommendations
    payload = {
        "media": [
            {"product": pids[i], "step": t, "node": v, "weight": w}
            for t, v, i, w in zip(media.step.tolist(), media.dst.tolist(), media.product.tolist(), media.weight.tolist())
        ],
        "recommendations": [
            {"kind": "recommendation", "product": pids[i], "edge": [u, v], "weight": w}
            for u, v, i, w in zip(rec.src.tolist(), rec.dst.tolist(), rec.product.tolist(), rec.weight.tolist())
        ],
    }
    with open(pseudo_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
