"""Marketing channels compiled onto the network as pseudonode gadgets.

A channel plan per product carries direct seeds, a social-advertising rate
alpha, and a mass-media schedule beta over a shared horizon.  Augmentation
adds, per product, a root pseudonode (the campaign source, seeded at step 0)
and a chain of media pseudonodes linked by weight-1 edges so that the t-th
chain node is influenced at step t-1.  Media reach is a pseudoedge from the
t-th chain node to each real node; social advertising adds one relay
pseudonode per (directed edge, product) that fires only when the edge's
source buys exactly that product, then recommends it to the target two steps
after the source activates.

Channel pseudoedge weights into a real node are scaled by a common ratio so
that they exactly fill the node's residual incoming capacity 1 - sum(b_uv):

    ratio(v) = (1 - sum_u b_uv) / sum_p (alpha_p * sum_u h_uv + sum_t beta_p[t])

with ratio 0 when the denominator is 0.  Relay activation relies on the
non-strict threshold comparison: with incoming weights (chi_w - eps) from the
root and eps from the source, a source buying the same product lands the
relay's aggregate norm on chi_w, and a source buying any other product leaves
it strictly below.  Rounding can put the kernel's float norm of the
same-product aggregate a few ulps below the float sum of the two weights, so
the relay's stored threshold is that sum, lowered to the norm when the norm
is smaller (diffusion.relay_threshold).

Each pseudonode's role is recorded once: in roots, chain or gadgets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .diffusion import SeedAssignment, relay_threshold
from .feature_space import Product
from .network import Edge, Network, NodeKind, ValidationError


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


@dataclass(frozen=True)
class GadgetParams:
    """Relay pseudonode geometry; requires 0 < epsilon < chi_w <= 1."""

    chi_w: float = 0.5
    epsilon: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.epsilon < self.chi_w <= 1.0):
            raise PlanError(f"invalid gadget parameters chi_w={self.chi_w}, epsilon={self.epsilon}")


@dataclass
class AugmentedNetwork:
    net: Network
    base_node_count: int
    plans: tuple[ChannelPlan, ...]  # aligned with the products list
    product_ids: tuple[int, ...]
    roots: tuple[int, ...]  # root pseudonode per product index
    scale: np.ndarray  # per-base-node channel scaling ratio
    chain: dict[tuple[int, int], int]  # (product index, t >= 2) -> media chain node
    gadgets: dict[tuple[int, int, int], int]  # (product index, u, v) -> relay node

    def seed_assignment(self) -> SeedAssignment:
        by_product = tuple(
            frozenset(plan.seeds) | {self.roots[i]} for i, plan in enumerate(self.plans)
        )
        return SeedAssignment(by_product)

    def gadget_node(self, product_index: int, u: int, v: int) -> int | None:
        return self.gadgets.get((product_index, u, v))


def scaling_ratio(net: Network, v: int, plans: list[ChannelPlan]) -> float:
    """Residual incoming capacity of v divided by its total nominal channel load."""
    in_sum = sum(w for _, w in net.in_neighbors(v))
    h_total = sum(net.similarity_of(u, v) for u, _ in net.in_neighbors(v))
    denom = 0.0
    for plan in plans:
        denom += plan.alpha * h_total + sum(plan.beta)
    if denom <= 0.0:
        return 0.0
    return max(0.0, 1.0 - in_sum) / denom


class AugmentBuilder:
    """Accumulates pseudonodes and pseudoedges on top of a base network."""

    def __init__(self, net: Network, product_count: int):
        self.edges: list[Edge] = list(net.edges)
        self.kinds: list[int] = list(net.node_kind)
        self.fixed: list[float] = list(net.fixed_threshold)
        self.chain: dict[tuple[int, int], int] = {}  # (product index, t) -> node
        self.gadgets: dict[tuple[int, int, int], int] = {}  # (product index, u, v) -> node
        # root node per product index, numbered right after the base nodes
        self.roots = tuple(self.add_pseudo(NodeKind.PRODUCT_ROOT, 0.5) for _ in range(product_count))

    def add_pseudo(self, kind: NodeKind, threshold: float) -> int:
        node = len(self.kinds)
        self.kinds.append(int(kind))
        self.fixed.append(threshold)
        return node

    def chain_node(self, product_index: int, t: int) -> int:
        """Return the media chain node for step t, materializing the chain lazily."""
        if t == 1:
            return self.roots[product_index]
        key = (product_index, t)
        if key not in self.chain:
            prev = self.chain_node(product_index, t - 1)
            node = self.add_pseudo(NodeKind.MEDIA_CHAIN, 0.5)
            self.edges.append(Edge(prev, node, 1.0))
            self.chain[key] = node
        return self.chain[key]

    def attach_mass_media(self, product_index: int, plan: ChannelPlan, v: int, ratio: float) -> None:
        """Pseudoedges from the media chain to v, one per nonzero schedule entry."""
        for t_idx, beta_t in enumerate(plan.beta):
            w = ratio * beta_t
            if w <= 0.0:
                continue
            src = self.chain_node(product_index, t_idx + 1)
            self.edges.append(Edge(src, v, w))

    def attach_social_gadget(
        self,
        product_index: int,
        product: Product,
        plan: ChannelPlan,
        u: int,
        v: int,
        similarity: float,
        ratio: float,
        params: GadgetParams,
    ) -> None:
        """Relay pseudonode for edge (u, v): fires iff u buys this product."""
        w_rec = ratio * plan.alpha * similarity
        if w_rec <= 0.0:
            return
        b_root = params.chi_w - params.epsilon
        # at most the kernel's norm of the same-product aggregate, so that case
        # lands on the equality branch of >= for every product geometry
        node = self.add_pseudo(NodeKind.SOCIAL_GADGET, relay_threshold(b_root, params.epsilon, product))
        self.gadgets[(product_index, u, v)] = node
        root = self.roots[product_index]
        self.edges.append(Edge(root, node, b_root))
        self.edges.append(Edge(u, node, params.epsilon))
        self.edges.append(Edge(node, v, w_rec))


def build_augmented(
    net: Network,
    products: list[Product],
    plans: list[ChannelPlan],
    gadget: GadgetParams = GadgetParams(),
) -> AugmentedNetwork:
    """Compile channel plans into pseudonodes over a validated base network."""
    if np.any(net.node_kind != NodeKind.REAL):
        raise PlanError("base network already contains pseudonodes")
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

    builder = AugmentBuilder(net, len(products))
    scale = np.zeros(net.node_count)
    for v in range(net.node_count):
        scale[v] = scaling_ratio(net, v, ordered)
        if scale[v] <= 0.0:
            continue
        for i in range(len(products)):
            builder.attach_mass_media(i, ordered[i], v, scale[v])
    for e in net.edges:
        h = net.similarity_of(e.src, e.dst)
        if h <= 0.0 or scale[e.dst] <= 0.0:
            continue
        for i, p in enumerate(products):
            builder.attach_social_gadget(i, p, ordered[i], e.src, e.dst, h, scale[e.dst], gadget)

    aug_net = Network(
        node_count=len(builder.kinds),
        edges=builder.edges,
        similarity=dict(net.similarity),
        node_kind=np.array(builder.kinds, dtype=np.int8),
        fixed_threshold=np.array(builder.fixed, dtype=float),
    )
    violations = aug_net.validate()
    if violations:
        raise ValidationError(violations)
    return AugmentedNetwork(
        net=aug_net,
        base_node_count=net.node_count,
        plans=tuple(ordered),
        product_ids=tuple(p.id for p in products),
        roots=builder.roots,
        scale=scale,
        chain=builder.chain,
        gadgets=builder.gadgets,
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
    with open(path, "r", encoding="utf-8") as fh:
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
    """Write the augmented graph plus a JSON sidecar mapping pseudonodes to roles."""
    from .network import save_network

    save_network(aug.net, edge_path, similarity_path)
    pids = aug.product_ids
    roles = {node: {"kind": "product_root", "product": pids[i]} for i, node in enumerate(aug.roots)}
    for (i, t), node in aug.chain.items():
        roles[node] = {"kind": "media_chain", "product": pids[i], "step": t}
    for (i, u, v), node in aug.gadgets.items():
        roles[node] = {"kind": "social_gadget", "product": pids[i], "edge": [u, v]}
    entries = {
        str(node): role | {"fixed_threshold": float(aug.net.fixed_threshold[node])}
        for node, role in roles.items()
    }
    payload = {
        "base_node_count": aug.base_node_count,
        "pseudonodes": entries,
    }
    with open(pseudo_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
