"""Randomized verification suite for social-advertising recommendations.

The paper's relay pseudonode for product p receives chi_w - eps from p's
root and eps from the watched source node.  Writing theta for the angle
between p and whatever the source bought, the relay's aggregate norm
satisfies

    (chi_w - eps)^2 + eps^2 + 2 eps (chi_w - eps) cos(theta)  <=  chi_w^2

with equality exactly at theta = 0.  So the relay fires iff the source buys
exactly p, and build_augmented compiles it as a recommendation: a delayed
edge that adds w * p to the target two steps after the source activates,
and only if the source bought p.  This module checks both the inequality
(pure arithmetic, theta up to pi) and the compiled edge (actual diffusion
with random non-negative 3-feature products p and q, q at least 0.01 rad
from p): the target receives exactly w * p at step t_u + 2 if and only if
the source bought p, whether the source is a seed or activates later.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import ChannelPlan, build_augmented
from .diffusion import simulate_batch
from .feature_space import Product, angular_distance, normalize_product
from .network import Network

_SOURCE_EDGE = 0.1  # weight of the watched edge u -> v


def _product_pair(rng: np.random.Generator) -> tuple[Product, Product]:
    """Random non-negative 3-feature products p and q, q at least 0.01 rad from p."""
    p = normalize_product(rng.random(3), null_index=2, product_id=0)
    while True:
        q = normalize_product(rng.random(3), null_index=2, product_id=1)
        if angular_distance(q.vector, p) >= 0.01:
            return p, q


def _norm(vector) -> float:
    """The kernel's norm: squares summed in feature order, then the square root."""
    norm2 = 0.0
    for x in vector:
        norm2 = norm2 + x * x
    return math.sqrt(norm2)


def _behavioral_trial(p: Product, q: Product, same_product: bool, source_step: int) -> tuple[bool, bool]:
    """Diffuse p's recommendation over u -> v; report (received, exact and on time).

    The source u = 0 buys p if same_product, else q, at source_step: as a
    seed (0) or one step after the seed 2 that feeds it with weight 1 (1).
    Target v = 1 runs three threshold rows: just above the norm of its
    direct aggregate, which it crosses only if something more arrives; the
    kernel's norm of b * p + w * p, which it reaches iff exactly w * p
    arrives on top; and one ulp above that, which it never reaches.
    """
    net = Network.from_edges(3, [(0, 1, _SOURCE_EDGE), (2, 0, 1.0)], similarities={(0, 1): 0.5})
    products = [p, q]
    seed = frozenset({2 if source_step else 0})
    plans = [
        ChannelPlan(product=0, seeds=seed if same_product else frozenset(), alpha=1.0, beta=(0.0,)),
        ChannelPlan(product=1, seeds=frozenset() if same_product else seed, alpha=0.0, beta=(0.0,)),
    ]
    aug = build_augmented(net, products, plans)
    (w,) = aug.recommendations.listing()[3].tolist()  # the one recommendation: u -> v for p
    bought = p if same_product else q
    direct = _norm([x * _SOURCE_EDGE for x in bought.features])
    full = _norm([x * _SOURCE_EDGE + x * w for x in p.features])
    chi = np.full((3, aug.net.node_count), 0.5)
    chi[:, 1] = [math.nextafter(direct, math.inf), full, math.nextafter(full, math.inf)]
    act, purchased = simulate_batch(aug.net, products, [aug.row_block(3)], chi)  # the plans have no media
    arrival = source_step + 2
    received = bool(act[0, 1] >= 0)
    if same_product:
        exact = act[0, 1] == act[1, 1] == arrival and purchased[1, 1] == 0 and act[2, 1] == -1
    else:
        exact = not (act[:, 1] >= 0).any()
    return received, bool(exact)


def gadget_property_check(trials: int, seed: int) -> dict:
    """Random sweep over (chi_w, eps, theta, p, q); returns counterexample counts."""
    rng = np.random.default_rng(seed)
    analytic_fail = 0
    behavioral_fail = 0
    latency_fail = 0
    for _ in range(trials):
        chi_w = rng.uniform(0.05, 0.95)
        eps = chi_w * rng.uniform(0.05, 0.95)
        same = bool(rng.random() < 0.5)
        a = chi_w - eps
        if same:
            # equality branch: the reduced difference 2 eps a (cos 0 - 1) is exactly 0
            diff = 2.0 * eps * a * (math.cos(0.0) - 1.0)
            if diff != 0.0:
                analytic_fail += 1
        else:
            theta = rng.uniform(0.01, math.pi)
            lhs = a * a + eps * eps + 2.0 * eps * a * math.cos(theta)
            if not lhs < chi_w * chi_w:
                analytic_fail += 1
        # q needs a direction of its own even when the source buys p, else
        # the target's purchase could tie
        p, q = _product_pair(rng)
        received, on_time = _behavioral_trial(p, q, same, int(rng.integers(2)))
        if received != same:
            behavioral_fail += 1
        if not on_time:
            latency_fail += 1
    return {
        "trials": trials,
        "analytic_counterexamples": analytic_fail,
        "behavioral_counterexamples": behavioral_fail,
        "latency_violations": latency_fail,
        "counterexamples": analytic_fail + behavioral_fail + latency_fail,
    }
