"""Randomized verification suite for the recommendation relay construction.

The relay pseudonode for product p receives chi_w - eps from p's root and
eps from the watched source node.  Writing theta for the angle between p and
whatever the source bought, the relay's aggregate norm satisfies

    (chi_w - eps)^2 + eps^2 + 2 eps (chi_w - eps) cos(theta)  <=  chi_w^2

with equality exactly at theta = 0.  So the relay fires iff the source buys
exactly p.  This module checks both the inequality (pure arithmetic, theta
up to pi) and the built behaviour (actual diffusion with random non-negative
3-feature products p and q, q at least 0.01 rad from p), including the
firing time one step after the source.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import ChannelPlan, GadgetParams, build_augmented
from .diffusion import simulate_batch
from .feature_space import Product, angular_distance, normalize_product
from .network import Network


def _product_pair(rng: np.random.Generator) -> tuple[Product, Product]:
    """Random non-negative 3-feature products p and q, q at least 0.01 rad from p."""
    p = normalize_product(rng.random(3), null_index=2, product_id=0)
    while True:
        q = normalize_product(rng.random(3), null_index=2, product_id=1)
        if angular_distance(q.vector, p) >= 0.01:
            return p, q


def _behavioral_trial(chi_w: float, eps: float, p: Product, q: Product, same_product: bool) -> tuple[bool, bool]:
    """Build a 2-node instance with p's relay and report (fired, fired on time).

    The source buys p if same_product, else q.
    """
    net = Network.from_edges(2, [(0, 1, 0.1)], similarities={(0, 1): 0.5})
    products = [p, q]
    source_product = 0 if same_product else 1
    plans = [
        ChannelPlan(product=0, seeds=frozenset({0}) if source_product == 0 else frozenset(), alpha=1.0, beta=(0.0,)),
        ChannelPlan(product=1, seeds=frozenset({0}) if source_product == 1 else frozenset(), alpha=0.0, beta=(0.0,)),
    ]
    aug = build_augmented(net, products, plans, gadget=GadgetParams(chi_w=chi_w, epsilon=eps))
    relay = aug.gadget_node(0, 0, 1)
    chi = np.full((1, aug.net.node_count), 0.99)
    act_time, _ = simulate_batch(aug.net, products, aug.seed_assignment(), chi)
    fired = act_time[0, relay] >= 0
    on_time = (not fired) or act_time[0, relay] == 1  # source is a seed, active at 0
    return bool(fired), bool(on_time)


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
        # the relay's purchase would tie
        fired, on_time = _behavioral_trial(chi_w, eps, *_product_pair(rng), same)
        if fired != same:
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
