"""Simulation and budget optimization for competing multi-channel campaigns.

Products diffuse over a weighted social network under a multi-feature
linear-threshold rule; mass media compiles into dense per-step vectors and
social advertising into delayed recommendation edges beside the base
network, so one engine covers every channel mix without pseudonodes.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .channels import (
    AugmentedNetwork,
    ChannelPlan,
    PlanError,
    build_augmented,
    load_plans,
    save_plans,
)
from .diffusion import (
    PurchaseTieError,
    Recommendations,
    RowBlock,
    simulate_batch,
)
from .estimator import SpreadEstimate, estimate_spread
from .feature_space import Product, ProductError, angular_distance, load_products, normalize_product
from .network import Edge, Network, NetworkError, ParseError, ValidationError, load_network
from .optimizer import (
    CEConfig,
    CostModel,
    InfeasiblePlanError,
    best_response_loop,
    ce_optimize,
)
from .oracle import EnumerationCapError, GridSpec, analytic_blocking_demo, exact_spread_grid

__all__ = [
    "AugmentedNetwork",
    "CEConfig",
    "ChannelPlan",
    "CostModel",
    "Edge",
    "EnumerationCapError",
    "GridSpec",
    "InfeasiblePlanError",
    "Network",
    "NetworkError",
    "ParseError",
    "PlanError",
    "Product",
    "ProductError",
    "PurchaseTieError",
    "Recommendations",
    "RowBlock",
    "SpreadEstimate",
    "ValidationError",
    "analytic_blocking_demo",
    "angular_distance",
    "best_response_loop",
    "build_augmented",
    "ce_optimize",
    "estimate_spread",
    "exact_spread_grid",
    "load_network",
    "load_plans",
    "load_products",
    "normalize_product",
    "save_plans",
    "simulate_batch",
    "__version__",
]
