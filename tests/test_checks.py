import math

import pytest

from campaignsim.checks import _behavioral_trial, gadget_property_check
from campaignsim.feature_space import Product, normalize_product

P_AXIS = Product(id=0, features=(1.0, 0.0), null_index=1)


def at_angle(theta):
    return normalize_product((math.cos(theta), math.sin(theta)), null_index=1, product_id=1)


def test_relay_fires_exactly_on_matching_purchase():
    for source_step in (0, 1):
        trial = _behavioral_trial(P_AXIS, at_angle(0.9), same_product=True, source_step=source_step)
        assert trial == (True, True)
        trial = _behavioral_trial(P_AXIS, at_angle(0.9), same_product=False, source_step=source_step)
        assert trial == (False, True)
    # off the axes, where the float norm of b * p + w * p is not b + w
    p = normalize_product((0.3, 0.7, 0.3), null_index=2, product_id=0)
    q = normalize_product((0.7, 0.3, 0.2), null_index=2, product_id=1)
    for source_step in (0, 1):
        assert _behavioral_trial(p, q, same_product=True, source_step=source_step) == (True, True)
        assert _behavioral_trial(p, q, same_product=False, source_step=source_step) == (False, True)


def test_relay_holds_for_extreme_geometry():
    # q orthogonal to p, 0.01 rad from it, and in between
    for q in (at_angle(math.pi / 2), at_angle(0.01), at_angle(1.5)):
        for same in (True, False):
            assert _behavioral_trial(P_AXIS, q, same_product=same, source_step=1) == (same, True)


def test_random_sweep_has_no_counterexamples():
    report = gadget_property_check(500, seed=123)
    assert report["trials"] == 500
    assert report["counterexamples"] == 0
    assert report["analytic_counterexamples"] == 0
    assert report["behavioral_counterexamples"] == 0
    assert report["latency_violations"] == 0


def test_trials_must_be_an_integer_of_at_least_one():
    # a sweep over no trials would report no counterexamples
    for trials in (0, -5, 2.5, True):
        with pytest.raises(ValueError, match="trials"):
            gadget_property_check(trials, seed=1)
