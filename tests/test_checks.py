import math

from campaignsim.checks import _behavioral_trial, gadget_property_check
from campaignsim.feature_space import Product, normalize_product

P_AXIS = Product(id=0, features=(1.0, 0.0), null_index=1)


def at_angle(theta):
    return normalize_product((math.cos(theta), math.sin(theta)), null_index=1, product_id=1)


def test_relay_fires_exactly_on_matching_purchase():
    fired, on_time = _behavioral_trial(0.5, 0.25, P_AXIS, at_angle(0.9), same_product=True)
    assert fired and on_time
    fired, on_time = _behavioral_trial(0.5, 0.25, P_AXIS, at_angle(0.9), same_product=False)
    assert not fired and on_time
    # off the axes: the float norm of 0.25 p + 0.25 p rounds below 0.5 here
    p = normalize_product((0.3, 0.7, 0.3), null_index=2, product_id=0)
    q = normalize_product((0.7, 0.3, 0.2), null_index=2, product_id=1)
    assert _behavioral_trial(0.5, 0.25, p, q, same_product=True) == (True, True)
    assert _behavioral_trial(0.5, 0.25, p, q, same_product=False) == (False, True)


def test_relay_holds_for_extreme_geometry():
    # near-degenerate parameter corners
    for chi_w, eps in ((0.9, 0.85), (0.1, 0.005), (0.95, 0.05)):
        fired, on_time = _behavioral_trial(chi_w, eps, P_AXIS, at_angle(math.pi / 2), same_product=True)
        assert fired and on_time
        fired, on_time = _behavioral_trial(chi_w, eps, P_AXIS, at_angle(math.pi / 2), same_product=False)
        assert not fired


def test_random_sweep_has_no_counterexamples():
    report = gadget_property_check(500, seed=123)
    assert report["trials"] == 500
    assert report["counterexamples"] == 0
    assert report["analytic_counterexamples"] == 0
    assert report["behavioral_counterexamples"] == 0
    assert report["latency_violations"] == 0
