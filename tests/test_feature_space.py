import math
import re

import numpy as np
import pytest

from campaignsim.feature_space import (
    COS_TIE_TOL,
    Product,
    ProductError,
    angular_distance,
    load_products,
    normalize_product,
    product_matrix,
    save_products,
)
from campaignsim.network import ParseError
from scalar_reference import tied_candidates


def test_product_must_be_unit_norm_and_non_negative():
    Product(id=0, features=(0.6, 0.8), null_index=1)
    with pytest.raises(ProductError, match="unit norm"):
        Product(id=0, features=(0.6, 0.7), null_index=1)
    with pytest.raises(ProductError, match="negative"):
        Product(id=0, features=(-0.6, 0.8), null_index=1)
    with pytest.raises(ProductError, match="null index"):
        Product(id=0, features=(1.0, 0.0), null_index=2)
    # a NaN norm fails no comparison, so these need their own test
    for bad in ((np.nan, 1.0), (np.inf, 0.0)):
        with pytest.raises(ProductError, match="non-finite"):
            Product(id=0, features=bad, null_index=1)
    for raw in ((np.nan, 1.0), (np.inf, 1.0)):
        with pytest.raises(ProductError, match="non-finite"):
            normalize_product(raw, null_index=1)


def test_product_features_must_be_a_vector():
    with pytest.raises(ProductError, match="1-d vector"):
        Product(id=0, features=((1.0, 0.0), (0.0, 1.0)), null_index=1)


def test_single_feature_product_allowed():
    # the scalar special case used by the classical-threshold comparisons
    p = Product(id=0, features=(1.0,), null_index=0)
    assert p.vector.shape == (1,)


def test_normalize_three_four_five():
    p = normalize_product((3.0, 4.0), null_index=1)
    assert p.features == (0.6, 0.8)


def test_normalize_rejects_degenerate_input():
    with pytest.raises(ProductError, match="at least 2"):
        normalize_product((1.0,), null_index=0)
    with pytest.raises(ProductError, match="all-zero"):
        normalize_product((0.0, 0.0), null_index=0)


def test_normalize_random_vectors_land_on_unit_sphere():
    rng = np.random.default_rng(3)
    for _ in range(200):
        raw = rng.uniform(0, 10, size=int(rng.integers(2, 6)))
        if raw.sum() == 0:
            continue
        p = normalize_product(raw, null_index=0)
        assert abs(np.linalg.norm(p.features) - 1.0) <= 1e-12


def test_angular_distance_known_value():
    # aggregate (0.5, 0.4) against the first axis: arccos(0.5 / sqrt(0.41))
    p = Product(id=0, features=(1.0, 0.0), null_index=1)
    d = angular_distance(np.array([0.5, 0.4]), p)
    assert d == pytest.approx(0.6747409422235527, abs=1e-15)


def test_angular_distance_clamps_rounding():
    p = normalize_product((1.0, 1.0), null_index=0)
    # a parallel aggregate: cosine can exceed 1 by rounding but arccos must not NaN
    d = angular_distance(np.array([2.0, 2.0]), p)
    assert d == 0.0


def test_angular_distance_rejects_zero_vector():
    p = Product(id=0, features=(1.0, 0.0), null_index=1)
    with pytest.raises(ProductError):
        angular_distance(np.zeros(2), p)


def test_choice_matches_angular_argmin_on_random_sweeps():
    rng = np.random.default_rng(11)
    for _ in range(300):
        k = int(rng.integers(2, 5))
        f = int(rng.integers(2, 4))
        products = [normalize_product(rng.uniform(0.01, 1, size=f), 0, product_id=i) for i in range(k)]
        agg = rng.uniform(0, 1, size=f)
        if np.linalg.norm(agg) == 0:
            continue
        dists = [angular_distance(agg, p) for p in products]
        tied = tied_candidates(agg, products)
        assert min(range(k), key=lambda i: dists[i]) in tied
        for i in tied:
            assert dists[i] == pytest.approx(min(dists), abs=1e-9)


def test_choice_is_scale_invariant():
    rng = np.random.default_rng(5)
    for _ in range(100):
        products = [normalize_product(rng.uniform(0.01, 1, size=3), 0, product_id=i) for i in range(3)]
        agg = rng.uniform(0.01, 1, size=3)
        assert tied_candidates(agg, products) == tied_candidates(123.0 * agg, products)


def test_exact_tie_detected_and_broken_uniformly():
    products = [
        Product(id=0, features=(1.0, 0.0), null_index=1),
        Product(id=1, features=(0.0, 1.0), null_index=0),
    ]
    agg = np.array([0.35, 0.35])
    assert tied_candidates(agg, products) == [0, 1]
    # the kernel breaks it by a keyed hash: test_purchase_tie_raise_and_keyed_break


def test_near_tie_outside_tolerance_is_not_a_tie():
    products = [
        Product(id=0, features=(1.0, 0.0), null_index=1),
        Product(id=1, features=(0.0, 1.0), null_index=0),
    ]
    agg = np.array([0.35 + 1e-6, 0.35])
    assert tied_candidates(agg, products) == [0]
    assert COS_TIE_TOL == 1e-12


def test_product_matrix_stacks_in_list_order():
    products = [
        Product(id=7, features=(1.0, 0.0), null_index=1),
        Product(id=3, features=(0.0, 1.0), null_index=0),
    ]
    m = product_matrix(products)
    assert m.shape == (2, 2)
    assert np.array_equal(m[0], [1.0, 0.0])
    assert np.array_equal(m[1], [0.0, 1.0])


def test_products_file_round_trip(tmp_path):
    products = [
        normalize_product((3.0, 4.0), 1, product_id=0),
        normalize_product((1.0, 1.0, 1.0), 2, product_id=1),
    ]
    # mixed feature counts are rejected at load time, so save them separately
    p2 = tmp_path / "two.txt"
    save_products(products[:1], str(p2))
    back = load_products(str(p2))
    assert back[0].features == products[0].features
    assert back[0].null_index == 1


def test_products_file_errors(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("0 1.0 0.0 null=1\n0 0.0 1.0 null=0\n")
    with pytest.raises(Exception, match="duplicate product ids"):
        load_products(str(p))
    p.write_text("0 1.0 0.0 null=1\n1 1.0 0.0 0.0 null=1\n")
    with pytest.raises(Exception, match="disagree on feature count"):
        load_products(str(p))
    p.write_text("0 1.0 0.0\n")
    with pytest.raises(Exception, match="null="):
        load_products(str(p))
    p.write_text("# nothing\n")
    with pytest.raises(Exception, match="no products"):
        load_products(str(p))


def test_a_feature_that_is_not_a_number_names_its_line(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("0 1.0 heavy null=1\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:1: "):
        load_products(str(p))
