"""Products as unit feature vectors and angular preference geometry.

A product is a non-negative feature vector of unit Euclidean norm.  One
component is designated "null" so that any non-zero raw vector can be scaled
onto the unit sphere without changing the meaning of the other features.
Preference between products is by angular distance to a node's aggregate
influence vector; exact cosine ties (within 1e-12) are broken uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ParseError, _data_lines, _read_text

COS_TIE_TOL = 1e-12


class ProductError(Exception):
    pass


@dataclass(frozen=True)
class Product:
    id: int
    features: tuple[float, ...]
    null_index: int

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        if f.ndim != 1 or f.size < 1:
            raise ProductError(f"product {self.id}: features must be a 1-d vector")
        # range test so NaN fails too; a NaN norm would pass the unit-norm test below
        if not (f < np.inf).all():
            raise ProductError(f"product {self.id}: non-finite feature component")
        if (f < 0).any():
            raise ProductError(f"product {self.id}: negative feature component")
        if not (0 <= self.null_index < f.size):
            raise ProductError(f"product {self.id}: null index {self.null_index} out of range")
        if abs(float(np.linalg.norm(f)) - 1.0) > 1e-12:
            raise ProductError(f"product {self.id}: features are not unit norm")

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.features, dtype=float)


def normalize_product(raw, null_index: int, product_id: int = 0) -> Product:
    """Scale a raw non-negative vector (>= 2 components) to unit norm."""
    f = np.asarray(raw, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ProductError("raw feature vector must have at least 2 components")
    norm = float(np.linalg.norm(f))
    if norm == 0.0:
        raise ProductError("cannot normalize an all-zero feature vector")
    if not norm < np.inf:  # before dividing, which would warn on inf / inf
        raise ProductError(f"product {product_id}: feature vector has a non-finite norm")
    scaled = f / norm
    # renormalize once more to absorb rounding in the division
    scaled = scaled / float(np.linalg.norm(scaled))
    return Product(id=product_id, features=tuple(scaled.tolist()), null_index=null_index)


def product_matrix(products: list[Product]) -> np.ndarray:
    """(k, f) array of product vectors in list order."""
    return np.array([p.features for p in products], dtype=float)


def angular_distance(aggregate: np.ndarray, product: Product) -> float:
    """arccos of the cosine between an aggregate vector and a product.

    The aggregate must be non-zero; the cosine is clamped to [-1, 1] before
    arccos so accumulated rounding can never produce NaN.
    """
    a = np.asarray(aggregate, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise ProductError("angular distance from the zero vector is undefined")
    cos = float(np.dot(a, product.vector)) / norm
    return float(np.arccos(min(1.0, max(-1.0, cos))))


# -- file format --------------------------------------------------------


def load_products(path: str) -> list[Product]:
    """Parse '<id> <f values...> null=<index>' lines; raw vectors are normalized."""
    products = []
    for lineno, line in _data_lines(_read_text(path)):
        parts = line.split()
        if len(parts) < 4 or not parts[-1].startswith("null="):
            raise ParseError(f"{path}:{lineno}: expected '<id> <values...> null=<index>'")
        try:
            pid = int(parts[0])
            raw = [float(x) for x in parts[1:-1]]
            null_index = int(parts[-1][len("null="):])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        products.append(normalize_product(raw, null_index, product_id=pid))
    if not products:
        raise ParseError(f"{path}: no products")
    ids = [p.id for p in products]
    if len(set(ids)) != len(ids):
        raise ParseError(f"{path}: duplicate product ids")
    sizes = {len(p.features) for p in products}
    if len(sizes) != 1:
        raise ParseError(f"{path}: products disagree on feature count")
    return products


def save_products(products: list[Product], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# <id> <feature values...> null=<index>\n")
        for p in products:
            vals = " ".join(repr(x) for x in p.features)
            fh.write(f"{p.id} {vals} null={p.null_index}\n")
