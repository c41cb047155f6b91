"""Directed influence networks with edge weights and pairwise similarities.

Node ids are dense integers 0..n-1.  An edge (u, v, b) means u exerts
influence b on v; the incoming weights of every node must sum to at most 1
(tolerance 1e-9).  Similarities are symmetric, stored once per unordered
pair, and default to 0 for absent pairs.  Every node is a real node:
channels compile into edge lists kept beside the network (see channels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

WEIGHT_SUM_TOL = 1e-9


class NodeKind(IntEnum):
    # only for benchmarks/run.py, which counts SOCIAL_GADGET nodes in
    # Network.node_kind; channels compile to edges, so every node is REAL
    REAL = 0
    SOCIAL_GADGET = 3


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    weight: float


class NetworkError(Exception):
    pass


class ParseError(NetworkError):
    pass


class ValidationError(NetworkError):
    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class Network:
    """Weighted directed graph plus similarities."""

    node_count: int
    edges: list[Edge]
    similarity: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        self._in = None
        self._csr = None

    @property
    def node_kind(self) -> np.ndarray:
        """NodeKind per node, all REAL; kept for benchmarks/run.py."""
        return np.zeros(self.node_count, dtype=np.int8)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: list[Edge] | list[tuple],
        similarities: dict[tuple[int, int], float] | None = None,
    ) -> "Network":
        """Build a network from edges and similarities.

        Duplicate directed edges are a hard error; everything else is left to
        validate() so callers can inspect the full violation list.
        """
        norm_edges = []
        seen = set()
        for e in edges:
            e = e if isinstance(e, Edge) else Edge(*e)
            if not (0 <= e.src < node_count and 0 <= e.dst < node_count):
                raise NetworkError(f"edge ({e.src},{e.dst}) references a node outside 0..{node_count - 1}")
            if (e.src, e.dst) in seen:
                raise NetworkError(f"duplicate edge ({e.src},{e.dst})")
            seen.add((e.src, e.dst))
            norm_edges.append(e)
        sims = {}
        if similarities:
            for (u, v), h in similarities.items():
                key = (min(u, v), max(u, v))
                if key in sims and sims[key] != h:
                    raise NetworkError(f"asymmetric similarity ({u},{v})")
                sims[key] = float(h)
        return cls(node_count=node_count, edges=norm_edges, similarity=sims)

    # -- adjacency ------------------------------------------------------

    def in_neighbors(self, v: int) -> list[tuple[int, float]]:
        """(src, weight) pairs in ascending source order."""
        if self._in is None:
            self._in = [[] for _ in range(self.node_count)]
            for e in self.edges:
                self._in[e.dst].append((e.src, e.weight))
            for lst in self._in:
                lst.sort()
        return self._in[v]

    def out_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-edges as CSR arrays (indptr, dst, weight), grouped by source.

        Edges of u are dst[indptr[u]:indptr[u + 1]], in edge-list order.
        """
        if self._csr is None:
            edges = sorted(self.edges, key=lambda e: e.src)  # stable
            src = np.array([e.src for e in edges], dtype=np.intp)
            dst = np.array([e.dst for e in edges], dtype=np.intp)
            weight = np.array([e.weight for e in edges], dtype=float)
            self._csr = (np.searchsorted(src, np.arange(self.node_count + 1)), dst, weight)
        return self._csr

    def similarity_of(self, u: int, v: int) -> float:
        return self.similarity.get((min(u, v), max(u, v)), 0.0)

    # -- validation -----------------------------------------------------

    def validate(self, channel_in: tuple[np.ndarray, np.ndarray] | None = None) -> list[str]:
        """Return all invariant violations (empty list means valid).

        channel_in holds (target, weight) arrays of in-weights kept outside
        the edge list (compiled channels); they count toward each target's
        incoming weight after the edges, in array order.
        """
        violations = []
        in_sums = np.zeros(self.node_count)
        for e in self.edges:
            if e.src == e.dst:
                violations.append(f"self-loop at node {e.src}")
            if not (0.0 < e.weight <= 1.0):
                violations.append(f"edge ({e.src},{e.dst}) weight {e.weight} outside (0, 1]")
            in_sums[e.dst] += e.weight
        if channel_in is not None:
            dst, weight = channel_in
            bad = ~((weight > 0.0) & (weight <= 1.0))
            for v, w in zip(dst[bad].tolist(), weight[bad].tolist()):
                violations.append(f"channel weight {w} into node {v} outside (0, 1]")
            np.add.at(in_sums, dst, weight)
        for v in np.flatnonzero(in_sums > 1.0 + WEIGHT_SUM_TOL):
            violations.append(f"incoming weights of node {v} sum to {in_sums[v]:.12g} > 1")
        for (u, v), h in sorted(self.similarity.items()):
            if not (0.0 <= h <= 1.0):
                violations.append(f"similarity ({u},{v}) value {h} outside [0, 1]")
            if u == v:
                violations.append(f"similarity ({u},{v}) is a self-pair")
        return violations


# -- file formats -------------------------------------------------------


def _data_lines(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def parse_edge_file(path: str) -> list[Edge]:
    edges = []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected '<src> <dst> <weight>', got {line!r}")
        try:
            src, dst, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        edges.append(Edge(src, dst, w))
    if not edges:
        raise ParseError(f"{path}: no edges")
    return edges


def parse_similarity_file(path: str) -> dict[tuple[int, int], float]:
    sims: dict[tuple[int, int], float] = {}
    oriented: dict[tuple[int, int], float] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected '<u> <v> <h>', got {line!r}")
        try:
            u, v, h = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        key = (min(u, v), max(u, v))
        if key in sims:
            # (u,v) and (v,u) must not both appear, nor the same pair twice.
            if (u, v) not in oriented:
                raise ValidationError([f"asymmetric similarity ({u},{v})"])
            raise ValidationError([f"duplicate similarity ({u},{v})"])
        sims[key] = h
        oriented[(u, v)] = h
    return sims


def load_network(edge_path: str, similarity_path: str | None = None) -> Network:
    """Load and validate a base network; raises on any violation."""
    edges = parse_edge_file(edge_path)
    node_count = max(max(e.src, e.dst) for e in edges) + 1
    sims = parse_similarity_file(similarity_path) if similarity_path else {}
    for u, v in sims:
        node_count = max(node_count, u + 1, v + 1)
    net = Network.from_edges(node_count, edges, sims)
    violations = net.validate()
    if violations:
        raise ValidationError(violations)
    return net


def save_network(net: Network, edge_path: str, similarity_path: str | None = None) -> None:
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.write("# <src> <dst> <weight>\n")
        for e in sorted(net.edges, key=lambda e: (e.src, e.dst)):
            fh.write(f"{e.src} {e.dst} {e.weight!r}\n")
    if similarity_path is not None:
        with open(similarity_path, "w", encoding="utf-8") as fh:
            fh.write("# <u> <v> <similarity>\n")
            for (u, v), h in sorted(net.similarity.items()):
                fh.write(f"{u} {v} {h!r}\n")
