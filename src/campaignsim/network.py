"""Directed influence networks with edge weights and pairwise similarities.

Node ids are dense integers 0..n-1.  An edge (u, v, b) means u exerts
influence b on v, with b in (0, 1] and u != v; the incoming weights of every
node must sum to at most 1 (tolerance 1e-9).  Similarities lie in [0, 1],
are symmetric, stored once per unordered pair, and default to 0 for absent
pairs.  Every node is a real node: channels compile into edge lists kept
beside the network (see channels).

Every Network is valid: from_edges is the only place a network is checked,
and it reports all violations at once in one ValidationError.

A Network is read-only edge arrays sorted by (source, target), an order
that is a contract: the kernel sends a source's edges in it, sums over a
target's in-edges run in it (ascending source), and save_network writes it.
The similarity dict is kept so that pairs without an edge survive a round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

WEIGHT_SUM_TOL = 1e-9


class NodeKind(IntEnum):
    # only for benchmarks/run.py, which counts SOCIAL_GADGET nodes in
    # Network.node_kind; channels compile to edges, so every node is REAL
    REAL = 0
    SOCIAL_GADGET = 3


class Edge(NamedTuple):
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


@dataclass(frozen=True, eq=False)
class Network:
    """Weighted directed graph plus similarities; build it with from_edges."""

    node_count: int
    src: np.ndarray  # (E,) intp
    dst: np.ndarray  # (E,) intp
    weight: np.ndarray  # (E,) float
    h: np.ndarray  # (E,) similarity of each edge's pair, 0 when absent
    indptr: np.ndarray  # (n + 1,) the out-edges of u are indptr[u]:indptr[u + 1]
    similarity: dict[tuple[int, int], float]  # (u, v) with u <= v, with or without an edge

    @property
    def edges(self) -> list[Edge]:
        """The edges in storage order; kept for benchmarks/, which takes len(edges)."""
        return list(map(Edge, self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

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
        """Build a network from (src, dst, weight) edges and similarities.

        A node outside 0..n-1, a duplicate directed edge and an asymmetric
        similarity are hard errors, raised for the first offending edge, then
        pair, in input order.  Then every other violation (self-loops and
        weights outside (0, 1] in edge order, incoming sums above 1 by node,
        similarities outside [0, 1] and self-pairs in pair order) is raised
        at once as a ValidationError.
        """
        n = node_count
        cols = tuple(zip(*edges)) or ((), (), ())
        ends = np.array(cols[:2], dtype=np.intp)
        src, dst = ends[0], ends[1]
        key = src * n + dst
        order = key.argsort(kind="stable")
        key = key[order]
        repeat = key[1:] == key[:-1]
        in_range = not cols[0] or (min(map(min, cols[:2])) >= 0 and max(map(max, cols[:2])) < n)
        if not in_range or np.count_nonzero(repeat):
            # the first edge outside the range or repeating an earlier key; a key
            # shared with an edge outside the range repeats that earlier edge
            outside = ((ends < 0) | (ends >= n)).any(axis=0)
            bad = outside.copy()
            bad[order[1:][repeat]] = True
            i = int(bad.argmax())
            if outside[i]:
                raise NetworkError(f"edge ({src[i]},{dst[i]}) references a node outside 0..{n - 1}")
            raise NetworkError(f"duplicate edge ({src[i]},{dst[i]})")
        sims = {}
        for (u, v), h in (similarities or {}).items():
            if not (0 <= u < n and 0 <= v < n):
                raise NetworkError(f"similarity ({u},{v}) references a node outside 0..{n - 1}")
            pair = (min(u, v), max(u, v))
            if pair in sims and sims[pair] != h:
                raise NetworkError(f"asymmetric similarity ({u},{v})")
            sims[pair] = float(h)
        src, dst, weight = src[order], dst[order], np.array(cols[2], dtype=float)[order]
        violations = []
        loop = src == dst
        bad_weight = np.ceil(weight) != 1.0  # exactly the weights outside (0, 1], NaN included
        for i in (loop | bad_weight).nonzero()[0].tolist():
            u, v, w = int(src[i]), int(dst[i]), float(weight[i])
            if loop[i]:
                violations.append(f"self-loop at node {u}")
            if bad_weight[i]:
                violations.append(f"edge ({u},{v}) weight {w} outside (0, 1]")
        in_sums = np.bincount(dst, weight, minlength=n)
        for v in (in_sums > 1.0 + WEIGHT_SUM_TOL).nonzero()[0]:
            violations.append(f"incoming weights of node {v} sum to {in_sums[v]:.12g} > 1")
        if any(u == v or not 0.0 <= h <= 1.0 for (u, v), h in sims.items()):  # sorted only to report
            for (u, v), h in sorted(sims.items()):
                if not (0.0 <= h <= 1.0):
                    violations.append(f"similarity ({u},{v}) value {h} outside [0, 1]")
                if u == v:
                    violations.append(f"similarity ({u},{v}) is a self-pair")
        if violations:
            raise ValidationError(violations)
        h = np.zeros(key.size)
        if sims and key.size:
            # both orientations of each pair, found among the sorted edge keys
            pair_keys = np.array([(u * n + v, v * n + u) for u, v in sims], dtype=np.intp).ravel()
            at = key.searchsorted(pair_keys)
            hit = key.take(at, mode="clip") == pair_keys
            h[at[hit]] = np.fromiter(sims.values(), float, len(sims)).repeat(2)[hit]
        indptr = src.searchsorted(np.arange(n + 1))
        for a in (src, dst, weight, h, indptr):
            a.setflags(write=False)
        return cls(n, src, dst, weight, h, indptr, sims)


# -- file formats -------------------------------------------------------


def _data_lines(path: str):
    """(line number, stripped text before any '#') of each line with data.

    Lines break as in text mode (\n, \r\n, \r); raw bytes cost less to open."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_edge_file(path: str) -> list[tuple[int, int, float]]:
    """(src, dst, weight) per data line, in file order."""
    edges = []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected '<src> <dst> <weight>', got {line!r}")
        try:
            src, dst, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        edges.append((src, dst, w))
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
    """Load a base network; raises ParseError, NetworkError or ValidationError."""
    edges = parse_edge_file(edge_path)
    src, dst, _ = zip(*edges)
    node_count = max(max(src), max(dst)) + 1
    sims = parse_similarity_file(similarity_path) if similarity_path else {}
    for u, v in sims:
        node_count = max(node_count, u + 1, v + 1)
    return Network.from_edges(node_count, edges, sims)


def save_network(net: Network, edge_path: str, similarity_path: str | None = None) -> None:
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.write("# <src> <dst> <weight>\n")
        for u, v, w in zip(net.src.tolist(), net.dst.tolist(), net.weight.tolist()):
            fh.write(f"{u} {v} {w!r}\n")
    if similarity_path is not None:
        with open(similarity_path, "w", encoding="utf-8") as fh:
            fh.write("# <u> <v> <similarity>\n")
            for (u, v), h in sorted(net.similarity.items()):
                fh.write(f"{u} {v} {h!r}\n")
