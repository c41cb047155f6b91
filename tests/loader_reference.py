"""Line-by-line network loading, the reference the column-wise loader is checked against.

These are the parsers and the network check campaignsim used before files
were read column-wise: one Python loop per line, one tuple per edge, one
dict entry per similarity pair.  Three fixes are applied to them, as to the
package: a UTF-8 byte-order mark is skipped, a repeated similarity pair
names its line, and a network of fewer than one node is rejected.
reference_network returns what Network.from_edges stores, or raises what it
raises, so tests compare arrays byte for byte and errors message for message.
"""

from __future__ import annotations

import numpy as np

from campaignsim.network import WEIGHT_SUM_TOL, NetworkError, ParseError, ValidationError


def data_lines(path: str):
    """(line number, stripped text before any '#') of each line with data."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8-sig")
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_edge_file(path: str) -> list[tuple[int, int, float]]:
    edges = []
    for lineno, line in data_lines(path):
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
    for lineno, line in data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected '<u> <v> <h>', got {line!r}")
        try:
            u, v, h = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        key = (min(u, v), max(u, v))
        if key in sims:
            kind = "duplicate" if (u, v) in oriented else "asymmetric"
            raise ValidationError([f"{path}:{lineno}: {kind} similarity ({u},{v})"])
        sims[key] = h
        oriented[(u, v)] = h
    return sims


def reference_network(n: int, edges: list[tuple], similarities: dict | None = None):
    """(src, dst, weight, h, indptr, similarity dict) as from_edges stores them."""
    if n < 1:
        raise NetworkError(f"node count must be an integer >= 1, got {n!r}")
    for i, (u, v, _) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise NetworkError(f"edge ({u},{v}) references a node outside 0..{n - 1}")
        if any((u, v) == (a, b) for a, b, _ in edges[:i]):
            raise NetworkError(f"duplicate edge ({u},{v})")
    sims: dict[tuple[int, int], float] = {}
    for (u, v), h in (similarities or {}).items():
        if not (0 <= u < n and 0 <= v < n):
            raise NetworkError(f"similarity ({u},{v}) references a node outside 0..{n - 1}")
        pair = (min(u, v), max(u, v))
        if pair in sims and sims[pair] != h:
            raise NetworkError(f"asymmetric similarity ({u},{v})")
        sims[pair] = float(h)
    rows = sorted(edges, key=lambda e: (e[0], e[1]))
    violations = []
    for u, v, w in rows:
        if u == v:
            violations.append(f"self-loop at node {u}")
        if not (0.0 < w <= 1.0):
            violations.append(f"edge ({u},{v}) weight {float(w)} outside (0, 1]")
    in_sums = np.bincount([v for _, v, _ in rows], [w for _, _, w in rows], minlength=n)
    for v in range(n):
        if in_sums[v] > 1.0 + WEIGHT_SUM_TOL:
            violations.append(f"incoming weights of node {v} sum to {in_sums[v]:.12g} > 1")
    for (u, v), h in sorted(sims.items()):
        if not (0.0 <= h <= 1.0):
            violations.append(f"similarity ({u},{v}) value {h} outside [0, 1]")
        if u == v:
            violations.append(f"similarity ({u},{v}) is a self-pair")
    if violations:
        raise ValidationError(violations)
    src = np.array([u for u, _, _ in rows], dtype=np.intp)
    dst = np.array([v for _, v, _ in rows], dtype=np.intp)
    weight = np.array([w for _, _, w in rows], dtype=float)
    h = np.array([sims.get((min(u, v), max(u, v)), 0.0) for u, v, _ in rows], dtype=float)
    indptr = np.searchsorted(src, np.arange(n + 1))
    return src, dst, weight, h, indptr, sims


def load_network(edge_path: str, similarity_path: str | None = None):
    """reference_network of a file pair, as load_network reads it."""
    edges = parse_edge_file(edge_path)
    node_count = max(max(u, v) for u, v, _ in edges) + 1
    sims = parse_similarity_file(similarity_path) if similarity_path else {}
    for u, v in sims:
        node_count = max(node_count, u + 1, v + 1)
    return node_count, reference_network(node_count, edges, sims)
