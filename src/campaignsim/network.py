"""Directed influence networks with edge weights and pairwise similarities.

Node ids are dense integers 0..n-1.  An edge (u, v, b) means u exerts
influence b on v, with b in (0, 1] and u != v; the incoming weights of every
node must sum to at most 1 (tolerance 1e-9).  Similarities lie in [0, 1],
are symmetric, stored once per unordered pair, and default to 0 for absent
pairs.  Every node is a real node: channels compile into edge lists kept
beside the network (see channels).

Every Network is valid: from_edges is the only place a network is checked,
and it reports all violations at once in one ValidationError.  It checks
Columns, one array per column; a list of (src, dst, weight) edges and a
{(u, v): h} dict are turned into Columns first.

Edge and similarity files are read column-wise.  A file is decoded once as
UTF-8 (a byte-order mark skipped, \r\n and \r read as \n, '#' comments
cut; a byte that is not UTF-8 raises ParseError naming the file), every
line with data must hold three whitespace-separated tokens, and each
column is converted by int or float in one pass, so a file accepts
what those built-ins accept, with node ids that fit in intp.  Only a bad
file is read again line by line, to raise for its first bad line as
path:lineno.

A Network is read-only edge arrays sorted by (source, target), an order
that is a contract: the kernel sends a source's edges in it, sums over a
target's in-edges run in it (ascending source), and save_network writes it.
The similarity dict is kept so that pairs without an edge survive a round trip.
"""

from __future__ import annotations

import codecs
import errno
import numbers
import os
import re
import stat
from dataclasses import dataclass
from enum import IntEnum
from operator import ge, gt
from typing import NamedTuple, NoReturn

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
        edges: Columns | list[Edge] | list[tuple],
        similarities: Columns | dict[tuple[int, int], float] | None = None,
    ) -> "Network":
        """Build a network from (src, dst, weight) edges and (u, v, h) similarities.

        Each comes as Columns, or as a list of (src, dst, weight) and a
        {(u, v): h} dict, which are turned into Columns first.  A node count
        that is not an integer >= 1, a node outside 0..n-1, a duplicate
        directed edge and an asymmetric similarity (a pair given again with
        another value) are hard errors, raised for the count, then the first
        offending edge, then pair, in input order.  Then every other violation
        (self-loops and weights outside (0, 1] in edge order, incoming sums
        above 1 by node, similarities outside [0, 1] and self-pairs in pair
        order) is raised at once as a ValidationError.
        """
        n = node_count
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise NetworkError(f"node count must be an integer >= 1, got {n!r}")
        if not isinstance(edges, Columns):
            cols = tuple(zip(*edges)) or ((), (), ())
            edges = Columns(np.array(cols[:2], dtype=np.intp), np.array(cols[2], dtype=float))
        if not isinstance(similarities, Columns):
            sims = similarities or {}
            pairs = np.array(list(sims), dtype=np.intp).reshape(-1, 2).T
            similarities = Columns(pairs, np.fromiter(sims.values(), float, len(sims)))
        ends, weight = edges
        src, dst = ends[0], ends[1]
        try:
            key, in_range = np.ravel_multi_index((src, dst), (n, n)), True  # src * n + dst
        except ValueError:  # an id outside 0..n-1, or n * n past what intp holds
            key, in_range = src * n + dst, False
        order = key.argsort(kind="stable")
        key = key[order]
        repeat = key[1:] == key[:-1]
        if not in_range or np.count_nonzero(repeat):
            # the first edge outside the range or repeating an earlier key; a key
            # shared with an edge outside the range repeats that earlier edge
            outside = ((ends < 0) | (ends >= n)).any(axis=0)
            bad = outside.copy()
            bad[order[1:][repeat]] = True
            i = int(bad.argmax())
            if outside[i]:
                raise NetworkError(f"edge ({src[i]},{dst[i]}) references a node outside 0..{n - 1}")
            if bad[i]:
                raise NetworkError(f"duplicate edge ({src[i]},{dst[i]})")
        pairs, hv = similarities
        sims = {}
        if hv.size:
            lo, hi = pairs.tolist()
            irregular = any(map(ge, lo, hi))  # a pair given as (v, u) or a self-pair
            if irregular:
                lo, hi = pairs.min(axis=0).tolist(), pairs.max(axis=0).tolist()
            sims = dict(zip(zip(lo, hi), hv.tolist()))
        if sims and (min(lo) < 0 or max(hi) >= n or len(sims) < hv.size):
            # a pair outside the range or given twice: name the first that is
            # outside or gives its pair another value, in input order
            earlier: dict[tuple[int, int], float] = {}
            for (u, v), h in zip(pairs.T.tolist(), hv.tolist()):
                if not (0 <= u < n and 0 <= v < n):
                    raise NetworkError(f"similarity ({u},{v}) references a node outside 0..{n - 1}")
                pair = (min(u, v), max(u, v))
                if pair in earlier and earlier[pair] != h:  # NaN never equals an earlier value
                    raise NetworkError(f"asymmetric similarity ({u},{v})")
                earlier[pair] = h
            # a pair given twice keeps its last value, as the dict does
            pairs = np.array(list(sims), dtype=np.intp).T
            hv = np.fromiter(sims.values(), float, len(sims))
        src, dst, weight = src[order], dst[order], weight[order]
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
        for v in (in_sums > 1.0 + WEIGHT_SUM_TOL).nonzero()[0].tolist():
            violations.append(f"incoming weights of node {v} sum to {in_sums[v]:.12g} > 1")
        # a self-pair is irregular; NaN fails _largest(hv) <= 1
        if sims and (irregular or not (min(sims.values()) >= 0.0 and _largest(hv) <= 1.0)):
            for (u, v), h in sorted(sims.items()):  # sorted only to report
                if not (0.0 <= h <= 1.0):
                    violations.append(f"similarity ({u},{v}) value {h} outside [0, 1]")
                if u == v:
                    violations.append(f"similarity ({u},{v}) is a self-pair")
        if violations:
            raise ValidationError(violations)
        h = np.zeros(key.size)
        if sims and key.size:
            # both orientations of each pair, u * n + v and v * n + u in one
            # product, found among the sorted edge keys
            pair_keys = (np.array(((n, 1), (1, n))) @ pairs).ravel()
            at = key.searchsorted(pair_keys)
            hit = key.take(at, mode="clip") == pair_keys
            h[at[hit]] = np.concatenate((hv, hv))[hit]
        indptr = src.searchsorted(np.arange(n + 1))
        for a in (src, dst, weight, h, indptr):
            a.setflags(write=False)
        return cls(n, src, dst, weight, h, indptr, sims)


def _largest(a: np.ndarray):
    """The largest element as a Python scalar, the first NaN if any: a.max()
    at a fraction of its fixed cost."""
    return a.item(a.argmax())


# -- file formats -------------------------------------------------------

_COMMENT = re.compile("#[^\n]*")
_EDGE_LINE = "'<src> <dst> <weight>'"
_SIMILARITY_LINE = "'<u> <v> <h>'"
_INTP = np.iinfo(np.intp)


class Columns(NamedTuple):
    """Rows of (node, node, value) as columns: edges as (src, dst) ends and
    weights, similarities as (u, v) ends and h."""

    ends: np.ndarray  # (2, m) intp, row 0 the first node of each row, row 1 the second
    value: np.ndarray  # (m,) float


def _decode_utf8(data: bytes, path: str, error: type[Exception]) -> str:
    """data as UTF-8 with any byte-order mark skipped; on a byte that is not
    UTF-8, raise error naming the path and the byte's offset in the file."""
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        return body.decode("utf-8")  # as utf-8-sig, in less time
    except UnicodeDecodeError as exc:
        at = exc.start + len(data) - len(body)
        raise error(f"{path}: not UTF-8 text: byte {at} (0x{data[at]:02x}): {exc.reason}") from None


def _read_text(path: str) -> str:
    """The text of a UTF-8 file with any byte-order mark and '#' comments cut.

    Lines break as in text mode (\n, \r\n, \r).  A descriptor read costs a
    small file less than a file object."""
    fd = os.open(path, os.O_RDONLY)
    try:
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):  # as open() reports it, naming the path
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        size = st.st_size
        data = os.read(fd, size + 1)
        while len(data) != size and (chunk := os.read(fd, 1 << 20)):  # the file changed, or a read came up short
            data += chunk
    finally:
        os.close(fd)
    text = _decode_utf8(data, path, ParseError)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _COMMENT.sub("", text) if "#" in text else text


def _data_lines(text: str):
    """(line number, stripped text) of each line of `text` with data."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line:
            yield lineno, line


def _read_columns(path: str, layout: str, pairs_once: bool) -> Columns:
    """The int, int and float columns of a file of '<int> <int> <float>' lines.

    Every line with data must hold three tokens; each column is converted by
    int or float in one pass."""
    text = _read_text(path)
    if set(map(len, map(str.split, text.split("\n")))) <= {0, 3}:
        tokens = text.split()
        m = len(tokens) // 3
        try:
            ends = np.fromiter(map(int, tokens[0::3] + tokens[1::3]), np.intp, 2 * m)
            return Columns(ends.reshape(2, m), np.fromiter(map(float, tokens[2::3]), float, m))
        except (ValueError, OverflowError):  # a token int or float rejects, or an id past intp
            pass
    _raise_bad_file(path, layout, pairs_once)


def _raise_bad_file(path: str, layout: str, pairs_once: bool) -> NoReturn:
    """Raise for the first line a line-by-line parse rejects: one without
    three tokens, with a token int or float rejects, with an id past intp,
    or, with pairs_once, naming an earlier line's pair again ('duplicate' in
    the same orientation, 'asymmetric' in the other).  With no such line,
    report a file that changed between reads.  Only a bad file is read this
    way."""
    first: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, line in _data_lines(_read_text(path)):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected {layout}, got {line!r}")
        try:
            u, v, _ = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        pair = (min(u, v), max(u, v))
        if not (_INTP.min <= pair[0] and pair[1] <= _INTP.max):
            raise ParseError(f"{path}:{lineno}: node id out of range, got {line!r}")
        if pairs_once and pair in first:
            kind = "duplicate" if first[pair] == (u, v) else "asymmetric"
            raise ValidationError([f"{path}:{lineno}: {kind} similarity ({u},{v})"])
        first[pair] = (u, v)
    raise ParseError(f"{path}: changed while being read")


def parse_edge_file(path: str) -> Columns:
    """Columns of (src, dst) ends and weights, one row per data line in file order."""
    edges = _read_columns(path, _EDGE_LINE, pairs_once=False)
    if not edges.value.size:
        raise ParseError(f"{path}: no edges")
    return edges


def parse_similarity_file(path: str) -> Columns:
    """Columns of (u, v) ends with u <= v and h, one row per data line in file order.

    A pair is listed once: a line naming an earlier line's pair again raises
    a ValidationError for that line."""
    columns = _read_columns(path, _SIMILARITY_LINE, pairs_once=True)
    u, v = columns.ends.tolist()
    lo, hi = u, v
    if any(map(gt, u, v)):
        ends = columns.ends
        columns = Columns(np.array((ends.min(axis=0), ends.max(axis=0))), columns.value)
        lo, hi = columns.ends.tolist()
    if len(set(zip(lo, hi))) < len(lo):
        _raise_bad_file(path, _SIMILARITY_LINE, pairs_once=True)
    return columns


def load_network(edge_path: str, similarity_path: str | None = None) -> Network:
    """Load a base network; raises ParseError, NetworkError or ValidationError."""
    edges = parse_edge_file(edge_path)
    node_count = _largest(edges.ends) + 1
    sims = None
    if similarity_path:
        sims = parse_similarity_file(similarity_path)
        if sims.value.size:
            node_count = max(node_count, _largest(sims.ends) + 1)
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
