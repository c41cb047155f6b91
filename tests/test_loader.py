"""The column-wise loader against the line-by-line reference in loader_reference.

Seeded random files cover every syntax the built-ins int and float accept,
every line-break and whitespace form, comments, byte-order marks and bad
lines at random positions.  For each file the package must build the same
arrays and dict as the reference, or raise the same exception with the same
message.
"""

import json
import random
import re

import numpy as np
import pytest

import loader_reference as ref
from campaignsim.cli import main
from campaignsim.feature_space import load_products
from campaignsim.network import (
    Columns,
    Network,
    NetworkError,
    ParseError,
    ValidationError,
    load_network,
    parse_edge_file,
    parse_similarity_file,
)

ARRAYS = ("src", "dst", "weight", "h", "indptr")
FILES = 600
BUILDS = 300

# tokens int() reads as node ids, some of them outside any network, then ones it rejects
IDS = ["0", "1", "2", "3", "4", "+2", "1_0", "0_3", "٣", "١٢", "0004", "-1"]
BAD_IDS = ["x", "1.0", "0x1", "_1", "1__0", "", "--1"]
# tokens float() reads as weights or similarities, then ones it rejects
VALUES = ["0.1", "0.05", ".2", "1", "1.0", "+0.25", "0.1_5", "٠.٥", "5e-2", "1e-400", "0", "-0.0", "2"]
ODD_VALUES = ["nan", "-inf", "inf", "1.5", "-0.1"]
BAD_VALUES = ["0,5", "abc", "1e", "0.5.1", "∞"]
SEPS = [" ", " ", "  ", "\t", "\u2003", "\xa0", "\x1c", "\x0b", "\x0c", "\u3000", "\x85", "\u2028"]
ENDS = ["\n", "\r\n", "\r"]
WEIGHTS = [0.1, 0.2, 0.05, 1.0, 0.5, 0.0, 2.0, float("nan"), -0.0, 5e-324]
SIMILARITIES = [0.5, 0.0, -0.0, 1.0, 0.3, 1.5, float("nan"), -0.2]


def _line(rng: random.Random, values_ok: float) -> str:
    """One line: mostly three tokens, sometimes a short, long, blank or comment line."""
    kind = rng.random()
    if kind < 0.04:
        return ""
    if kind < 0.08:
        return rng.choice([" ", "\t ", "\u3000"])
    if kind < 0.12:
        return rng.choice(["#", "# header", "  # <src> <dst> <w>"])
    count = 3
    if kind < 0.15:
        count = rng.choice([1, 2])
    elif kind < 0.18:
        count = rng.choice([4, 5])
    tokens = []
    for j in range(count):
        if j < 2 or (j > 2 and rng.random() < 0.5):
            pool = IDS if rng.random() < 0.97 else BAD_IDS
        else:
            pool = VALUES if rng.random() < values_ok else (ODD_VALUES if rng.random() < 0.6 else BAD_VALUES)
        tokens.append(rng.choice(pool))
    text = "".join(t + rng.choice(SEPS) for t in tokens[:-1]) + tokens[-1]
    if rng.random() < 0.1:
        text = rng.choice(SEPS) + text
    if rng.random() < 0.1:
        text += rng.choice(SEPS)
    if rng.random() < 0.08:
        text += rng.choice(["#", " # note", "#x 1 2"])
    return text


def _clean_lines(rng: random.Random, pairs: list, kind: str) -> list[str]:
    """Data lines for distinct pairs, written in any accepted syntax."""
    lines = []
    for u, v in pairs:
        if kind == "edges":
            value = rng.choice(["0.1", "0.05", ".125", "1.25e-1", "+0.2", "0.1_5", "0.0625"])
        else:
            value = rng.choice(["0.5", "1", "0", ".25", "-0.0", "0.3_3", "٠.٩"])
        ids = [str(u), str(v)]
        for j in (0, 1):
            if rng.random() < 0.15:
                ids[j] = rng.choice([f"+{ids[j]}", f"0{ids[j]}", ids[j].translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))])
        lines.append(rng.choice(SEPS).join([*ids, value]))
    return lines


def _file_text(rng: random.Random, kind: str) -> str:
    if rng.random() < 0.7:
        # a file the reference accepts, perhaps with a repeated pair or a bad line
        nodes = rng.randint(2, 7)
        pairs = [(u, v) for u in range(nodes) for v in range(nodes) if u != v]
        lines = _clean_lines(rng, rng.sample(pairs, rng.randint(1, min(8, len(pairs)))), kind)
        for _ in range(rng.randint(0, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "  ", "# c", "\t# c"]))
        if rng.random() < 0.12:
            lines.insert(rng.randint(0, len(lines)), lines[rng.randrange(len(lines))])
        if rng.random() < 0.1:
            lines.insert(rng.randint(0, len(lines)), _line(rng, 0.5))
    else:
        lines = [_line(rng, 0.85) for _ in range(rng.randint(0, 10))]
        if rng.random() < 0.3:
            u, v, *_ = (lines[0].split() + ["0", "1"]) if lines else ["0", "1"]
            lines.append(f"{v} {u} 0.5")  # the other orientation of a pair
    ends = [rng.choice(ENDS)] if rng.random() < 0.7 else ENDS
    text = "".join(line + rng.choice(ends) for line in lines)
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    if rng.random() < 0.15:
        text = "\ufeff" + text
    return text


def _outcome(fn):
    try:
        return "ok", fn()
    except NetworkError as exc:  # ParseError and ValidationError included
        return type(exc), str(exc)


def _stored(net: Network):
    return (
        net.node_count,
        [getattr(net, name).tobytes() for name in ARRAYS],
        [(pair, h.hex()) for pair, h in net.similarity.items()],
    )


def _ref_stored(node_count, built):
    *arrays, sims = built
    return node_count, [a.tobytes() for a in arrays], [(pair, h.hex()) for pair, h in sims.items()]


def test_loader_matches_line_by_line_reference(tmp_path):
    built = failed = 0
    for seed in range(FILES):
        rng = random.Random(seed)
        e, s = tmp_path / f"e{seed}.txt", tmp_path / f"s{seed}.txt"
        e.write_bytes(_file_text(rng, "edges").encode("utf-8"))
        s.write_bytes(_file_text(rng, "sims").encode("utf-8"))
        e, s = str(e), str(s)

        got = _outcome(lambda: parse_edge_file(e))
        want = _outcome(lambda: ref.parse_edge_file(e))
        if want[0] == "ok":
            (src, dst), weight = got[1]
            rows = want[1]
            assert (src.tolist(), dst.tolist()) == ([u for u, _, _ in rows], [v for _, v, _ in rows]), seed
            assert weight.tobytes() == np.array([w for _, _, w in rows], dtype=float).tobytes(), seed
        else:
            assert got == want, seed

        got = _outcome(lambda: parse_similarity_file(s))
        want = _outcome(lambda: ref.parse_similarity_file(s))
        if want[0] == "ok":
            (lo, hi), h = got[1]
            assert list(zip(lo.tolist(), hi.tolist())) == list(want[1]), seed
            assert h.tobytes() == np.array(list(want[1].values()), dtype=float).tobytes(), seed
        else:
            assert got == want, seed

        got = _outcome(lambda: _stored(load_network(e, s)))
        want = _outcome(lambda: _ref_stored(*ref.load_network(e, s)))
        assert got == want, seed
        built += got[0] == "ok"
        failed += got[0] != "ok"
    # both outcomes are common, so neither path is checked vacuously
    assert built > FILES // 5 and failed > FILES // 5, (built, failed)


def _random_input(rng: random.Random):
    n = rng.randint(0, 6)
    ids = [*range(n)] * 4 + [-1, n]  # now and then outside 0..n-1
    if rng.random() < 0.4:
        edges = [(rng.choice(ids), rng.choice(ids), rng.choice(WEIGHTS)) for _ in range(rng.randint(0, 9))]
        sims = {(rng.choice(ids), rng.choice(ids)): rng.choice(SIMILARITIES) for _ in range(rng.randint(0, 6))}
        return n, edges, sims
    # distinct pairs in range with light weights, perhaps with one fault
    edges = [(u, v, rng.choice([0.1, 0.2, 0.05])) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
    rng.shuffle(edges)
    sims = {}
    for _ in range(rng.randint(0, 5) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        if (v, u) not in sims or rng.random() < 0.3:
            sims[(u, v)] = sims.get((v, u), rng.choice([0.5, 0.0, -0.0, 1.0, 0.3]))  # perhaps both orientations
    fault = rng.random()
    if fault < 0.05 and edges:
        edges.insert(rng.randint(0, len(edges)), rng.choice(edges))
    elif fault < 0.1:
        edges.insert(rng.randint(0, len(edges)), (rng.choice(ids), rng.choice(ids), rng.choice(WEIGHTS)))
    elif fault < 0.15 and sims:
        (u, v), h = rng.choice(list(sims.items()))
        sims[(v, u)] = rng.choice(SIMILARITIES)
    elif fault < 0.2:
        sims[(rng.choice(ids), rng.choice(ids))] = rng.choice(SIMILARITIES)
    return n, edges, sims


def test_from_edges_matches_reference_on_tuples_and_columns():
    built = 0
    for seed in range(BUILDS):
        n, edges, sims = _random_input(random.Random(seed))
        want = _outcome(lambda: _ref_stored(n, ref.reference_network(n, edges, sims)))
        assert _outcome(lambda: _stored(Network.from_edges(n, edges, sims))) == want, seed
        ends = np.array([(u, v) for u, v, _ in edges], dtype=np.intp).reshape(-1, 2).T
        pairs = np.array(list(sims), dtype=np.intp).reshape(-1, 2).T
        columns = Columns(ends, np.array([w for _, _, w in edges], dtype=float)), Columns(pairs, np.array(list(sims.values())))
        assert _outcome(lambda: _stored(Network.from_edges(n, *columns))) == want, seed
        built += want[0] == "ok"
    assert built > BUILDS // 5, built


@pytest.mark.parametrize("header", ["", "# header\r\n"])
def test_byte_order_mark_is_skipped(tmp_path, header):
    e, s, p = tmp_path / "e.txt", tmp_path / "s.txt", tmp_path / "p.txt"
    e.write_bytes(f"\ufeff{header}0 1 0.5\r\n2 1 0.25\r\n".encode())
    s.write_bytes(f"\ufeff{header}1 0 0.75\n".encode())
    p.write_bytes(f"\ufeff{header}0 1.0 0.0 null=1\n1 0.0 1.0 null=0\n".encode())
    net = load_network(str(e), str(s))
    assert net.src.tolist() == [0, 2] and net.h.tolist() == [0.75, 0.0]
    assert [x.id for x in load_products(str(p))] == [0, 1]


def test_byte_order_mark_and_crlf_through_the_cli(tmp_path, capsys):
    assert main(["fixtures", "--out", str(tmp_path)]) == 0
    d = tmp_path / "blocking_demo"
    for name in ("edges.txt", "products.txt"):
        text = (d / name).read_text(encoding="utf-8")
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
    code = main(
        [
            "simulate", "--net", str(tmp_path / "edges.txt"), "--sim", str(d / "similarity.txt"),
            "--products", str(tmp_path / "products.txt"), "--plans", str(d / "plans.json"),
            "--reps", "100", "--out", str(tmp_path / "out.json"),
        ]
    )
    assert code == 0, capsys.readouterr().err
    assert json.loads((tmp_path / "out.json").read_text())


def test_repeated_similarity_names_its_line(tmp_path):
    p = tmp_path / "sim.txt"
    p.write_text("0 1 0.8\n\n# note\n1 0 0.8\n")
    with pytest.raises(ValidationError, match=re.escape(f"{p}:4: asymmetric similarity (1,0)")):
        parse_similarity_file(str(p))
    p.write_text("0 1 0.8\r\n2 3 0.1\r\n0 1 0.8\r\n")
    with pytest.raises(ValidationError, match=re.escape(f"{p}:3: duplicate similarity (0,1)")):
        parse_similarity_file(str(p))


def test_an_id_past_intp_is_a_bad_line(tmp_path):
    # it names its own line, before any later bad line, in either file and
    # past either end of intp
    p = tmp_path / "e.txt"
    p.write_text("0 1 0.5\n1 99999999999999999999 0.5\n0 x 0.5\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:2: node id out of range")):
        load_network(str(p))
    p.write_text("0 1 0.5\n1 99999999999999999999 0.5\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:2: node id out of range")):
        load_network(str(p))
    s = tmp_path / "s.txt"
    s.write_text("0 1 0.5\n-99999999999999999999 1 0.5\n0 1 0.5\n")
    with pytest.raises(ParseError, match=re.escape(f"{s}:2: node id out of range")):
        parse_similarity_file(str(s))
