import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from campaignsim.channels import build_augmented, load_plans
from campaignsim.estimator import estimate_spread
from campaignsim.feature_space import load_products
from campaignsim.network import (
    Columns,
    Edge,
    Network,
    NetworkError,
    ParseError,
    ValidationError,
    load_network,
    parse_edge_file,
    parse_similarity_file,
    save_network,
)
from scalar_reference import in_neighbors

INSTANCES = Path(__file__).parents[1] / "benchmarks" / "instances.py"
ARRAYS = ("src", "dst", "weight", "h", "indptr")


def small_net():
    return Network.from_edges(
        4,
        [(0, 1, 0.5), (2, 1, 0.3), (1, 3, 1.0)],
        similarities={(0, 1): 0.8},
    )


def test_from_edges_builds_adjacency_in_ascending_order():
    net = small_net()
    assert in_neighbors(net, 1) == [(0, 0.5), (2, 0.3)]
    assert in_neighbors(net, 0) == []


def test_out_csr_layout():
    # edges in (source, target) order, indptr over sources, all read-only
    net = small_net()
    assert net.src.tolist() == [0, 1, 2]
    assert net.indptr.tolist() == [0, 1, 2, 3, 3]
    assert net.dst.tolist() == [1, 3, 1]
    assert net.weight.tolist() == [0.5, 1.0, 0.3]
    assert net.edges == [Edge(0, 1, 0.5), Edge(1, 3, 1.0), Edge(2, 1, 0.3)]
    with pytest.raises(ValueError):
        net.weight[0] = 0.1


def test_similarity_lookup_is_symmetric_with_zero_default():
    # each edge carries its pair's similarity, whichever way the pair was given
    net = Network.from_edges(4, [(1, 0, 0.5), (0, 1, 0.5), (2, 3, 0.5)], similarities={(1, 0): 0.8, (1, 3): 0.4})
    assert net.h.tolist() == [0.8, 0.8, 0.0]
    assert net.similarity == {(0, 1): 0.8, (1, 3): 0.4}


def test_real_nodes_initially_everything():
    # channels compile to edges, so every node of every network is real
    assert np.array_equal(small_net().node_kind, np.zeros(4, dtype=np.int8))  # NodeKind.REAL is 0


def test_duplicate_edge_rejected():
    with pytest.raises(NetworkError, match="duplicate edge"):
        Network.from_edges(2, [(0, 1, 0.5), (0, 1, 0.4)])
    # the first offending edge in input order is reported
    with pytest.raises(NetworkError, match=re.escape("duplicate edge (1,0)")):
        Network.from_edges(3, [(1, 0, 0.5), (0, 1, 0.4), (1, 0, 0.4), (0, 1, 0.1), (0, 9, 0.1)])


def test_edge_outside_node_range_rejected():
    with pytest.raises(NetworkError, match="outside"):
        Network.from_edges(2, [(0, 5, 0.5)])
    # the first offending edge in input order, a negative id included; (1, -1)
    # and (0, 1) share the key 1 * 2 - 1 without being the same edge
    for edges, bad in (
        ([(0, 1, 0.5), (-1, 0, 0.5), (0, 1, 0.5)], "(-1,0)"),
        ([(1, -1, 0.5), (0, 1, 0.5)], "(1,-1)"),
        ([(0, 1, 0.5), (1, -1, 0.5)], "(1,-1)"),
    ):
        with pytest.raises(NetworkError, match=re.escape(f"edge {bad} references a node outside 0..1")):
            Network.from_edges(2, edges)


def test_similarity_pair_outside_node_range_rejected():
    # accepted, a pair would grow the network on a save/load round trip
    for u, v in ((0, 7), (-1, 1)):
        with pytest.raises(NetworkError, match=re.escape(f"similarity ({u},{v}) references a node outside 0..1")):
            Network.from_edges(2, [(0, 1, 0.5)], similarities={(u, v): 0.5})


def test_asymmetric_similarity_rejected_on_construction():
    with pytest.raises(NetworkError, match="asymmetric"):
        Network.from_edges(2, [(0, 1, 0.5)], similarities={(0, 1): 0.8, (1, 0): 0.3})


def test_validate_flags_each_violation():
    # from_edges reports every violation at once
    with pytest.raises(ValidationError) as exc:
        Network.from_edges(
            3, [Edge(0, 0, 0.5), Edge(1, 2, 1.5), Edge(0, 2, 0.9)], similarities={(1, 1): 0.5, (0, 2): 1.5}
        )
    assert exc.value.violations == [
        "self-loop at node 0",
        "edge (1,2) weight 1.5 outside (0, 1]",
        "incoming weights of node 2 sum to 2.4 > 1",
        "similarity (0,2) value 1.5 outside [0, 1]",
        "similarity (1,1) is a self-pair",
    ]


def test_validate_reports_bad_similarities_in_pair_order():
    sims = {(3, 4): 0.2, (2, 2): 1.0, (0, 4): -0.1, (1, 3): 0.5, (1, 1): 2.0, (0, 2): float("nan"), (0, 1): 1.0}
    with pytest.raises(ValidationError) as exc:
        Network.from_edges(5, [(0, 1, 0.5), (3, 4, 0.5)], similarities=sims)
    assert exc.value.violations == [
        "similarity (0,2) value nan outside [0, 1]",
        "similarity (0,4) value -0.1 outside [0, 1]",
        "similarity (1,1) value 2.0 outside [0, 1]",
        "similarity (1,1) is a self-pair",
        "similarity (2,2) is a self-pair",
    ]
    good = {pair: h for pair, h in sims.items() if pair in {(3, 4), (1, 3), (0, 1)}}
    assert Network.from_edges(5, [(0, 1, 0.5), (3, 4, 0.5)], similarities=good).similarity == good


def test_validate_accepts_incoming_sum_exactly_one():
    net = Network.from_edges(3, [(0, 2, 0.6), (1, 2, 0.4)])
    assert net.weight.sum() == 1.0
    with pytest.raises(ValidationError) as exc:
        Network.from_edges(3, [(0, 2, 0.6), (1, 2, 0.5)])
    assert exc.value.violations == ["incoming weights of node 2 sum to 1.1 > 1"]


def test_parse_edge_file_comments_and_errors(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# header\n0 1 0.5  # inline\n\n1 2 0.25\n")
    edges = parse_edge_file(str(p))
    assert edges.ends.tolist() == [[0, 1], [1, 2]] and edges.value.tolist() == [0.5, 0.25]

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n")
    with pytest.raises(ParseError, match="expected '<src> <dst> <weight>'"):
        parse_edge_file(str(bad))

    bad.write_text("0 1 0.5\n0 x 0.5\n")
    with pytest.raises(ParseError, match=re.escape(f"{bad}:2: invalid literal for int()")):
        parse_edge_file(str(bad))

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ParseError, match="no edges"):
        parse_edge_file(str(empty))


def test_parse_similarity_file_rejects_both_orientations(tmp_path):
    p = tmp_path / "sim.txt"
    p.write_text("0 1 0.8\n1 0 0.8\n")
    with pytest.raises(ValidationError, match="asymmetric similarity"):
        parse_similarity_file(str(p))
    p.write_text("0 1 0.8\n0 1 0.8\n")
    with pytest.raises(ValidationError, match="duplicate similarity"):
        parse_similarity_file(str(p))
    p.write_text("2 1 0.4\n")
    sims = parse_similarity_file(str(p))
    assert sims.ends.tolist() == [[1], [2]] and sims.value.tolist() == [0.4]


def test_load_network_validates(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1 0.7\n2 1 0.7\n")
    with pytest.raises(ValidationError) as exc:
        load_network(str(p))
    assert any("sum to" in s for s in exc.value.violations)


def test_save_load_round_trip(tmp_path):
    net = small_net()
    e, s = tmp_path / "e.txt", tmp_path / "s.txt"
    save_network(net, str(e), str(s))
    back = load_network(str(e), str(s))
    assert back.node_count == net.node_count
    assert sorted((x.src, x.dst, x.weight) for x in back.edges) == sorted(
        (x.src, x.dst, x.weight) for x in net.edges
    )
    assert back.similarity == net.similarity


def test_similarity_can_extend_node_count(tmp_path):
    e = tmp_path / "e.txt"
    s = tmp_path / "s.txt"
    e.write_text("0 1 0.5\n")
    s.write_text("1 4 0.3\n")
    net = load_network(str(e), str(s))
    assert net.node_count == 5


def test_edge_order_is_not_part_of_the_contract(tmp_path):
    # the seed-41 synthetic instance from its file and from a shuffled edge
    # list with its similarities in reverse order: the same arrays, the same
    # channels and the same estimate, byte for byte
    spec = importlib.util.spec_from_file_location("bench_instances", INSTANCES)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    paths = instances.write_synth(41, str(tmp_path / "synth"))
    from_file = load_network(paths["net"], paths["sim"])
    edges = parse_edge_file(paths["net"])
    perm = np.random.default_rng(41).permutation(edges.value.size)
    rows = list(zip(*edges.ends.tolist(), edges.value.tolist()))
    sims = parse_similarity_file(paths["sim"])
    shuffled = Network.from_edges(
        from_file.node_count,
        [rows[i] for i in perm],
        dict(reversed(list(zip(zip(*sims.ends.tolist()), sims.value.tolist())))),
    )
    # and as columns, the pairs turned round and in reverse order
    as_columns = Network.from_edges(
        from_file.node_count,
        Columns(edges.ends[:, perm], edges.value[perm]),
        Columns(sims.ends[::-1, ::-1], sims.value[::-1]),
    )
    for name in ARRAYS:
        assert getattr(shuffled, name).tobytes() == getattr(from_file, name).tobytes()
        assert getattr(as_columns, name).tobytes() == getattr(from_file, name).tobytes()
    assert shuffled.similarity == from_file.similarity
    products, plans = load_products(paths["products"]), load_plans(paths["plans"])
    a, b = build_augmented(from_file, products, plans), build_augmented(shuffled, products, plans)
    assert np.count_nonzero(a.media) and len(a.recommendations)
    assert a.scale.tobytes() == b.scale.tobytes() and a.threshold_width == b.threshold_width
    assert a.media.shape == b.media.shape and a.media.tobytes() == b.media.tobytes()
    for name in ("src", "dst", "product", "weight"):
        assert getattr(a.recommendations, name).tobytes() == getattr(b.recommendations, name).tobytes()
    ea, eb = estimate_spread(a, products, 48, 41), estimate_spread(b, products, 48, 41)
    assert ea.spread_sums.tobytes() == eb.spread_sums.tobytes()
    assert ea.spread_sumsq.tobytes() == eb.spread_sumsq.tobytes()
    assert ea.node_counts.tobytes() == eb.node_counts.tobytes()
    # and a save/load round trip keeps every array and the similarity dict
    save_network(shuffled, str(tmp_path / "e.txt"), str(tmp_path / "s.txt"))
    back = load_network(str(tmp_path / "e.txt"), str(tmp_path / "s.txt"))
    for name in ARRAYS:
        assert getattr(back, name).tobytes() == getattr(from_file, name).tobytes()
    assert back.node_count == from_file.node_count and back.similarity == from_file.similarity
