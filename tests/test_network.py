import numpy as np
import pytest

from campaignsim.network import (
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


def small_net():
    return Network.from_edges(
        4,
        [(0, 1, 0.5), (2, 1, 0.3), (1, 3, 1.0)],
        similarities={(0, 1): 0.8},
    )


def test_from_edges_builds_adjacency_in_ascending_order():
    net = small_net()
    assert net.in_neighbors(1) == [(0, 0.5), (2, 0.3)]
    assert net.in_neighbors(0) == []


def test_out_csr_layout():
    indptr, dst, weight = small_net().out_csr()
    assert indptr.tolist() == [0, 1, 2, 3, 3]
    assert dst.tolist() == [1, 3, 1]
    assert weight.tolist() == [0.5, 1.0, 0.3]


def test_similarity_lookup_is_symmetric_with_zero_default():
    net = small_net()
    assert net.similarity_of(0, 1) == 0.8
    assert net.similarity_of(1, 0) == 0.8
    assert net.similarity_of(2, 3) == 0.0


def test_real_nodes_initially_everything():
    # channels compile to edges, so every node of every network is real
    assert np.array_equal(small_net().node_kind, np.zeros(4, dtype=np.int8))  # NodeKind.REAL is 0


def test_duplicate_edge_rejected():
    with pytest.raises(NetworkError, match="duplicate edge"):
        Network.from_edges(2, [(0, 1, 0.5), (0, 1, 0.4)])


def test_edge_outside_node_range_rejected():
    with pytest.raises(NetworkError, match="outside"):
        Network.from_edges(2, [(0, 5, 0.5)])


def test_asymmetric_similarity_rejected_on_construction():
    with pytest.raises(NetworkError, match="asymmetric"):
        Network.from_edges(2, [(0, 1, 0.5)], similarities={(0, 1): 0.8, (1, 0): 0.3})


def test_validate_flags_each_violation():
    net = Network(
        node_count=3,
        edges=[Edge(0, 0, 0.5), Edge(1, 2, 1.5), Edge(0, 2, 0.9)],
        similarity={(1, 1): 0.5, (0, 2): 1.5},
    )
    v = net.validate()
    assert any("self-loop" in s for s in v)
    assert any("weight 1.5" in s for s in v)
    assert any("sum to" in s for s in v)  # node 2 receives 2.4
    assert any("self-pair" in s for s in v)
    assert any("outside [0, 1]" in s for s in v)


def test_validate_accepts_incoming_sum_exactly_one():
    net = Network.from_edges(3, [(0, 2, 0.6), (1, 2, 0.4)])
    assert net.validate() == []
    # channel in-weights (compiled media and recommendations) count toward the sum
    def channel_in(*pairs):
        return np.array([v for v, _ in pairs], dtype=np.intp), np.array([w for _, w in pairs])

    assert net.validate(channel_in=channel_in((1, 0.7), (1, 0.3))) == []
    assert any("node 2 sum to 1.1" in s for s in net.validate(channel_in=channel_in((2, 0.1))))
    # and each lies in (0, 1]
    v = net.validate(channel_in=channel_in((1, 0.0), (0, 1.5), (1, 0.5)))
    assert v[:2] == ["channel weight 0.0 into node 1 outside (0, 1]", "channel weight 1.5 into node 0 outside (0, 1]"]


def test_parse_edge_file_comments_and_errors(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# header\n0 1 0.5  # inline\n\n1 2 0.25\n")
    edges = parse_edge_file(str(p))
    assert edges == [Edge(0, 1, 0.5), Edge(1, 2, 0.25)]

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n")
    with pytest.raises(ParseError, match="expected '<src> <dst> <weight>'"):
        parse_edge_file(str(bad))

    bad.write_text("0 x 0.5\n")
    with pytest.raises(ParseError):
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
    assert parse_similarity_file(str(p)) == {(1, 2): 0.4}


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
