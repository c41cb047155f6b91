import json
import math
import os

import numpy as np
import pytest

from campaignsim.channels import ChannelPlan, build_augmented, load_plans, save_plans
from campaignsim.cli import main, parse_config_file
from campaignsim.diffusion import simulate_batch
from campaignsim.estimator import estimate_spread
from campaignsim.feature_space import Product, load_products, save_products
from campaignsim.network import Network, load_network, parse_edge_file, save_network
from campaignsim.rng import TILE_SIZE, tile_rng
from gadget_reference import media_edges


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fx")
    assert main(["fixtures", "--out", str(out)]) == 0
    return out


def run(args):
    return main([str(a) for a in args])


def demo_args(fixture_dir, which="blocking_demo", plans="plans.json"):
    d = fixture_dir / which
    return [
        "--net", d / "edges.txt",
        "--sim", d / "similarity.txt",
        "--products", d / "products.txt",
        "--plans", d / plans,
    ]


# -- fixture generation --------------------------------------------------


def test_fixture_directories_and_contents(fixture_dir):
    for sub in ("preference_shift", "blocking_demo"):
        for name in ("edges.txt", "similarity.txt", "products.txt", "plans.json"):
            assert (fixture_dir / sub / name).exists()
    assert (fixture_dir / "blocking_demo" / "plans_extra_seed.json").exists()


def test_blocking_fixture_has_37_nodes(fixture_dir):
    lines = (fixture_dir / "blocking_demo" / "edges.txt").read_text().splitlines()
    nodes = set()
    for line in lines:
        if line.startswith("#"):
            continue
        a, b, _ = line.split()
        nodes.add(int(a))
        nodes.add(int(b))
    assert max(nodes) + 1 == 37


def test_fixture_products_are_orthogonal(fixture_dir):
    products = load_products(str(fixture_dir / "preference_shift" / "products.txt"))
    dot = sum(a * b for a, b in zip(products[0].features, products[1].features))
    assert math.acos(dot) == pytest.approx(math.pi / 2, abs=1e-12)


def test_fixture_regeneration_is_byte_identical(fixture_dir, tmp_path):
    again = tmp_path / "fx2"
    assert run(["fixtures", "--out", again]) == 0
    for sub in ("preference_shift", "blocking_demo"):
        for name in os.listdir(fixture_dir / sub):
            a = (fixture_dir / sub / name).read_bytes()
            b = (again / sub / name).read_bytes()
            assert a == b, f"{sub}/{name} differs"


# -- simulate ------------------------------------------------------------


def test_simulate_writes_envelope_and_sidecar(fixture_dir, tmp_path):
    out = tmp_path / "sim.json"
    code = run(
        ["simulate", *demo_args(fixture_dir), "--seed", 3, "--reps", 2000, "--out", out]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "simulate"
    assert payload["seed"] == 3
    assert payload["results"]["replications"] == 2000
    products = {row["product"]: row for row in payload["results"]["products"]}
    assert products[0]["mean"] == pytest.approx(6.72, abs=0.5)
    meta = json.loads((tmp_path / "sim.json.meta.json").read_text())
    assert "written_at" in meta
    assert "written_at" not in payload


def test_simulate_reruns_are_byte_identical(fixture_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", *demo_args(fixture_dir), "--seed", 5, "--reps", 1000]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_workers_flag_is_result_neutral(fixture_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", *demo_args(fixture_dir), "--seed", 5, "--reps", 5000]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--workers", 3, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def assert_replication_zero(d, seed, traj):
    """Each trajectory row is replication 0 of the seed's estimate: tile 0's
    first threshold row and tie key (seed, 0)."""
    products = load_products(str(d / "products.txt"))
    net = load_network(str(d / "edges.txt"), str(d / "similarity.txt"))
    aug = build_augmented(net, products, load_plans(str(d / "plans.json")))
    n = aug.net.node_count
    chi = tile_rng(seed, 0).random((TILE_SIZE, n + len(products)))[:1, :n]
    act, bought = simulate_batch(aug.net, products, [aug.row_block(1, seed)], chi)
    ids = [p.id for p in products]
    expected = [f"{v},{act[0, v]},{ids[bought[0, v]] if bought[0, v] >= 0 else -1}" for v in range(n)]
    assert traj.read_text().strip().splitlines()[1:] == expected
    one = estimate_spread(aug, products, 1, seed)
    for j in range(len(ids)):
        assert np.array_equal(one.node_counts[j], bought[0] == j)


def test_simulate_optional_outputs(fixture_dir, tmp_path):
    out = tmp_path / "sim.json"
    probs = tmp_path / "probs.csv"
    traj = tmp_path / "traj.csv"
    dump = tmp_path / "aug"
    code = run(
        [
            "simulate", *demo_args(fixture_dir, "preference_shift"),
            "--seed", 1, "--reps", 500, "--out", out,
            "--node-probs", probs, "--trajectory", traj, "--dump-augmented", dump,
        ]
    )
    assert code == 0
    header, *rows = probs.read_text().strip().splitlines()
    assert header == "node,product_0,product_1"
    assert len(rows) == 5  # one row per node
    t_header, *t_rows = traj.read_text().strip().splitlines()
    assert t_header == "node,activation_time,product"
    assert_replication_zero(fixture_dir / "preference_shift", 1, traj)
    assert (dump / "edges.txt").exists()
    assert (dump / "pseudo.json").exists()
    # twenty nodes hear both seeds at equal weight, so most of them buy on a
    # purchase tie and the rows depend on the tie key
    ties = tmp_path / "ties"
    ties.mkdir()
    net = Network.from_edges(22, [(s, v, 0.4) for v in range(2, 22) for s in (0, 1)])
    save_network(net, str(ties / "edges.txt"), str(ties / "similarity.txt"))
    save_products(
        [Product(id=0, features=(1.0, 0.0), null_index=1), Product(id=1, features=(0.0, 1.0), null_index=0)],
        str(ties / "products.txt"),
    )
    save_plans([ChannelPlan(product=0, seeds={0}), ChannelPlan(product=1, seeds={1})], str(ties / "plans.json"))
    t_traj = tmp_path / "ties.csv"
    code = run(
        [
            "simulate", "--net", ties / "edges.txt", "--products", ties / "products.txt",
            "--plans", ties / "plans.json", "--seed", 3, "--reps", 10,
            "--out", tmp_path / "ties.json", "--trajectory", t_traj,
        ]
    )
    assert code == 0
    assert_replication_zero(ties, 3, t_traj)


def test_simulate_with_media_and_social_channels(tmp_path):
    # alpha > 0 and beta > 0 for two off-axis products, so the run compiles
    # media and recommendations; the dump must read back bit for bit
    d = tmp_path / "channels"
    d.mkdir()
    net = Network.from_edges(
        6,
        [(0, 1, 0.3), (1, 2, 0.25), (2, 3, 0.3), (3, 4, 0.2), (4, 5, 0.3), (5, 0, 0.1), (0, 3, 0.2), (2, 5, 0.15)],
        similarities={(0, 1): 0.6, (1, 2): 0.7, (2, 3): 0.3, (3, 4): 0.9, (0, 3): 0.4},
    )
    save_network(net, str(d / "edges.txt"), str(d / "similarity.txt"))
    products = [
        Product(id=4, features=(0.6, 0.8, 0.0), null_index=2),
        Product(id=9, features=(0.0, 0.28, 0.96), null_index=0),
    ]
    save_products(products, str(d / "products.txt"))
    plans = [
        ChannelPlan(product=4, seeds={0}, alpha=0.7, beta=(0.2, 0.0, 0.3)),
        ChannelPlan(product=9, seeds={4}, alpha=0.3, beta=(0.1, 0.25, 0.0)),
    ]
    save_plans(plans, str(d / "plans.json"))
    args = ["--net", d / "edges.txt", "--sim", d / "similarity.txt", "--products", d / "products.txt"]
    outs = []
    for tag in ("a", "b"):
        files = [tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv", tmp_path / f"{tag}_traj.csv"]
        dump = tmp_path / f"{tag}_aug"
        code = run(
            [
                "simulate", *args, "--plans", d / "plans.json", "--seed", 11, "--reps", 300,
                "--out", files[0], "--node-probs", files[1], "--trajectory", files[2], "--dump-augmented", dump,
            ]
        )
        assert code == 0
        files += [dump / "edges.txt", dump / "similarity.txt", dump / "pseudo.json"]
        outs.append([f.read_bytes() for f in files])
    assert outs[0] == outs[1]

    aug = build_augmented(
        load_network(str(d / "edges.txt"), str(d / "similarity.txt")),
        load_products(str(d / "products.txt")),
        load_plans(str(d / "plans.json")),
    )
    pseudo = json.loads((tmp_path / "a_aug" / "pseudo.json").read_text())
    media = [a.tolist() for a in media_edges(aug.media)]
    assert np.count_nonzero(aug.media) and pseudo["media"] == [
        {"product": aug.product_ids[i], "step": t, "node": v, "weight": w} for t, i, v, w in zip(*media)
    ]
    rec = aug.recommendations
    assert len(rec) and pseudo["recommendations"] == [
        {"kind": "recommendation", "product": aug.product_ids[i], "edge": [u, v], "weight": w}
        for u, v, i, w in zip(*(a.tolist() for a in rec.listing()))
    ]
    # one trajectory row per network node, so no pseudonode rows
    assert_replication_zero(d, 11, tmp_path / "a_traj.csv")
    (src, dst), weight = parse_edge_file(str(tmp_path / "a_aug" / "edges.txt"))
    net = aug.net  # the base network, in (source, target) order
    assert list(zip(src.tolist(), dst.tolist())) == list(zip(net.src.tolist(), net.dst.tolist()))
    assert [w.hex() for w in weight.tolist()] == [w.hex() for w in net.weight.tolist()]
    # the dumped graph loads as a base network again
    code = run(["simulate", "--net", tmp_path / "a_aug" / "edges.txt", "--products", d / "products.txt",
                "--plans", d / "plans.json", "--reps", 10, "--out", tmp_path / "again.json"])
    assert code == 0


def test_missing_input_exits_3(fixture_dir, tmp_path, capsys):
    code = run(
        [
            "simulate", "--net", tmp_path / "absent.txt",
            "--products", fixture_dir / "blocking_demo" / "products.txt",
            "--plans", fixture_dir / "blocking_demo" / "plans.json",
            "--out", tmp_path / "x.json",
        ]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "io"
    assert not (tmp_path / "x.json").exists()


def test_invalid_network_exits_3(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 0.8\n2 1 0.8\n")
    code = run(
        [
            "simulate", "--net", bad,
            "--products", fixture_dir / "blocking_demo" / "products.txt",
            "--plans", fixture_dir / "blocking_demo" / "plans.json",
            "--out", tmp_path / "x.json",
        ]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "sum to" in err["error"]["message"]


def test_node_id_past_intp_exits_3(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "big.txt"
    bad.write_text("0 1 0.5\n1 99999999999999999999 0.5\n")
    args = demo_args(fixture_dir)
    args[args.index("--net") + 1] = bad
    code = run(["simulate", *args, "--reps", 10, "--out", tmp_path / "x.json"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "io" and f"{bad}:2:" in err["message"]
    assert not (tmp_path / "x.json").exists()


@pytest.mark.filterwarnings("error")  # stderr carries the JSON error line alone
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_product_feature_exits_3(fixture_dir, tmp_path, capsys, value):
    products = tmp_path / "products.txt"
    products.write_text(f"0 {value} 1.0 null=1\n1 1.0 0.0 null=1\n")
    args = demo_args(fixture_dir)
    args[args.index("--products") + 1] = products
    code = run(["simulate", *args, "--reps", 10, "--out", tmp_path / "x.json"])
    assert code == 3
    assert "non-finite" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not (tmp_path / "x.json").exists()


@pytest.mark.filterwarnings("error")  # stderr carries the JSON error line alone
def test_non_finite_plan_budget_exits_3(fixture_dir, tmp_path, capsys):
    # JSON parsers accept Infinity; an infinite spend would zero every scaling
    # ratio, and so would finite spends whose channel load overflows; a tiny
    # spend can overflow the scaling ratio instead
    payload = json.loads((fixture_dir / "blocking_demo" / "plans.json").read_text())
    args = demo_args(fixture_dir)[:6]
    for beta in ([math.inf] * payload["horizon"], [1e308, 1e308], [5e-324, 0.0]):
        payload["plans"][0]["beta"] = beta
        plans = tmp_path / "budget.json"
        plans.write_text(json.dumps(payload))
        code = run(["simulate", *args, "--plans", plans, "--reps", 10, "--out", tmp_path / "x.json"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "io" and "finite" in err["message"]
        assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"plans": [{"product": 0, "seeds": [0]}]},
        {"horizon": 0},
        {"horizon": 0, "plans": [{"seeds": [0]}]},
        [{"product": 0}],
        {"horizon": 1, "plans": [{"product": 0, "beta": 5}]},
        {"horizon": 0, "plans": [{"product": 0, "seeds": [1.5]}]},
        {"horizon": 0, "plans": [{"product": 0, "seeds": ["1"]}]},
        {"horizon": 0, "plans": [{"product": 0, "alpha": "lots"}]},
        {"horizon": 0, "plans": {"product": 0}},
        {"horizon": 0.5, "plans": [{"product": 0}]},
    ],
    ids=[
        "no-horizon", "no-plans", "no-product", "top-level-list", "scalar-beta",
        "fractional-seed", "string-seed", "string-alpha", "plans-not-a-list", "fractional-horizon",
    ],
)
def test_malformed_plan_file_exits_3(fixture_dir, tmp_path, capsys, payload):
    plans = tmp_path / "bad_plans.json"
    plans.write_text(json.dumps(payload))
    args = demo_args(fixture_dir)[:6]
    code = run(["simulate", *args, "--plans", plans, "--reps", 10, "--out", tmp_path / "x.json"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "io"
    assert str(plans) in err["message"]


# -- optimize and best-response -----------------------------------------


def ce_config(tmp_path, extra=""):
    cfg = tmp_path / "ce.cfg"
    cfg.write_text("samples = 6\nmax_iterations = 2\nreplications = 200\n" + extra)
    return cfg


def test_optimize_end_to_end(fixture_dir, tmp_path):
    out = tmp_path / "opt.json"
    trace = tmp_path / "trace.csv"
    code = run(
        [
            "optimize", *demo_args(fixture_dir, "preference_shift")[:6],
            "--focal", 0, "--budget", 2.0, "--horizon", 2,
            "--config", ce_config(tmp_path), "--seed", 4,
            "--out", out, "--trace", trace,
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    plan = payload["results"]["plan"]
    assert plan["product"] == 0
    cost = len(plan["seeds"]) + plan["alpha"] + sum(plan["beta"])
    assert cost <= 2.0 + 1e-9
    lines = trace.read_text().strip().splitlines()
    assert lines[0].startswith("iteration,best_value")
    assert len(lines) >= 2


def test_optimize_unknown_config_key_exits_2(fixture_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code = run(
        [
            "optimize", *demo_args(fixture_dir, "preference_shift")[:6],
            "--focal", 0, "--budget", 1.0, "--horizon", 2,
            "--config", cfg, "--seed", 1, "--out", tmp_path / "o.json",
        ]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"


@pytest.mark.parametrize("flag", ["--net", "--products", "--config"])
def test_a_directory_for_an_input_file_exits_3_naming_it(fixture_dir, tmp_path, capsys, flag):
    inputs = dict(zip(*[iter(demo_args(fixture_dir, "preference_shift")[:6])] * 2))
    inputs[flag] = tmp_path
    args = [a for pair in inputs.items() for a in pair]
    code = run(["optimize", *args, "--focal", 0, "--budget", 1.0, "--horizon", 2, "--out", tmp_path / "o.json"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "io" and err["message"] == f"[Errno 21] Is a directory: '{tmp_path}'"


@pytest.mark.parametrize("flag", ["--net", "--products", "--plans", "--config"])
def test_an_input_file_that_is_not_utf8_exits_3_naming_it(fixture_dir, tmp_path, capsys, flag):
    inputs = dict(zip(*[iter(demo_args(fixture_dir, "preference_shift"))] * 2))
    inputs["--config"] = tmp_path / "ce.cfg"
    inputs["--config"].write_text("samples = 6\nmax_iterations = 1\nreplications = 50\n")
    bad = tmp_path / "bad"
    if flag == "--plans":  # JSON in UTF-16, which opens with a byte-order mark
        bad.write_bytes(inputs[flag].read_text(encoding="utf-8").encode("utf-16"))
        at = "byte 0 (0xff): invalid start byte"
    else:  # a Latin-1 e-acute in a comment
        bad.write_bytes(b"# caf\xe9\n" + inputs[flag].read_bytes())
        at = "byte 5 (0xe9): invalid continuation byte"
    inputs[flag] = bad
    args = [a for pair in inputs.items() for a in pair]
    code = run(["optimize", *args, "--focal", 0, "--budget", 1.0, "--horizon", 2, "--out", tmp_path / "o.json"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "io" and err["message"] == f"{bad}: not UTF-8 text: {at}"


def test_a_plan_file_that_is_not_json_exits_3_naming_it(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "plans.json"
    bad.write_text('{"horizon": 2,\n "plans": [}', encoding="utf-8")
    args = demo_args(fixture_dir, "preference_shift")[:6]
    code = run(["simulate", *args, "--plans", bad, "--reps", 10, "--out", tmp_path / "o.json"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "io" and err["message"] == f"{bad}: Expecting value: line 2 column 12 (char 26)"


def test_optimize_non_numeric_config_value_exits_2(fixture_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("replications = many\n")
    code = run(
        [
            "optimize", *demo_args(fixture_dir, "preference_shift")[:6],
            "--focal", 0, "--budget", 1.0, "--horizon", 2,
            "--config", cfg, "--seed", 1, "--out", tmp_path / "o.json",
        ]
    )
    assert code == 2


def test_optimize_bad_unit_cost_exits_2(fixture_dir, tmp_path, capsys):
    for line in ("alpha_cost = nan", "seed_cost = inf", "beta_cost = -1"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = run(
            [
                "optimize", *demo_args(fixture_dir, "preference_shift")[:6],
                "--focal", 0, "--budget", 2.0, "--horizon", 2,
                "--config", cfg, "--seed", 1, "--out", tmp_path / "o.json",
            ]
        )
        assert code == 2, line
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
        assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "line",
    [
        "replications = 0", "samples = -5", "max_iterations = 0", "smoothing = 5", "elite_frac = 0", "tol = nan",
        "samples = 2.5", "max_iterations = 1.5", "replications = 100.5",
    ],
)
def test_optimize_out_of_range_ce_config_exits_2(fixture_dir, tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = run(
        [
            "optimize", *demo_args(fixture_dir, "preference_shift")[:6],
            "--focal", 0, "--budget", 2.0, "--horizon", 2,
            "--config", cfg, "--seed", 1, "--out", tmp_path / "o.json",
        ]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config"
    assert "CEConfig out of range" in err["message"]
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "command, horizon",
    [("optimize", -1), ("optimize", -2), ("optimize", None), ("best-response", -1), ("best-response", -2)],
)
def test_negative_horizon_exits_2(fixture_dir, tmp_path, capsys, command, horizon):
    # None: optimize without --plans needs a --horizon
    extra = ["--focal", 0, "--budget", 2.0] if command == "optimize" else ["--budget", 1.0, "--rounds", 1]
    out = tmp_path / "o.json"
    code = run(
        [
            command, *demo_args(fixture_dir, "preference_shift")[:6], *extra,
            *(["--horizon", horizon] if horizon is not None else []),
            "--config", ce_config(tmp_path), "--seed", 1, "--out", out,
        ]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config"
    assert "--horizon" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "rival_only, horizon, message",
    [
        (False, 2, "--plans holds a plan for the focal product 0"),
        (True, 3, "--horizon 3 differs from the --plans horizon 2"),
    ],
    ids=["focal-plan", "horizon"],
)
def test_optimize_flags_that_contradict_the_plan_file_exit_2(fixture_dir, tmp_path, capsys, rival_only, horizon, message):
    # blocking_demo's plan file holds both products at horizon 2
    plans = fixture_dir / "blocking_demo" / "plans.json"
    if rival_only:
        save_plans([p for p in load_plans(str(plans)) if p.product == 1], tmp_path / "rival.json")
        plans = tmp_path / "rival.json"
    out = tmp_path / "o.json"
    code = run(
        [
            "optimize", *demo_args(fixture_dir)[:6], "--plans", plans,
            "--focal", 0, "--budget", 1.0, "--horizon", horizon,
            "--config", ce_config(tmp_path), "--seed", 1, "--out", out,
        ]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "config", "message": message, "exit_code": 2}
    assert not out.exists()


def test_sidecar_reports_why_each_optimizer_run_stopped(fixture_dir, tmp_path):
    reasons = {"stalled", "converged", "max_iterations"}
    out = tmp_path / "opt.json"
    code = run(
        [
            "optimize", *demo_args(fixture_dir, "preference_shift")[:6],
            "--focal", 0, "--budget", 2.0, "--horizon", 2,
            "--config", ce_config(tmp_path), "--seed", 4, "--out", out,
        ]
    )
    assert code == 0
    meta = json.loads((tmp_path / "opt.json.meta.json").read_text())
    assert meta["stop_reason"] == "max_iterations"  # 2 iterations are too few to stall
    assert meta["wall_s"] > 0.0
    assert "stop_reason" not in json.loads(out.read_text())["results"]
    out = tmp_path / "br.json"
    code = run(
        [
            "best-response", *demo_args(fixture_dir, "preference_shift")[:6],
            "--budget", "1.5,1.0", "--rounds", 2, "--horizon", 2,
            "--config", ce_config(tmp_path), "--seed", 8, "--out", out,
        ]
    )
    assert code == 0
    rounds_run = json.loads(out.read_text())["results"]["rounds_run"]
    meta = json.loads((tmp_path / "br.json.meta.json").read_text())
    assert [(r["round"], r["product"]) for r in meta["stop_reasons"]] == [
        (rnd, pid) for rnd in range(rounds_run) for pid in (0, 1)
    ]
    assert {r["stop_reason"] for r in meta["stop_reasons"]} <= reasons
    assert meta["wall_s"] > 0.0


def test_negative_budget_exits_4(fixture_dir, tmp_path, capsys):
    for budget in (-2.0, "inf", "nan"):
        code = run(
            [
                "optimize", *demo_args(fixture_dir, "preference_shift")[:6],
                "--focal", 0, "--budget", budget, "--horizon", 2,
                "--seed", 1, "--out", tmp_path / "o.json",
            ]
        )
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "infeasible"


def test_best_response_end_to_end(fixture_dir, tmp_path):
    out = tmp_path / "br.json"
    code = run(
        [
            "best-response", *demo_args(fixture_dir, "preference_shift")[:6],
            "--budget", "1.5,1.0", "--rounds", 1, "--horizon", 2,
            "--config", ce_config(tmp_path), "--seed", 8, "--out", out,
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["rounds_run"] == 1
    assert len(payload["results"]["plans"]["plans"]) == 2


def test_best_response_budget_list_must_match(fixture_dir, tmp_path, capsys):
    code = run(
        [
            "best-response", *demo_args(fixture_dir, "preference_shift")[:6],
            "--budget", "1,2,3", "--rounds", 1, "--horizon", 2,
            "--seed", 8, "--out", tmp_path / "br.json",
        ]
    )
    assert code == 2
    code = run(
        [
            "best-response", *demo_args(fixture_dir, "preference_shift")[:6],
            "--budget", "abc", "--rounds", 1, "--horizon", 2,
            "--seed", 8, "--out", tmp_path / "br.json",
        ]
    )
    assert code == 2


# -- oracle and gadget-check --------------------------------------------


def test_oracle_subcommand_reports_agreement(fixture_dir, tmp_path):
    out = tmp_path / "oracle.json"
    code = run(
        [
            "oracle", *demo_args(fixture_dir),
            "--resolution", 50, "--reps", 4000, "--seed", 2, "--out", out,
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    rows = {r["product"]: r for r in payload["results"]["products"]}
    assert rows[0]["oracle_spread"] == pytest.approx(6.72, abs=1e-9)
    assert abs(rows[0]["difference"]) < 5 * rows[0]["engine_stderr"] + 0.05


def test_gadget_check_subcommand(tmp_path):
    out = tmp_path / "gadget.json"
    assert run(["gadget-check", "--trials", 100, "--seed", 1, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["counterexamples"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--reps", 0],
        ["simulate", "--workers", 0],
        ["oracle", "--reps", 0],
        ["oracle", "--resolution", 0],
        ["best-response", "--rounds", 0],
        ["gadget-check", "--trials", -1],
        ["gadget-check", "--trials", 0],
        ["optimize", "--focal", 7],  # not a product id
    ],
    ids=lambda argv: " ".join(map(str, argv)),
)
def test_non_positive_count_exits_2(fixture_dir, tmp_path, capsys, argv):
    command, *count = argv
    inputs = {
        "simulate": demo_args(fixture_dir),
        "oracle": demo_args(fixture_dir),
        "best-response": [*demo_args(fixture_dir, "preference_shift")[:6], "--budget", 1.0, "--horizon", 2],
        "optimize": [*demo_args(fixture_dir, "preference_shift")[:6], "--budget", 1.0, "--horizon", 2],
        "gadget-check": [],
    }[command]
    out = tmp_path / "x.json"
    assert run([command, *inputs, *count, "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config"
    assert count[0] in err["message"]
    assert not out.exists()


# -- config file parser --------------------------------------------------


def test_parse_config_file_types_and_comments(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nsamples = 20\nelite_frac = 0.2  # inline\nname = abc\n\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"samples": 20, "elite_frac": 0.2, "name": "abc"}


def test_parse_config_file_requires_assignment(tmp_path):
    from campaignsim.cli import ConfigError

    cfg = tmp_path / "c.cfg"
    cfg.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_version_flag(capsys):
    # argparse exits for --version; main converts that into a return code
    assert main(["--version"]) == 0
    assert "campaignsim" in capsys.readouterr().out
