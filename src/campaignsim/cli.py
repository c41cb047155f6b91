"""Command-line interface.

Subcommands: simulate, optimize, best-response, oracle, gadget-check,
fixtures.  Result files are written atomically (temp + rename) and contain
no wall-clock data, so a repeated run with the same seed and inputs is
byte-identical; the write timestamp goes to a sidecar <out>.meta.json,
and so do, for optimize and best-response, the wall seconds and why each
cross-entropy run stopped.

Exit codes: 0 success, 2 configuration error, 3 input/output error,
4 infeasible optimization, 5 internal error.  Failures print a
machine-readable error JSON to stderr.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import os
import sys
import time

from . import __version__
from .channels import (
    PlanError,
    build_augmented,
    load_plans,
    plans_to_payload,
    save_augmented,
)
from .checks import gadget_property_check
from .diffusion import PurchaseTieError
from .estimator import _run_call, estimate_spread
from .feature_space import ProductError, load_products
from .fixtures import write_fixtures
from .network import NetworkError, _data_lines, _read_text, load_network
from .optimizer import (
    CEConfig,
    CostModel,
    InfeasiblePlanError,
    best_response_loop,
    ce_optimize,
)
from .oracle import EnumerationCapError, GridSpec, exact_spread_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5


class ConfigError(Exception):
    pass


def _atomic_write(path: str, data: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _write_result(path: str, payload: dict, run_stats: dict | None = None) -> None:
    """The result file, then its sidecar: the write time plus any run statistics."""
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    meta = {"written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(), **(run_stats or {})}
    _atomic_write(path + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


# output destinations and parallelism do not change results, so they stay
# out of the hash; a re-run to a different path must hash identically
_NON_RESULT_ARGS = {"func", "out", "node_probs", "trajectory", "dump_augmented", "trace", "workers"}


def _config_hash(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in _NON_RESULT_ARGS}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _envelope(command: str, args: argparse.Namespace, results: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config_hash": _config_hash(args),
        "results": results,
    }


def parse_config_file(path: str) -> dict:
    """key = value lines, read as every text input is; values are int, float, or bare strings."""
    out: dict = {}
    for lineno, line in _data_lines(_read_text(path)):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def _count(value):
    """A whole float (2.0, 1e4) as an int; anything else is left for CEConfig to reject."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


_CE_KEYS = {
    "samples": ("n_samples", _count),
    "elite_frac": ("elite_frac", float),
    "smoothing": ("smoothing", float),
    "max_iterations": ("max_iterations", _count),
    "tol": ("tol", float),
    "replications": ("replications", _count),
    "best_response_tol": ("best_response_tol", float),
}
_COST_KEYS = {"seed_cost", "alpha_cost", "beta_cost"}


def _ce_setup(config_path: str | None, workers: int) -> tuple[CEConfig, CostModel]:
    raw = parse_config_file(config_path) if config_path else {}
    unknown = set(raw) - set(_CE_KEYS) - _COST_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    try:
        for key, (attr, cast) in _CE_KEYS.items():
            if key in raw:
                kwargs[attr] = cast(raw[key])
        cost = CostModel(
            seed_unit_cost=float(raw.get("seed_cost", 1.0)),
            alpha_unit_cost=float(raw.get("alpha_cost", 1.0)),
            beta_unit_cost=float(raw.get("beta_cost", 1.0)),
        )
        config = CEConfig(workers=workers, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    return config, cost


def _load_instance(args):
    net = load_network(args.net, args.sim)
    products = load_products(args.products)
    return net, products


# -- subcommands --------------------------------------------------------


def cmd_simulate(args) -> int:
    net, products = _load_instance(args)
    plans = load_plans(args.plans)
    aug = build_augmented(net, products, plans)
    est = estimate_spread(aug, products, args.reps, args.seed, workers=args.workers)
    if args.dump_augmented:
        os.makedirs(args.dump_augmented, exist_ok=True)
        save_augmented(
            aug,
            os.path.join(args.dump_augmented, "edges.txt"),
            os.path.join(args.dump_augmented, "similarity.txt"),
            os.path.join(args.dump_augmented, "pseudo.json"),
        )
    if args.node_probs:
        probs = (est.node_counts.T / est.replications).tolist()  # (n, k)
        header = ["node"] + [f"product_{pid}" for pid in est.product_ids]
        _write_csv(args.node_probs, header, ([v, *row] for v, row in enumerate(probs)))
    if args.trajectory:
        act_time, purchased = _run_call(products, [(aug, args.seed, 0, 1, 0)])  # replication 0 of the estimate
        ids = [*est.product_ids, -1]  # purchased index -1: no purchase
        rows = zip(range(aug.net.node_count), act_time[0].tolist(), (ids[p] for p in purchased[0].tolist()))
        _write_csv(args.trajectory, ["node", "activation_time", "product"], rows)
    _write_result(args.out, _envelope("simulate", args, est.to_dict()))
    return EXIT_OK


def cmd_optimize(args) -> int:
    net, products = _load_instance(args)
    if args.focal not in {p.id for p in products}:
        raise ConfigError(f"--focal {args.focal} is not a product id")
    competitor_plans = load_plans(args.plans) if args.plans else []
    if args.horizon is None and not competitor_plans:
        raise ConfigError("--horizon is required without --plans")
    config, cost = _ce_setup(args.config, args.workers)
    # every input is read before the flags are checked against the plan file
    if args.focal in {plan.product for plan in competitor_plans}:
        raise ConfigError(f"--plans holds a plan for the focal product {args.focal}")
    if competitor_plans and args.horizon not in (None, competitor_plans[0].horizon):
        raise ConfigError(f"--horizon {args.horizon} differs from the --plans horizon {competitor_plans[0].horizon}")
    start = time.perf_counter()
    result = ce_optimize(
        net, products, args.focal, competitor_plans, cost, args.budget,
        config, args.seed, horizon=args.horizon,
    )
    wall_s = time.perf_counter() - start
    if args.trace:
        header = ["iteration", "best_value", "iteration_best", "iteration_mean", "elite_threshold"]
        _write_csv(args.trace, header, ([row[h] for h in header] for row in result.trace))
    results = {
        "best_value": result.best_value,
        "evaluations": result.evaluations,
        "iterations": len(result.trace),
        "plan": plans_to_payload([result.best_plan])["plans"][0] | {"horizon": result.best_plan.horizon},
    }
    run_stats = {"stop_reason": result.stop_reason, "wall_s": wall_s}
    _write_result(args.out, _envelope("optimize", args, results), run_stats)
    return EXIT_OK


def cmd_best_response(args) -> int:
    net, products = _load_instance(args)
    try:
        budgets = [float(b) for b in args.budget.split(",")]
    except ValueError:
        raise ConfigError(f"--budget must be a number or comma list, got {args.budget!r}") from None
    if len(budgets) == 1:
        budgets = budgets * len(products)
    if len(budgets) != len(products):
        raise ConfigError(f"{len(budgets)} budgets for {len(products)} products")
    config, cost = _ce_setup(args.config, args.workers)
    start = time.perf_counter()
    result = best_response_loop(
        net, products, [cost] * len(products), budgets, args.rounds,
        config, args.seed, horizon=args.horizon,
    )
    wall_s = time.perf_counter() - start
    results = {
        "rounds_run": result.rounds_run,
        "values": result.values,
        "plans": plans_to_payload(result.plans),
        "history": result.history,
    }
    stop_reasons = [
        {"round": rnd, "product": p.id, "stop_reason": reason}
        for rnd, reasons in enumerate(result.stop_reasons)
        for p, reason in zip(products, reasons)
    ]
    run_stats = {"stop_reasons": stop_reasons, "wall_s": wall_s}
    _write_result(args.out, _envelope("best-response", args, results), run_stats)
    return EXIT_OK


def cmd_oracle(args) -> int:
    net, products = _load_instance(args)
    plans = load_plans(args.plans)
    aug = build_augmented(net, products, plans)
    try:
        exact = exact_spread_grid(aug, products, GridSpec(resolution=args.resolution))
    except PurchaseTieError as exc:
        raise ConfigError(f"the oracle is defined only for tie-free instances: {exc}") from None
    est = estimate_spread(aug, products, args.reps, args.seed, workers=args.workers)
    comparison = []
    for j, pid in enumerate(aug.product_ids):
        comparison.append(
            {
                "product": pid,
                "oracle_spread": float(exact.spread[j]),
                "engine_mean": float(est.means[j]),
                "engine_stderr": float(est.stderrs[j]),
                "difference": float(est.means[j] - exact.spread[j]),
            }
        )
    results = {
        "resolution": args.resolution,
        "tuples_evaluated": exact.tuples_evaluated,
        "replications": args.reps,
        "products": comparison,
    }
    _write_result(args.out, _envelope("oracle", args, results))
    return EXIT_OK


def cmd_gadget_check(args) -> int:
    report = gadget_property_check(args.trials, args.seed)
    _write_result(args.out, _envelope("gadget-check", args, report))
    if report["counterexamples"]:
        return _fail("internal", EXIT_INTERNAL, f"{report['counterexamples']} gadget counterexamples")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    written = write_fixtures(args.out)
    sys.stdout.write("\n".join(written) + "\n")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="campaignsim",
        description="Competing multi-channel marketing campaigns: simulation and budget optimization",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_net(p):
        p.add_argument("--net", required=True, help="edge file <src> <dst> <weight>")
        p.add_argument("--sim", default=None, help="similarity file <u> <v> <h>")
        p.add_argument("--products", required=True, help="product file")

    def run_opts(p, workers=True):
        p.add_argument("--seed", type=int, default=0)
        if workers:
            p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo spread estimation")
    common_net(p)
    p.add_argument("--plans", required=True, help="channel plan JSON")
    p.add_argument("--reps", type=int, default=10_000)
    run_opts(p)
    p.add_argument("--node-probs", default=None, help="per-node purchase probability CSV")
    p.add_argument("--trajectory", default=None, help="single-replication trajectory CSV")
    p.add_argument("--dump-augmented", default=None, help="directory for the augmented network dump")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="cross-entropy budget allocation for one product")
    common_net(p)
    p.add_argument("--plans", default=None, help="fixed competitor plan JSON")
    p.add_argument("--focal", type=int, required=True, help="focal product id")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value optimizer configuration")
    run_opts(p)
    p.add_argument("--trace", default=None, help="per-iteration trace CSV")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("best-response", help="round-robin re-optimization across products")
    common_net(p)
    p.add_argument("--budget", required=True, help="budget, or comma list per product")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--config", default=None)
    run_opts(p)
    p.set_defaults(func=cmd_best_response)

    p = sub.add_parser("oracle", help="exact grid enumeration vs the Monte Carlo engine")
    common_net(p)
    p.add_argument("--plans", required=True)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--reps", type=int, default=100_000)
    run_opts(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gadget-check", help="randomized check of social-advertising recommendations")
    p.add_argument("--trials", type=int, default=10_000)
    run_opts(p, workers=False)
    p.set_defaults(func=cmd_gadget_check)

    p = sub.add_parser("fixtures", help="write the built-in demo instances")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fixtures)

    return parser


def _fail(kind: str, exit_code: int, message: str) -> int:
    error = {"error": {"type": kind, "message": message, "exit_code": exit_code}}
    sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        for name in ("reps", "resolution", "rounds", "trials", "workers"):  # the count flags
            if getattr(args, name, 1) < 1:
                raise ConfigError(f"--{name} must be >= 1, got {getattr(args, name)}")
        if getattr(args, "horizon", None) is not None and args.horizon < 0:
            raise ConfigError(f"--horizon must be >= 0, got {args.horizon}")
        return args.func(args)
    except (ConfigError, EnumerationCapError) as exc:
        return _fail("config", EXIT_CONFIG, str(exc))
    except (NetworkError, ProductError, PlanError,  # NetworkError: ParseError, ValidationError
            FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        return _fail("io", EXIT_IO, str(exc))
    except InfeasiblePlanError as exc:
        return _fail("infeasible", EXIT_INFEASIBLE, str(exc))
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports everything
        return _fail("internal", EXIT_INTERNAL, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
