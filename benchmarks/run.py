#!/usr/bin/env python3
"""campaignsim benchmark: three workloads through the public API.

    python3 benchmarks/run.py --workload blocking_mc --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  Each workload follows the CLI's order: load the
input files, build_augmented, then estimate_spread or ce_optimize.  With
--trace 0 the end-to-end metrics are measured; with --trace 1 a fixed set of
operations runs once untraced and once with spans at every layer boundary,
and the per-layer metrics come from those spans.

Every line before the last is for people; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The full
record (machine, instance shape, per-operation times, problems) is also
written to benchmarks/out/.  The exit code is 1 when an output check fails
and 2 when the package cannot be found.  benchmarks/README.md says what each
number means and which workload it belongs to.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import uuid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORK_DIR = os.path.join(BENCH_DIR, "_work")

# Set-up is repeated in bursts of SETUP_BURST_S (at least SETUP_MIN_RUNS
# set-ups each): one before the timed operations, one after any operation
# that ends SETUP_GAP_SHARE of --seconds or more after the last burst, and one
# after the operations.  setup_s is the median of all the repetitions.
# Machine speed drifts between states that last seconds, so set-ups spread
# over the whole run say more than one window of them.
SETUP_MIN_RUNS = 5
SETUP_BURST_S = 0.3
SETUP_GAP_SHARE = 1 / 8

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> None:
    """Keep BLAS thread counts at or below the core count (before numpy loads)."""
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and value.isdigit() and int(value) > nproc:
            os.environ[var] = str(nproc)


def _import_path() -> None:
    if not os.path.isfile(os.path.join(SRC, "campaignsim", "__init__.py")):
        sys.stderr.write(f"benchmark: no campaignsim package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


_cap_blas_threads()
_import_path()

import numpy as np  # noqa: E402

from campaignsim import (  # noqa: E402
    CEConfig,
    ChannelPlan,
    CostModel,
    GridSpec,
    analytic_blocking_demo,
    build_augmented,
    ce_optimize,
    estimate_spread,
    exact_spread_grid,
    load_network,
    load_plans,
    load_products,
)
from campaignsim.network import NodeKind  # noqa: E402
from campaignsim.rng import derive_seed  # noqa: E402

import instances  # noqa: E402
from tracing import Tracer, installed, measuring_alloc  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_reps_per_s": "1/s",
    "call_wall_s": "s",
    "peak_rss_mb": "MB",
}


# -- bookkeeping -------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with a reason for every failure.

    An operation is one estimate or optimize call together with its output
    check; the check runs after the clock stops.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, what: str, fn, check) -> float:
        """Time fn(), then check its result; returns the seconds fn took."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            elapsed = time.perf_counter() - start
            self.failed += 1
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        problem = check(result)
        if problem:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")
        return elapsed

    def fail_all(self, problem: str) -> None:
        """A check over the whole run failed, so no operation's output stands."""
        self.failed = self.attempted
        self.problems.append(problem)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _throughput(reps: int, walls: list[float]) -> float:
    """Replications per second over all the calls (each of `reps`)."""
    return reps * len(walls) / sum(walls)


def _estimate_problem(est, reps: int, n_real: int) -> str | None:
    if est.replications != reps:
        return f"{est.replications} replications, asked for {reps}"
    if not (np.all(np.isfinite(est.means)) and np.all(np.isfinite(est.stderrs))):
        return "non-finite mean or stderr"
    if np.any(est.means < 0) or np.any(est.means > n_real):
        return f"means {est.means.tolist()} outside [0, {n_real}]"
    return None


# -- workloads ---------------------------------------------------------------
#
# A workload writes its input files, is set up from them, and then repeats
# one operation: call(i) is timed, check(i, result) is not.  Operation i
# always sees the same inputs for a given seed.


class Workload:
    builds = True  # set-up includes build_augmented
    op_span = "estimator.estimate_spread"
    min_ops = 3  # timed operations per run, whatever --seconds says
    trace_ops = 2  # operations in a traced run, each done untraced and traced
    reps = 0  # replications per estimate call

    def __init__(self, seed: int, ledger: Ledger):
        self.seed = seed
        self.ledger = ledger
        self.net = self.products = self.aug = None

    def ready(self, net, products, aug) -> None:
        self.net, self.products, self.aug = net, products, aug
        self.n_real = net.node_count

    def measure(self, seconds: float, between) -> dict:
        """Timed operations until `seconds` have passed, at least min_ops;
        between() runs after each one."""
        walls = []
        start = time.perf_counter()
        while len(walls) < self.min_ops or time.perf_counter() - start < seconds:
            walls.append(_op(self, len(walls), None))
            between()
        return {"walls": walls, "info": {}, "sim_reps_per_s": _throughput(self.reps, walls)}

    def finish(self, out: dict) -> None:
        """Checks over the whole run."""


class BlockingMC(Workload):
    """Huge R on a tiny graph: per-step and per-tile overhead, draws, reduction."""

    # 16 full RNG tiles per call, so tile overhead and reduction run at scale
    reps = 16 * 4096

    def write_inputs(self, work: str) -> dict:
        return instances.write_blocking(work)

    def ready(self, net, products, aug) -> None:
        super().ready(net, products, aug)
        self.focal = aug.product_ids.index(0)
        self.pooled = [0, 0, 0]  # sum, sum of squares, replications

    def call(self, i: int):
        return estimate_spread(self.aug, self.products, self.reps, derive_seed(self.seed, i))

    def check(self, i: int, est):
        self.pooled[0] += int(est.spread_sums[self.focal])
        self.pooled[1] += int(est.spread_sumsq[self.focal])
        self.pooled[2] += est.replications
        return _estimate_problem(est, self.reps, self.n_real)

    def finish(self, out: dict) -> None:
        # every call draws its own seed, so the pooled sums are one sample of
        # independent replications; a traced run repeats its calls, which
        # leaves the mean alone and only halves the weight per replication
        s, sq, R = self.pooled
        if R < 2:
            self.ledger.fail_all("no estimate returned, so the analytic check cannot run")
            return
        mean = s / R
        stderr = ((sq - s * s / R) / (R - 1) / R) ** 0.5
        if out.get("traced"):
            stderr *= 2**0.5
        expected = analytic_blocking_demo("base").focal_spread
        out["info"].update(focal_mean=mean, focal_stderr=stderr, focal_expected=expected)
        if abs(mean - expected) > 4 * stderr:
            self.ledger.fail_all(
                f"focal mean {mean:.5f} is more than 4 stderr ({stderr:.5f}) from {expected:.5f}"
            )


class Synth1kChannels(Workload):
    """Channel-heavy synthetic instance: dense kernel, relay gadgets, ties."""

    # One batch per call.  The dense kernel runs a batch until its slowest
    # replication settles, so a call's cost follows the batch's longest
    # cascade; 32 keeps that spread moderate while a run still makes several
    # calls.  Each call also pays a fixed 4096-row threshold tile.
    reps = 32

    def write_inputs(self, work: str) -> dict:
        return instances.write_synth(self.seed, work)

    def ready(self, net, products, aug) -> None:
        super().ready(net, products, aug)
        self.first_sums: list[int] | None = None

    def call(self, i: int):
        return estimate_spread(self.aug, self.products, self.reps, derive_seed(self.seed, i))

    def check(self, i: int, est):
        got = est.spread_sums.tolist()
        if i == 0:
            if self.first_sums is not None and self.first_sums != got:
                return f"rerun gave spread_sums {got}, first run {self.first_sums}"
            self.first_sums = got
        return _estimate_problem(est, self.reps, self.n_real)

    def finish(self, out: dict) -> None:
        if not out.get("traced"):  # a traced run already repeats call 0
            self.ledger.run("rerun estimate 0", lambda: self.call(0), lambda est: self.check(0, est))


class CEToyOpt(Workload):
    """The CE loop on ce_toy: about 3000 small estimates per optimize."""

    builds = False
    op_span = "optimizer.ce_optimize"
    # call_wall_s is the mean of at least three optimizes, so one slow
    # stretch of the machine does not decide a run's figure.
    min_ops = 3
    trace_ops = 1
    focal = 0
    budget = 2.0
    # Default CEConfig except for the inner replication count: at the default
    # 10,000 one optimize takes about 90 s on 2 cores, too long to repeat
    # within a run.  At 500 one takes about 8 s and still reaches the grid
    # optimum.  The loop keeps its shape: 30 iterations of 100 samples,
    # about 3000 estimates.
    reps = 500
    grid_resolution = 50
    grid_step = 0.25
    min_quality = 0.98

    def write_inputs(self, work: str) -> dict:
        paths, self.horizon = instances.write_ce_toy(work)
        return paths

    def ready(self, net, products, aug) -> None:
        super().ready(net, products, aug)
        self.grid = GridSpec(resolution=self.grid_resolution)
        self.cost = CostModel()
        self.config = CEConfig(replications=self.reps)
        self.grid_best, self.grid_plan = self._grid_optimum()
        self.aug = build_augmented(net, products, [self.grid_plan])
        self.qualities: list[float] = []
        self.results: list = []

    def _exact(self, plan) -> float:
        aug = build_augmented(self.net, self.products, [plan])
        return exact_spread_grid(aug, self.products, self.grid).spread_of(self.focal)

    def _grid_optimum(self):
        """Exact best plan over the budget grid the acceptance test enumerates."""
        levels = [round(i * self.grid_step, 2) for i in range(int(self.budget / self.grid_step) + 1)]
        best_value, best_plan = -1.0, None
        for k in range(int(self.budget) + 1):
            for seeds in itertools.combinations(range(self.net.node_count), k):
                for split in itertools.product(levels, repeat=self.horizon + 1):
                    if sum(split) > self.budget - k + 1e-9:
                        continue
                    plan = ChannelPlan(product=self.focal, seeds=frozenset(seeds), alpha=split[0], beta=split[1:])
                    value = self._exact(plan)
                    if value > best_value:
                        best_value, best_plan = value, plan
        return best_value, best_plan

    def call(self, i: int):
        return ce_optimize(
            self.net, self.products, self.focal, [], self.cost, self.budget, self.config,
            derive_seed(self.seed, i), horizon=self.horizon,
        )

    def check(self, i: int, res):
        quality = self._exact(res.best_plan) / self.grid_best
        self.qualities.append(quality)
        self.results.append(res)
        spent = self.cost.plan_cost(res.best_plan)
        if spent > self.budget + 1e-9:
            return f"plan costs {spent} > budget {self.budget}"
        if quality < self.min_quality:
            return f"opt_quality {quality:.4f} < {self.min_quality}"
        return None

    def measure(self, seconds: float, between) -> dict:
        out = super().measure(seconds, between)
        # the replications the optimizes spent, over the time they took
        evaluations = sum(r.evaluations for r in self.results)
        out["sim_reps_per_s"] = evaluations * self.reps / sum(out["walls"])
        return out

    def finish(self, out: dict) -> None:
        out["info"]["opt_quality"] = min(self.qualities) if self.qualities else 0.0
        out["info"]["grid_optimum"] = self.grid_best


WORKLOADS = {
    "blocking_mc": BlockingMC,
    "synth1k_channels": Synth1kChannels,
    "ce_toy_opt": CEToyOpt,
}


# -- phases ------------------------------------------------------------------


class SetUp:
    """Repeated set-up of one workload: load the input files, then
    build_augmented.  The workload is made ready from the first burst."""

    def __init__(self, wl: Workload, paths: dict, tracer: Tracer | None):
        self.wl, self.paths, self.tracer = wl, paths, tracer
        self.times: list[float] = []  # seconds of each set-up
        self.last = 0.0  # when the last burst ended

    def burst(self) -> None:
        start = time.perf_counter()
        n = 0
        while n < SETUP_MIN_RUNS or time.perf_counter() - start < SETUP_BURST_S:
            t0 = time.perf_counter()
            with _span(self.tracer, "network.load"):
                net = load_network(self.paths["net"], self.paths["sim"])
                products = load_products(self.paths["products"])
                plans = load_plans(self.paths["plans"]) if "plans" in self.paths else None
            aug = None
            if self.wl.builds:
                with _span(self.tracer, "channels.build_augmented"):
                    aug = build_augmented(net, products, plans)
            self.times.append(time.perf_counter() - t0)
            n += 1
        if self.wl.net is None:
            self.wl.ready(net, products, aug)
        self.last = time.perf_counter()

    def burst_after(self, gap: float) -> None:
        """A burst if `gap` seconds or more have passed since the last one."""
        if time.perf_counter() - self.last >= gap:
            self.burst()


def _op(wl: Workload, i: int, tracer: Tracer | None, label: str = "") -> float:
    def call():
        with _span(tracer, wl.op_span):
            return wl.call(i)

    return wl.ledger.run(f"{label}{wl.op_span} {i}", call, lambda res: wl.check(i, res))


def measure_traced(wl: Workload, tracer: Tracer) -> dict:
    """One estimate under tracemalloc, then fixed operations untraced and traced.

    The tracemalloc estimate comes first, so first-call costs (the dense
    weight matrix) fall on neither the untraced nor the traced pass.
    """
    with measuring_alloc(tracer):
        wl.ledger.run(
            "estimate under tracemalloc",
            lambda: estimate_spread(wl.aug, wl.products, wl.reps, derive_seed(wl.seed, 0)),
            lambda est: _estimate_problem(est, wl.reps, wl.n_real),
        )
    untraced = [_op(wl, i, None) for i in range(wl.trace_ops)]
    with installed(tracer):
        traced = [_op(wl, i, tracer, "traced ") for i in range(wl.trace_ops)]
    return {"walls": traced, "untraced_walls": untraced, "traced": True, "info": {}}


# -- per-layer metrics -------------------------------------------------------


def _elite_rep_frac(tracer: Tracer, elite_frac: float) -> float:
    """Share of the optimizer's replications spent on samples that made the elite.

    Samples are grouped by iteration in call order.  Each iteration keeps its
    top max(1, ceil(elite_frac * samples)) estimates, ties going to the
    earlier sample: the optimizer's own selection rule.
    """
    groups: list[list[tuple[int, float]]] = []
    prev = None
    for it, reps, value in tracer.ce_samples:
        if it != prev:
            groups.append([])
            prev = it
        groups[-1].append((reps, value))
    total = elite = 0
    for g in groups:
        n_elite = max(1, math.ceil(elite_frac * len(g)))
        ranked = sorted(range(len(g)), key=lambda s: (-g[s][1], s))
        elite += sum(g[s][0] for s in ranked[:n_elite])
        total += sum(reps for reps, _ in g)
    return elite / total if total else 0.0


def layer_metrics(wl: Workload, tracer: Tracer, out: dict) -> dict:
    ops = len(out["walls"])
    tot = tracer.totals()
    c = tracer.counts
    reps = max(c["replications"], 1)

    def total(name):
        return tot.get(name, {}).get("total_s", 0.0)

    def median_of(name):
        d = tracer.durations(name)
        return statistics.median(d) if d else 0.0

    kernel = total("diffusion.simulate_batch")
    m = {
        "network.load_s": median_of("network.load"),
        "channels.build_s": median_of("channels.build_augmented"),
        **{k: v for k, v in out["shape"].items() if k.startswith("channels.")},
        "rng.threshold_draw_s": total("rng.threshold_draw") / ops,
        "diffusion.kernel_s": kernel / ops,
        "diffusion.ns_per_edge_rep": kernel * 1e9 / max(c["edge_reps"], 1),
        "diffusion.steps_per_rep": c["rep_steps"] / reps,
        "diffusion.useful_frac": c["activations"] / max(c["batch_node_steps"], 1),
        "diffusion.tie_breaks_per_rep": c["tie_breaks"] / reps,
        "diffusion.tie_s": total("diffusion.tie_break") / ops,
        "diffusion.peak_alloc_mb": tracer.peak_alloc_bytes / 2**20,
        "estimator.calls": tot.get("estimator.estimate_spread", {}).get("calls", 0) / ops,
        "estimator.tiles": tot.get("diffusion.simulate_batch", {}).get("calls", 0) / ops,
        "estimator.self_s": tot.get("estimator.estimate_spread", {}).get("self_s", 0.0) / ops,
    }
    results = getattr(wl, "results", [])[-ops:]  # the traced pass's optimizes
    ce = tot.get("optimizer.ce_optimize")
    evaluate = sum(
        end - start
        for name, start, end, parent in tracer.spans
        if parent >= 0
        and tracer.spans[parent][0] == "optimizer.ce_optimize"
        and name in ("channels.build_augmented", "estimator.estimate_spread")
    )
    m.update({
        "optimizer.iterations": sum(len(r.trace) for r in results) / ops if results else 0,
        "optimizer.evaluations": sum(r.evaluations for r in results) / ops if results else 0,
        "optimizer.mc_reps": sum(s[1] for s in tracer.ce_samples) / ops,
        "optimizer.sample_s": total("optimizer.sample_plan") / ops,
        "optimizer.evaluate_s": evaluate / ops,
        "optimizer.refit_s": ce["self_s"] / ops if ce else 0.0,
        "optimizer.elite_rep_frac": _elite_rep_frac(tracer, wl.config.elite_frac) if results else 0.0,
        "optimizer.quality": out["info"].get("opt_quality", 0.0),
        "trace.overhead_frac": sum(out["walls"]) / sum(out["untraced_walls"]) - 1.0,
    })
    return m


PER_LAYER_UNITS = {
    "network.load_s": "s",
    "channels.build_s": "s",
    "channels.nodes": "count",
    "channels.edges": "count",
    "channels.gadget_nodes": "count",
    "channels.zero_scale_nodes": "count",
    "rng.threshold_draw_s": "s",
    "diffusion.kernel_s": "s",
    "diffusion.ns_per_edge_rep": "ns",
    "diffusion.steps_per_rep": "count",
    "diffusion.useful_frac": "ratio",
    "diffusion.tie_breaks_per_rep": "count",
    "diffusion.tie_s": "s",
    "diffusion.peak_alloc_mb": "MB",
    "estimator.calls": "count",
    "estimator.tiles": "count",
    "estimator.self_s": "s",
    "optimizer.iterations": "count",
    "optimizer.evaluations": "count",
    "optimizer.mc_reps": "count",
    "optimizer.sample_s": "s",
    "optimizer.evaluate_s": "s",
    "optimizer.refit_s": "s",
    "optimizer.elite_rep_frac": "ratio",
    "optimizer.quality": "ratio",
    "trace.overhead_frac": "ratio",
}


# -- machine -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v, "unset (library default)") for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


# -- main --------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> dict:
    ledger = Ledger()
    wl = WORKLOADS[args.workload](args.seed, ledger)
    tracer = Tracer(uuid.uuid4().hex) if args.trace else None
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        paths = wl.write_inputs(work)
        set_up = SetUp(wl, paths, tracer)
        set_up.burst()
        if tracer:
            out = measure_traced(wl, tracer)
        else:
            gap = SETUP_GAP_SHARE * args.seconds
            out = wl.measure(args.seconds, lambda: set_up.burst_after(gap))
            set_up.burst()
        out["setup_s"] = statistics.median(set_up.times)
        out["shape"] = {
            "network.nodes": wl.net.node_count,
            "network.edges": len(wl.net.edges),
            "channels.nodes": wl.aug.net.node_count,
            "channels.edges": len(wl.aug.net.edges),
            "channels.gadget_nodes": int(np.count_nonzero(wl.aug.net.node_kind == NodeKind.SOCIAL_GADGET)),
            "channels.zero_scale_nodes": int(np.count_nonzero(wl.aug.scale <= 0.0)),
        }
        wl.finish(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    if tracer:
        metrics = layer_metrics(wl, tracer, out)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": out["setup_s"],
            "sim_reps_per_s": out["sim_reps_per_s"],
            "call_wall_s": statistics.fmean(out["walls"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    line = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_id": tracer.run_id if tracer else uuid.uuid4().hex,
        "machine": machine(),
        "instance": out["shape"],
        "info": out["info"],
        "op_walls_s": out["walls"],
        "untraced_op_walls_s": out.get("untraced_walls"),
        "failed_frac": ledger.failed / max(ledger.attempted, 1),
        "problems": ledger.problems,
        "result": line,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if tracer:
        tracer.write(stem + ".spans.jsonl")
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    record = run(args)
    line = record["result"]
    for key, value in record["instance"].items():
        print(f"instance {key} = {value}")
    for key, value in sorted(record["info"].items()):
        print(f"info {key} = {value:.6g}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"failed_frac = {record['failed_frac']:.6g} ({line['failed']}/{line['attempted']} operations)")
    for key, m in line["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line, sort_keys=True))
    sys.stdout.flush()
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
