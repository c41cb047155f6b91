"""Spans recorded around the calls each campaignsim layer makes.

Nothing under src/ is instrumented.  A traced run replaces, for the duration
of a `with installed(tracer):` block, the module attributes through which one
layer calls the next (for example `campaignsim.estimator.simulate_batch`), so
every call crossing a layer boundary opens a span.  Spans live in memory and
are written out once, at the end of the run.

Work the tracer does for itself (activation statistics) runs in
`trace.bookkeeping` spans, which count as children of the enclosing span, so
it never inflates a layer's self time.  Allocation peaks are measured in a
separate pass (`measuring_alloc`), because tracemalloc slows every
allocation and would distort the span times.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc

import numpy as np

import campaignsim.diffusion as diffusion_mod
import campaignsim.estimator as estimator_mod
import campaignsim.optimizer as optimizer_mod

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span recorder: (id, name, start, end, parent) per span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        # per-layer counters gathered at the same boundaries as the spans
        self.counts = {
            "replications": 0,
            "edge_reps": 0,
            "rep_steps": 0,
            "batch_node_steps": 0,
            "activations": 0,
            "tie_breaks": 0,
        }
        self.peak_alloc_bytes = 0
        self.ce_samples: list[list] = []  # [iteration, replications, focal mean]
        self.ce_iteration = 0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- derived numbers ----------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time.

        Self time is a span's duration minus the part its children cover;
        spans are strictly nested here, so that is the sum of the children.
        """
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child_cover[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path: str) -> None:
        """One JSON object per span, with the run id and the parent's span id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent if parent >= 0 else None,
                }) + "\n")


class _TimedGenerator:
    """Stands in for a tile's generator so the threshold draw gets a span."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        with self._tracer.span("rng.threshold_draw"):
            return self._gen.random(*args, **kwargs)


def _record_batch(tracer: Tracer, net, act_time: np.ndarray) -> None:
    """Step and activation counts from the activation times a batch returned."""
    R, n = act_time.shape
    last = act_time.max(axis=1)
    # the kernel runs every replication of a batch to the batch's last
    # activation, plus one step that finds nothing new
    batch_steps = int(last.max()) + 1
    c = tracer.counts
    c["replications"] += R
    c["edge_reps"] += R * len(net.edges)
    c["rep_steps"] += int((last + 1).sum())
    c["batch_node_steps"] += batch_steps * n * R
    c["activations"] += int((act_time > 0).sum())


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every layer-to-layer call through the tracer, restoring on exit."""
    real_simulate = estimator_mod.simulate_batch
    real_tile_rng = estimator_mod.tile_rng
    real_key_uniform = diffusion_mod.key_uniform
    real_sample = optimizer_mod.sample_plan
    real_build = optimizer_mod.build_augmented
    real_estimate = optimizer_mod.estimate_spread

    def simulate_batch(net, *args, **kwargs):
        with tracer.span("diffusion.simulate_batch"):
            act_time, purchased = real_simulate(net, *args, **kwargs)
        with tracer.span(BOOKKEEPING):
            _record_batch(tracer, net, act_time)
        return act_time, purchased

    def tile_rng(*args, **kwargs):
        with tracer.span("rng.threshold_draw"):
            return _TimedGenerator(real_tile_rng(*args, **kwargs), tracer)

    def key_uniform(*parts):
        tracer.counts["tie_breaks"] += 1
        with tracer.span("diffusion.tie_break"):
            return real_key_uniform(*parts)

    def sample_plan(state, *args, **kwargs):
        tracer.ce_iteration = state.iteration + 1
        with tracer.span("optimizer.sample_plan"):
            return real_sample(state, *args, **kwargs)

    def build_augmented(*args, **kwargs):
        with tracer.span("channels.build_augmented"):
            return real_build(*args, **kwargs)

    def estimate_spread(aug, products, replications, *args, **kwargs):
        with tracer.span("estimator.estimate_spread"):
            est = real_estimate(aug, products, replications, *args, **kwargs)
        with tracer.span(BOOKKEEPING):
            # the optimizer ranks samples by the focal mean; the single-product
            # CE workload has exactly one mean per estimate
            tracer.ce_samples.append([tracer.ce_iteration, replications, float(est.means.max())])
        return est

    estimator_mod.simulate_batch = simulate_batch
    estimator_mod.tile_rng = tile_rng
    diffusion_mod.key_uniform = key_uniform
    optimizer_mod.sample_plan = sample_plan
    optimizer_mod.build_augmented = build_augmented
    optimizer_mod.estimate_spread = estimate_spread
    try:
        yield tracer
    finally:
        estimator_mod.simulate_batch = real_simulate
        estimator_mod.tile_rng = real_tile_rng
        diffusion_mod.key_uniform = real_key_uniform
        optimizer_mod.sample_plan = real_sample
        optimizer_mod.build_augmented = real_build
        optimizer_mod.estimate_spread = real_estimate


@contextlib.contextmanager
def measuring_alloc(tracer: Tracer):
    """Record in tracer.peak_alloc_bytes the largest tracemalloc peak of any
    simulate_batch call the estimator makes inside the block."""
    real_simulate = estimator_mod.simulate_batch

    def simulate_batch(*args, **kwargs):
        tracemalloc.start()
        try:
            return real_simulate(*args, **kwargs)
        finally:
            tracer.peak_alloc_bytes = max(tracer.peak_alloc_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    estimator_mod.simulate_batch = simulate_batch
    try:
        yield tracer
    finally:
        estimator_mod.simulate_batch = real_simulate
