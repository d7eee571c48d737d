"""The traced run: spans around each layer's public functions, per-layer metrics.

The tracer replaces module attributes with wrappers that record a span (name,
start, end, parent, step id) per call.  ``stokesdd.schemes`` imports its
kernels, solver, norms and partition functions by name, so those bindings are
wrapped in ``schemes`` itself; patching ``stokesdd.linsolve.cg_solve`` would
miss every call.  A name that no longer exists is skipped and listed.

Self time is a span's duration minus the time its children cover.  Stage
times are taken within the schemes layer: the linsolve, operators and grid
work under a stage is part of it, so the stage times plus
``schemes.step_self_ms`` add up to the traced step time.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import harness
from stokesdd import cli, operators, partition, schemes, verify
from stokesdd.verify import make_rng, random_pressure

STEPS = ("schemes.step_monolithic", "schemes.step_decomposed")
STAGES = {
    "schemes.viscous_step_monolithic": "viscous",
    "schemes.pressure_projection": "projection",
    "schemes.dd_forward_sweep": "sweep_fwd",
    "schemes.dd_backward_sweep": "sweep_bwd",
    "schemes.dd_pressure_substeps": "strip_pressure",
}
SOLVE = "linsolve.cg_solve"

# (module, attribute, span name); several attributes may share a span name.
TARGETS = [
    (schemes, "run", "schemes.run"),
    (schemes, "step_monolithic", STEPS[0]),
    (schemes, "step_decomposed", STEPS[1]),
    *[(schemes, name.split(".", 1)[1], name) for name in STAGES],
    (schemes, "blend_pressures", "schemes.blend_pressures"),
    (schemes, "cg_solve", SOLVE),
    (schemes, "_viscous_raw", "operators.viscous"),
    (schemes, "_gradient_raw", "operators.gradient"),
    (schemes, "_divergence_raw", "operators.divergence"),
    (schemes, "_stack", "operators.stack"),
    (schemes, "_unstack", "operators.unstack"),
    (schemes, "norm_velocity", "grid.norm"),
    (schemes, "norm_pressure", "grid.norm"),
    (schemes, "norm_decomposed", "grid.norm"),
    (schemes, "deflate_pressure", "grid.deflate_pressure"),
    (schemes, "build_strips", "partition.build_strips"),
    (schemes, "decompose", "partition.decompose"),
    (schemes, "recompose", "partition.recompose"),
    (verify, "exact_forcing", "verify.forcing"),
    (verify, "check_stability", "verify.check_stability"),
    (cli, "build_scheme_config", "cli.build_scheme_config"),
    (cli, "write_steps_csv", "cli.write_steps"),
    (cli, "write_velocity_csv", "cli.write_velocity"),
    (cli, "write_pressure_csv", "cli.write_pressure"),
]
KINDS = ("viscous", "projection", "sweep_fwd", "sweep_bwd", "strip_pressure")

# Spans kept for the span file; the aggregates count every span.
SPAN_CAP = 200_000


class Tracer:
    """Spans kept in memory, plus running per-name aggregates."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.stack: list[list] = []  # [name, start, child_time, stage_time, id]
        self.step = 0
        self.current_step = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.step_time = 0.0
        self.step_stage_time = 0.0
        self.solves = {k: {"solves": 0, "iters": 0, "time": 0.0, "res_max": 0.0, "unconverged": 0}
                       for k in KINDS + ("unattributed",)}
        self.skipped: list[str] = []
        self._saved: list[tuple] = []

    def _kind(self) -> str:
        for frame in reversed(self.stack):
            if frame[0] in STAGES:
                return STAGES[frame[0]]
        return "unattributed"

    def wrap(self, name: str, fn):
        is_step = name in STEPS
        is_solve = name == SOLVE

        def traced(*args, **kwargs):
            if is_step:
                self.step += 1
                self.current_step = self.step
            kind = self._kind() if is_solve else None
            parent = self.stack[-1] if self.stack else None
            frame = [name, 0.0, 0.0, 0.0, self.next_id]
            self.next_id += 1
            self.stack.append(frame)
            frame[1] = start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self._close(frame, parent, start, end, is_step)
            if is_solve:
                report = out[1]
                stats = self.solves[kind]
                stats["solves"] += 1
                stats["iters"] += report.iterations
                stats["time"] += end - start
                stats["res_max"] = max(stats["res_max"], report.residual)
                stats["unconverged"] += not report.converged
            return out

        return traced

    def _close(self, frame, parent, start, end, is_step) -> None:
        name, dur = frame[0], end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[2]
        if parent is not None:
            parent[2] += dur
            if name in STAGES and parent[0] in STEPS:
                parent[3] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[4], name, start - self.t0, end - self.t0,
                               parent[4] if parent is not None else -1, self.current_step))
        else:
            self.dropped += 1
        if is_step:
            self.step_time += dur
            self.step_stage_time += frame[3]
            self.current_step = 0

    def __enter__(self) -> "Tracer":
        self.skipped = []
        for module, attr, name in TARGETS:
            if not hasattr(module, attr):
                self.skipped.append(f"{module.__name__}.{attr}")
                continue
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "name", "start_us", "end_us", "parent", "step"])
            for span_id, name, start, end, parent, step in self.spans:
                writer.writerow([span_id, name, f"{start * 1e6:.3f}", f"{end * 1e6:.3f}", parent, step])


def _per_call(fn, budget: float) -> tuple[float, int]:
    """Median seconds per call over batches of at least 2 ms, after warm-up."""
    for _ in range(3):
        fn()
    start = time.perf_counter()
    fn()
    batch = max(1, int(2e-3 / max(time.perf_counter() - start, 1e-7)))
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return float(np.median(samples)), len(samples) * batch


def operator_timings(confs: list[dict], budget: float) -> dict:
    """Public ``apply_*`` calls on the workload's grid, with computed op counts.

    Op counts and bytes are computed from array sizes: bytes are each input
    and output array touched once.  The arrays are cache-resident, so no
    bandwidth or roofline ratio is claimed.
    """
    conf = next((c for c in confs if c["scheme"] == "decomposed"), confs[0])
    cfg = cli.build_scheme_config(conf)
    grid, op, u = cfg.grid, cfg.viscous, cfg.v
    p = random_pressure(grid, make_rng(0))
    part = partition.build_strips(grid, conf["m"], conf["overlap"])
    U = partition.decompose(part, u)
    n_all = (grid.n1 + 1) * (grid.n2 + 1)
    interior = (grid.n1 - 1) * (grid.n2 - 1)
    m = part.m
    calls = {
        "viscous": (lambda: operators.apply_viscous(op, u), 18 * interior, 32 * n_all),
        "gradient": (lambda: operators.apply_gradient(p), 4 * interior, 24 * n_all),
        "divergence": (lambda: operators.apply_divergence(u), 5 * grid.n1 * grid.n2, 24 * n_all),
        "coupling_lower": (lambda: operators.apply_coupling_lower(part.masks, op, U),
                           m * (10 * n_all + 18 * interior), 40 * m * n_all),
    }
    out = {}
    for name, (fn, flops, nbytes) in calls.items():
        per_call, n = _per_call(fn, budget / len(calls))
        out[f"operators.{name}.us"] = (per_call * 1e6, "us", n)
        out[f"operators.{name}.flops"] = (flops, "count", 1)
        out[f"operators.{name}.bytes_computed"] = (nbytes, "B", 1)
        if name == "viscous":
            out["operators.viscous.gbs_computed"] = (nbytes / per_call / 1e9, "GB/s", n)
    return out


def traced_run(confs: list[dict], seconds: float, out: Path) -> tuple[dict, list, dict]:
    """Micro-timings, then untraced and traced repetitions in alternation.

    Alternating keeps a drift in machine speed out of the tracing overhead.
    Returns the per-layer metrics as ``name: (value, unit, samples)``, the
    repetitions of both kinds, and a record of the trace itself.
    """
    micro = operator_timings(confs, 0.15 * seconds)
    tracer = Tracer()
    untraced: list = []
    traced: list = []
    clocks = harness.StepClock(), harness.StepClock()
    references: tuple[list, list] = [], []
    deadline = time.perf_counter() + 0.85 * seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        with clocks[0]:
            untraced.append(harness.one_rep(confs, out / "untraced", clocks[0], references[0]))
        with tracer, clocks[1]:
            traced.append(harness.one_rep(confs, out / "traced", clocks[1], references[1]))
    out.mkdir(parents=True, exist_ok=True)
    span_file = out / "spans.csv"
    tracer.write_spans(span_file)

    steps = max(tracer.step, 1)
    ms = 1e3

    def per_step(total: float) -> float:
        return ms * total / steps

    metrics: dict = {}
    for kind in KINDS:
        s = tracer.solves[kind]
        metrics[f"linsolve.{kind}.solves"] = (s["solves"] / steps, "1/step", steps)
        metrics[f"linsolve.{kind}.iters"] = (s["iters"] / s["solves"] if s["solves"] else 0.0, "count", s["solves"])
        metrics[f"linsolve.{kind}.ms"] = (per_step(s["time"]), "ms/step", steps)
        metrics[f"linsolve.{kind}.us_per_iter"] = (1e6 * s["time"] / s["iters"] if s["iters"] else 0.0, "us", s["iters"])
        metrics[f"linsolve.{kind}.res_max"] = (s["res_max"], "1", s["solves"])
    metrics["linsolve.unconverged"] = (sum(s["unconverged"] for s in tracer.solves.values()), "count", steps)

    stage_total = {kind: 0.0 for kind in KINDS}
    for name, kind in STAGES.items():
        stage_total[kind] += tracer.total[name]
    for kind in KINDS:
        metrics[f"schemes.{kind}_ms"] = (per_step(stage_total[kind]), "ms/step", steps)
    metrics["schemes.step_self_ms"] = (per_step(tracer.step_time - tracer.step_stage_time), "ms/step", steps)
    metrics["schemes.step_ms"] = (per_step(tracer.step_time), "ms/step", steps)

    for name in ("viscous", "gradient", "divergence"):
        metrics[f"operators.{name}.calls"] = (tracer.calls[f"operators.{name}"] / steps, "1/step", steps)
    metrics.update(micro)

    def mean_ms(name: str) -> tuple:
        n = tracer.calls[name]
        return (ms * tracer.total[name] / n if n else 0.0, "ms", n)

    for name in ("build_strips", "decompose", "recompose"):
        metrics[f"partition.{name}_ms"] = mean_ms(f"partition.{name}")
    metrics["grid.norm.calls"] = (tracer.calls["grid.norm"] / steps, "1/step", steps)
    metrics["grid.norm_ms"] = (per_step(tracer.total["grid.norm"]), "ms/step", steps)
    metrics["verify.forcing_ms"] = (per_step(tracer.total["verify.forcing"]), "ms/step", steps)
    metrics["verify.check_stability_ms"] = mean_ms("verify.check_stability")
    writers = ("cli.write_steps", "cli.write_velocity", "cli.write_pressure")
    for name in writers:
        metrics[f"{name}_ms"] = mean_ms(name)
    rows = sum(rep.rows for rep in traced)
    write_time = sum(tracer.total[name] for name in writers)
    metrics["cli.rows_per_s"] = (rows / write_time if write_time else 0.0, "1/s", rows)

    p50_untraced = harness.percentile(harness.step_samples(untraced)[1], 50)
    p50_traced = harness.percentile(harness.step_samples(traced)[1], 50)
    metrics["trace.overhead_pct"] = (100.0 * (p50_traced / p50_untraced - 1.0), "%", 2)

    stage_sum = sum(metrics[f"schemes.{kind}_ms"][0] for kind in KINDS) + metrics["schemes.step_self_ms"][0]
    extra = {
        "skipped": tracer.skipped,
        "span_file": str(span_file),
        "spans_recorded": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "unattributed_solves": tracer.solves["unattributed"]["solves"],
        "stage_sum_ms": stage_sum,
        "by_span_name": {name: {"calls": tracer.calls[name], "total_ms": ms * tracer.total[name],
                                "self_ms": ms * tracer.self_time[name]} for name in sorted(tracer.calls)},
    }
    return metrics, untraced + traced, extra
