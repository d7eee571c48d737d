"""Workloads, the timed pass and the correctness gates of the solver benchmark.

A workload is a list of ``stokesdd run`` configurations built from the seed.
One repetition drives every configuration through the public API the way
``stokesdd run`` does: ``cli.build_scheme_config`` (plus forcing the lazy
``cfg.viscous`` / ``cfg.partition``), ``schemes.run``, then the output stage
(``verify.check_stability``, the ``cli.write_*`` writers and a manifest).
Every call goes through the module attribute, so a traced pass can patch it.
Timed repetitions each run in a fresh process (``rep.py``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stokesdd import cli, schemes, verify
from stokesdd.grid import norm_velocity
from stokesdd.operators import spectral_lower_bound

# Steps per tau on small_ladder: few enough that the unforced field has not
# decayed below abs_tol on tau = 0.1 (it does after 13 to 16 steps), so every
# ladder step still runs CG.
LADDER_STEPS = 12
LADDER_TAUS = (1e-3, 1e-2, 1e-1)

# Set-up is sub-millisecond, so it is also timed this many times before each
# repetition, spreading its samples over the whole run like the others.
SETUP_REPEATS = 20
# The output stage is repeated after every run: more samples of output_s, and
# every repeat must write the same bytes.
OUTPUT_REPEATS = 3

# Gates.  At the parent commit err_rel is 0.018 (monolithic, mono_square) and
# 0.208 (decomposed, dd_channel: first-order splitting error at tau 0.025) for
# every amplitude the seeds draw; div_max stays below 1e-9 everywhere.
ERR_REL_MAX = {"monolithic": 0.03, "decomposed": 0.3}
DIV_MAX = 1e-8

WORKLOADS = ("mono_square", "dd_channel", "small_ladder")


def workload_confs(name: str, seed: int) -> list[dict]:
    """The configurations of one workload; the seed draws every random input."""
    rng = np.random.default_rng(seed)
    base = cli.resolve_config(argparse.Namespace(config=None))
    if name == "mono_square":
        return [dict(base, scheme="monolithic", n1=128, n2=128, tau=0.025, t_final=0.25,
                     amplitude=float(rng.uniform(0.8, 1.2)))]
    if name == "dd_channel":
        return [dict(base, scheme="decomposed", l1=4.0, n1=64, n2=64, m=2, overlap=16,
                     tau=0.025, t_final=0.25, amplitude=float(rng.uniform(0.8, 1.2)))]
    if name == "small_ladder":
        field_seed = int(rng.integers(0, 2**31))
        return [
            dict(base, scheme=scheme, n1=16, n2=16, m=3, overlap=2, tau=tau,
                 t_final=LADDER_STEPS * tau, initial="random", forcing="none", seed=field_seed)
            for scheme in ("monolithic", "decomposed")
            for tau in LADDER_TAUS
        ]
    raise ValueError(f"unknown workload {name!r}")


class StepClock:
    """Times every call of ``schemes.step_monolithic`` / ``step_decomposed``.

    The clock is read once on entry and once on exit, nothing inside.
    """

    NAMES = ("step_monolithic", "step_decomposed")

    def __init__(self) -> None:
        self.times: list[float] = []
        self._saved: dict = {}

    def __enter__(self) -> "StepClock":
        for name in self.NAMES:
            inner = getattr(schemes, name)
            self._saved[name] = inner

            def timed(*args, _inner=inner, **kwargs):
                start = time.perf_counter()
                out = _inner(*args, **kwargs)
                self.times.append(time.perf_counter() - start)
                return out

            setattr(schemes, name, timed)
        return self

    def __exit__(self, *exc) -> None:
        for name, inner in self._saved.items():
            setattr(schemes, name, inner)


def setup(conf: dict):
    """What ``setup_s`` measures: the configuration and its lazy operators."""
    cfg = cli.build_scheme_config(conf)
    cfg.viscous
    if cfg.scheme == "decomposed":
        cfg.partition
    return cfg


def stability(result):
    cfg = result.config
    if cfg.scheme == "monolithic":
        return verify.check_stability(result.reports, cfg.tau, "monolithic",
                                      nu_delta_h=cfg.nu * spectral_lower_bound(cfg.grid))
    return verify.check_stability(result.reports, cfg.tau, "decomposed")


def write_outputs(out_dir: Path, conf: dict, result, stab) -> tuple[dict, int]:
    """The writers ``cmd_run`` calls, then its manifest; returns the CSV files and rows."""
    cfg = result.config
    grid = cfg.grid
    out_dir.mkdir(parents=True, exist_ok=True)
    cli.write_steps_csv(out_dir / "steps.csv", result.reports)
    cli.write_velocity_csv(out_dir / "velocity.csv", result.velocity)
    outputs = {"steps": "steps.csv", "velocity": "velocity.csv"}
    if cfg.scheme == "monolithic" and result.pressure is not None:
        cli.write_pressure_csv(out_dir / "pressure.csv", result.pressure)
        outputs["pressure"] = "pressure.csv"
    elif result.pressures is not None:
        cli.write_pressure_csv(out_dir / "pressure_composite.csv",
                               schemes.blend_pressures(cfg.partition, result.pressures))
        outputs["pressure_composite"] = "pressure_composite.csv"
    manifest = {
        "command": "run",
        "config": {k: conf[k] for k in sorted(conf)},
        "grid": {"l1": grid.l1, "l2": grid.l2, "n1": grid.n1, "n2": grid.n2},
        "tau_effective": cfg.tau,
        "n_steps": cfg.n_steps,
        "outputs": outputs,
        "monitors": {"completed": result.completed, "stability_passed": stab.passed,
                     "worst_margin": stab.worst_margin, "message": result.message or stab.message},
    }
    with open(out_dir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    rows = (len(result.reports) + 1) + (grid.n1 + 1) * (grid.n2 + 1) + 1 + grid.n1 * grid.n2 + 1
    return outputs, rows


def digests(out_dir: Path, outputs: dict) -> dict:
    return {name: hashlib.sha256((out_dir / fname).read_bytes()).hexdigest()
            for name, fname in outputs.items()}


def err_rel(conf: dict, result) -> float:
    """Relative discrete L2 error of the final velocity against the exact one."""
    case = verify.ManufacturedCase(amplitude=conf["amplitude"], decay=conf["decay"], nu=conf["nu"])
    exact = verify.exact_velocity(case, result.config.grid, result.config.t_final)
    return verify.error_norms(result.velocity, exact) / norm_velocity(exact)


def gate(conf: dict, result, stab, writes: list[dict], reference: dict) -> tuple[list[str], float, float]:
    """Correctness of one run: (reasons it failed, err_rel or nan, div_max)."""
    reasons = []
    if not result.completed or len(result.reports) != result.config.n_steps:
        reasons.append(f"incomplete: {result.message}")
    if not stab.passed:
        reasons.append(f"stability monitor: {stab.message}")
    err = math.nan
    if conf["forcing"] == "manufactured":
        err = err_rel(conf, result)
        if not err <= ERR_REL_MAX[conf["scheme"]]:
            reasons.append(f"err_rel {err:.3e} above {ERR_REL_MAX[conf['scheme']]}")
    div = max((r.div_residual for r in result.reports), default=math.inf)
    if not div <= DIV_MAX:
        reasons.append(f"div_max {div:.3e} above {DIV_MAX}")
    if any(hashes != reference for hashes in writes):
        reasons.append("outputs differ from the first write of this seed")
    return reasons, err, div


@dataclass
class Rep:
    """One repetition of a workload: every configuration once."""

    setup: float = 0.0
    steps: list[list[float]] = field(default_factory=list)
    run_wall: float = 0.0
    n_steps: int = 0
    output: list[float] = field(default_factory=lambda: [0.0] * OUTPUT_REPEATS)
    rows: int = 0
    writes: list[dict] = field(default_factory=list)
    run_failed: list[bool] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    err: list[float] = field(default_factory=list)
    div: list[float] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.run_failed)

    @property
    def failed(self) -> int:
        return sum(self.run_failed)

    def fail(self, index: int, reasons: list[str]) -> None:
        self.run_failed[index] = self.run_failed[index] or bool(reasons)
        self.failures += [f"run {index}: {why}" for why in reasons]


def one_rep(confs: list[dict], out_root: Path, clock: StepClock, reference: list) -> Rep:
    rep = Rep()
    for index, conf in enumerate(confs):
        t0 = time.perf_counter()
        cfg = setup(conf)
        t1 = time.perf_counter()
        first = len(clock.times)
        result = schemes.run(cfg)
        t2 = time.perf_counter()
        writes = []
        out_dir = out_root / str(index)
        for repeat in range(OUTPUT_REPEATS):
            start = time.perf_counter()
            stab = stability(result)
            outputs, rows = write_outputs(out_dir, conf, result, stab)
            rep.output[repeat] += time.perf_counter() - start
            rep.rows += rows
            writes.append(digests(out_dir, outputs))
        rep.setup += t1 - t0
        rep.steps.append(clock.times[first:])
        rep.run_wall += t2 - t1
        rep.n_steps += len(result.reports)
        rep.writes.append(writes[0])
        rep.run_failed.append(False)
        if len(reference) <= index:
            reference.append(writes[0])
        reasons, err, div = gate(conf, result, stab, writes, reference[index])
        rep.fail(index, reasons)
        rep.err.append(err)
        rep.div.append(div)
    return rep


def fresh_rep(confs: list[dict], out_root: Path) -> Rep:
    """One repetition in a new python process, as each ``stokesdd run`` starts.

    A process that has already run the workload and written its CSV files
    has a fragmented heap and stops taking the page faults a fresh one takes
    on every step (60k to 125k per step on mono_square), so the timed
    repetitions must not share a process.
    """
    child = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("rep.py")), str(out_root)],
        input=json.dumps(confs), capture_output=True, text=True, timeout=150,
    )
    if child.returncode != 0:
        raise RuntimeError(f"repetition process failed ({child.returncode}):\n{child.stderr}")
    return Rep(**json.loads(child.stdout.strip().splitlines()[-1]))


def timed_pass(confs: list[dict], seconds: float, out_root: Path) -> tuple[list[Rep], list[float]]:
    """Repeat the workload until ``seconds`` have passed, at least twice.

    Returns the repetitions and the set-up times taken between them.  Every
    write must match the first write of the same configuration.
    """
    reps: list[Rep] = []
    setups: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < 2 or time.perf_counter() < deadline:
        setups += setup_samples(confs, SETUP_REPEATS)
        rep = fresh_rep(confs, out_root)
        first = reps[0] if reps else rep
        for index, (hashes, reference) in enumerate(zip(rep.writes, first.writes)):
            if hashes != reference:
                rep.fail(index, ["outputs differ from the first write of this seed"])
        reps.append(rep)
    return reps, setups


def setup_samples(confs: list[dict], repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for conf in confs:
            setup(conf)
        samples.append(time.perf_counter() - start)
    return samples


def step_samples(reps: list[Rep]) -> tuple[list[float], list[float]]:
    """(first steps, later steps), each summed over the workload's runs.

    On a one-run workload a sample is one step.  On small_ladder the k-th
    sample sums the k-th step of all six ladder runs, so the percentiles do
    not fall between the cheap monolithic and the dearer decomposed steps.
    """
    firsts, later = [], []
    for rep in reps:
        per_k = [sum(ks) for ks in zip(*rep.steps)]
        firsts += per_k[:1]
        later += per_k[1:]
    return firsts, later


def peak_pass(confs: list[dict], out_root: Path) -> float:
    """Peak traced allocation in MB over one untimed repetition.

    Garbage left by the timed pass is collected first; otherwise when the
    collector runs inside the pass, and so the peak, depends on it.
    """
    gc.collect()
    tracemalloc.start()
    try:
        with StepClock() as clock:
            one_rep(confs, out_root, clock, [])
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def end_to_end(confs: list[dict], seconds: float, out_root: Path) -> tuple[dict, list[Rep]]:
    """The end-to-end metrics as ``name: (value, unit, samples)``, and the repetitions."""
    reps, setups = timed_pass(confs, seconds, out_root / "timed")
    peak = peak_pass(confs, out_root / "peak")
    firsts, later = step_samples(reps)
    setups += [rep.setup for rep in reps]
    outputs = [t for r in reps for t in r.output]
    metrics = {
        "setup_s": (percentile(setups, 50), "s", len(setups)),
        "first_step_ms": (1e3 * percentile(firsts, 50), "ms", len(firsts)),
        "step_ms_p50": (1e3 * percentile(later, 50), "ms", len(later)),
        "step_ms_p90": (1e3 * percentile(later, 90), "ms", len(later)),
        "steps_per_s": (percentile([r.n_steps / r.run_wall for r in reps], 50), "1/s", len(reps)),
        "output_s": (percentile(outputs, 50), "s", len(outputs)),
        "peak_mb": (peak, "MB", 1),
    }
    return metrics, reps


def percentile(values: list[float], q: float) -> float:
    """NaN when a failing program left no samples; the gates report why."""
    return float(np.percentile(values, q)) if values else math.nan


def gate_values(reps: list[Rep]) -> dict:
    """Worst err_rel (forced runs only) and div_max, and fail_frac, as ``(value, unit, samples)``."""
    runs = sum(r.runs for r in reps)
    errs = [e for r in reps for e in r.err if not math.isnan(e)]
    gates = {"err_rel": (max(errs), "1", len(errs))} if errs else {}
    gates["div_max"] = (max(d for r in reps for d in r.div), "1", runs)
    gates["fail_frac"] = (sum(r.failed for r in reps) / runs, "1", runs)
    return gates
