"""Command line front end: run, converge, stability, verify.

Configuration is a flat ``key = value`` text file ('#' starts a comment);
every key can also be given as a ``--key value`` flag, which wins over the
file.  Exit codes: 0 success, 1 run or monitor failure, 2 configuration
rejected before the run started.

The file-writing commands (run, converge, stability) return (ok, manifest
extras); main makes their out_dir, times them and writes manifest.json.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS
from .grid import GridSpec, PressureField, VelocityField, make_grid
from .linsolve import SolveConfig
from .operators import spectral_lower_bound
from .schemes import RunResult, SchemeConfig, blend_pressures, run
from .verify import (
    ManufacturedCase,
    StabilityReport,
    check_stability,
    error_norms,
    exact_velocity,
    forcing_of,
    make_rng,
    random_velocity,
    verification_checks,
)


class ConfigError(ValueError):
    """Unknown keys, unparsable values, or infeasible settings."""


# A run is rejected before any field is allocated when it would need more
# than MAX_NODES monolithic nodes do, 0.59 GB at most: a monolithic run
# counts NODE_BYTES per node, a decomposed one base + per_strip * m
# (STRIP_NODE_BYTES).  Measured on three-step 401x401-node runs, tau 0.01,
# overlap 2, manufactured forcing, from the manufactured and from a random
# start: ru_maxrss of the child process, less that of a child that only
# imports stokesdd.cli and, for a random start, draws one number
# (numpy.random loads about 6 MB of modules on first use, the same at every
# grid size).  The largest of three runs in each of two batches, in bytes
# per node: monolithic 132.7; m = 1, 2, 4, 8, 16, 32: 176.6, 185.9, 240.5,
# 398.8, 717.8, 1351.5.  The same run reads up to a fifth apart from one
# batch or machine to the next (m = 1 from a random start 160.6 to 185.7,
# monolithic from a random start 114.2 to 139.2), so each constant lies
# above the highest reading.  From step 2 on a run also holds the previous
# step's pressure, whole when monolithic and on its box rows per strip
# (about one plane for all strips, see schemes.run), so a one-step run
# holds less.
MAX_NODES = 2037 * 2037
NODE_BYTES = 142
STRIP_NODE_BYTES = (148, 38)

# key -> (parser, default); the CLI exposes each key as --key
_KEYS: dict[str, tuple] = {
    "l1": (float, 1.0),
    "l2": (float, 1.0),
    "n1": (int, 16),
    "n2": (int, 16),
    "tau": (float, 0.1),
    "t_final": (float, 1.0),
    "nu": (float, 1.0),
    "scheme": (str, "monolithic"),
    "m": (int, 2),
    "overlap": (int, 2),
    "rel_tol": (float, 1e-10),
    "abs_tol": (float, 1e-14),
    "max_iter": (int, 0),
    "forcing": (str, "manufactured"),
    "initial": (str, "manufactured"),
    "amplitude": (float, 1.0),
    "decay": (float, 1.0),
    "seed": (int, 2024),
    "out_dir": (str, "out"),
    "taus": (str, "0.1,0.05,0.025,0.0125"),
    "grids": (str, "16,32,64"),
    "steps": (int, 200),
}

_CHOICES = {"scheme": ("monolithic", "decomposed"), "forcing": ("none", "manufactured"), "initial": ("zero", "manufactured", "random")}


def _parse_value(key: str, raw: str):
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    kind = _KEYS[key][0]
    try:
        value = kind(raw) if kind is not int else int(str(raw), 10)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {kind.__name__}") from exc
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"{key} must be one of {_CHOICES[key]}, got {value!r}")
    return value


def load_config(path: str | Path) -> dict:
    """Parse a flat key = value file into a dict of typed values."""
    conf: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        conf[key] = _parse_value(key, raw)
    return conf


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the command line flags."""
    conf = {key: default for key, (_, default) in _KEYS.items()}
    if args.config:
        conf.update(load_config(args.config))
    for key in _KEYS:
        given = getattr(args, key, None)
        if given is not None:
            conf[key] = _parse_value(key, given)
    return conf


def _solver_of(conf: dict) -> SolveConfig:
    return SolveConfig(
        rel_tol=conf["rel_tol"],
        abs_tol=conf["abs_tol"],
        max_iter=conf["max_iter"] if conf["max_iter"] != 0 else None,
    )


def _case_of(conf: dict) -> ManufacturedCase:
    return ManufacturedCase(amplitude=conf["amplitude"], decay=conf["decay"], nu=conf["nu"])


def _check_seed(conf: dict) -> None:
    """PCG64 takes non-negative seeds only."""
    if conf["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {conf['seed']}")


def _node_limit(conf: dict) -> tuple[int, str]:
    """The most nodes a run may have, and the kind of run: MAX_NODES for a
    monolithic one, as many as fit the same bytes for a decomposed one (an m
    below 1 counts as 1 here; SchemeConfig refuses it)."""
    if conf["scheme"] == "monolithic":
        return MAX_NODES, "monolithic run"
    base, per_strip = STRIP_NODE_BYTES
    return MAX_NODES * NODE_BYTES // (base + per_strip * max(conf["m"], 1)), f"decomposed run with m = {conf['m']}"


def build_scheme_config(conf: dict) -> SchemeConfig:
    """The configured run.  Every setting that make_grid, ManufacturedCase,
    forcing_of or SchemeConfig refuses with ValueError raises ConfigError
    before the run starts.  The node limit, the seed and every refusal but
    SchemeConfig's come before the initial field is allocated."""
    try:
        grid = make_grid(conf["l1"], conf["l2"], conf["n1"], conf["n2"])
        nodes = (grid.n1 + 1) * (grid.n2 + 1)
        limit, run_kind = _node_limit(conf)
        if nodes > limit:
            raise ConfigError(f"grid has {nodes} nodes, more than the limit {limit} of a {run_kind}")
        case = _case_of(conf)
        forcing = forcing_of(case, grid) if conf["forcing"] == "manufactured" else None
        _check_seed(conf)
        if conf["initial"] == "zero":
            v = VelocityField.zeros(grid)
        elif conf["initial"] == "manufactured":
            v = exact_velocity(case, grid, 0.0)
        else:
            v = random_velocity(grid, make_rng(conf["seed"]))
        return SchemeConfig(
            v=v,
            tau=conf["tau"],
            t_final=conf["t_final"],
            nu=conf["nu"],
            scheme=conf["scheme"],
            m=conf["m"],
            overlap=conf["overlap"],
            solver=_solver_of(conf),
            forcing=forcing,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- output writers; floats go through repr for stable shortest round-trips

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@contextmanager
def _csv_file(path: Path, header: list[str]):
    """Write the header line to path, then yield write(rows), which writes rows
    of field strings as one string, comma separated and CRLF ended: the csv
    module's bytes for fields that never need quoting."""
    with open(path, "w", newline="") as handle:
        def write(rows) -> None:
            handle.write("".join(",".join(row) + "\r\n" for row in rows))
        write([header])
        yield write


def write_steps_csv(path: Path, reports) -> None:
    header = ["step", "t", "norm_state", "norm_quarter", "norm_half", "norm_end", "div_residual", "cg_iters_total", "bound_margin"]
    with _csv_file(path, header) as write:
        write([_fmt(getattr(rep, key)) for key in header] for rep in reports)


def _write_nodes(path: Path, header: list[str], grid: GridSpec, columns: list[np.ndarray], first: int) -> None:
    """One row (i1, i2, x1, x2, *values) per node with i1, i2 >= first, i1
    outer.  Each i1 line is one write: the i2 and x2 text is made once per
    file, the i1 and x1 text once per line, and per node only the values, as
    python floats through repr.  No full-grid list is ever built."""
    i2s = range(first, grid.n2 + 1)
    i2_text, x2_text = [str(i2) for i2 in i2s], [_fmt(i2 * grid.h2) for i2 in i2s]
    with _csv_file(path, header) as write:
        for i1 in range(first, grid.n1 + 1):
            values = (map(repr, c[i1, first:].tolist()) for c in columns)
            write(zip([str(i1)] * len(i2s), i2_text, [_fmt(i1 * grid.h1)] * len(i2s), x2_text, *values))


def write_velocity_csv(path: Path, u: VelocityField) -> None:
    _write_nodes(path, ["i1", "i2", "x1", "x2", "u1", "u2"], u.grid, [u.u1, u.u2], 0)


def write_pressure_csv(path: Path, p: PressureField) -> None:
    _write_nodes(path, ["i1", "i2", "x1", "x2", "p"], p.grid, [p.p], 1)


def _environment() -> dict:
    """What a run's timings depend on: python, numpy, core count, BLAS thread settings (None when unset;
    importing stokesdd sets each unset one to 1)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _numerics() -> dict:
    """What a run's bytes depend on beyond ``environment``: numpy's BLAS, the
    OpenBLAS core it runs (the wheel's own library), and numpy's enabled SIMD
    dispatch targets; None for what cannot be found."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    core = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            get_core = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get_core.argtypes, get_core.restype = [], ctypes.c_char_p
        core = get_core().decode()
    return {
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": core,
        "cpu_dispatch": config.get("SIMD Extensions", {}).get("found"),
    }


def _write_manifest(out_dir: Path, command: str, conf: dict, extra: dict, started: float) -> None:
    manifest = {
        "command": command,
        "config": {k: conf[k] for k in sorted(conf)},
        "duration_seconds": time.perf_counter() - started,
        "environment": _environment(),
        "numerics": _numerics(),
        **extra,
    }
    with open(out_dir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _stability_of(result: RunResult) -> StabilityReport:
    """The run's energy estimate; scheme names are the monitor's modes."""
    cfg = result.config
    return check_stability(result.reports, cfg.tau, cfg.scheme, nu_delta_h=cfg.nu * spectral_lower_bound(cfg.grid))


def _monitors_of(result: RunResult) -> dict:
    stab = _stability_of(result)
    return {
        "completed": result.completed,
        "stability_passed": stab.passed,
        "worst_margin": stab.worst_margin,
        "message": result.message or stab.message,
    }


def _out_dir(conf: dict) -> Path:
    """The output directory, made if missing; one that cannot be made is a configuration error."""
    try:
        Path(conf["out_dir"]).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use out_dir {conf['out_dir']!r}: {exc}") from exc
    return Path(conf["out_dir"])


def cmd_run(conf: dict, out_dir: Path) -> tuple[bool, dict]:
    cfg = build_scheme_config(conf)
    result = run(cfg)

    write_steps_csv(out_dir / "steps.csv", result.reports)
    outputs = {"steps": "steps.csv", "velocity": "velocity.csv"}
    write_velocity_csv(out_dir / "velocity.csv", result.velocity)
    if cfg.scheme == "monolithic" and result.pressure is not None:
        write_pressure_csv(out_dir / "pressure.csv", result.pressure)
        outputs["pressure"] = "pressure.csv"
    elif result.pressures is not None:
        write_pressure_csv(out_dir / "pressure_composite.csv", blend_pressures(cfg.partition, result.pressures))
        outputs["pressure_composite"] = "pressure_composite.csv"

    monitors = _monitors_of(result)
    extra = {
        "grid": {"l1": cfg.grid.l1, "l2": cfg.grid.l2, "n1": cfg.grid.n1, "n2": cfg.grid.n2},
        "tau_effective": cfg.tau,
        "n_steps": cfg.n_steps,
        "steps_completed": len(result.reports),
        "outputs": outputs,
        "monitors": monitors,
    }
    ok = monitors["completed"] and monitors["stability_passed"]
    print(f"run: {len(result.reports)} of {cfg.n_steps} steps, monitors {'pass' if ok else 'FAIL'}")
    return ok, extra


def _list(raw: str, kind: type, what: str) -> list:
    try:
        values = [kind(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} list {raw!r}") from exc
    if not values:
        raise ConfigError(f"{what} list is empty")
    return values


def _refinement(study: str, scheme: str, ns: list[int], taus: list[float], errors: list[float]) -> list[list]:
    """Table rows of one refinement series: each error with its ratio to the
    previous error and the observed order log2(ratio).  A zero error gives
    a ratio of inf or nan (0/0), and so an order of +-inf or nan."""
    rows = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (n, tau, err) in enumerate(zip(ns, taus, errors)):
            ratio = np.float64(errors[k - 1]) / err if k else float("nan")
            order = np.log2(ratio) if k else float("nan")
            rows.append([study, scheme, n, tau, err, ratio, order])
    return rows


def cmd_converge(conf: dict, out_dir: Path) -> tuple[bool, dict]:
    """Temporal and spatial refinement studies against the exact solution.

    The temporal study fixes the configured grid and halves tau; the gap
    series is the distance between the two schemes at equal tau.  The
    spatial study walks the grid list at the smallest tau.
    """
    taus = _list(conf["taus"], float, "taus")
    grids = _list(conf["grids"], int, "grids")
    tau_min = min(taus)

    def config(scheme: str, tau: float, n1: int, n2: int) -> SchemeConfig:
        return build_scheme_config(
            dict(conf, scheme=scheme, tau=tau, n1=n1, n2=n2, initial="manufactured", forcing="manufactured")
        )

    # every configuration is built, and so validated, before the first run
    temporal = {s: [config(s, tau, conf["n1"], conf["n2"]) for tau in taus] for s in ("monolithic", "decomposed")}
    spatial = [config(conf["scheme"], tau_min, n, n) for n in grids]
    case = _case_of(conf)
    ok = True

    def final_velocity(cfg: SchemeConfig) -> VelocityField:
        nonlocal ok
        result = run(cfg)
        ok = ok and result.completed
        return result.velocity

    exact_final = exact_velocity(case, temporal["monolithic"][0].grid, conf["t_final"])
    finals = {scheme: [final_velocity(cfg) for cfg in cfgs] for scheme, cfgs in temporal.items()}
    n1s = [conf["n1"]] * len(taus)
    rows: list[list] = []
    for scheme in temporal:
        rows += _refinement("tau", scheme, n1s, taus, [error_norms(u, exact_final) for u in finals[scheme]])
    gaps = [error_norms(a, b) for a, b in zip(finals["decomposed"], finals["monolithic"])]
    rows += _refinement("gap", "decomposed", n1s, taus, gaps)
    errors = [error_norms(final_velocity(cfg), exact_velocity(case, cfg.grid, conf["t_final"])) for cfg in spatial]
    rows += _refinement("grid", conf["scheme"], grids, [tau_min] * len(grids), errors)

    with _csv_file(out_dir / "converge.csv", ["study", "scheme", "n", "tau", "error", "ratio", "order"]) as write:
        write([*row[:2], *map(_fmt, row[2:])] for row in rows)
    for row in rows:
        print(f"{row[0]:>5} {row[1]:>11} n={row[2]:>3} tau={row[3]:<8g} error={row[4]:.4e} order={row[6]:.2f}")
    return ok, {"rows": len(rows), "completed": ok, "outputs": {"table": "converge.csv"}}


def cmd_stability(conf: dict, out_dir: Path) -> tuple[bool, dict]:
    """Long unforced runs from random data across a ladder of time steps."""
    taus = _list(conf["taus"], float, "taus")
    if conf["steps"] < 1:
        raise ConfigError(f"steps must be at least 1, got {conf['steps']}")
    cfgs = [
        build_scheme_config(dict(conf, initial="random", forcing="none", tau=tau, t_final=tau * conf["steps"]))
        for tau in taus
    ]
    all_ok, message = True, ""
    with _csv_file(out_dir / "stability.csv", ["tau", "m", "step", "norm_state", "norm_end", "margin"]) as write:
        for tau, cfg in zip(taus, cfgs):
            result = run(cfg)
            stab = _stability_of(result)
            ok = result.completed and stab.passed
            reason = "" if ok else result.message or stab.message
            all_ok, message = all_ok and ok, message or reason
            rows = ((tau, cfg.m, rep.step, rep.norm_state, rep.norm_end, margin) for rep, margin in zip(result.reports, stab.margins))
            write(map(_fmt, row) for row in rows)
            print(f"tau={tau:<8g} steps={len(result.reports)} worst margin={stab.worst_margin:.3e} {'pass' if ok else 'FAIL: ' + reason}")
    return all_ok, {"completed": all_ok, "message": message, "outputs": {"table": "stability.csv"}}


def cmd_verify(conf: dict) -> int:
    _check_seed(conf)
    results = verification_checks(seed=conf["seed"])
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return 0 if all(res.passed for res in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="stokesdd", description="Unsteady Stokes solver on overlapping strips")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "advance one configuration and write per-step diagnostics"),
        ("converge", "tau and grid refinement error tables"),
        ("stability", "long unforced runs across a tau ladder"),
        ("verify", "small-grid correctness suite"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value file")
        for key in _KEYS:
            p.add_argument(f"--{key}", dest=key, metavar="V")

    try:
        args = parser.parse_args(argv)
        conf = resolve_config(args)
        with np.errstate(all="ignore"):  # a non-finite value stops a run through its finiteness checks
            if args.command == "verify":
                return cmd_verify(conf)
            out_dir = _out_dir(conf)
            started = time.perf_counter()
            ok, extra = {"run": cmd_run, "converge": cmd_converge, "stability": cmd_stability}[args.command](conf, out_dir)
            _write_manifest(out_dir, args.command, conf, extra, started)
            return 0 if ok else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
