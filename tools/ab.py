"""In-process A/B of step time: the working tree's stokesdd against a git revision's.

    python tools/ab.py --base REV [--workload mono_square|dd_channel] [--blocks K]

``git archive REV src/stokesdd`` is unpacked into a temporary directory and
imported as the package ``sd_base``; the working tree's src/stokesdd is
imported as ``sd_head``.  Both load into this one process, build the
workload's configuration through their own ``cli.build_scheme_config`` and
take step 1.  Each block then times STEPS steps of each build from that
fixed state, so the pressure solve's iteration count cannot drift as the
field decays.  The builds alternate step by step, and the build that goes
first alternates from block to block.  Each block gives the ratio of the
medians, head / base; one JSON line reports the median, q1 and q3 of those
ratios (linear interpolation) and the block count.

Reading it: head is faster only when q3 < 1, and a change costs nothing
when the median lies in 1 +- 0.02.  Compare builds on one host only.  The
two builds share the heap and numpy's FFT plan cache; peak memory is not
measured here, it stays with one process per run.
"""

import argparse
import gc
import importlib
import importlib.util
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
STEPS = 10
# The benchmark's two workloads at amplitude 1, on top of the cli defaults.
WORKLOADS = {
    "mono_square": dict(scheme="monolithic", n1=128, n2=128, tau=0.025, t_final=0.25),
    "dd_channel": dict(scheme="decomposed", l1=4.0, n1=64, n2=64, m=2, overlap=16, tau=0.025, t_final=0.25),
}


def _load(name: str, path: pathlib.Path):
    """The package at ``path`` imported as ``name``, its cli module included."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(name + ".cli")
    return package


def _stepper(package, workload: str):
    """A function that takes step 2 from the state after step 1 and returns its seconds."""
    cli = package.cli
    cfg = cli.build_scheme_config(dict(cli.resolve_config(argparse.Namespace(config=None)), **WORKLOADS[workload]))
    if cfg.scheme == "monolithic":
        step, state = package.step_monolithic, cfg.v.copy()
    else:
        step, state = package.step_decomposed, package.decompose(cfg.partition, cfg.v)
    state = step(state, 0.0, cfg, step=1)[0]

    def timed() -> float:
        start = time.perf_counter()
        step(state, cfg.tau, cfg, step=2)
        return time.perf_counter() - start

    return timed


def main(args: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="dd_channel")
    parser.add_argument("--blocks", type=int, default=20)
    opts = parser.parse_args(args)
    if opts.blocks < 2:
        parser.error("--blocks must be at least 2")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", opts.base, "src/stokesdd"], capture_output=True)
    if archive.returncode:
        parser.error(f"git archive {opts.base} failed: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(tmp, filter="data")
        builds = (_stepper(_load("sd_head", ROOT / "src" / "stokesdd"), opts.workload),
                  _stepper(_load("sd_base", pathlib.Path(tmp) / "src" / "stokesdd"), opts.workload))
        ratios = []
        for block in range(opts.blocks):
            gc.collect()
            times: tuple[list, list] = ([], [])
            for _ in range(STEPS):
                for i in (0, 1) if block % 2 == 0 else (1, 0):
                    times[i].append(builds[i]())
            ratios.append(statistics.median(times[0]) / statistics.median(times[1]))
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(json.dumps({"workload": opts.workload, "base": opts.base, "median": median, "q1": q1, "q3": q3,
                      "blocks": opts.blocks}))


if __name__ == "__main__":
    main()
