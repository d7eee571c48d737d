"""One repetition of a workload in this process, for ``harness.fresh_rep``.

Usage: python3 perfbench/rep.py <out_dir> < configurations.json
Prints the repetition as one JSON object.
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import run

if __name__ == "__main__":
    run.pin_blas_threads()
    run._import_program()
    import harness

    confs = json.load(sys.stdin)
    with harness.StepClock() as clock:
        rep = harness.one_rep(confs, Path(sys.argv[1]), clock, [])
    print(json.dumps(asdict(rep)))
