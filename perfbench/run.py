"""Run one workload of the sktflow benchmark and print its result.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
This launcher uses the standard library only. It pins BLAS to one thread for
every process it starts, times set-up as the median of several fresh
interpreters that import sktflow and make the seeded inputs, then starts one
measuring process (worker.py) and turns its raw values into the result.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with --trace 0,
its per_layer metrics with --trace 1. The lines before it name each failed
op and each known defect an op showed (workloads.KNOWN_DEFECTS; such an op
is not counted as failed), and print every figure by name and unit, and the
environment. A traced
run also writes its spans under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import BLAS_VARS, ROOT

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 5
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("catalog", "scan", "flow", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sktflow" / "__init__.py").is_file():
        print(f"error: no sktflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            subprocess.run(base + ["--setup-only"], env=env, cwd=ROOT, check=True,
                           timeout=deadline - time.monotonic())
            setup.append(time.perf_counter() - t0)

    proc = subprocess.run(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=deadline - time.monotonic(),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    values = dict(raw["metrics"])
    if setup:
        values["setup_s"] = statistics.median(setup)

    kind = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        print(f"error: the worker did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {raw['passes']}  ops {attempted}  failed {failed}  "
          f"known defect {raw['known_defect_ops']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'error_rate':<40} {failed / attempted:>14.6g} 1")
        print(f"  {'known_defect_rate':<40} {raw['known_defect_ops'] / attempted:>14.6g} 1")
        for name, (value, unit) in raw["extras"].items():
            print(f"  {name:<40} {value:>14.6g} {unit}")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    if "spans_file" in raw:
        print(f"spans {raw['spans_file']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
