"""Measuring process of the sktflow benchmark; run.py starts it.

One process, no threads: it makes the seeded inputs, then runs passes of
one workload for --seconds. The first pass always completes; a later one is
cut short before an op that would end after --seconds. With --setup-only it
stops after the inputs are made, which is what run.py times as set-up. With
--trace 1 it runs a warm-up pass, then untraced and traced passes in turn,
and reports per-layer figures per traced pass. Its last stdout line is a JSON object of
raw values that run.py turns into the benchmark result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import sktflow
import workloads
from common import BLAS_VARS, OUT, ROOT
from tracing import NullTracer, Tracer

SOURCE = Path(sktflow.__file__).resolve().parent
IMPORT_PROBES = 3
MAX_FAILURE_LINES = 20

LAYERS = ("roots", "structure", "forms", "hermitian", "curvature", "flow", "cli")
SPAN_MS = (
    "roots.build_root_system",
    "roots.killing_normalization_constant",
    "structure.structure_constants",
    "structure.verify_identities.full",
    "structure.verify_identities.sampled",
    "forms.basis_build",
    "forms.exterior_derivative",
    "hermitian.closed_form_scan",
    "hermitian.brute_force_scan",
    "hermitian.dc_form",
    "hermitian.pluriclosed_family",
    "hermitian.kahler_flag_residual",
    "hermitian.serialize",
    "curvature.is_cyt",
    "curvature.critical_point",
    "flow.integrate.rk4_fixed",
    "flow.integrate.rkf45",
    "flow.gradient_flow_check",
) + tuple(f"cli.{c[0]}" for c in workloads.CLI_COMMANDS)
COUNTS = (
    "structure.table_entries",
    "structure.checks",
    "structure.cocycle_checks",
    "forms.brackets",
    "forms.ddc_components",
    "flow.accepted_steps",
    "flow.guard_rejections.rk4_fixed",
    "flow.guard_rejections.rkf45",
)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures of one traced pass; layers a workload skips read 0."""

    def total(name):
        return tr.totals.get(name, (0, 0.0, 0.0))

    out = {f"{name}.ms": 1e3 * total(name)[1] for name in SPAN_MS}
    out.update({name: tr.counts[name] for name in COUNTS})
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * sum(
            t[2] for name, t in tr.totals.items() if name.split(".")[0] == layer
        )
    out["curvature.grad_F.calls"] = total("curvature.grad_F")[0]
    out["flow.rhs.calls"] = total("flow.rhs")[0]
    out["flow.rhs.self_ms"] = 1e3 * total("flow.rhs")[2]
    verify_s = total("structure.verify_identities.full")[1] + total(
        "structure.verify_identities.sampled"
    )[1]
    out["structure.checks_per_s"] = tr.counts["structure.checks"] / verify_s if verify_s else 0.0
    integrate_s = total("flow.integrate.rk4_fixed")[1] + total("flow.integrate.rkf45")[1]
    steps = tr.counts["flow.accepted_steps"]
    out["flow.us_per_step"] = 1e6 * integrate_s / steps if steps else 0.0
    return out


def import_ms() -> float:
    """Median wall time of a fresh interpreter doing `import sktflow`."""
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sktflow"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def environment(cpus) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_cpu": cpus[-1],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def measure(workload, inputs, seconds, trace):
    """Run the passes of one run.

    Returns the recorder, and for a traced run the per-layer figures (median
    over traced passes) and the tracer holding every span.
    """
    run_pass = workloads.PASSES[workload]
    rec = workloads.Recorder(NullTracer(), workloads.REFERENCES[workload])
    start = time.perf_counter()
    if not trace:
        rec.deadline = start + seconds
        while rec.run_pass(run_pass, inputs) is not None and time.perf_counter() < rec.deadline:
            pass
        return rec, None, None

    # A warm-up pass, then untraced and traced passes in turn, so that both
    # sides of the overhead see the same phases of the machine.
    rec.run_pass(run_pass, inputs)
    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    while not traced or (time.perf_counter() - start + statistics.median(untraced)
                         + statistics.median(traced) <= seconds):
        rec.tracer = NullTracer()
        untraced.append(rec.run_pass(run_pass, inputs))
        rec.tracer = tracer
        tracer.reset_totals()
        with tracer.wrapped():
            traced.append(rec.run_pass(run_pass, inputs))
        per_pass.append(layer_metrics(tracer))
    layer = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    layer["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(untraced))
    layer["cli.import_ms"] = import_ms()
    return rec, layer, tracer


def end_to_end(workload, rec):
    """Gated metrics and printed figures, from each segment's median.

    The speed of this kind of machine drifts by a quarter or more for
    seconds to minutes at a time, with load outside the process. Dividing
    each segment by the reference kernel timed next to it cancels most of
    that drift, so the gated times are in reference times ("ref"); the same
    figures in seconds are printed beside them.
    """
    seconds, refs = rec.medians()
    # segments alternate gap, op, ..., gap, op, tail
    op_seconds, op_refs = seconds[1::2], refs[1::2]
    kinds = [op.kind for op in rec.ops[: len(op_seconds)]]
    # The ops of a pass are different inputs, often of two kinds (rk4 and
    # rkf45, closed form and brute force) with a gap between; their median
    # falls in that gap and jumps between seeds. The geometric mean weighs
    # every op alike and moves smoothly, so it is the gated per-op figure.
    metrics = {
        "pass_ref": sum(refs),
        "op_geomean_ref": statistics.geometric_mean(op_refs),
        "peak_rss_mb": peak_rss_mb(),
    }
    figures = {
        "pass_s": (sum(seconds), "s"),
        "ops_per_s": (len(op_seconds) / sum(seconds), "1/s"),
        "op_geomean_ms": (1e3 * statistics.geometric_mean(op_seconds), "ms"),
        "op_p50_ms": (1e3 * statistics.median(op_seconds), "ms"),
        "op_p50_ref": (statistics.median(op_refs), "ref"),
        "reference_ms": (1e3 * statistics.median(rec.ref_times), "ms"),
    }
    figures.update(workloads.extras(workload, kinds, op_seconds, op_refs))
    return metrics, figures


def write_spans(path: Path, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not SOURCE.is_relative_to(ROOT / "src"):
        print(f"error: sktflow imported from {SOURCE}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and the CLI processes it starts, so that the
    # reference kernel and the ops set against it run on the same core.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        rec, layer, tracer = measure(args.workload, inputs, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in rec.ops if op.problems]
    for op in failed[:MAX_FAILURE_LINES]:
        print(f"failed op {op.name}: {'; '.join(op.problems)}")
    if len(failed) > MAX_FAILURE_LINES:
        print(f"... and {len(failed) - MAX_FAILURE_LINES} more failed ops")
    known = [op for op in rec.ops if op.known]
    for defect, text in workloads.KNOWN_DEFECTS.items():
        shown = {op.name: "; ".join(op.known[defect]) for op in known if defect in op.known}
        if shown:
            print(f"known defect {defect} ({text}) shown by {len(shown)} distinct ops: "
                  + ", ".join(f"{name} ({msg})" for name, msg in sorted(shown.items())))
    result = {
        "attempted": len(rec.ops),
        "failed": len(failed),
        "known_defect_ops": len(known),
        "passes": len(rec.passes),
        "env": environment(cpus),
    }
    if layer is None:
        result["metrics"], result["extras"] = end_to_end(args.workload, rec)
    else:
        result["metrics"] = layer
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans, tracer)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
