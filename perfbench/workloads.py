"""Seeded inputs, passes and per-op oracles of the four sktflow workloads.

Every workload is a list of inputs made once from the seed (`make_inputs`)
and a pass (`PASSES[name]`) that runs all of them through the public API or
the CLI. A pass builds what it uses from scratch, so one pass is one complete
unit of user work. Each op is timed by the recorder; the oracle checks after
it are not part of its latency.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import sktflow as sk

# Written here from the classification tables, not taken from the library.
POSITIVE_ROOTS = {"A8": 36, "D5": 20, "F4": 24, "E6": 36, "E7": 63}
DUAL_COXETER = {"A8": 9, "D5": 8, "F4": 9, "E6": 12, "E7": 18}

# A8, D5 and F4 run both ways so the sampled-versus-full cost stays visible.
# E8 is left out: its sampled check (about 9 s) would be most of a pass, so a
# run could time it only twice. E7 runs the same code paths in about 2 s.
CATALOG = (
    ("A8", "full"), ("A8", "sampled"),
    ("D5", "full"), ("D5", "sampled"),
    ("F4", "full"), ("F4", "sampled"),
    ("E6", "sampled"), ("E7", "sampled"),
)
COCYCLE_LIMIT = 20000

# (factor types, metrics per pass). Metrics alternate on and off the affine
# family, starting on it, so the seed sets their values but not how many lie
# on each side. 50 metrics give 100 scan ops per pass. E8 is left out: its
# scans and builds (about 5 s) would be more than half of a pass, so a run
# could time them only twice. E7 runs the same code paths.
SCAN_GROUPS = (
    (("F4",), 8), (("E6",), 4), (("E7",), 2),
    (("B3", "G2"), 18), (("A3", "C3"), 18),
)
SCAN_AGREEMENT = 1e-10

# Criterion 5 settings of the acceptance suite.
FLOW_GROUPS = (("A2",), ("B2",), ("G2",), ("A3",), ("C3",), ("F4",), ("A2", "G2"))
FLOW_STARTS = 8
# The last FLOW_NEAR_BOUND starts of each group lie FLOW_NEAR_GAP above
# family_bound, where the positivity guards of both integrators reject steps.
# There the fixed rk4 step can overshoot and raise F (known defect
# "rk4_f_rise"). These starts come from the fixed FLOW_NEAR_SEED, not from the
# run's seed: the overshoot makes some starts take up to 40 times the usual
# steps, and a seeded slice would add that to some seeds only. At the time of
# writing rk4_fixed raises F on 2 of the 14 starts of this slice.
FLOW_NEAR_BOUND = 2
FLOW_NEAR_GAP = (1e-4, 1e-3)
FLOW_NEAR_SEED = 0
FLOW_T_END = 400.0
FLOW_TOL = 1e-7
FLOW_MONOTONE_SLACK = 1e-10  # same slack as the acceptance suite
GRADIENT_CHECK_TOL = 1e-7  # same bound as the flow tests

# Defects of the program at the time of writing, found by the oracles below.
# An op that shows one is reported by its id and counted apart from failed
# ops; it fails like any other op if its oracle finds anything else.
KNOWN_DEFECTS = {
    "nan_start": "a NaN start is integrated and `flow` exits 0 (ROADMAP item 5)",
    "rk4_f_rise": "near family_bound the fixed rk4 step can overshoot and raise F",
}


def stype(token: str) -> sk.SimpleType:
    return sk.SimpleType(token[0], int(token[1:]))


@dataclass
class Op:
    """One timed operation and what its oracle found wrong with it."""

    name: str
    kind: str
    seconds: float = 0.0
    problems: list = field(default_factory=list)
    known: dict = field(default_factory=dict)  # known defect id -> messages

    def expect(self, ok, message: str, known: str | None = None) -> None:
        """Record a problem when not ok; `known` names the defect it shows."""
        if ok:
            return
        if known is None:
            self.problems.append(message)
        else:
            self.known.setdefault(known, []).append(message)


# The reference kernels: fixed work that calls no sktflow code. Recorder times
# the workload's kernel between ops, at most every REF_EVERY_S, and divides
# each segment by the median of its last REF_WINDOW times.
REF_LOOP = 20000
REF_FRACTIONS = 300
REF_ARRAYS = 300
REF_EVERY_S = 0.1
REF_WINDOW = 5


def reference_kernel() -> None:
    """A mix of the interpreter loops, Fraction arithmetic and small numpy
    operations that the in-process workloads are made of; about 3 ms on a
    2-vCPU Xeon at 2.1 GHz."""
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    x = Fraction(0)
    for i in range(1, REF_FRACTIONS):
        x += Fraction(1, i)
    v = np.ones(8)
    for _ in range(REF_ARRAYS):
        v = v * 1.0001 + np.sqrt(v)


def process_reference() -> None:
    """A fresh interpreter that imports numpy, about 0.15 s on the same VM.

    A CLI op is a fresh process too, mostly spent in start-up and imports,
    whose cost follows the file and memory load of the machine more than
    its compute speed, so the in-process kernel does not track it.
    """
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


class PassCut(Exception):
    """Raised by Recorder.run when the next op would end after the deadline."""


class Recorder:
    """Times ops, and the work of a pass between them, pass by pass.

    A pass is recorded as segments: the gap before each op (pass work outside
    op latency), the op, and the tail after the last op. Every pass runs the
    same ops in the same order, so segment k is the same work in every pass.
    A segment is kept as (seconds, reference seconds): the second is the
    median of the last REF_WINDOW times of `reference`, which is timed
    outside the segments. The op index in `ops` is the trace's op id.
    Passes get the tracer as `rec.tracer`.
    """

    def __init__(self, tracer, reference):
        self.tracer = tracer
        self.reference = reference
        self.ops: list[Op] = []
        self.passes: list[list[tuple]] = []
        # perf_counter time; when set, passes after the first are cut short
        # before an op that would end after it
        self.deadline = None
        self.ref_times: list[float] = []
        self._ref_spent = 0.0  # reference time inside the current gap
        for _ in range(REF_WINDOW):
            self._time_reference()

    def _time_reference(self) -> None:
        t0 = time.perf_counter()
        self.reference()
        self._ref_at = time.perf_counter()
        self.ref_times.append(self._ref_at - t0)
        self._ref_spent += self._ref_at - t0

    def _reference(self) -> float:
        """The current reference time, timing the kernel again if the last is old."""
        if time.perf_counter() - self._ref_at >= REF_EVERY_S:
            self._time_reference()
        return statistics.median(self.ref_times[-REF_WINDOW:])

    def _close_gap(self, now: float, ref: float) -> None:
        self._segments.append((now - self._mark - self._ref_spent, ref))
        self._ref_spent = 0.0

    def run_pass(self, run_pass, inputs):
        """Run one pass; return its wall time, or None when it was cut short."""
        self._segments = []
        self.passes.append(self._segments)
        start = self._mark = time.perf_counter()
        self._ref_spent = 0.0
        try:
            run_pass(inputs, self)
        except PassCut:
            return None
        end = time.perf_counter()
        self._close_gap(end, self._reference())
        return end - start

    def run(self, name: str, kind: str, fn):
        """Time fn(); return the op and fn's result, None when it raised."""
        if self.deadline is not None and len(self.passes) > 1:
            expected = self.passes[0][len(self._segments) + 1][0]
            if time.perf_counter() + expected > self.deadline:
                raise PassCut
        ref = self._reference()
        op = Op(name, kind)
        self.tracer.op_id = len(self.ops)
        result = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing op is counted and named, not fatal
            op.problems.append(f"raised {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        op.seconds = end - t0
        self._close_gap(t0, ref)
        self._segments.append((op.seconds, ref))
        self._mark = end
        self.ops.append(op)
        return op, result

    def medians(self) -> tuple[list[float], list[float]]:
        """Each segment's median over the passes that reached it, in seconds
        and in reference times."""
        seconds, refs = [], []
        for k in range(len(self.passes[0])):
            samples = [p[k] for p in self.passes if len(p) > k]
            seconds.append(statistics.median(t for t, _ in samples))
            refs.append(statistics.median(t / r for t, r in samples))
        return seconds, refs


# -- inputs -------------------------------------------------------------------


def _spd(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    g = a @ a.T / n + 0.5 * np.eye(n)
    return (g + g.T) / 2.0


def _family_simple(rng, rs) -> list:
    return rng.uniform(sk.family_bound(rs) + 0.02, 2.0, rs.rank).tolist()


def catalog_inputs(rng, workdir):
    return [(tok, mode, int(rng.integers(2**31))) for tok, mode in CATALOG]


def scan_inputs(rng, workdir):
    groups = []
    for tokens, count in SCAN_GROUPS:
        systems = [sk.build_root_system(stype(t)) for t in tokens]
        total_rank = sum(rs.rank for rs in systems)
        metrics = []
        for i in range(count):
            if i % 2 == 0:
                metrics.append({"on_family": True,
                                "simple": [_family_simple(rng, rs) for rs in systems]})
            else:
                metrics.append({"on_family": False,
                                "fiber": [rng.uniform(0.5, 2.5, rs.npositive).tolist()
                                          for rs in systems],
                                "torus": _spd(rng, total_rank)})
        groups.append((tokens, metrics))
    return {"groups": groups, "workdir": workdir}


def flow_inputs(rng, workdir):
    near_rng = np.random.default_rng(FLOW_NEAR_SEED)
    groups = []
    for tokens in FLOW_GROUPS:
        systems = [sk.build_root_system(stype(t)) for t in tokens]
        starts = []
        for _ in range(FLOW_STARTS - FLOW_NEAR_BOUND):
            starts.append(np.concatenate([rng.uniform(0.9, 2.0, rs.rank) for rs in systems]))
        for _ in range(FLOW_NEAR_BOUND):
            starts.append(np.concatenate(
                [sk.family_bound(rs) + near_rng.uniform(*FLOW_NEAR_GAP, rs.rank) for rs in systems]
            ))
        groups.append((tokens, starts))
    return groups


_IDENTITIES = r"^identities PASS "
# (name, argv template, expected exit code, lines the output must contain,
# known defect id or None); {on}, {off} and {x0} are filled from the seeded
# inputs.
CLI_COMMANDS = (
    ("roots_A1", "roots A 1", 0, (r"^1 positive roots", _IDENTITIES), None),
    ("roots_F4", "roots F 4", 0, (r"^24 positive roots", _IDENTITIES), None),
    ("roots_E6", "roots E 6", 0, (r"^36 positive roots", _IDENTITIES), None),
    ("check_closed_form", "check {on}", 0, (r"^pluriclosed: true\s+\(mode closed_form",), None),
    ("check_brute_force", "check {on} --mode brute_force", 0,
     (r"^pluriclosed: true\s+\(mode brute_force",), None),
    ("check_off_family", "check {off}", 1, (r"^pluriclosed: false\s+\(mode closed_form",), None),
    ("flow_A2", "flow A 2 --x0 {x0}", 0, (r"^termination: converged$",), None),
    ("verify", "verify --types A2,B2,G2", 0,
     (r"^A2: PASS ", r"^B2: PASS ", r"^G2: PASS "), None),
    ("roots_bad_family", "roots H 2", 2, (r"^error: ",), None),
    ("flow_nan_start", "flow A 2 --x0 nan,1.5", 2, (r"^error: ",), "nan_start"),
)


def cli_inputs(rng, workdir):
    e6 = sk.GroupSpec([sk.FactorSpec(stype("E6"), z=float(rng.uniform(0.5, 2.0)))])
    rs = e6.systems[0]
    fill = {
        "on": os.path.join(workdir, "e6_on_family.json"),
        "off": os.path.join(workdir, "e6_off_family.json"),
        "x0": ",".join(repr(float(v)) for v in rng.uniform(0.9, 2.0, 2)),
    }
    sk.save_structure(sk.pluriclosed_family(e6, _family_simple(rng, rs)), fill["on"])
    sk.save_structure(
        e6.build(rng.uniform(0.5, 2.5, rs.npositive), torus=_spd(rng, rs.rank)), fill["off"]
    )
    commands = [(name, [arg.format(**fill) for arg in argv.split()], code, patterns, known)
                for name, argv, code, patterns, known in CLI_COMMANDS]
    return {"commands": commands, "workdir": workdir}


INPUTS = {"catalog": catalog_inputs, "scan": scan_inputs, "flow": flow_inputs, "cli": cli_inputs}


def make_inputs(workload: str, seed: int, workdir: str):
    return INPUTS[workload](np.random.default_rng(seed), workdir)


# -- passes -------------------------------------------------------------------


def catalog_pass(inputs, rec):
    tr = rec.tracer
    for token, mode, sample_seed in inputs:
        limit = None if mode == "full" else COCYCLE_LIMIT

        def build_and_verify():
            with tr.span("roots.build_root_system"):
                rs = sk.build_root_system(stype(token))
            with tr.span("structure.structure_constants"):
                sc = sk.structure_constants(rs)
            with tr.span(f"structure.verify_identities.{mode}"):
                rep = sk.verify_identities(rs, sc, cocycle_limit=limit, seed=sample_seed)
            with tr.span("roots.killing_normalization_constant"):
                const = sk.killing_normalization_constant(rs)
            return rs, sc, rep, const

        op, result = rec.run(f"{token}.{mode}", token, build_and_verify)
        if result is None:
            continue
        rs, sc, rep, const = result
        tr.count("structure.table_entries", len(sc.table))
        tr.count("structure.checks", sum(rep.counts.values()))
        tr.count("structure.cocycle_checks", rep.counts["four_term_cocycle"])
        op.expect(rep.passed, f"identity failures {rep.failures[:3]}")
        op.expect(rs.npositive == POSITIVE_ROOTS[token],
                  f"{rs.npositive} positive roots, expected {POSITIVE_ROOTS[token]}")
        want = Fraction(1, 2 * DUAL_COXETER[token])
        op.expect(const == want, f"killing constant {const}, expected {want}")


def _roundtrip(h, path: str, coupled: bool) -> list:
    """Problems with a save/load round trip; a coupled torus must be refused."""
    try:
        sk.save_structure(h, path)
    except ValueError as exc:
        return [] if coupled else [f"save refused: {exc}"]
    if coupled:
        return ["a torus metric coupling the factors was serialized"]
    back = sk.load_structure(path)
    problems = []
    if back.fiber.values != h.fiber.values:
        problems.append("fiber values changed in the round trip")
    if not np.array_equal(back.gt, h.gt):
        problems.append("torus metric changed in the round trip")
    return problems


def scan_pass(inputs, rec):
    tr = rec.tracer
    path = os.path.join(inputs["workdir"], "scan_roundtrip.json")
    for tokens, metrics in inputs["groups"]:
        label = "x".join(tokens)
        with tr.span("hermitian.group_spec"):
            group = sk.GroupSpec([sk.FactorSpec(stype(t)) for t in tokens])
        # first-access builds, kept out of op latency
        with tr.span("structure.structure_constants"):
            group.constants
        with tr.span("forms.basis_build"):
            basis = group.basis
        tr.count("forms.brackets", len(basis.nonzero_brackets()))

        for i, m in enumerate(metrics):
            if m["on_family"]:
                with tr.span("hermitian.pluriclosed_family"):
                    h = sk.pluriclosed_family(group, m["simple"])
            else:
                with tr.span("hermitian.build"):
                    h = group.build(m["fiber"], torus=m["torus"])
            name = f"{label}#{i}.{'on' if m['on_family'] else 'off'}"
            reports = {}
            for mode in ("closed_form", "brute_force"):
                def scan(mode=mode):
                    with tr.span(f"hermitian.{mode}_scan"):
                        return sk.is_pluriclosed(h, mode=mode)
                op, rep = rec.run(f"{name}.{mode}", mode, scan)
                if rep is not None:
                    reports[mode] = rep
                    op.expect(rep.verdict == m["on_family"],
                              f"verdict {rep.verdict}, expected {m['on_family']}"
                              f" (max residual {rep.max_residual:.3g})")
            if len(reports) == 2:
                cf, bf = reports["closed_form"], reports["brute_force"]
                for key in ("max_residual", "skt1_max", "skt2_max"):
                    gap = abs(getattr(cf, key) - getattr(bf, key))
                    op.expect(gap <= SCAN_AGREEMENT, f"{key} differs by {gap:.3g} between modes")
            with tr.span("hermitian.kahler_flag_residual"):
                flag = sk.kahler_flag_residual(h)
            if m["on_family"]:
                # x(a+b) - x(a) - x(b) = -1 on the family
                op.expect(abs(flag - 1.0) <= 1e-12, f"kahler flag residual {flag!r}, expected 1")
            with tr.span("curvature.is_cyt"):
                cyt = sk.is_cyt(h)
            op.expect(np.all(np.isfinite(cyt.vector)), "non-finite Bismut vector")
            coupled = not m["on_family"] and len(tokens) > 1
            with tr.span("hermitian.serialize"):
                problems = _roundtrip(h, path, coupled)
            op.problems.extend(problems)


def flow_pass(inputs, rec):
    tr = rec.tracer
    for tokens, starts in inputs:
        label = "x".join(tokens)
        with tr.span("roots.build_root_system"):
            systems = [sk.build_root_system(stype(t)) for t in tokens]
        for j, x0 in enumerate(starts):
            for integ in ("rk4_fixed", "rkf45"):
                cfg = sk.FlowConfig(integrator=integ, t_end=FLOW_T_END, tol=FLOW_TOL)

                def run(cfg=cfg):
                    with tr.span(f"flow.integrate.{cfg.integrator}"):
                        return sk.integrate(systems, x0, cfg)

                op, traj = rec.run(f"{label}#{j}.{integ}", integ, run)
                if traj is None:
                    continue
                tr.count("flow.accepted_steps", len(traj.times) - 1)
                op.expect(traj.termination == "converged", f"termination {traj.termination}")
                dev = float(np.abs(traj.states[-1] - 1.0).max())
                op.expect(dev < 1e-6, f"final state {dev:.3g} from ones")
                rise = float(np.diff(traj.f_values).max(initial=0.0))
                near = j >= FLOW_STARTS - FLOW_NEAR_BOUND and integ == "rk4_fixed"
                op.expect(rise <= FLOW_MONOTONE_SLACK, f"F rose by {rise:.3g}",
                          known="rk4_f_rise" if near else None)
            off = 0
            with tr.span("curvature.critical_point"):
                points = []
                for rs in systems:
                    points.append(sk.critical_point(rs, x0[off : off + rs.rank]))
                    off += rs.rank
            cp_dev = max(float(np.abs(p - 1.0).max()) for p in points)
            op.expect(cp_dev <= 1e-10, f"critical point {cp_dev:.3g} from ones")
            if j == 0:
                with tr.span("flow.gradient_flow_check"):
                    gap = sk.gradient_flow_check(systems, x0, t_end=1.0)
                op.expect(gap < GRADIENT_CHECK_TOL, f"gradient flow check {gap:.3g}")


def cli_pass(inputs, rec):
    tr = rec.tracer
    for name, argv, code, patterns, known in inputs["commands"]:
        def invoke():
            with tr.span(f"cli.{name}"):
                return subprocess.run(
                    [sys.executable, "-m", "sktflow.cli", *argv],
                    cwd=inputs["workdir"], capture_output=True, text=True, timeout=60,
                )

        op, proc = rec.run(name, name, invoke)
        if proc is None:
            continue
        op.expect(proc.returncode == code, f"exit {proc.returncode}, expected {code}", known)
        for pat in patterns:
            op.expect(re.search(pat, proc.stdout, re.MULTILINE),
                      f"no line matching {pat!r} in output", known)


PASSES = {"catalog": catalog_pass, "scan": scan_pass, "flow": flow_pass, "cli": cli_pass}
REFERENCES = {"catalog": reference_kernel, "scan": reference_kernel, "flow": reference_kernel,
              "cli": process_reference}


# -- workload-specific figures, printed beside the gated metrics --------------


def extras(workload: str, kinds, seconds, refs) -> dict:
    """Figures that apply to one workload only: (value, unit) by name.

    `kinds` gives each op of a pass its kind; `seconds` and `refs` give its
    median latency over the run's passes, in seconds and in reference times.
    Each figure is printed both ways.
    """

    def p50(kind):
        return lambda values: statistics.median(v for k, v in zip(kinds, values) if k == kind)

    if workload == "catalog":
        figures = {"e7_verdict": p50("E7")}
    elif workload == "cli":
        figures = {"cold_start": p50("roots_A1")}
    else:
        # 100+ ops a pass: about 10 or more lie beyond the 90th percentile
        figures = {"op_p90": lambda values: statistics.quantiles(values, n=10)[-1]}
        if workload == "scan":
            figures.update(closed_form_p50=p50("closed_form"), brute_force_p50=p50("brute_force"))
        else:
            figures.update(rk4_run_p50=p50("rk4_fixed"), rkf45_run_p50=p50("rkf45"))
    out = {}
    for name, figure in figures.items():
        out[f"{name}_ms"] = (1e3 * figure(seconds), "ms")
        out[f"{name}_ref"] = (figure(refs), "ref")
    return out
