"""Command line front end: root data, structure checks, metric flows.

Exit codes: 0 success or verdict true, 1 verdict false, 2 input error
(bad type, bad vector, unreadable file), 3 runtime failure (identity
violation, positivity loss during integration).
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from .curvature import is_cyt
from .flow import FlowConfig, integrate
from .hermitian import (
    biinvariant_compatible,
    is_irreducible,
    is_pluriclosed,
    kahler_flag_residual,
    load_structure,
)
from .errors import MissingComplexStructureError
from .roots import (
    Normalization,
    SimpleType,
    build_root_system,
    check_count,
    killing_normalization_constant,
)
from .structure import structure_constants, verify_identities


def _fmt(x) -> str:
    # 17 significant digits so reruns are comparable bit for bit
    return format(float(x), ".17g")


def _vec(v) -> str:
    return "(" + ", ".join(_fmt(c) for c in np.atleast_1d(np.asarray(v))) + ")"


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3g} ms"


def _echo_failures(rep) -> None:
    for failure in rep.failures[:5]:
        click.echo(f"  failure: {failure}")
    if rep.failure_count > 5:
        click.echo(f"  ... and {rep.failure_count - 5} more failures")


def _guarded(fn):
    """Map exception families onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}")
            sys.exit(2)
        except RuntimeError as exc:
            click.echo(f"error: {exc}")
            sys.exit(3)
        sys.exit(0 if code is None else code)

    return wrapper


def _parse_type(family: str, rank: int) -> SimpleType:
    return SimpleType(family.strip().upper(), rank)


def _parse_vector(text: str, rank: int) -> list[float]:
    """rank comma-separated floats; the flow's family guard refuses a bad start."""
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse vector {text!r}; expected comma-separated floats")
    if len(vals) != rank:
        raise ValueError(f"expected {rank} comma-separated values, got {len(vals)}")
    return vals


@click.group()
@click.version_option("0.1.0", prog_name="sktflow")
def main():
    """Pluriclosed metrics and metric flows on compact group factors."""


@main.command("roots")
@click.argument("family")
@click.argument("rank", type=int)
@click.option("--norm", default="long2", help="Normalization: long2, short2, killing.")
@_guarded
def cmd_roots(family: str, rank: int, norm: str):
    """Print the positive root table, gram matrix, and identity summary."""
    rs = build_root_system(_parse_type(family, rank), Normalization.parse(norm))
    stype = rs.stype
    click.echo(f"type {stype.family}{stype.rank}   normalization {rs.normalization.value}")
    click.echo(
        f"{rs.npositive} positive roots, maximal root {rs.maximal_root.label} "
        f"(height {rs.maximal_root.height})"
    )
    click.echo(f"killing constant {killing_normalization_constant(rs)}")
    click.echo("gram matrix of simple roots:")
    for row in rs.gram:
        click.echo("  [" + ", ".join(str(v) for v in row) + "]")
    width = max(len(r.label) for r in rs.positives)
    click.echo("positive roots (canonical order):")
    for i, r in enumerate(rs.positives):
        click.echo(
            f"  {i:3d}  {r.label:<{width}}  coeffs {r.coeffs}"
            f"  height {r.height}  norm2 {rs.gram_scale * rs.inner_at(i, i)}"
        )
    sc = structure_constants(rs)
    click.echo("squared structure constants for positive pairs:")
    pos = rs.positives
    for i, j, _ in zip(*(v.tolist() for v in rs.positive_sums())):
        click.echo(f"  N({pos[i].label}, {pos[j].label})^2 = {sc.unit * int(sc.sq[i, j])}")
    rep = verify_identities(rs, sc)
    verdict = "PASS" if rep.passed else "FAIL"
    click.echo(f"identities {verdict} ({sum(rep.counts.values())} checks) in {_ms(rep.elapsed_s)}")
    _echo_failures(rep)
    return 0 if rep.passed else 3


@main.command("check")
@click.argument("path", type=click.Path())
@click.option("--tol", type=float, default=1e-8, help="Residual tolerance.")
@click.option(
    "--mode",
    type=click.Choice(["closed_form", "brute_force"]),
    default="closed_form",
    help="Scan strategy for the second-derivative residuals.",
)
@_guarded
def cmd_check(path: str, tol: float, mode: str):
    """Check a structure file: pluriclosed, Kähler flag, CYT."""
    h = load_structure(path)
    rep = is_pluriclosed(h, mode=mode, tol=tol)
    click.echo(
        f"pluriclosed: {str(rep.verdict).lower()}   "
        f"(mode {rep.mode}, tol {_fmt(rep.tol)}, scale {_fmt(rep.scale)})"
    )
    click.echo(f"max residual: {_fmt(rep.max_residual)}")
    if rep.witness is not None:
        click.echo(f"worst witness: {rep.witness}")
    click.echo(f"skt1 max: {_fmt(rep.skt1_max)}   skt2 max: {_fmt(rep.skt2_max)}")
    unit = "residual rows" if rep.mode == "closed_form" else "dd^c components"
    click.echo(f"checked: {rep.checked} {unit} in {_ms(rep.elapsed_s)}")
    click.echo(f"kahler flag residual: {_fmt(kahler_flag_residual(h))}")
    cyt = is_cyt(h)
    click.echo(
        f"cyt: {str(cyt.verdict).lower()}   bismut vector {_vec(cyt.vector)}"
        f"   residual {_fmt(cyt.residual)}"
    )
    return 0 if rep.verdict else 1


@main.command("classify")
@click.argument("path", type=click.Path())
@click.option("--tol", type=float, default=1e-10, help="Nullspace tolerance.")
@_guarded
def cmd_classify(path: str, tol: float):
    """Cone of bi-invariant metrics compatible with the file's torus complex structure."""
    h = load_structure(path)
    if h.jt is None:
        raise MissingComplexStructureError(
            "classify requires an explicit torus complex structure (jt) in the file"
        )
    cone = biinvariant_compatible(h.group, h.jt.matrix, tol=tol)
    click.echo(f"compatibility cone dimension: {cone.dimension}")
    if cone.representative is None:
        click.echo("no positive factor scaling is compatible with this complex structure")
        return 1
    click.echo(f"representative factor scaling: {_vec(cone.representative)}")
    irr = is_irreducible(h.group, h.jt.matrix)
    click.echo(f"irreducible: {str(irr).lower()}")
    return 0


@main.command("flow")
@click.argument("family")
@click.argument("rank", type=int)
@click.option("--x0", "x0_text", required=True, help="Comma-separated simple values, e.g. 2,2.")
@click.option("--norm", default="long2", help="Normalization: long2, short2, killing.")
@click.option("--t-end", type=float, default=100.0, help="Integration horizon.")
@click.option("--h", "step", type=float, default=0.01, help="Step size (rk4) or initial step (rkf45).")
@click.option(
    "--integrator",
    type=click.Choice(["rk4_fixed", "rkf45"]),
    default="rk4_fixed",
)
@click.option("--tol", type=float, default=1e-8, help="Convergence tolerance.")
@click.option("--eps-pos", type=float, default=1e-8, help="Positivity guard margin.")
@click.option("--out", type=click.Path(), default=None, help="Trajectory output path.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--stats", "show_stats", is_flag=True, help="Print the run's work counters.")
@_guarded
def cmd_flow(family, rank, x0_text, norm, t_end, step, integrator, tol, eps_pos, out, fmt, show_stats):
    """Integrate the induced metric flow from a simple-value start."""
    rs = build_root_system(_parse_type(family, rank), Normalization.parse(norm))
    x0 = _parse_vector(x0_text, rs.rank)
    cfg = FlowConfig(
        integrator=integrator, h=step, t_end=t_end, tol=tol, eps_pos=eps_pos
    )
    traj = integrate(rs, x0, cfg)
    click.echo(f"termination: {traj.termination}")
    click.echo(f"steps: {len(traj.times) - 1}   t_final: {_fmt(traj.times[-1])}")
    click.echo(f"final state: {_vec(traj.states[-1])}")
    click.echo(f"F: {_fmt(traj.f_values[-1])}   grad sup: {_fmt(traj.grad_inf[-1])}")
    if show_stats:
        for key, val in traj.stats.to_meta().items():
            click.echo(f"{key} = {val}")
    if out is not None:
        if fmt == "csv":
            traj.to_csv(out)
        else:
            Path(out).write_text(json.dumps(traj.to_json(), indent=2))
        click.echo(f"wrote {fmt} trajectory to {out}")
    return 3 if traj.termination in ("positivity_violation", "step_underflow") else 0


@main.command("verify")
@click.option(
    "--types",
    default="A1,A2,A3,B2,C3,D4,G2,F4",
    help="Comma-separated type tokens, e.g. A2,B3,G2.",
)
@click.option(
    "--cocycle-limit",
    type=int,
    default=None,
    help="Check at most this many cocycle quads per type, drawn without replacement.",
)
@click.option("--seed", type=int, default=0, help="Sampling seed for --cocycle-limit.")
@_guarded
def cmd_verify(types: str, cocycle_limit, seed: int):
    """Run the structure-constant identity suite over a list of types."""
    for option, name, value in (
        ("--cocycle-limit", "cocycle_limit", cocycle_limit), ("--seed", "seed", seed)
    ):
        if value is not None:
            check_count(value, f"{option}: {name}")
    tokens = [token.strip() for token in types.split(",") if token.strip()]
    if not tokens:
        raise ValueError(f"--types names no type, got {types!r}; expected e.g. A2,B3,G2")
    any_failed = False
    for token in tokens:
        rs = build_root_system(SimpleType.parse(token))
        sc = structure_constants(rs)
        rep = verify_identities(rs, sc, cocycle_limit=cocycle_limit, seed=seed)
        verdict = "PASS" if rep.passed else "FAIL"
        detail = ", ".join(f"{k}={v}" for k, v in rep.counts.items())
        click.echo(f"{token}: {verdict} ({detail}) in {_ms(rep.elapsed_s)}")
        _echo_failures(rep)
        any_failed = any_failed or not rep.passed
    return 3 if any_failed else 0


if __name__ == "__main__":
    main()
