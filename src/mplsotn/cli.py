"""Command line front end.

Exit codes: 0 success, 1 internal error, 2 usage error or an invalid
instance or design file, 3 solver missing, 4 infeasible, 5 verification
failure, 6 failure drill found an unrestorable event or a restoration
contention.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import evaluate, report
from .dotexport import topology_dot
from .instances import generate_instance, instance_to_json, load_instance
from .model import (
    Approach,
    DesignConfig,
    Instance,
    InvalidInstanceError,
    Survivability,
    instance_hash,
)
from .pipeline import (
    PipelineError,
    SolveMemo,
    SolverUnavailableError,
    StageInfeasibleError,
    run_design,
)
from .serialize import load_design, manifest_dict, save_design

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_INSTANCE = 2
EXIT_NO_SOLVER = 3
EXIT_INFEASIBLE = 4
EXIT_VERIFY_FAILED = 5
EXIT_DRILL_FAILED = 6

_OPTIONS = [s.value for s in Survivability]


class UsageError(Exception):
    """Arguments the parser accepts but the command refuses (exit 2)."""


def _design_config(args, survivability: Survivability) -> DesignConfig:
    return DesignConfig(
        survivability=survivability,
        approach=Approach(args.approach),
        q_max=args.q_max,
        optimality_gap=args.gap,
        time_limit_seconds=args.time_limit,
        transit_double_count=args.double_count_transit,
        auto_grow_q=args.auto_grow_q,
    )


def _run_one(instance: Instance, cfg: DesignConfig, keep: Optional[Path],
             shared: Optional[SolveMemo] = None):
    design = run_design(instance, cfg, keep_artifacts_dir=keep, shared=shared)
    violations = evaluate.verify_design(instance, design)
    drill = evaluate.failure_drill(instance, design)
    return design, violations, drill


def _failure(exc: Exception) -> tuple[int, str, str]:
    """Exit code, short reason and message line for an error a run raised."""
    if isinstance(exc, InvalidInstanceError):
        # the message already starts with "invalid instance:"
        return EXIT_INVALID_INSTANCE, "invalid instance", str(exc)
    if isinstance(exc, SolverUnavailableError):
        code, reason = EXIT_NO_SOLVER, "solver unavailable"
    elif isinstance(exc, StageInfeasibleError):
        code, reason = EXIT_INFEASIBLE, "infeasible"
    else:
        code, reason = EXIT_INTERNAL, "error"
    return code, reason, f"{reason}: {exc}"


def _write_outputs(out_dir: Optional[str], design, suffix: str = "") -> None:
    if not out_dir:
        return
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    tag = f"-{suffix}" if suffix else ""
    save_design(design, base / f"design{tag}.json")
    (base / f"manifest{tag}.json").write_text(
        json.dumps(manifest_dict(design), indent=2) + "\n", encoding="utf-8"
    )


def _cmd_generate(args) -> int:
    profile = args.profile
    try:
        if profile not in ("uniform", "mixed"):
            profile = [float(x) for x in profile.split(",")]
        instance = generate_instance(
            args.kind,
            args.nodes,
            seed=args.seed,
            demand_count=args.demands,
            bandwidth_profile=profile,
            name=args.name,
            wavelengths_per_link=args.wavelengths,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    text = instance_to_json(instance)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_run(args) -> int:
    instance = load_instance(args.instance)
    if args.compare_all:
        return _cmd_compare(instance, args)
    survivability = Survivability(args.survivability)
    design, violations, drill = _run_one(
        instance, _design_config(args, survivability), args.keep_artifacts)
    _write_outputs(args.output_dir, design)
    sys.stdout.write(report.design_summary(design, drill.summary()))
    for v in violations:
        print(f"verification: {v.code}: {v.message}", file=sys.stderr)
    code = _design_exit(survivability, violations, drill)
    if code == EXIT_DRILL_FAILED:
        for outcome in drill.failures():
            detail = []
            if outcome.unrestored:
                detail.append(f"unrestored {list(outcome.unrestored)}")
            if outcome.contention:
                detail.append(f"contention on {list(outcome.contention)}")
            print(f"drill: {outcome.event.label()}: {'; '.join(detail)}",
                  file=sys.stderr)
    return code


def _design_exit(survivability: Survivability, violations, drill) -> int:
    """A finished design's exit code: 5 on any verifier violation, else 6
    when a protected option's drill leaves an event unrestorable, else 0."""
    if violations:
        return EXIT_VERIFY_FAILED
    if survivability is not Survivability.NONE and not drill.all_restorable:
        return EXIT_DRILL_FAILED
    return EXIT_OK


def _cmd_compare(instance: Instance, args) -> int:
    """Every option one after another, sharing the models they have in common.

    One memo serves all options, so a stage model that two options build
    alike is solved once. Each option keeps its artifacts in a subdirectory
    named after it. An option that fails becomes a failed row, and the exit
    code is the highest of any option.
    """
    keep = args.keep_artifacts
    shared = SolveMemo()
    entries = []
    worst = EXIT_OK
    for survivability in Survivability:
        option = survivability.value
        own = keep / option if keep is not None else None
        try:
            design, violations, drill = _run_one(
                instance, _design_config(args, survivability), own, shared)
        except (PipelineError, ValueError) as exc:
            code, reason, message = _failure(exc)
            print(f"failed[{option}]: {message}", file=sys.stderr)
            entries.append((option, reason))
            worst = max(worst, code)
            continue
        entries.append((option, design))
        _write_outputs(args.output_dir, design, suffix=option)
        for v in violations:
            print(f"verification[{option}]: {v.code}: {v.message}",
                  file=sys.stderr)
        code = _design_exit(survivability, violations, drill)
        if code == EXIT_DRILL_FAILED:
            print(f"drill[{option}]: "
                  f"{len(drill.failures())} non-restorable event(s)",
                  file=sys.stderr)
        worst = max(worst, code)
    sys.stdout.write(report.option_table(entries, fmt=args.format))
    return worst


def _cmd_export_dot(args) -> int:
    instance = load_instance(args.instance)
    design = None
    if args.design:
        try:
            design = load_design(args.design)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            print(f"error: cannot read design {args.design}: {detail}",
                  file=sys.stderr)
            return EXIT_INVALID_INSTANCE
        if design.instance_hash != instance_hash(instance):
            print(f"error: design {args.design} was built for a different "
                  f"instance than {args.instance}", file=sys.stderr)
            return EXIT_INVALID_INSTANCE
    text = topology_dot(instance, design)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplsotn",
        description="Survivable two-layer (MPLS over optical) network design",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a problem instance as JSON")
    gen.add_argument("--kind", choices=["ring", "ring_plus_chords", "mesh"],
                     default="ring")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--demands", type=int, default=None)
    gen.add_argument("--profile", default="uniform",
                     help='"uniform", "mixed", or comma-separated Gbps values')
    gen.add_argument("--wavelengths", type=int, default=32)
    gen.add_argument("--name", default=None)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="design a network for an instance")
    run.add_argument("instance")
    run.add_argument("--survivability", choices=_OPTIONS, default="none")
    run.add_argument("--approach", choices=[a.value for a in Approach],
                     default="sequential")
    run.add_argument("--gap", type=float, default=0.0,
                     help="relative optimality gap (0 = prove optimal)")
    run.add_argument("--time-limit", type=float, default=18000.0,
                     help="wall-clock budget in seconds, split across stages")
    run.add_argument("--q-max", type=int, default=None,
                     help="parallel lightpath slots per node pair")
    run.add_argument("--auto-grow-q", action="store_true",
                     help="retry once with one more slot if a stage is infeasible")
    run.add_argument("--double-count-transit", action="store_true",
                     help="book protection-path arrivals as transit traffic")
    run.add_argument("--keep-artifacts", type=Path, default=None, metavar="DIR",
                     help="keep each stage's MPS model, solution, and metadata in DIR")
    run.add_argument("--compare-all", action="store_true",
                     help="run every survivability option and tabulate")
    run.add_argument("--format", choices=["text", "csv"], default="text")
    run.add_argument("-o", "--output-dir", default=None,
                     help="write design and manifest JSON here")
    run.set_defaults(func=_cmd_run)

    dot = sub.add_parser("export-dot", help="Graphviz view of an instance")
    dot.add_argument("instance")
    dot.add_argument("--design", default=None,
                     help="overlay lightpaths from a design JSON file")
    dot.add_argument("-o", "--output", default=None)
    dot.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(f"{args.command}: {exc}")  # exits 2, as argparse does
    except (PipelineError, ValueError) as exc:
        code, _reason, message = _failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
