"""Command-line entry point.

One binary, six subcommands:

  data gen | validate | split   dataset plumbing
  tune                          parallel BO hyperparameter search
  agent                         multi-agent or ReAct pipeline run
  trials                        repeated agent runs, robustness stats
  evaluate                      metrics + slices for a saved ensemble
  direct                        train + evaluate without any agent loop

Flags can come from a JSON config file (--config): each key is an option
of the command, its value is checked as the flag's would be, and flags
given on the command line win.
Exit codes: 0 success, 1 error, 2 validation findings. LLM credentials
are read from the AUTODUCT_API_KEY environment variable, never flags.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import sys
from pathlib import Path

from . import __version__
from .agents import (FaultInjector, HttpPlanner, PipelineRecipe,
                     ProjectContext, ScriptedPlanner, TaskExecutor,
                     parse_fault_spec, render_report, run_multi_agent, run_react)
from .agents.multi_agent import DEFAULT_MAX_RETRIES, DEFAULT_TASK
from .agents.react import DEFAULT_MAX_STEPS
from .agents.state import STAGE_TASKS, STATE_FORMAT_VERSION
from .agents.tasks import TASK_FORMAT_VERSION, TaskDocument, validate_document
from .atomic import read_json, write_atomic, write_json
from .dataset import (BLIND_SLICES, SyntheticConfig, fit_normalizer,
                      generate_synthetic, load_csv, load_slice_specs, split,
                      validate_ranges, write_csv, write_csv_text)
from .ensemble import ENSEMBLE_FORMAT_VERSION, load_ensemble
from .errors import AutoductError
from .evaluation import (TWO_SIGMA_LEVEL, aggregate_trials, evaluate_model,
                         evaluate_slices, format_trial_table)
from .hpo import default_space, make_trial_evaluator, run_parallel_bo, select_top_k
from .report_export import export_report
from .rng import STREAM_VERSION

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2

# agent-style flag -> (PipelineRecipe field, type); the recipe holds the defaults
_RECIPE_FLAGS = {
    "members": ("member_count", int),
    "layers": ("hidden_layers", int),
    "units": ("hidden_units", int),
    "dropout": ("dropout_rate", float),
    "lr": ("learning_rate", float),
    "weight_decay": ("weight_decay", float),
    "batch": ("batch_size", int),
    "epochs": ("epochs", int),
    "patience": ("patience", int),
    "base_seed": ("base_seed", int),
    "split_seed": ("split_seed", int),
    "level": ("level", float),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.version:
        _print_versions()
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_ERROR
    try:
        if args.config:
            # config values become the command's defaults, so flags still win
            args.command_parser.set_defaults(
                **_config_defaults(args.command_parser, args.config))
            args = parser.parse_args(argv)
        if isinstance(getattr(args, "fracs", None), str):
            args.fracs = _parse_fracs(args.fracs)
        return args.handler(args)
    except (AutoductError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _print_versions() -> None:
    print(f"autoduct {__version__}")
    print(f"formats: ensemble {ENSEMBLE_FORMAT_VERSION}, task {TASK_FORMAT_VERSION}, "
          f"state {STATE_FORMAT_VERSION}, rng-stream {STREAM_VERSION}")


def _config_defaults(command: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values, each keyed by an option of the command
    and checked as that flag's own argument would be."""
    doc = read_json(path, ValueError)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    options = {action.dest: action for action in command._actions
               if action.option_strings and action.dest not in ("help", "config")}
    checked = {}
    for key, value in doc.items():
        if key not in options:
            raise ValueError(f"config key {key!r} is not an option of '{command.prog}'")
        checked[key] = _config_value(options[key], key, value)
    return checked


def _config_value(action: argparse.Action, key: str, value):
    """Store-true flags take a JSON boolean, typed flags a JSON number of
    their type, the rest a string; --fracs also takes a list of three."""
    if key == "fracs" and isinstance(value, list):
        value = ",".join(map(str, value))       # the text --fracs would take
    if action.nargs == 0:
        expected, ok = "true or false", isinstance(value, bool)
    elif action.type is None:
        expected, ok = "a string", isinstance(value, str)
    else:
        expected = "an integer" if action.type is int else "a number"
        ok = isinstance(value, (int, action.type)) and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"config key {key!r} takes {expected}, got {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r} takes one of "
                         f"{', '.join(action.choices)}, got {value!r}")
    return action.type(value) if action.type else value


def _parse_fracs(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"fracs: expected three comma-separated fractions, got {text!r}")
    return tuple(parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoduct",
        description="Deep-ensemble CHF regression pipeline")
    parser.add_argument("--version", action="store_true",
                        help="print artifact and schema versions")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags take precedence")

    def command(subparsers, name: str, handler, help_text: str):
        p = subparsers.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler, command_parser=p)
        return p

    dsub = sub.add_parser("data", help="dataset operations").add_subparsers(
        dest="data_command", required=True)
    g = command(dsub, "gen", cmd_data_gen, "write a synthetic CSV")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--seed", type=int, default=SyntheticConfig.seed)
    g.add_argument("--noise-scale", dest="noise_scale", type=float,
                   default=SyntheticConfig.noise_scale)
    g.add_argument("--out", required=True)
    v = command(dsub, "validate", cmd_data_validate,
                "range report against the reference envelope")
    v.add_argument("--data", required=True)
    s = command(dsub, "split", cmd_data_split, "write train/validation/test CSVs")
    s.add_argument("--data", required=True)
    s.add_argument("--fracs", default=PipelineRecipe.fractions)
    s.add_argument("--seed", type=int, default=PipelineRecipe.split_seed)
    s.add_argument("--out-dir", dest="out_dir", required=True)

    p = command(sub, "tune", cmd_tune, "parallel Bayesian-optimization search")
    p.add_argument("--data", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--sobol", type=int, default=16)
    p.add_argument("--bo", type=int, default=32)
    p.add_argument("--top-k", dest="top_k", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--fracs", default=PipelineRecipe.fractions)
    p.add_argument("--split-seed", dest="split_seed", type=int,
                   default=PipelineRecipe.split_seed)
    p.add_argument("--out-dir", dest="out_dir", required=True)

    for name, handler, help_text in (
            ("agent", cmd_agent, "one agent-driven pipeline run"),
            ("direct", cmd_direct, "train + evaluate, no agent loop"),
            ("trials", cmd_trials, "repeated runs, Table-style stats")):
        p = command(sub, name, handler, help_text)
        p.add_argument("--workspace", required=True)
        p.add_argument("--data", help="existing CSV, copied into the workspace")
        p.add_argument("--synthetic", type=int,
                       help="generate this many synthetic rows instead of --data")
        p.add_argument("--seed", type=int, default=SyntheticConfig.seed,
                       help="synthetic-data seed")
        p.add_argument("--fracs", default=PipelineRecipe.fractions)
        p.add_argument("--slices", help="'blind' or a slice-spec JSON file")
        for flag, (field_name, kind) in _RECIPE_FLAGS.items():
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, type=kind,
                           default=getattr(PipelineRecipe, field_name))
        if name in ("agent", "trials"):
            p.add_argument("--mode", choices=["multi", "react"], default="multi")
            p.add_argument("--planner", choices=["scripted", "llm"], default="scripted")
            p.add_argument("--endpoint")
            p.add_argument("--model")
            p.add_argument("--task", default=DEFAULT_TASK)
            p.add_argument("--max-retries", dest="max_retries", type=int,
                           default=DEFAULT_MAX_RETRIES)
            p.add_argument("--max-steps", dest="max_steps", type=int,
                           default=DEFAULT_MAX_STEPS)
        if name == "agent":
            p.add_argument("--run-id", dest="run_id", default="run-001")
            p.add_argument("--inject-fault", dest="inject_fault",
                           help="e.g. stage=evaluate,attempt=1")
            p.add_argument("--resume", action="store_true")
            p.add_argument("--stop-after-stage", dest="stop_after_stage")
        if name == "trials":
            p.add_argument("--n", type=int, default=10)
            p.add_argument("--fault-runs", dest="fault_runs", default="",
                           help="comma-separated 1-based run numbers to fault")
            p.add_argument("--fault-spec", dest="fault_spec",
                           default="stage=evaluate,attempt=1",
                           help="fault injected into the chosen runs")

    p = command(sub, "evaluate", cmd_evaluate, "metrics and slices for a saved ensemble")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--level", type=float, default=TWO_SIGMA_LEVEL)
    p.add_argument("--slices", help="'blind' or a slice-spec JSON file")
    p.add_argument("--fracs", help="evaluate only the test split of this split")
    p.add_argument("--split-seed", dest="split_seed", type=int,
                   default=PipelineRecipe.split_seed)

    return parser


# --- data -------------------------------------------------------------------

def cmd_data_gen(args) -> int:
    ds = generate_synthetic(SyntheticConfig(n=args.n, noise_scale=args.noise_scale,
                                            seed=args.seed))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(ds, out)
    print(f"wrote {len(ds)} rows to {out}")
    return EXIT_OK


def cmd_data_validate(args) -> int:
    ds = load_csv(args.data, require_target=False)
    report = validate_ranges(ds)
    print(f"{'column':<8}{'observed':<28}{'envelope':<28}outside")
    for name, entry in report.entries.items():
        observed = f"[{entry.observed_min:.6g}, {entry.observed_max:.6g}]"
        envelope = f"[{entry.envelope[0]:.6g}, {entry.envelope[1]:.6g}]"
        print(f"{name:<8}{observed:<28}{envelope:<28}{entry.outside}")
    if report.ok:
        print("all values inside the reference envelope")
        return EXIT_OK
    print(f"{report.total_violations} values outside the reference envelope")
    return EXIT_FINDINGS


def cmd_data_split(args) -> int:
    ds = load_csv(args.data)
    splits = split(ds, args.fracs, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, part in (("train", splits.train), ("validation", splits.validation),
                        ("test", splits.test)):
        write_csv(part, out_dir / f"{label}.csv")
    print(f"split {len(ds)} rows into {len(splits.train)}/"
          f"{len(splits.validation)}/{len(splits.test)} under {out_dir}")
    return EXIT_OK


# --- tune -------------------------------------------------------------------

def cmd_tune(args) -> int:
    # usage errors come before the data is read or the last log is emptied
    for flag, value, least in (("--runs", args.runs, 1), ("--sobol", args.sobol, 2),
                               ("--bo", args.bo, 0), ("--epochs", args.epochs, 1),
                               ("--patience", args.patience, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    trials = args.runs * (args.sobol + args.bo)
    if not 1 <= args.top_k <= trials:
        raise ValueError(f"--top-k must lie in 1..{trials} (runs x (sobol + bo)), "
                         f"got {args.top_k}")
    ds = load_csv(args.data)
    splits = split(ds, args.fracs, args.split_seed)
    normalizer = fit_normalizer(splits.train)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the log holds this invocation's trials only; its runs append to it
    log_path = out_dir / "trials.jsonl"
    write_atomic(log_path, lambda fh: None)

    evaluator = make_trial_evaluator(splits, normalizer, epochs=args.epochs,
                                     patience=args.patience, base_seed=args.seed)
    board = run_parallel_bo(default_space(), evaluator, n_sobol=args.sobol, n_bo=args.bo,
                            seeds=[args.seed + i for i in range(args.runs)],
                            log_path=log_path)
    top = select_top_k(board, args.top_k)
    manifest = {"configs": [c.to_dict() for c in top]}
    write_json(out_dir / "topk.json", manifest)
    best = board.best()
    print(f"{len(board.results)} trials ({len(board.ok_results())} ok); "
          f"best validation RMSE {best.rmse:.3f} "
          f"(run {best.config.run_id}, trial {best.config.trial_id})")
    print(f"wrote {log_path} and {out_dir / 'topk.json'}")
    return EXIT_OK


# --- agent-style commands ----------------------------------------------------

def _slice_specs(args) -> list:
    """--slices: none, the blind slices, or the specs of a slice-spec file."""
    if not args.slices:
        return []
    return list(BLIND_SLICES) if args.slices == "blind" else load_slice_specs(args.slices)


def _recipe(args) -> PipelineRecipe:
    """The run's recipe, every stage's payload checked against its task
    schema, so that a value no stage accepts fails before any file is
    written. The agent loops' own limits are checked here for the same
    reason."""
    for flag in ("max_retries", "max_steps"):
        if getattr(args, flag, 1) < 1:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least 1, "
                             f"got {getattr(args, flag)}")
    fields = {name: getattr(args, flag) for flag, (name, _) in _RECIPE_FLAGS.items()}
    recipe = PipelineRecipe(**fields, fractions=args.fracs,
                            slices=tuple(spec.to_dict() for spec in _slice_specs(args)))
    for kind in (task.kind for task in STAGE_TASKS.values()):
        validate_document(TaskDocument(kind=kind, payload=recipe.payload_for(kind),
                                       provenance={}))
    return recipe


def _stage_dataset(args, ctx: ProjectContext, resume: bool = False) -> None:
    """Put the run's dataset at the context's `dataset_file`, replacing any
    previous one atomically. A resume keeps the staged table, and refuses,
    before it writes anything, a --data or --synthetic table whose bytes
    differ from it: the finished stages were run on the staged one."""
    target = ctx.path("dataset_file")
    if resume and target.exists():
        if args.data:
            flag, table = "--data", Path(args.data).read_bytes()
        elif args.synthetic:
            text = io.StringIO(newline="")
            write_csv_text(generate_synthetic(SyntheticConfig(n=args.synthetic,
                                                              seed=args.seed)), text)
            flag, table = "--synthetic", text.getvalue().encode("utf-8")
        else:
            return
        if target.read_bytes() != table:
            raise ValueError(f"{target} is not the table {flag} gives; a resume "
                             f"continues on the staged table, so drop {flag} or "
                             f"start the run again without --resume")
        return
    if args.data:
        with open(args.data, "rb") as src:
            write_atomic(target, lambda dst: shutil.copyfileobj(src, dst), binary=True)
    elif args.synthetic:
        write_csv(generate_synthetic(SyntheticConfig(n=args.synthetic, seed=args.seed)),
                  target)
    elif not target.exists():
        raise ValueError("no dataset: pass --data or --synthetic")


def _planner_for(args, recipe: PipelineRecipe):
    if args.planner == "scripted":
        return ScriptedPlanner(recipe)
    if not args.endpoint or not args.model:
        raise ValueError("--planner llm requires --endpoint and --model")
    return HttpPlanner(args.endpoint, args.model)


def _run_agent_once(args, workspace: Path, run_id: str, recipe: PipelineRecipe,
                    injector: FaultInjector | None, resume: bool = False,
                    stop_after_stage: str | None = None):
    """Run one agent loop over `workspace`; returns the run's context and
    the loop's outcome."""
    # a bad planner flag or a refused workspace must fail before any write
    planner = _planner_for(args, recipe)
    workspace.mkdir(parents=True, exist_ok=True)
    ctx = ProjectContext(workspace, run_id)
    _stage_dataset(args, ctx, resume=resume)
    executor = TaskExecutor(ctx, injector)
    if args.mode == "multi":
        return ctx, run_multi_agent(args.task, planner, executor,
                                    max_retries=args.max_retries,
                                    resume=resume, stop_after_stage=stop_after_stage)
    return ctx, run_react(args.task, planner, executor, max_steps=args.max_steps,
                          resume=resume, stop_after_stage=stop_after_stage)


def cmd_agent(args) -> int:
    recipe = _recipe(args)
    injector = FaultInjector.from_spec(args.inject_fault) if args.inject_fault else None
    ctx, outcome = _run_agent_once(args, Path(args.workspace), run_id=args.run_id,
                                   recipe=recipe, injector=injector, resume=args.resume,
                                   stop_after_stage=args.stop_after_stage)
    if outcome.report is None:
        print(f"stopped after stage {args.stop_after_stage}; resume with --resume")
        return EXIT_OK
    print(render_report(outcome.report), end="")
    print(f"report: {ctx.path('report_dir') / 'report.json'}")
    return EXIT_OK


def cmd_trials(args) -> int:
    if args.n < 1:
        raise ValueError("trial count must be at least 1")
    try:
        fault_runs = {int(tok) for tok in args.fault_runs.split(",") if tok.strip()}
    except ValueError:
        raise ValueError(f"--fault-runs takes comma-separated run numbers, "
                         f"got {args.fault_runs!r}") from None
    outside = sorted(run for run in fault_runs if not 1 <= run <= args.n)
    if outside:
        raise ValueError(f"--fault-runs {', '.join(map(str, outside))} "
                         f"outside the runs 1..{args.n}")
    # parsed once, before trial 1; each faulted run gets its own injector,
    # whose attempt counts start at zero
    fault_plan = parse_fault_spec(args.fault_spec)
    base_recipe = _recipe(args)
    workspace = Path(args.workspace)
    workspace.mkdir(parents=True, exist_ok=True)

    reports = []
    for i in range(1, args.n + 1):
        run_dir = workspace / f"trial_{i:03d}"
        # distinct member seeds per trial give the RMSE spread some width
        recipe = PipelineRecipe(**{**base_recipe.__dict__,
                                   "base_seed": base_recipe.base_seed + 1000 * i})
        injector = FaultInjector(fault_plan) if i in fault_runs else None
        try:
            _, outcome = _run_agent_once(args, run_dir, run_id=f"trial-{i:03d}",
                                         recipe=recipe, injector=injector)
            reports.append(outcome.report)
            status = outcome.report["status"]
            errors = outcome.report["errors"]["total"]
            print(f"trial {i:3d}: {status} (errors {errors})")
        except AutoductError as exc:
            reports.append({"run_id": f"trial-{i:03d}", "status": "failed",
                            "error": str(exc)})
            print(f"trial {i:3d}: failed ({exc})")

    stats = aggregate_trials(reports)
    doc = {"stats": stats.to_dict(), "runs": reports}
    write_json(workspace / "trials.json", doc)
    table = format_trial_table(stats, f"{args.mode} agent, {args.planner} planner")
    write_atomic(workspace / "trials.txt", lambda fh: fh.write(table))
    print(table, end="")
    return EXIT_OK


def cmd_direct(args) -> int:
    recipe = _recipe(args)
    workspace = Path(args.workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    ctx = ProjectContext(workspace, "direct")
    _stage_dataset(args, ctx)
    executor = TaskExecutor(ctx)
    for kind in (task.kind for task in STAGE_TASKS.values()):
        doc = TaskDocument(kind=kind, payload=recipe.payload_for(kind),
                           provenance={"planner": "direct"})
        result = executor.execute(doc)
        if not result.ok:
            print(f"error: {kind}: {result.log}", file=sys.stderr)
            return EXIT_ERROR
        print(f"{kind}: {result.first_line()}")
    metrics = read_json(ctx.path("report_dir") / "metrics.json", ValueError)["metrics"]
    for key in sorted(metrics):
        print(f"  {key}: {metrics[key]}")
    return EXIT_OK


# --- evaluate ----------------------------------------------------------------

def cmd_evaluate(args) -> int:
    specs = _slice_specs(args)          # a bad slice file fails before any scoring
    ens = load_ensemble(args.ensemble)
    ds = load_csv(args.data)
    label = "all"
    if args.fracs is not None:
        ds = split(ds, args.fracs, args.split_seed).test
        label = "test"
    me = evaluate_model(ens, ds, level=args.level, split_label=label)
    slice_report = evaluate_slices(ens, specs, level=args.level) if specs else None

    out_dir = Path(args.out_dir)
    written = export_report(me, slice_report, out_dir)
    for key, value in me.report.to_dict().items():
        print(f"  {key}: {value}")
    print(f"wrote {len(written)} files to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
