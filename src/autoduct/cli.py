"""Command-line entry point.

One binary, six subcommands:

  data gen | validate | split   dataset plumbing
  tune                          parallel BO hyperparameter search
  agent                         multi-agent or ReAct pipeline run
  trials                        repeated agent runs, robustness stats
  evaluate                      metrics + slices for a saved ensemble
  direct                        train + evaluate without any agent loop

Flags can come from a JSON config file (--config); explicit flags win.
Exit codes: 0 success, 1 error, 2 validation findings. LLM credentials
are read from the AUTODUCT_API_KEY environment variable, never flags.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from . import __version__
from .agents import (FaultInjector, HttpPlanner, PipelineRecipe,
                     ProjectContext, ScriptedPlanner, TaskExecutor,
                     render_report, run_multi_agent, run_react)
from .agents.state import STAGE_TASKS, STATE_FORMAT_VERSION
from .agents.tasks import TASK_FORMAT_VERSION, TaskDocument
from .dataset import (BLIND_SLICES, SyntheticConfig, fit_normalizer,
                      generate_synthetic, load_csv, load_slice_specs, split,
                      validate_ranges, write_csv)
from .ensemble import ENSEMBLE_FORMAT_VERSION, load_ensemble
from .errors import AutoductError
from .evaluation import (TWO_SIGMA_LEVEL, aggregate_trials, evaluate_model,
                         evaluate_slices, format_trial_table)
from .hpo import default_space, make_trial_evaluator, run_parallel_bo, select_top_k
from .neural_net import PARAMS_FORMAT_VERSION
from .report_export import export_report
from .rng import STREAM_VERSION

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2

DEFAULT_FRACTIONS = (0.72, 0.18, 0.10)
DEFAULT_TASK = "CHF regression pipeline"

# CLI flag -> PipelineRecipe field, for the agent-style commands
_RECIPE_FLAGS = {
    "members": "member_count",
    "layers": "hidden_layers",
    "units": "hidden_units",
    "dropout": "dropout_rate",
    "lr": "learning_rate",
    "weight_decay": "weight_decay",
    "batch": "batch_size",
    "epochs": "epochs",
    "patience": "patience",
    "base_seed": "base_seed",
    "split_seed": "split_seed",
    "level": "level",
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
    handler = {
        "data": cmd_data, "tune": cmd_tune, "agent": cmd_agent,
        "trials": cmd_trials, "evaluate": cmd_evaluate, "direct": cmd_direct,
    }[args.command]
    try:
        args.config_doc = _load_config(args)
        return handler(args)
    except AutoductError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _print_versions() -> None:
    print(f"autoduct {__version__}")
    print(f"formats: params {PARAMS_FORMAT_VERSION}, ensemble {ENSEMBLE_FORMAT_VERSION}, "
          f"task {TASK_FORMAT_VERSION}, state {STATE_FORMAT_VERSION}, "
          f"rng-stream {STREAM_VERSION}")


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _cfg(args, key: str, default=None):
    """Flag if given, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return args.config_doc.get(key, default)


def _parse_fracs(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated fractions, got {text!r}")
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

    p = sub.add_parser("data", parents=[common], help="dataset operations")
    dsub = p.add_subparsers(dest="data_command", required=True)
    g = dsub.add_parser("gen", parents=[common], help="write a synthetic CSV")
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--noise-scale", dest="noise_scale", type=float)
    g.add_argument("--out", required=True)
    v = dsub.add_parser("validate", parents=[common],
                        help="range report against the reference envelope")
    v.add_argument("--data", required=True)
    s = dsub.add_parser("split", parents=[common],
                        help="write train/validation/test CSVs")
    s.add_argument("--data", required=True)
    s.add_argument("--fracs")
    s.add_argument("--seed", type=int)
    s.add_argument("--out-dir", dest="out_dir", required=True)

    p = sub.add_parser("tune", parents=[common],
                       help="parallel Bayesian-optimization search")
    p.add_argument("--data", required=True)
    p.add_argument("--runs", type=int)
    p.add_argument("--sobol", type=int)
    p.add_argument("--bo", type=int)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--fracs")
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.add_argument("--out-dir", dest="out_dir", required=True)

    for name, help_text in (("agent", "one agent-driven pipeline run"),
                            ("direct", "train + evaluate, no agent loop"),
                            ("trials", "repeated runs, Table-style stats")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--workspace", required=True)
        p.add_argument("--data", help="existing CSV, copied into the workspace")
        p.add_argument("--synthetic", type=int,
                       help="generate this many synthetic rows instead of --data")
        p.add_argument("--seed", type=int, help="synthetic-data seed")
        p.add_argument("--fracs")
        p.add_argument("--slices", help="'blind' or a slice-spec JSON file")
        for flag in _RECIPE_FLAGS:
            if flag in ("split_seed",):
                p.add_argument("--split-seed", dest="split_seed", type=int)
            elif flag in ("base_seed",):
                p.add_argument("--base-seed", dest="base_seed", type=int)
            elif flag in ("weight_decay",):
                p.add_argument("--weight-decay", dest="weight_decay", type=float)
            elif flag in ("lr", "dropout", "level"):
                p.add_argument(f"--{flag}", type=float)
            else:
                p.add_argument(f"--{flag}", type=int)
        if name in ("agent", "trials"):
            p.add_argument("--mode", choices=["multi", "react"])
            p.add_argument("--planner", choices=["scripted", "llm"])
            p.add_argument("--endpoint")
            p.add_argument("--model")
            p.add_argument("--task")
            p.add_argument("--max-retries", dest="max_retries", type=int)
            p.add_argument("--max-steps", dest="max_steps", type=int)
        if name == "agent":
            p.add_argument("--run-id", dest="run_id")
            p.add_argument("--inject-fault", dest="inject_fault",
                           help="e.g. stage=evaluate,attempt=1")
            p.add_argument("--resume", action="store_true")
            p.add_argument("--stop-after-stage", dest="stop_after_stage")
        if name == "trials":
            p.add_argument("--n", type=int)
            p.add_argument("--fault-runs", dest="fault_runs",
                           help="comma-separated 1-based run numbers to fault")
            p.add_argument("--fault-spec", dest="fault_spec",
                           help="fault injected into the chosen runs")

    p = sub.add_parser("evaluate", parents=[common],
                       help="metrics and slices for a saved ensemble")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--level", type=float)
    p.add_argument("--slices", help="'blind' or a slice-spec JSON file")
    p.add_argument("--fracs", help="evaluate only the test split of this split")
    p.add_argument("--split-seed", dest="split_seed", type=int)

    return parser


# --- data -------------------------------------------------------------------

def cmd_data(args) -> int:
    if args.data_command == "gen":
        cfg = SyntheticConfig(n=int(_cfg(args, "n", 1000)),
                              noise_scale=float(_cfg(args, "noise_scale", 1.0)),
                              seed=int(_cfg(args, "seed", 0)))
        ds = generate_synthetic(cfg)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_csv(ds, out)
        print(f"wrote {len(ds)} rows to {out}")
        return EXIT_OK

    if args.data_command == "validate":
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

    if args.data_command == "split":
        ds = load_csv(args.data)
        splits = split(ds, _fractions(args), int(_cfg(args, "seed", 1)))
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, part in (("train", splits.train), ("validation", splits.validation),
                            ("test", splits.test)):
            write_csv(part, out_dir / f"{label}.csv")
        print(f"split {len(ds)} rows into {len(splits.train)}/"
              f"{len(splits.validation)}/{len(splits.test)} under {out_dir}")
        return EXIT_OK

    raise ValueError(f"unknown data subcommand {args.data_command!r}")


# --- tune -------------------------------------------------------------------

def cmd_tune(args) -> int:
    ds = load_csv(args.data)
    fractions = _fractions(args)
    splits = split(ds, fractions, int(_cfg(args, "split_seed", 1)))
    normalizer = fit_normalizer(splits.train)

    seed = int(_cfg(args, "seed", 0))
    runs = int(_cfg(args, "runs", 5))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the log holds this invocation's trials only; its runs append to it
    log_path = out_dir / "trials.jsonl"
    log_path.write_text("", encoding="utf-8")

    evaluator = make_trial_evaluator(splits, normalizer,
                                     epochs=int(_cfg(args, "epochs", 60)),
                                     patience=int(_cfg(args, "patience", 10)),
                                     base_seed=seed)
    board = run_parallel_bo(default_space(), evaluator, run_count=runs,
                            n_sobol=int(_cfg(args, "sobol", 16)),
                            n_bo=int(_cfg(args, "bo", 32)),
                            seeds=[seed + i for i in range(runs)],
                            log_path=log_path)
    top = select_top_k(board, int(_cfg(args, "top_k", 15)))
    manifest = {"configs": [c.to_dict() for c in top]}
    (out_dir / "topk.json").write_text(json.dumps(manifest, indent=2, sort_keys=True)
                                       + "\n", encoding="utf-8")
    best = board.best()
    print(f"{len(board.results)} trials ({len(board.ok_results())} ok); "
          f"best validation RMSE {best.rmse:.3f} "
          f"(run {best.config.run_id}, trial {best.config.trial_id})")
    print(f"wrote {log_path} and {out_dir / 'topk.json'}")
    return EXIT_OK


# --- agent-style commands ----------------------------------------------------

def _fractions(args) -> tuple[float, float, float]:
    raw = _cfg(args, "fracs", None)
    if raw is None:
        return DEFAULT_FRACTIONS
    return _parse_fracs(raw) if isinstance(raw, str) else tuple(raw)


def _recipe(args) -> PipelineRecipe:
    kwargs = {}
    for flag, field_name in _RECIPE_FLAGS.items():
        value = _cfg(args, flag, None)
        if value is not None:
            kwargs[field_name] = value
    kwargs["fractions"] = _fractions(args)
    slices = _cfg(args, "slices", None)
    if slices:
        specs = list(BLIND_SLICES) if slices == "blind" else load_slice_specs(slices)
        kwargs["slices"] = tuple(spec.to_dict() for spec in specs)
    return PipelineRecipe(**kwargs)


def _stage_dataset(args, workspace: Path, resume: bool = False) -> None:
    """Put the run's dataset at <workspace>/data.csv."""
    target = workspace / "data.csv"
    if resume and target.exists():
        return
    data = _cfg(args, "data", None)
    synthetic = _cfg(args, "synthetic", None)
    if data:
        shutil.copyfile(data, target)
    elif synthetic:
        cfg = SyntheticConfig(n=int(synthetic), seed=int(_cfg(args, "seed", 0)))
        write_csv(generate_synthetic(cfg), target)
    elif not target.exists():
        raise ValueError("no dataset: pass --data or --synthetic")


def _planner_for(args, recipe: PipelineRecipe):
    kind = _cfg(args, "planner", "scripted")
    if kind == "scripted":
        return ScriptedPlanner(recipe)
    endpoint = _cfg(args, "endpoint", None)
    model = _cfg(args, "model", None)
    if not endpoint or not model:
        raise ValueError("--planner llm requires --endpoint and --model")
    return HttpPlanner(endpoint, model)


def _run_agent_once(args, workspace: Path, run_id: str, recipe: PipelineRecipe,
                    injector: FaultInjector | None, resume: bool = False,
                    stop_after_stage: str | None = None):
    # a usage error in the planner flags must come before any file is written
    planner = _planner_for(args, recipe)
    workspace.mkdir(parents=True, exist_ok=True)
    _stage_dataset(args, workspace, resume=resume)
    ctx = ProjectContext.create(workspace, run_id)
    executor = TaskExecutor(ctx, injector)
    task = _cfg(args, "task", DEFAULT_TASK)
    mode = _cfg(args, "mode", "multi")
    if mode == "multi":
        return run_multi_agent(task, ctx, planner, executor,
                               max_retries=int(_cfg(args, "max_retries", 3)),
                               resume=resume, stop_after_stage=stop_after_stage)
    return run_react(task, ctx, planner, executor,
                     max_steps=int(_cfg(args, "max_steps", 40)),
                     resume=resume, stop_after_stage=stop_after_stage)


def cmd_agent(args) -> int:
    workspace = Path(args.workspace)
    recipe = _recipe(args)
    spec = _cfg(args, "inject_fault", None)
    injector = FaultInjector.from_spec(spec) if spec else None
    stop_after_stage = _cfg(args, "stop_after_stage", None)
    outcome = _run_agent_once(args, workspace,
                              run_id=_cfg(args, "run_id", "run-001"),
                              recipe=recipe, injector=injector,
                              resume=bool(args.resume),
                              stop_after_stage=stop_after_stage)
    if outcome.report is None:
        print(f"stopped after stage {stop_after_stage}; resume with --resume")
        return EXIT_OK
    print(render_report(outcome.report), end="")
    print(f"report: {workspace / 'report' / 'report.json'}")
    return EXIT_OK


def cmd_trials(args) -> int:
    workspace = Path(args.workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    n = int(_cfg(args, "n", 10))
    if n < 1:
        raise ValueError("trial count must be at least 1")
    fault_runs = {int(tok) for tok in str(_cfg(args, "fault_runs", "") or "").split(",")
                  if tok.strip()}
    fault_spec = _cfg(args, "fault_spec", "stage=evaluate,attempt=1")
    base_recipe = _recipe(args)

    reports = []
    for i in range(1, n + 1):
        run_dir = workspace / f"trial_{i:03d}"
        # distinct member seeds per trial give the RMSE spread some width
        recipe = PipelineRecipe(**{**base_recipe.__dict__,
                                   "base_seed": base_recipe.base_seed + 1000 * i})
        injector = FaultInjector.from_spec(fault_spec) if i in fault_runs else None
        try:
            outcome = _run_agent_once(args, run_dir, run_id=f"trial-{i:03d}",
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
    (workspace / "trials.json").write_text(json.dumps(doc, indent=2, sort_keys=True)
                                           + "\n", encoding="utf-8")
    table = format_trial_table(stats, f"{_cfg(args, 'mode', 'multi')} agent, "
                                      f"{_cfg(args, 'planner', 'scripted')} planner")
    (workspace / "trials.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


def cmd_direct(args) -> int:
    workspace = Path(args.workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    _stage_dataset(args, workspace)
    ctx = ProjectContext.create(workspace, "direct")
    recipe = _recipe(args)
    executor = TaskExecutor(ctx)
    for kind in (task.kind for task in STAGE_TASKS.values()):
        doc = TaskDocument(kind=kind, payload=recipe.payload_for(kind),
                           provenance={"planner": "direct"})
        result = executor.execute(doc)
        if not result.ok:
            print(f"error: {kind}: {result.log}", file=sys.stderr)
            return EXIT_ERROR
        print(f"{kind}: {result.first_line()}")
    metrics = json.loads((ctx.path("report_dir") / "metrics.json")
                         .read_text(encoding="utf-8"))["metrics"]
    for key in sorted(metrics):
        print(f"  {key}: {metrics[key]}")
    return EXIT_OK


# --- evaluate ----------------------------------------------------------------

def cmd_evaluate(args) -> int:
    ens = load_ensemble(args.ensemble)
    ds = load_csv(args.data)
    label = "all"
    if _cfg(args, "fracs", None) is not None:
        splits = split(ds, _fractions(args), int(_cfg(args, "split_seed", 1)))
        ds = splits.test
        label = "test"
    level = float(_cfg(args, "level", TWO_SIGMA_LEVEL))
    me = evaluate_model(ens, ds, level=level, split_label=label)

    slice_report = None
    slices = _cfg(args, "slices", None)
    if slices:
        specs = list(BLIND_SLICES) if slices == "blind" else load_slice_specs(slices)
        slice_report = evaluate_slices(ens, specs, level=level)

    out_dir = Path(args.out_dir)
    written = export_report(me, slice_report, out_dir)
    for key, value in me.report.to_dict().items():
        print(f"  {key}: {value}")
    print(f"wrote {len(written)} files to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
