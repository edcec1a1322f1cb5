"""autoduct benchmark: one closed-loop client driving the documented CLI.

    python3 bench/run.py --workload search|pipeline|score|all \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Each workload runs in its own process. `autoduct.cli.main([...])` is
called in-process, one pass at a time; the next pass starts when the
previous one has returned. A run:

1. pins the BLAS/OpenMP thread pools to one thread and prints an
   environment header (Python, numpy, BLAS, nproc, load average, src/
   line count per module);
2. sets up three times and reports the median: make the input tables
   from --seed, train the fixture ensemble (score only), and run a small
   warm-up pass;
3. repeats full passes until --seconds have passed (at least three
   untraced passes; with --trace 1, untraced and traced passes alternate,
   at least two of each), checks every pass's outputs, and requires them
   to be byte-identical to the first pass's. A fixed reference
   computation (bench/reference.py) is timed before the first pass and
   after every pass, and each pass is also expressed as a multiple of
   the mean of the two reference times around it: the host's speed
   drifts over minutes, and the ratio cancels that drift;
4. prints the metrics: with --trace 0 the end-to-end metrics of
   BENCHMARK.json, with --trace 1 its per-layer metrics, taken from the
   traced passes (spans are written to .bench_out/). The last line of
   standard output is one JSON object.

Exit status: 0 when every check passed, 1 when an output check or an
operation failed (the result line says so), 2 when the program sources
are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("search", "pipeline", "score")
SETUP_REPS = 3
MAX_PASSES = 200
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every code path on small inputs, for tests")
    return p.parse_args(argv)


# --- environment ---------------------------------------------------------------

def pin_threads() -> dict[str, str]:
    """Fix the thread pools before numpy loads; 1 thread was at least as
    fast as 2 on these small (at most 512 x 96) matrices."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return {var: os.environ[var] for var in THREAD_VARS}


def src_line_counts() -> dict[str, int]:
    counts = {}
    for path in sorted((SRC / "autoduct").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        counts[module] = len(path.read_text(encoding="utf-8").splitlines())
    return counts


def environment(threads: dict[str, str]) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    lines = src_line_counts()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def load_average() -> float:
    return os.getloadavg()[0]


# --- one benchmark run -----------------------------------------------------------

def run_cli(cli, argv: list[str], log: list[str]) -> int:
    """autoduct.cli.main(argv), looked up at call time so trace hooks apply;
    its output is kept for the failure report."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    if code != 0:
        log.append(f"autoduct {' '.join(argv)} -> {code}\n{err.getvalue()}")
    return code


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(args: argparse.Namespace, declared: dict) -> int:
    started = time.perf_counter()
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import autoduct.cli as cli
    import reference
    import tracing
    import workloads
    import_s = time.perf_counter() - started

    env = environment(threads)
    env["load_before"] = load_average()
    print("# env " + json.dumps(env, sort_keys=True))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](
        workloads.SIZES[args.size][args.workload], args.seed, work / "inputs")
    tracer = tracing.Tracer() if args.trace else None
    hooks = (lambda: tracing.Hooks(tracer)) if tracer else contextlib.nullcontext
    failures: list[str] = []
    log: list[str] = []
    try:
        # --- set-up, three times ---
        setup_times, setup_metrics, input_digests = [], [], None
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.pass_id = f"setup-{rep}"
            t0 = time.perf_counter()
            with hooks():
                failures += workload.setup(lambda argv: run_cli(cli, argv, log))
            setup_times.append(time.perf_counter() - t0)
            digests = workloads.digest_files(
                workload.inputs, ("*.csv", "manifest.json", "member_*.json"))
            if input_digests is None:
                input_digests = digests
            elif digests != input_digests:
                failures.append(f"set-up {rep} made different inputs than set-up 0")
            if tracer:
                spans = tracing.split_by_pass(tracer).get(tracer.pass_id, [])
                setup_metrics.append(tracing.pass_metrics(spans, setup_times[-1]))

        # --- timed passes ---
        passes = []
        first = None
        reference.time_reference()          # warm-up, not used
        gc.collect()
        ref_before = reference.time_reference()
        loop_start = time.perf_counter()
        for i in range(MAX_PASSES):
            traced = bool(tracer) and i % 2 == 1
            out = work / f"pass-{i:03d}"
            if tracer:
                tracer.pass_id = f"pass-{i}"
            argv = workload.pass_argv(out)
            gc.collect()        # the previous pass's garbage is not this pass's cost
            with hooks() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                code = run_cli(cli, argv, log)
                wall = time.perf_counter() - t0
            check = workload.check(out, code)
            if first is None:
                first = check
            elif check.digests != first.digests:
                differ = sorted(k for k in set(check.digests) | set(first.digests)
                                if check.digests.get(k) != first.digests.get(k))
                check.problems.append(f"outputs differ from the first pass: {differ}")
                check.failed = check.ops
            failures += [f"pass {i}: {p}" for p in check.problems]
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            ref_after = reference.time_reference()
            passes.append({"id": f"pass-{i}", "traced": traced, "wall_s": wall,
                           "ref_s": (ref_before + ref_after) / 2, "check": check})
            ref_before = ref_after

            counts = [sum(1 for p in passes if p["traced"] == t) for t in (False, True)]
            enough = (min(counts) >= 2) if tracer else counts[0] >= 3
            # stop when the next pass would likely end past --seconds
            per_pass = (time.perf_counter() - loop_start) / len(passes)
            if enough and time.perf_counter() - loop_start + per_pass / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (ROOT / ".bench_work").is_dir() and not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["check"].ops for p in passes)
    failed = sum(p["check"].failed for p in passes)
    if failures and not failed:
        failed = 1          # a set-up failure fails the run's first operation
    env["load_after"] = load_average()
    print("# env-after " + json.dumps({"load_after": env["load_after"]}))

    setup_s = import_s + median(setup_times)
    summary = {
        "setup_s": setup_s,
        "run_s": median([p["wall_s"] for p in untraced]),
        "run_ref": median([p["wall_s"] / p["ref_s"] for p in untraced]),
        "reference_s": median([p["ref_s"] for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print_report(workload, summary, first, untraced, import_s, setup_times,
                 attempted, failed)
    for line in failures:
        print(f"# FAILED {line}")
    for entry in log:
        print("# " + entry.rstrip().replace("\n", "\n#   "))

    if tracer:
        values = layer_metrics(tracer, passes, setup_metrics, first)
        values["machine.reference_s"] = summary["reference_s"]
        write_trace(args, env, tracer, passes)
        print_layer_split(args.workload, values, tracer.missing)
        unmeasured = [e["name"] for e in declared["per_layer"] if e["name"] not in values]
        print(f"# per-layer metrics this workload does not reach (reported as 0): "
              f"{', '.join(unmeasured) or 'none'}")
        metrics = {e["name"]: {"value": values.get(e["name"], 0.0), "unit": e["unit"]}
                   for e in declared["per_layer"]}
    else:
        metrics = {e["name"]: {"value": summary[e["name"]], "unit": e["unit"]}
                   for e in declared["end_to_end"]}
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def print_report(workload, summary, first, untraced, import_s, setup_times,
                 attempted, failed) -> None:
    """Every end-to-end metric of the workload, with unit and sample count."""
    name = workload.name
    walls = [p["wall_s"] for p in untraced]
    rows = [
        ("setup_s", summary["setup_s"], "s",
         f"imports {import_s:.3f} s + median of {len(setup_times)} set-ups "
         f"({', '.join(f'{t:.3f}' for t in setup_times)})"),
        ("run_s", summary["run_s"], "s",
         f"median of {len(walls)} untraced passes "
         f"({', '.join(f'{w:.3f}' for w in walls)})"),
        ("run_ref", summary["run_ref"], "ref",
         f"median of pass time / reference time over the same passes; "
         f"reference median {summary['reference_s']:.4f} s"),
    ]
    work = first.work
    if name == "search":
        rows.append(("trials_per_s", work / summary["run_s"], "1/s",
                     f"{work} trials per pass"))
    if name == "score":
        rows.append(("rows_scored_per_s", work / summary["run_s"], "rows/s",
                     f"{work} held-out and slice rows per pass"))
    rows.append(("peak_rss_mb", summary["peak_rss_mb"], "MiB", "ru_maxrss, whole process"))
    rows.append(("fail_frac", failed / attempted if attempted else 1.0, "ratio",
                 f"{failed} of {attempted} {workload.op_name} failed"))
    quality_names = {"hpo.best_val_rmse": ("best_val_rmse", "kW/m2"),
                     "evaluation.rmse_kw_m2": (
                         "test_rmse" if name == "pipeline" else "rmse_kw_m2", "kW/m2"),
                     "evaluation.coverage_gap": ("coverage_gap", "ratio"),
                     "evaluation.mean_nll": ("mean_nll", "nats")}
    for key, value in first.quality.items():
        label, unit = quality_names[key]
        rows.append((label, value, unit, "deterministic; same on every pass"))
    for label, value, unit, note in rows:
        print(f"# {name:<9}{label:<18}{value:>14.6g} {unit:<7}{note}")


def layer_metrics(tracer, passes, setup_metrics, first) -> dict[str, float]:
    """Medians over the traced passes (and, under `setup.`, over the
    set-up repetitions) of every per-pass span metric."""
    import tracing
    spans = tracing.split_by_pass(tracer)
    traced = [p for p in passes if p["traced"]]
    per_pass = [tracing.pass_metrics(spans.get(p["id"], []), p["wall_s"]) for p in traced]
    values = {k: median([m.get(k, 0.0) for m in per_pass])
              for k in {k for m in per_pass for k in m}}
    for k in {k for m in setup_metrics for k in m}:
        values[f"setup.{k}"] = median([m.get(k, 0.0) for m in setup_metrics])
    untraced_s = median([p["wall_s"] for p in passes if not p["traced"]])
    traced_s = median([p["wall_s"] for p in traced])
    values.update({
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
        "trace.passes": len(traced),
        "trace.missing_hooks": len(tracer.missing),
        "trace.self_sum_gap": max(abs(m["pass.self_sum_s"] - m["pass.s"]) / m["pass.s"]
                                  for m in per_pass),
    })
    values.update(first.quality)
    return values


def print_layer_split(workload: str, values: dict[str, float], missing: list[str]) -> None:
    """Which layers the timed passes reached, against bench/predictions.json."""
    predictions = json.loads((BENCH_DIR / "predictions.json").read_text(encoding="utf-8"))

    def verdict(holds: bool) -> str:
        return "as predicted" if holds else "NOT as predicted"

    for layer, entry in predictions["layers"].items():
        calls = sum(v for k, v in values.items()
                    if k.startswith(layer + ".") and k.endswith(".calls"))
        reached = calls > 0
        print(f"# layer {layer:<14}{'reached' if reached else 'not reached':<12}"
              f"{calls:>8g} calls per pass  "
              f"{verdict(reached == (workload in entry['reached_on']))}")
        for fn, where in entry.get("never_called", {}).items():
            if workload in where:
                n = values.get(f"{fn}.calls", 0)
                print(f"#   {fn} called {n:g} times per pass  {verdict(n == 0)}")
        if workload in entry.get("majority_of_pass_on", []):
            share = values.get(f"{layer}.self_share", 0.0)
            print(f"#   {layer} self time is {share:.3f} of the pass  "
                  f"{verdict(share > 0.5)}")
    for entry in missing:
        print(f"# {entry}")


def write_trace(args, env, tracer, passes) -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "env": env,
        "missing_hooks": tracer.missing,
        "passes": [{k: v for k, v in p.items() if k != "check"} for p in passes],
        "spans": [[s.name, s.tag, s.start, s.end, s.parent, s.pass_id, s.counts]
                  for s in tracer.spans],
    }
    path = out_dir / f"trace-{args.workload}-seed{args.seed}-{args.size}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    print(f"# spans written to {path.relative_to(ROOT)}")


# --- all workloads ------------------------------------------------------------

def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# {name}: no result (exit {proc.returncode})")
            merged["correct"] = False
            status = 1
            continue
        status = max(status, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "autoduct" / "__init__.py").is_file():
        print(f"error: no autoduct sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_workload(args, declared)


if __name__ == "__main__":
    sys.exit(main())
