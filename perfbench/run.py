"""jjshadow benchmark: times one workload, checks every op, prints the metrics.

    python3 perfbench/run.py --workload {wafer-mc,design,metrology} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  It imports jjshadow from the
checkout's `src/` and nowhere else, and exits non-zero without a result
when that is missing.  BLAS and OpenMP are pinned to one thread before
numpy loads, so every figure is a plain single-threaded baseline.

One run, in one process:

1. Set-up: import jjshadow, build the workload's inputs from the seed and
   run one untimed warm-up op, timed from the start of this script.
2. The timed phase: closed-loop ops, one at a time, until `--seconds` of op
   time has passed.  Each op is checked after its clock stops; an op that
   raises or fails its check counts as failed.  The phase is cut into
   parts, and between them the whole set-up is repeated in a fresh
   interpreter (`--setup-only`).  `setup_s` is the median of all set-ups:
   at least three, and more (up to nine) while they add no more than a
   tenth of `--seconds`.  Spreading the ops over a longer stretch of wall
   time also makes one slow stretch of a shared machine weigh less.
3. A self-test: the warm-up output is corrupted on purpose, and its check
   must count it as failed, or the run exits non-zero.

With `--trace 0` every op is untraced and the end-to-end metrics are
reported.  With `--trace 1` every second op is traced (spans around each
call into a jjshadow module), the per-layer metrics are the traced ops'
medians, and `trace.overhead_pct` compares traced and untraced
throughput.  Metric names, units and directions come from BENCHMARK.json.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  Provenance, every op's time and, in
traced runs, the spans are written under `.perfbench/`.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_SETUPS, MAX_SETUPS = 3, 9
SETUP_SHARE = 0.1               # extra set-ups may add this share of --seconds
P90_MIN_OPS = 100               # leaves at least ten samples beyond the p90
SHARE_LAYERS = ("layout", "compensation", "cli", "geometry", "synth", "report",
                "io", "imaging")


def bootstrap() -> float:
    """Pin BLAS/OpenMP threads, import jjshadow from this checkout's src/,
    and return the import time in seconds."""
    os.environ.update(THREAD_ENV)
    package = SRC / "jjshadow"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no jjshadow sources at {package}")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import jjshadow
    elapsed = time.perf_counter() - t
    if Path(jjshadow.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported jjshadow from {jjshadow.__file__}")
    return elapsed


def set_up(args, work: Path):
    """Build the workload and run its warm-up op; returns the workload, the
    warm-up output and the seconds since this script started."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    warm_out = wl.op(0, spans.NullTracer(), work / "warmup")
    return wl, warm_out, time.perf_counter() - T_START


def fresh_set_up_s(args) -> float:
    """The whole set-up again, in a fresh interpreter with the same pinning."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=150)
    return float(done.stdout.splitlines()[-1])


def provenance(args) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy_simd": config["SIMD Extensions"].get("found"),
        "thread_env": {k: os.environ.get(k) for k in sorted(THREAD_ENV)},
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "jjshadow").glob("*.py"))),
    }


class Tally:
    """Attempted and failed ops; a failure is any problem an op reports."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def checked(wl, out) -> list[str]:
    try:
        return wl.check(out)
    except Exception as exc:                # a check that crashes is a failure
        return [f"check raised {type(exc).__name__}: {exc}"]


def median_of(rows: list[dict], *keys: str) -> float:
    return statistics.median(sum((r.get(k, 0.0) for k in keys), 0.0) for r in rows)


def pooled(rows: list[dict], num: str, den: str) -> float:
    d = sum(r.get(den, 0.0) for r in rows)
    return sum(r.get(num, 0.0) for r in rows) / d if d else 0.0


def layer_metrics(traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: median per traced op, ratios pooled over them."""
    lay = [op["layers"] for op in traced]
    cnt = [op["counts"] for op in traced]
    names = set().union(*lay)

    def named(prefix: str) -> list[str]:        # per-call keys, e.g. io.write_*.ms
        return sorted(k for k in names if k.startswith(prefix) and k.count(".") == 2)

    m = {
        "layout.ms": median_of(lay, "layout.ms"),
        "layout.structures": median_of(cnt, "layout.structures"),
        "layout.viable_ratio": pooled(cnt, "layout.viable", "layout.structures"),
        "compensation.ms": median_of(lay, "compensation.ms"),
        "compensation.self_ms": median_of(lay, "compensation.self_ms"),
        "compensation.attained_ratio": pooled(cnt, "compensation.attained",
                                              "compensation.attempted"),
        "cli.fieldmap_ms": median_of(lay, "cli.ms"),
        "cli.fieldmap_self_ms": median_of(lay, "cli.self_ms"),
        "cli.fieldmap_cells": median_of(cnt, "cli.fieldmap_cells"),
        "cli.fieldmap_blank": median_of(cnt, "cli.fieldmap_blank"),
        "geometry.calls": median_of(lay, "geometry.calls"),
        "geometry.ms": median_of(lay, "geometry.ms"),
        "synth.ms": median_of(lay, "synth.ms"),
        "synth.self_ms": median_of(lay, "synth.self_ms"),
        "synth.records": median_of(cnt, "synth.records"),
        "synth.defect_ratio": pooled(cnt, "synth.defects", "synth.records"),
        "report.ms": median_of(lay, "report.ms"),
        "report.self_ms": median_of(lay, "report.self_ms"),
        "report.render_ms": median_of(lay, "report.render_report_text.ms"),
        "analysis.kept_ratio": pooled(cnt, "analysis.kept", "analysis.total"),
        "analysis.abs_rejected": median_of(cnt, "analysis.abs_rejected"),
        "analysis.rel_rejected": median_of(cnt, "analysis.rel_rejected"),
        "analysis.halfopen_recall": pooled(cnt, "analysis.halfopen_rejected",
                                           "analysis.halfopen"),
        "analysis.clean_reject_ratio": pooled(cnt, "analysis.clean_rejected",
                                              "analysis.clean"),
        "io.write_ms": median_of(lay, *named("io.write")),
        "io.read_ms": median_of(lay, *named("io.read")),
        "io.bytes_written": median_of(cnt, "io.bytes_written"),
        "io.bytes_read": median_of(cnt, "io.bytes_read"),
        "imaging.render_ms": median_of(lay, "imaging.render_junction.ms"),
        "imaging.extract_ms": median_of(lay, "imaging.extract_widths.ms",
                                        "imaging.extract_overlap_area.ms"),
        "imaging.pgm_ms": median_of(lay, "imaging.write_pgm.ms", "imaging.read_pgm.ms"),
        "imaging.pgm_bytes": median_of(cnt, "imaging.pgm_bytes"),
        "imaging.band_hit_ratio": pooled(cnt, "imaging.band_hits", "imaging.thresholds"),
        "imaging.width_hit_ratio": pooled(cnt, "imaging.width_hits", "imaging.images"),
    }
    for layer in SHARE_LAYERS:
        m[f"{layer}.share"] = statistics.median(
            100.0 * r.get(f"{layer}.ms", 0.0) / r["op.ms"] for r in lay)
    return m


def throughput(ops: list[dict]) -> float:
    busy = sum(op["s"] for op in ops)
    return sum(op["units"] for op in ops) / busy if busy else 0.0


def run(args, work: Path) -> tuple[dict, dict, Tally]:
    import spans

    # 1. set-up; op index 0 is the warm-up, the timed ops follow it
    wl, warm_out, first_setup_s = set_up(args, work)
    setups, k = [first_setup_s], 1

    # 2. timed phase, in parts with a fresh set-up between them
    null = spans.NullTracer()
    tracer = spans.Tracer() if args.trace else None
    tally, ops, busy = Tally(), [], 0.0
    n_setups = min(MAX_SETUPS, max(MIN_SETUPS, math.ceil(
        SETUP_SHARE * args.seconds / first_setup_s)))
    part_ends = [args.seconds * (i + 1) / n_setups for i in range(n_setups)]
    while busy < args.seconds or (tracer and len(ops) < 2):
        if len(setups) < n_setups and busy >= part_ends[len(setups) - 1]:
            setups.append(fresh_set_up_s(args))
        traced = tracer is not None and len(ops) % 2 == 1
        tr = tracer if traced else null
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with tr.op(k, f"op.{wl.name}"):
                out = wl.op(k, tr, work / "op")
            error = None
        except Exception as exc:            # keep running; the op counts as failed
            error = f"op raised {type(exc).__name__}: {exc}"
            if not tally.failed:
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        busy += dt
        problems = [error] if error else checked(wl, out)
        if problems and tally.failed < 3:
            print(f"perfbench: op {k} failed: {'; '.join(problems[:3])}", file=sys.stderr)
        op = {"k": k, "traced": traced, "s": dt, "cpu_s": cpu,
              "units": out.units if not problems else 0, "ok": tally.record(problems)}
        if traced and not problems:
            op["layers"] = tracer.op_layers(k)
            op["counts"] = wl.counts(out)
        ops.append(op)
        k += 1

    while len(setups) < n_setups:           # ops longer than a part
        setups.append(fresh_set_up_s(args))

    # 3. self-test: a corrupted output must be counted as failed
    probe = Tally()
    probe.record(checked(wl, wl.corrupt(warm_out)))
    if (probe.attempted, probe.failed, probe.failed_frac) != (1, 1, 1.0):
        raise SystemExit(f"perfbench: self-test failed: corrupted {wl.name} "
                         f"output passed its check")

    secs = [op["s"] for op in ops]
    untraced = [op for op in ops if not op["traced"]]
    metrics = {
        "units_per_s": throughput(untraced),
        "op_p50_ms": 1e3 * statistics.median(op["s"] for op in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": tally.failed_frac,
    }
    if len(untraced) >= P90_MIN_OPS:
        metrics["op_p90_ms"] = 1e3 * statistics.quantiles(
            [op["s"] for op in untraced], n=10)[8]
    traced_ok = [op for op in ops if op["traced"] and op["ok"]]
    if traced_ok:
        metrics.update(layer_metrics(traced_ok))
        traced_all = [op for op in ops if op["traced"]]
        metrics["trace.overhead_pct"] = 100.0 * (
            1.0 - throughput(traced_all) / throughput(untraced))
        metrics["trace.ops"] = len(traced_all)
    details = {"unit": wl.unit, "ops": len(ops), "untraced_ops": len(untraced),
               "busy_s": busy, "setup_samples_s": setups, "op_seconds": secs,
               "op_cpu_seconds": [op["cpu_s"] for op in ops],
               "self_test": "corrupted output counted as failed"}
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                           T_START)
    return metrics, details, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("wafer-mc", "design", "metrology"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, and print the seconds it took")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_s = bootstrap()
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            print(set_up(args, work)[2])
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics, details, tally = run(args, work)
        details["import_s"] = import_s
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    if tally.failed:                # a failed traced op leaves its layers unmeasured
        for m in spec[section]:
            metrics.setdefault(m["name"], 0.0)
    chosen = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in spec[section]}
    prov = provenance(args)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "details": details, "metrics": metrics,
                    "attempted": tally.attempted, "failed": tally.failed}, indent=1) + "\n")

    print(f"perfbench {args.workload}: seed {args.seed}, {details['ops']} ops "
          f"({details['unit']}), {details['busy_s']:.2f} s timed, trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for m in spec[section]:
        print(f"  {m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    if args.trace:
        print(f"  tracing overhead {metrics['trace.overhead_pct']:.2f}% of untraced "
              f"units_per_s, over {metrics['trace.ops']} traced ops")
    elif "op_p90_ms" in metrics:
        print(f"  {'op_p90_ms':<28} {metrics['op_p90_ms']:>14.6g} ms     (lower is better)"
              f"  n={details['untraced_ops']}")
    else:
        print(f"  op_p90_ms not reported: {details['untraced_ops']} ops, "
              f"needs {P90_MIN_OPS}")
    print(f"  failed_frac {tally.failed}/{tally.attempted} = {tally.failed_frac:.4g}; "
          f"self-test: {details['self_test']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
