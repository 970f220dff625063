"""pathsig benchmark: three workloads, end-to-end metrics, traced layers.

Run every workload, each in a fresh process, untraced and then traced,
and print a summary (seconds default to ``run_seconds`` in BENCHMARK.json):

    python3 perfbench/run.py [--seed N] [--seconds S]

Run one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-workload run sets up its inputs SETUP_REPEATS times, then runs
rounds of its fixed job while the next one should end within S seconds
(at least one round),
checks the outputs and prints one JSON object as its last line: correct,
attempted, failed and metrics.  With ``--trace 0`` the metrics are the
``end_to_end`` ones of BENCHMARK.json:

* setup_s: median time of a fresh interpreter importing pathsig, plus
  the median of the input set-ups (generation, clip files, warm-up call);
* round_s: median wall time of one round of the workload's fixed job;
* peak_rss_mb: ``ru_maxrss`` of the process after the rounds, before the
  checks.

The per-command figures (rows per second of each CLI command, predict
latency percentiles, signature coefficients per second) are printed above
the JSON line and kept in the results file.  With ``--trace 1`` the
metrics are the ``per_layer`` ones, averaged per traced round, from spans
recorded around calls into pathsig (see tracer.py).  Tracing overhead is
reported twice: ``trace.overhead_s`` is spans per round times the measured
extra cost of one traced call, and the summary of an all-workload run
prints the traced run's ``trace.round_s`` minus the untraced run's
``round_s``.  The program is imported from ``src/`` of the
checkout that holds this file; without it the run fails.  BLAS threads
are capped at the number of CPUs this process may run on.

Full results (environment, computed sizes, per-command metrics, checks,
output hashes) are written to .perfbench/results/ and spans to
.perfbench/spans/.  .perfbench/ledger.json keeps the hash of every output
file per (code, workload, seed), so runs of one commit that disagree fail.
"""

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
import time
import traceback
from pathlib import Path

from tracer import Tracer, span_cost_s

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("signature", "transforms", "skeleton", "classifier", "io", "cli")
TEMPORAL = ("skeleton.temporal_joint_features", "skeleton.temporal_spatial_features")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> None:
    """Cap every BLAS thread variable at nproc; must run before numpy loads."""
    nproc = _nproc()
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
    }


def _import_s() -> float:
    """Median wall time of a fresh interpreter that imports the program."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import pathsig.cli, pathsig.synth")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _code_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _ledger_check(key: str, hashes: dict) -> tuple[str, bool, str]:
    """Compare output hashes with earlier runs of the same code and seed."""
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = hashes
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return ("outputs match earlier runs", True, "first run of this code and seed")
    differ = sorted(k for k in set(earlier) | set(hashes) if earlier.get(k) != hashes.get(k))
    return ("outputs match earlier runs", not differ,
            f"differ: {', '.join(differ)}" if differ else "identical hashes")


def _per_layer(tracer, traced_rounds: list) -> dict:
    """Per-layer metrics per traced round: name -> (value, unit)."""
    rounds = len(traced_rounds)
    totals = tracer.totals()
    own = tracer.self_times()

    def per_round(name, key):
        return totals.get(name, {}).get(key, 0) / rounds

    out = {}

    def add(name, keys):
        for key, unit in keys:
            out[f"{name}.{key}"] = (per_round(name, key), unit)

    calls, busy = ("calls", "count"), ("busy_s", "s")
    add("signature.path_signature", (calls, busy, ("flops", "flop"), ("bytes", "B")))
    add("signature.path_signature_batch", (calls, ("paths", "count"), busy))
    add("transforms.fill_missing", (calls, busy))
    add("transforms.dyadic_windows", (calls,))
    for stage in ("assemble_features", "temporal_joint_features", "temporal_spatial_features",
                  "normalize_clip", "fill_clip", "augment_clips", "fit_scaler", "apply_scaler"):
        add(f"skeleton.{stage}", (busy,))
    out["skeleton.spatial_pathlets.busy_s"] = (tracer.busy_under(
        "signature.path_signature_batch", "skeleton.assemble_features", TEMPORAL) / rounds, "s")
    add("classifier.train", (busy, ("batches", "count")))
    add("classifier.forward", (calls, ("rows", "count"), busy))
    forward_calls = totals.get("classifier.forward", {}).get("calls", 0)
    out["classifier.forward.rows_per_call"] = (
        totals["classifier.forward"]["rows"] / forward_calls if forward_calls else 0.0, "rows/call")
    for stage in ("extract_body_features", "rank_actors", "save_model", "load_model"):
        add(f"classifier.{stage}", (busy,))
    for fn in ("read_clip_file", "write_feature_matrix", "read_feature_matrix"):
        add(f"io.{fn}", (calls, ("bytes", "B"), busy))
    for command in ("extract", "train", "eval"):
        name = f"cli.{command}"
        out[f"{name}.self_s"] = (own.get(name, 0.0) / rounds, "s")
        rss = [s["counts"].get("rss_mb", 0.0) for s in tracer.spans if s["name"] == name]
        out[f"{name}.rss_mb"] = (max(rss, default=0.0), "MB")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, v in own.items()
                                      if k.startswith(layer + ".")) / rounds, "s")
    spans = len(tracer.spans) / rounds
    out["trace.round_s"] = (statistics.median(r["round_s"] for r in traced_rounds), "s")
    out["trace.spans"] = (spans, "count")
    out["trace.overhead_s"] = (spans * span_cost_s(), "s")
    return out


def _check_names(metrics: dict, declared: list) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want != have:
        raise SystemExit(f"metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(want.items()) ^ set(have.items()))}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    _limit_blas_threads()
    if not (ROOT / "src" / "pathsig" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'pathsig'} not found; run from a pathsig checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, install_wraps

    import_s = _import_s()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    rounds, error = [], None
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            work_dir = work / f"setup{k}"
            work_dir.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(str(work_dir))
            setup_times.append(time.perf_counter() - start)
        tracer = Tracer() if args.trace else None
        try:
            if tracer is not None:
                install_wraps(tracer)
            start = time.perf_counter()
            last = 0.0  # wall time of the last round, output hashing included
            while not rounds or time.perf_counter() - start + last <= args.seconds:
                if tracer is not None:
                    tracer.run_id = f"{args.workload}:{args.seed}:{len(rounds)}"
                begin = time.perf_counter()
                rounds.append(workload.round(tracer))
                last = time.perf_counter() - begin
        except Exception:  # a failed operation ends the loop and is counted
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.restore()
        if not rounds:
            print("error: no round completed", file=sys.stderr)
            return 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before checks
        try:
            checks = workload.checks(rounds)
        except Exception:  # a check that cannot read the outputs has failed
            checks = [("output checks ran", False, traceback.format_exc())]
        differ = [i for i, r in enumerate(rounds) if r["hashes"] != rounds[0]["hashes"]]
        checks.append(("outputs identical across rounds", not differ,
                       f"{len(rounds)} rounds" + (f", differ: {differ}" if differ else "")))
        checks.append(_ledger_check(f"{_code_fingerprint()}:{args.workload}:{args.seed}",
                                    rounds[0]["hashes"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in rounds) + len(checks)
    failed = (sum(r["failed"] for r in rounds) + sum(not ok for _, ok, _ in checks)
              + (error is not None))
    if args.trace:
        metrics = _per_layer(tracer, rounds)
        _check_names(metrics, spec["per_layer"])
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "round_s": (statistics.median(r["round_s"] for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        _check_names(metrics, spec["end_to_end"])
    named = workload.named_metrics(rounds)
    named["failed_share"] = (failed / attempted, "share")
    env = _environment()
    sizes = workload.sizes()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  setup runs {SETUP_REPEATS}")
    print("environment: " + ", ".join(f"{k} {_fmt(v)}" for k, v in env.items()))
    print("computed sizes and input shares: " + json.dumps(sizes, sort_keys=True))
    for name, (value, unit) in list(metrics.items()) + list(named.items()):
        print(f"  {name:<42} {_fmt(value):>14} {unit}")
    for name, ok, detail in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "sizes": sizes,
        "setup_times_s": setup_times, "import_s": import_s,
        "round_s": [r["round_s"] for r in rounds],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "hashes": rounds[0]["hashes"], "error": error,
    }, indent=1))
    if tracer is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(OUT / "spans" / f"{stem}.jsonl")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; a summary."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary, ok = {}, True
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exited with status {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            summary.setdefault(name, {})[f"trace{trace}"] = result
            ok = ok and result["correct"]
    print("\nsummary (end-to-end, untraced; layer self time and overhead, traced)")
    for name, runs in summary.items():
        for trace in ("trace0", "trace1"):
            if trace not in runs:
                continue
            result = runs[trace]
            shown = {k: v for k, v in result["metrics"].items()
                     if trace == "trace0" or k.endswith(".self_s") and k.count(".") == 1
                     or k.startswith("trace.")}
            cells = ", ".join(f"{k} {_fmt(v['value'])} {v['unit']}" for k, v in shown.items())
            print(f"  {name:<15} {trace}: failed {result['failed']}/{result['attempted']}; {cells}")
        if len(runs) == 2:
            traced = runs["trace1"]["metrics"]["trace.round_s"]["value"]
            untraced = runs["trace0"]["metrics"]["round_s"]["value"]
            print(f"  {name:<15} traced minus untraced round_s: {traced - untraced:+.4f} s")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / "summary.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from recorded spans")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_all(args) if args.workload is None else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
