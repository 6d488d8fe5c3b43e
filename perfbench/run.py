"""Benchmark of latcover's ``verify-all`` checks, split into workloads.

    python3 perfbench/run.py --workload certificates --seed 1 --seconds 30 --trace 0

Run from a checkout: the program is the source tree under ``src/``.
Each pass runs in a fresh interpreter (worker.py), one after another, so
every workload is a closed loop with one client.  With ``--trace 0`` a
run times passes until ``--seconds`` have gone by and reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead.  Every pass's outputs are checked against the
golden table; the last line of standard output is one JSON object.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("certificates", "catalog", "scans")
#: Fresh interpreters timed for ``setup_s``; its median is steady where
#: a single 0.05 s sample is not.
SETUP_SAMPLES = 21
MIN_PASSES = 5
MIN_TRACED = 2
#: Every run ends well inside the three minutes a run may take.
HARD_LIMIT_S = 170
#: Counts that must repeat exactly between the first and last traced
#: pass of a run: equal counts show that no cache or other process state
#: carried over between passes.
ISOLATION_COUNTS = (
    "enumeration.search_nodes",
    "lattices.is_cover_calls",
    "lattices.is_cover_repeat_ratio",
    "enumeration.precedes_calls",
    "poly.normal_form_calls",
    "poly.leading_term_calls",
    "forms.evaluate_calls",
)


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    """Python version, cores, and which code was measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


class Runner:
    def __init__(self):
        self.start = time.monotonic()
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}

    def spawn(self, *args: str) -> dict:
        """Run worker.py once and return its JSON, with ``raw_setup_s``."""
        remaining = HARD_LIMIT_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError(f"run exceeded {HARD_LIMIT_S} s")
        t0 = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args} exceeded the {HARD_LIMIT_S} s run limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {args} failed:\n{proc.stderr[-3000:]}")
        data = json.loads(proc.stdout.splitlines()[-1])
        if not Path(data["latcover"]).resolve().is_relative_to(SRC):
            raise BenchError(f"imported latcover from {data['latcover']}, not {SRC}")
        data["raw_setup_s"] = (data["ready_ns"] - t0) / 1e9
        return data


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(samples)[n - 11]


def _median_of(runs, key):
    return statistics.median(p[key] for p in runs)


def run_workload(runner: Runner, workload: str, seed: int, seconds: int, trace: bool):
    seeded = golden.prepare(workload, seed)
    checks, passes, traced, setups = [], [], [], []
    if not trace:
        runner.spawn("--setup-only")  # warms the bytecode cache; not a sample
        setups = [runner.spawn("--setup-only") for _ in range(SETUP_SAMPLES)]

    def one_pass(traced_pass: bool) -> None:
        k = len(passes) + len(traced)
        res = runner.spawn("--workload", workload, "--seed", str(seed),
                           "--run-id", f"{workload}-{seed}-{k}",
                           *(["--trace"] if traced_pass else []))
        pass_checks = golden.check(workload, res["outputs"], seeded)
        checks.extend(pass_checks)
        bad = [name for name, ok in pass_checks if not ok]
        print(f"  pass {k}{' traced' if traced_pass else ''}: wall_s={res['wall_s']:.4f} "
              f"raw_wall_s={res['raw_wall_s']:.4f} peak_rss_mb={res['peak_rss_mb']:.2f} "
              f"checks={len(pass_checks)} failed={len(bad)} {' '.join(bad[:5])}", flush=True)
        (traced if traced_pass else passes).append(res)

    begin = time.monotonic()
    while (len(traced) < MIN_TRACED if trace else len(passes) < MIN_PASSES) \
            or time.monotonic() - begin < seconds:
        one_pass(False)
        if trace:
            one_pass(True)

    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "passes": len(passes), "traced_passes": len(traced)}
    for key in ("wall_s", "raw_wall_s", "peak_rss_mb", "stages"):
        result[key + "_samples"] = [p[key] for p in passes]
    result["setup_s_samples"] = [
        s["raw_setup_s"] * speed.speed_factor(s["calibration_s"]) for s in setups
    ]
    result["raw_setup_s_samples"] = [s["raw_setup_s"] for s in setups]
    if trace:
        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            exact = all(isinstance(v, int) for v in values)
            layers[name] = (statistics.median_low if exact else statistics.median)(values)
        layers["trace.overhead_s"] = _median_of(traced, "wall_s") - _median_of(passes, "wall_s")
        layers["enumeration.pool_speedup"] = 0.0
        if workload == "catalog":
            # Each in a fresh process: a warm is_cover cache would be
            # inherited by forked pool workers and flatter the pool.
            pool = [runner.spawn("--raw-workers", str(n))["raw"]
                    for n in (1, len(os.sched_getaffinity(0)))]
            result["pool"] = pool
            layers["enumeration.pool_speedup"] = pool[0]["seconds"] / pool[1]["seconds"]
            for p in pool:
                checks.append((f"pool/raw-count-{p['workers']}",
                               p["raw_count"] == golden.GOLDEN["raw_count"]))
        first, last = traced[0]["layers"], traced[-1]["layers"]
        for name in ISOLATION_COUNTS:
            checks.append((f"isolation/{name}", first[name] == last[name]))
        result["layers"] = layers
        result["spans"] = [s for p in traced for s in p["spans"]]
    else:
        result["end_to_end"] = {
            "wall_s": statistics.median(result["wall_s_samples"]),
            "setup_s": statistics.median(result["setup_s_samples"]),
            "peak_rss_mb": statistics.median(result["peak_rss_mb_samples"]),
        }
        result["wall_s_tail"] = tail_percentile(result["wall_s_samples"])
    result["attempted"] = len(checks)
    result["failed_checks"] = [name for name, ok in checks if not ok]
    return result


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def report(result: dict, specs: dict, env: dict) -> dict:
    """Print one workload's metrics by name and unit; return them."""
    failed, attempted = len(result["failed_checks"]), result["attempted"]
    print(f"{result['workload']}: seed={result['seed']} passes={result['passes']} "
          f"traced={result['traced_passes']} python={env['python']} nproc={env['nproc']} "
          f"commit={env['commit'][:12]} src={env['src_sha256']}")
    values = result["layers"] if result["trace"] else result["end_to_end"]
    group = specs["per_layer"] if result["trace"] else specs["end_to_end"]
    metrics = {}
    for spec in group:
        name = spec["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"  {name:<36} {values[name]:.6g} {spec['unit']}")
    if not result["trace"]:
        walls = result["wall_s_samples"]
        tail = result["wall_s_tail"]
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"  wall_s median {statistics.median(walls):.6g} s, {tail_text}, n={len(walls)}; "
              f"unscaled median {statistics.median(result['raw_wall_s_samples']):.6g} s")
        print(f"  setup_s median of n={len(result['setup_s_samples'])}; unscaled median "
              f"{statistics.median(result['raw_setup_s_samples']):.6g} s")
    print(f"  error_rate {failed / max(1, attempted):.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    if result["failed_checks"]:
        print("  failed: " + ", ".join(result["failed_checks"][:20]))
    return metrics


def save(result: dict, env: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for name, start, end, parent, run_id in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id}) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps({"env": env, **result}, indent=1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "latcover" / "__init__.py").is_file():
        print(f"perfbench: no latcover sources under {SRC}", file=sys.stderr)
        return 2
    try:
        specs = load_metric_specs()
        env = environment()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed = {}, 0, 0
        for workload in names:
            result = run_workload(Runner(), workload, args.seed, args.seconds, bool(args.trace))
            measured = report(result, specs, env)
            save(result, env)
            attempted += result["attempted"]
            failed += len(result["failed_checks"])
            prefix = "" if len(names) == 1 else workload + "."
            metrics.update({prefix + k: v for k, v in measured.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
