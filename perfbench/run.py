"""schurkit benchmark: one command per workload, results checked by
independent oracles, metrics printed by name with their units.

    python3 perfbench/run.py --workload build_cold --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json and perfbench/LAYERS.md):
  build_cold     schur_unitary(d, n) over a fixed grid, one fresh interpreter
                 per cell, rounds repeated until --seconds have passed;
  duality_sweep  verify_block_diagonal once per criterion-02 cell per round;
  apps           a seeded mix of read-path requests and CLI calls.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from a
separate traced run.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines above it repeat the
metrics as a table, with the environment the numbers came from.  The exit
code is 1 when any check failed and 2 when schurkit's sources are missing.

--quick (reduced sizes) and --corrupt (flip one sign in one returned array)
exist for perfbench/selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_CELLS = [(2, 12), (3, 7), (4, 6), (10, 3), (32, 2)]
BUILD_QUICK_CELLS = [(2, 4), (3, 3)]
# per-op latencies of build_cold are the 5 cells of each round: too few for
# ten samples beyond any tail, so its tail is the p90, which sits on (32, 2)
BUILD_TAIL_PERCENTILE = 90.0
# worker processes per untraced duality_sweep or apps run, each with its own
# set-up; more would not fit the time budget of a run
SETUPS = 2
DEADLINE_S = 170.0


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Child:
    """A worker process; ready_s is spawn-to-ready as seen from here."""

    def __init__(self, argv, deadline):
        self.ready_s = None
        self.result = None
        self.tail = []
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")] + argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if not line.startswith("@@ "):
                    self.tail = (self.tail + [line.rstrip()])[-20:]
                    continue
                msg = json.loads(line[3:])
                if msg["event"] == "ready":
                    self.ready_s = time.perf_counter() - t0
                elif msg["event"] == "result":
                    self.result = msg
        finally:
            timer.cancel()
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()

    def crashed(self) -> str:
        if self.result is not None and self.ready_s is not None:
            return ""
        return "worker exited without a result: " + " | ".join(self.tail[-5:])


def combine_layers(parts):
    """Sum per-cell layer dicts of one build_cold round (maxima for sizes)."""
    out = {}
    for part in parts:
        for k, v in part.items():
            out[k] = max(out.get(k, 0), v) if k.endswith("largest_array_mb") else out.get(k, 0) + v
    return out


def run_build_cold(args, deadline):
    cells = BUILD_QUICK_CELLS if args.quick else BUILD_CELLS
    min_rounds = 1 if args.quick else 3
    rounds, ready, lat, rss, failures = [], [], [], [], []
    per_cell = {cell: [] for cell in cells}
    traced_walls, layers, build_spans = [], None, {}
    attempted = failed = 0
    start = time.perf_counter()
    corrupt = args.corrupt

    def one_round(trace):
        """Build every cell once, each checked by the full oracle."""
        nonlocal attempted, failed, corrupt
        wall, parts, spans = 0.0, [], {}
        for d, n in cells:
            argv = ["--role", "cell", "--cell", f"{d},{n}", "--seed", str(args.seed), "--trace", str(trace)]
            if corrupt:
                argv.append("--corrupt")
                corrupt = False
            child = Child(argv, deadline)
            attempted += 1
            problem = child.crashed() or "; ".join(child.result["failures"])
            if problem:
                failed += 1
                failures.append(f"cell ({d},{n}): {problem}"[:300])
            if child.result is None:
                continue
            wall += child.result["build_s"]
            if trace:
                parts.append(child.result["layers"])
                spans.update(child.result["build_spans"])
            else:
                ready.append(child.ready_s)
                lat.append(child.result["build_s"])
                rss.append(child.result["rss_mb"])
                per_cell[(d, n)].append(child.result["build_s"])
        return wall, parts, spans

    while True:
        wall, _, _ = one_round(0)
        rounds.append(wall)
        if args.trace:
            wall, parts, spans = one_round(1)
            traced_walls.append(wall)
            if layers is None:
                layers, build_spans = combine_layers(parts), spans
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(rounds) >= (1 if args.trace else min_rounds):
            break
        if time.monotonic() > deadline:
            failures.append("deadline reached before the minimum number of rounds")
            break
    info = {
        "per_cell_median_build_s": {f"d{d}n{n}": statistics.median(v) for (d, n), v in per_cell.items() if v},
        "per_cell_build_s": {f"d{d}n{n}": v for (d, n), v in per_cell.items()},
    }
    return dict(
        rounds=rounds,
        latencies=lat,
        setup=ready,
        rss=max(rss) if rss else 0.0,
        attempted=attempted,
        failed=failed,
        failures=failures,
        tail_percentile=BUILD_TAIL_PERCENTILE,
        loop_s=sum(lat),
        traced=traced_walls,
        layers=layers,
        build_spans=build_spans,
        info=info,
    )


def run_loop_workload(args, deadline):
    """duality_sweep and apps.  Untraced, SETUPS processes each set up and
    then run rounds for their share of --seconds, so setup_s has SETUPS samples
    and the timed rounds are spread over the whole run.  Traced, one process
    sets up and alternates untraced and traced rounds for --seconds."""
    parts = 1 if args.trace else SETUPS
    r = dict(rounds=[], latencies=[], setup=[], rss=0.0, attempted=0, failed=0, failures=[],
             tail_percentile=50.0, traced=[], layers=None, build_spans={}, info={})
    for part in range(parts):
        argv = ["--role", "loop", "--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
                "--seconds", str(args.seconds / parts), "--trace", str(args.trace)]
        if args.quick:
            argv.append("--quick")
        if args.corrupt and part == 0:
            argv.append("--corrupt")
        child = Child(argv, deadline)
        res = child.result
        if child.crashed():
            r["failures"].append(child.crashed())
            r["attempted"] += 1
            r["failed"] += 1
            if res is None:
                continue
        r["setup"].append(child.ready_s)
        for key in ("rounds", "latencies", "failures"):
            r[key] += res[key]
        r["attempted"] += res["attempted"]
        r["failed"] += res["failed"]
        r["rss"] = max(r["rss"], res["rss_mb"])
        r["tail_percentile"] = res["tail_percentile"]
        r["traced"] = res.get("traced", [])
        r["layers"] = res.get("layers")
        r["build_spans"] = res.get("build_spans", {})
    r["loop_s"] = sum(r["latencies"])
    return r


def end_to_end(r):
    lat = r["latencies"]
    n = len(lat)
    p = r["tail_percentile"]
    beyond = sum(1 for x in lat if x > percentile(lat, p)) if lat else 0
    metrics = {
        "setup_s": (statistics.median(r["setup"]), "s"),
        "wall_s": (statistics.median(r["rounds"]), "s"),
        "ops_per_s": ((n - r["failed"]) / r["loop_s"], "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * percentile(lat, p), "ms"),
        "peak_rss_mb": (r["rss"], "MB"),
    }
    notes = {"op_tail_ms": f"p{p:g} of {n} op latencies, {beyond} beyond it"}
    return metrics, notes


PER_LAYER_UNITS = {
    "self_s": "s",
    "calls": "count",
    "count": "count",
    "distinct": "count",
    "reuse_ratio": "ratio",
    "overhead_ratio": "ratio",
    "largest_array_mb": "MB",
    "bytes_mb": "MB",
    "stdout_bytes": "bytes",
    "wall_s": "s",
}


def per_layer(r):
    layers = dict(r["layers"])
    calls = layers.get("wigner.cg_block.calls", 0)
    layers["wigner.cg_block.reuse_ratio"] = layers.get("wigner.cg_block.distinct", 0) / calls if calls else 0.0
    layers["trace.overhead_ratio"] = statistics.median(r["traced"]) / statistics.median(r["rounds"]) - 1.0
    layers.setdefault("cli.stdout_bytes", 0)
    # inclusive traced build time per build_cold cell; 0 where the workload
    # does not build that cell
    for d, n in BUILD_CELLS:
        layers[f"schur_transform.build_s.d{d}n{n}"] = r["build_spans"].get(f"d{d}n{n}", 0.0)
    metrics = {}
    for name, value in layers.items():
        suffix = name.rsplit(".", 1)[-1]
        unit = "s" if name.startswith("schur_transform.build_s.") else PER_LAYER_UNITS[suffix]
        metrics[name] = (value, unit)
    total = sum(v for k, (v, _) in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
    wall = metrics["trace.wall_s"][0]
    metrics["trace.uncovered_ratio"] = (metrics["bench.self_s"][0] / wall if wall else 0.0, "ratio")
    return metrics, total


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": blas_threads(),
        "blas_threads": blas_threads(),
        "SCHURKIT_DENSE_CAP": os.environ.get("SCHURKIT_DENSE_CAP", "unset (4096)"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("build_cold", "duality_sweep", "apps"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # a terminated run still stops and waits for its worker processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "schurkit" / "__init__.py").is_file():
        sys.stderr.write(f"schurkit sources not found under {ROOT / 'src'}\n")
        return 2
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")})
    deadline = time.monotonic() + DEADLINE_S
    runner = run_build_cold if args.workload == "build_cold" else run_loop_workload
    r = runner(args, deadline)
    print("# environment " + json.dumps(environment(args)))
    ok = r["failed"] == 0 and not r["failures"] and r["rounds"]
    if args.trace and r["layers"] is not None and r["traced"]:
        metrics, total = per_layer(r)
        wall = metrics["trace.wall_s"][0]
        if abs(total - wall) > 1e-6 * max(1.0, wall):
            ok = False
            r["failures"].append(f"layer self times sum to {total}, traced wall is {wall}")
        notes = {
            "trace.wall_s": f"layer self times sum to {total:.6f} s",
            "trace.uncovered_ratio": "bench.self_s / trace.wall_s: traced time no layer claims",
        }
    elif r["latencies"] and r["setup"]:
        metrics, notes = end_to_end(r)
    else:
        metrics, notes = {}, {}
        ok = False
    for name, info in r["info"].items():
        print(f"# {name} {json.dumps(info)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {value:>16.6f} {unit}{note}")
    attempted = max(1, r["attempted"])
    print(f"{'fail_ratio':48s} {r['failed'] / attempted:>16.6f} failed/attempted  ({r['failed']}/{attempted})")
    for f in r["failures"]:
        print("# failure: " + f)
    print(
        json.dumps(
            {
                "correct": bool(ok),
                "attempted": attempted,
                "failed": r["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
