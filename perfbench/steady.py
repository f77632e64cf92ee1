"""Steadiness check: run workloads over several seeds and report, for each
end-to-end metric, the quartile spread as a share of the median against the
bound in BENCHMARK.json; then run the traced mode and assert that every
count repeats exactly.

    python3 perfbench/steady.py --workloads apps --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --trace-seeds 1,2 --out results.json

A spread above a third of its bound is flagged; setup_s is reported but, as
in the acceptance rule, not held to its bound.  Counts ("count" unit) must
be equal on every traced run of a workload, whatever the seed; sizes
("bytes", "MB") must be equal between two runs of the same seed.  The exit
code is 1 when a run fails or a count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x]


def run(workload, seed, seconds, trace, durations):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    durations.append(time.perf_counter() - start)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last) if last.startswith("{") else {}
    return proc.returncode, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seeds", default="1,2")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out", default=None, help="write every run's metrics here as JSON")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ok = True
    record = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        durations, traced_durations = [], []
        for seed in seed_list(args.seeds):
            code, res = run(workload, seed, args.seconds, 0, durations)
            if code != 0 or not res.get("correct"):
                print(f"{workload} seed {seed}: exit {code}, result {res}")
                ok = False
                continue
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        record[workload] = {"end_to_end": values, "run_seconds": durations}
        print(f"\n{workload}: {len(values['setup_s'])} runs, {statistics.median(durations):.1f} s per run (median)")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s, third = spread(vals), bounds[name] / 3
            flag = "" if name == "setup_s" else ("ok" if s < third else ("OVER THIRD" if s < bounds[name] else "OVER BOUND"))
            print(f"  {name:14s} median {statistics.median(vals):14.6f}  spread {s:7.4f}  bound/3 {third:6.4f}  {flag}")
        traced = []
        seeds = seed_list(args.trace_seeds)
        for seed in seeds + seeds[:1]:
            code, res = run(workload, seed, args.seconds, 1, traced_durations)
            if code != 0 or not res.get("correct"):
                print(f"{workload} traced seed {seed}: exit {code}")
                ok = False
                continue
            traced.append((seed, {k: v["value"] for k, v in res["metrics"].items()}))
        record[workload]["traced"] = traced
        if traced_durations:
            print(f"  traced runs: {statistics.median(traced_durations):.1f} s per run (median)")
        for name, unit in units.items():
            if unit not in ("count", "bytes", "MB") or not traced:
                continue
            same_seed = [m[name] for s, m in traced if s == seeds[0]]
            every = [m[name] for _, m in traced]
            exact = len(set(every)) == 1 if unit == "count" else len(set(same_seed)) == 1
            if not exact:
                ok = False
            print(f"  {name:44s} {'repeats' if exact else 'DIFFERS'}  {sorted(set(every))[:4]}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
