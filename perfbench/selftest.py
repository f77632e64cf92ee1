"""Fast self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at reduced size (--quick):
  1. --trace 0 passes and prints every end_to_end metric with its unit,
     in the table and in the final JSON line;
  2. --trace 1 does the same for every per_layer metric;
  3. --corrupt, which flips one sign in one array returned by schurkit (by
     rebinding the function in the workload process, never by editing the
     sources), is counted as exactly one failed op and exits 1.
The tracer's span bookkeeping is checked directly: a well-formed window's
layer self times add up to its wall, with paused time in neither, and an
unclosed span is reported by span_problems (which fails a traced run).
Finally run.py must exit non-zero without a result in a directory holding
only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer, layer_summary, span_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--quick", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result


def check_printed(lines, result, metrics):
    problems = []
    for m in metrics:
        got = (result or {}).get("metrics", {}).get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} missing or wrong unit in JSON: {got}")
        row = [ln.split() for ln in lines[:-1] if ln.split()[:1] == [m["name"]]]
        if not row or row[0][2] != m["unit"]:
            problems.append(f"{m['name']} missing or wrong unit in table")
    extra = set((result or {}).get("metrics", {})) - {m["name"] for m in metrics}
    if extra:
        problems.append(f"unlisted metrics printed: {sorted(extra)}")
    return problems


def check_tracer():
    problems = []
    t = Tracer()
    root = t.open_span("bench")
    with t.span("wigner.cg_block"):
        with t.span("characters.young_orthogonal"):
            time.sleep(0.002)
    with t.paused():
        time.sleep(0.02)
    t.close_span(root)
    out = layer_summary(t, [root])
    total = sum(v for k, v in out.items() if k.count(".") == 1 and k.endswith(".self_s"))
    if span_problems(t, [root]) or abs(total - out["trace.wall_s"]) > 1e-9 or out["trace.wall_s"] > 0.02:
        problems.append(f"well-formed window: {span_problems(t, [root])}, sum {total}, wall {out['trace.wall_s']}")
    t = Tracer()
    root = t.open_span("bench")
    t.open_span("wigner.cg_block")
    t.close_span(root)  # leaves the child open
    if not span_problems(t, [root]):
        problems.append("an unclosed span was not reported")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [f"tracer: {p}" for p in check_tracer()]
    for w in bench["workloads"]:
        name = w["name"]
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, lines, result = run(name, trace)
            if code != 0 or not result or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: exit {code}, {lines[-3:]}")
                continue
            problems += [f"{name} trace {trace}: {p}" for p in check_printed(lines, result, metrics)]
        code, lines, result = run(name, 0, "--corrupt")
        if code != 1 or not result or result["correct"] or result["failed"] != 1:
            problems.append(f"{name} corrupt: exit {code}, result {result}")
        print(f"{name}: checked", flush=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, result = run("apps", 0, cwd=tmp, script=Path(tmp) / "perfbench" / "run.py")
        if code == 0 or result is not None:
            problems.append(f"run without sources: exit {code}, result {result}")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
