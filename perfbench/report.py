"""Run every workload once, untraced then traced, for BENCHMARK.json's
run_seconds each, and print one row per workload: the end-to-end metrics
with their units, then each layer's self time and share of the in-process
op, read from the traced run's trace file.

    python3 perfbench/report.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import trace_path  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    print("workload".ljust(18) + "".join(f"{n} [{u}]".rjust(22) for n, u in e2e)
          + "  failed/attempted")
    for w in workloads:
        res = run(w, args.seed, seconds, 0)
        print(w.ljust(18) + "".join(f"{res['metrics'][n]['value']:22.4g}"
                                    for n, _ in e2e)
              + f"  {res['failed']}/{res['attempted']}", flush=True)
        run(w, args.seed, seconds, 1)

    layers = {w: json.loads(trace_path(w, args.seed).read_text())["layers"]
              for w in workloads}
    names = [k[:-len(".share")] for k in layers[workloads[0]]
             if k.endswith(".share")]
    print()
    print("workload".ljust(18) + "".join(f"{l}.self_s / share".rjust(26)
                                         for l in names)
          + "  trace.overhead_ratio  engine.nonzero_ratio")
    for w in workloads:
        m = layers[w]
        print(w.ljust(18) + "".join(
            f"{m[f'{l}.self_s']:16.4g} / {m[f'{l}.share']:6.3f}" for l in names)
            + f"  {m['trace.overhead_ratio']:20.4f}"
            + f"  {m['engine.nonzero_ratio']:20.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
