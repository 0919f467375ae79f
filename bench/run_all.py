"""Run every benchmark workload, untraced then traced, print one table and
write BENCHMARK.json.

    python3 bench/run_all.py --seeds 1 2 3

Each run is `bench/run.py` in its own process, exactly as a single-workload
run.  The table shows, per workload, the median over the seeds of every
end-to-end metric and then of every per-layer metric, with the quartile
spread (Q3 - Q1) / median of the end-to-end ones.  BENCHMARK.json, the
benchmark contract, is written from the definitions in run.py and
workloads.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import run
import workloads


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the steadiness measure BENCHMARK.json bounds."""
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def contract_json() -> str:
    """BENCHMARK.json's text: one line per workload and per metric."""
    contract = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run.RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads.WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in run.END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in run.PER_LAYER.items()],
    }
    fields = []
    for key, value in contract.items():
        if isinstance(value, list) and isinstance(value[0], dict):
            items = ",\n".join(f"    {json.dumps(item)}" for item in value)
            fields.append(f'  "{key}": [\n{items}\n  ]')
        else:
            fields.append(f'  "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(fields) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    args = parser.parse_args(argv)

    all_correct = True
    for trace in (0, 1):
        print("end-to-end metrics (tracing off)" if trace == 0
              else "per-layer metrics (traced run)")
        for workload in workloads.WORKLOADS:
            results = [run_one(workload, seed, args.seconds, trace)
                       for seed in args.seeds]
            correct = all(r["correct"] for r in results)
            all_correct &= correct
            print(f"  {workload}: correct {correct}, jobs "
                  f"{sum(r['attempted'] for r in results)} attempted, "
                  f"{sum(r['failed'] for r in results)} failed")
            for name, m in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                extra = (f"  spread {spread(values):.3f}"
                         if trace == 0 and len(values) > 1 else "")
                print(f"    {name:<36} {median(values):>12.6g} {m['unit']:<6}{extra}")
    Path("BENCHMARK.json").write_text(contract_json())
    print("wrote BENCHMARK.json")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
