"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10 \\
        [--seconds 12] [--trace 0] [--out perfbench/results/spread-serve-2.json] \\
        [--against perfbench/results/spread-serve-1.json]

For every metric: the median of the per-run values and the distance
between their first and third quartiles (``statistics.quantiles(n=4)``)
as a share of that median.  An end-to-end metric is steady when that
share stays below a third of its bound in BENCHMARK.json.  With
``--against`` an earlier output of this script, each median is also
set against the earlier one: the change as a share of the earlier
median, which a bound limits in the direction marked worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.against.read_text())["summary"] if args.against else {}

    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # undeclared figures the run prints beside the result ("# also NAME VALUE")
        also = {f[2]: float(f[3]) for f in (ln.split() for ln in lines)
                if f[:2] == ["#", "also"]}
        runs.append({"seed": seed, "wall_s": wall, **result, "also": also})
        print(f"seed {seed} wall {wall:.1f}s correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in [*runs[0]["metrics"], *runs[0]["also"]]:
        values = [r["metrics"][name]["value"] if name in r["metrics"] else r["also"][name]
                  for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "iqr_share": (q3 - q1) / med if med else None,
                         "bound": bounds.get(name)}
        share = summary[name]["iqr_share"]
        line = (f"{name:32s} median {med:12.6g}  iqr/median "
                f"{'n/a' if share is None else f'{share:.3f}'}  bound {bounds.get(name)}")
        before = earlier.get(name, {}).get("median")
        if before and name in better:
            # positive means worse than the earlier set
            worse = (med - before) / before * (1 if better[name] == "lower" else -1)
            summary[name]["worse_than_earlier"] = worse
            line += f"  worse than earlier {worse:+.3f}"
        print(line)
    print(f"all correct: {all(r['correct'] for r in runs)}; "
          f"mean wall {statistics.mean(r['wall_s'] for r in runs):.1f}s")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                        "trace": args.trace,
                                        "against": str(args.against) if args.against else None,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
