"""APGRE repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {road,social,serve} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` is the separate traced run that gives the
per-layer metrics.  Both check every answer against an exact oracle.
The last line of standard output is the JSON result; the lines before
it describe the host, the workload and every metric with its sample
count.  ``--smoke`` shrinks the graphs and sample counts so the whole
benchmark can be exercised in seconds.

Scratch files live under ``.bench_build/perfbench`` in the checkout;
each run removes its own and keeps only the Brandes vectors cached by
graph digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple


ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"


def provenance(workload) -> Dict:
    """Host and toolchain behind the numbers, printed with every run."""
    from repro.bench.persistence import environment_provenance
    from repro.graph.kernels import kernel_report
    from repro.parallel.backends import backend_report

    kernels = kernel_report()
    return {
        "environment": environment_provenance(workers=workload.workers,
                                              backend=workload.backend or "serial"),
        "nproc": len(os.sched_getaffinity(0)),
        "kernels": kernels,
        "backends": backend_report(),
        "numba": "available" if kernels["numba"]["available"]
        else f"absent ({kernels['numba']['reason']})",
    }


def end_to_end(ctx) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The untraced run: rounds of set-up, library solve and cold CLI run."""
    from common import median
    from repro.core.apgre import apgre_bc_detailed
    from serving import start_daemon

    wl = ctx.workload
    ctx.prepare()
    graph, config = ctx.graph, wl.config()
    m: Dict[str, float] = {}
    n: Dict[str, int] = {}

    def setup(i: int) -> Optional[float]:
        if wl.name != "serve":
            probes = ctx.setup_probes(1)
            return probes[0]["wall_s"] if probes else None
        # set-up is daemon spawn to first answer
        daemon, _, setup_s, first = start_daemon(
            ctx.root, ctx.workdir, f"d{i}", ctx.graph_file, wl.cli_flags())
        ctx.check_first(first)
        ctx.record(daemon.stop(), "daemon did not drain with exit 0 on SIGTERM")
        return setup_s

    setups, solves, colds = ctx.rounds(ctx.seconds, 2 if ctx.smoke else 4, setup,
                                       lambda: apgre_bc_detailed(graph, config).scores)

    def put(name: str, values: List[float]) -> None:
        m[name], n[name] = median(values), len(values)

    put("setup_s", [s for s, _ in setups])
    put("solve_rel_p50", [s / ref for s, ref in solves])
    put("cold_rel_p50", [r.wall_s / ref for r, ref in colds])
    put("peak_rss_mb", [r.peak_rss_mb for r, _ in colds])
    # the wall times behind the quotients, printed with the result
    put("solve_s_p50", [s for s, _ in solves])
    put("cold_s_p50", [r.wall_s for r, _ in colds])
    put("reference_s_p50", [ref for _, ref in solves + colds])
    return m, n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs and few samples (exercises every path)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    from common import Context
    from oracle import Oracle
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    workdir = SCRATCH / f"run-{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(ROOT, workdir, Oracle(SCRATCH / "oracle"), wl, args.seed,
                  args.seconds, args.smoke)
    try:
        if args.trace:
            from layers import traced_run

            metrics, counts = traced_run(ctx)
        else:
            metrics, counts = end_to_end(ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print("# provenance " + json.dumps(provenance(wl), sort_keys=True))
    print("# workload " + json.dumps(wl.recipe(args.smoke)))
    print(f"# seed {args.seed}, trace {args.trace}, seconds {args.seconds:g}")
    for d in declared:
        print(f"# {d['name']:<32s} {metrics[d['name']]:>14.6g} {d['unit']:<6s} "
              f"n={counts.get(d['name'], 1)}")
    names = {d["name"] for d in declared}
    for name in sorted(set(metrics) - names):
        print(f"# also {name:<27s} {metrics[name]:>14.6g}        n={counts.get(name, 1)}")
    failed = len(ctx.failures)
    for note in ctx.failures[:20]:
        print(f"# FAILED: {note}")
    print(f"# failed_frac {failed / max(ctx.attempted, 1):.6g} "
          f"({failed} of {ctx.attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": max(ctx.attempted, 1),
        "failed": failed,
        "metrics": {d["name"]: {"value": float(metrics[d["name"]]), "unit": d["unit"]}
                    for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
