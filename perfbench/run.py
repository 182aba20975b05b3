"""Benchmark entry point.

    python3 perfbench/run.py --workload {example,score_dense,log_pipeline}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  It builds nothing: it imports ``hlaskit``
from ``src/`` of the tree it sits in and refuses to run without it.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it repeat every metric by name and unit, with the job
count, the failed fraction, the median and fastest job time, the 90th
percentile where a run has enough jobs, the sample throughput, the median
job time of the frozen reference copy, and the machine.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# one thread per process, also inside numpy's BLAS; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "hlaskit" / "__init__.py").is_file():
        print(f"perfbench: no hlaskit sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import hlaskit
    if Path(hlaskit.__file__).resolve().parent != src / "hlaskit":
        print(f"perfbench: imported hlaskit from {hlaskit.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ROOT / ".bench_work"
    work = base / f"{label}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        result = harness.run(workload, ROOT, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": harness.machine(), **result["report"],
              "metrics": metrics,
              "failures": result["errors"][:10]}
    base.mkdir(exist_ok=True)
    (base / f"{label}.json").write_text(json.dumps(report, indent=1) + "\n")
    if result["tracer"] is not None:
        result["tracer"].write_spans(base / f"{label}.spans.jsonl")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['attempted']} jobs, {result['failed']} failed")
    print(f"machine {json.dumps(report['machine'])}")
    for index, errors in result["errors"][:10]:
        print(f"failed job {index}: {'; '.join(errors)[:500]}")
    print(f"failed_frac = {result['report']['failed_frac']:.6g} ratio")
    print(f"job_s_p50 = {result['report']['job_s_p50']:.6g} s "
          f"({len(result['report']['job_s'])} untraced jobs)")
    print(f"job_s_min = {result['report']['job_s_min']:.6g} s")
    if "ref_job_s_p50" in result["report"]:
        print(f"ref_job_s_p50 = {result['report']['ref_job_s_p50']:.6g} s "
              f"(the frozen reference copy)")
    if "job_s_p90" in result["report"]:
        print(f"job_s_p90 = {result['report']['job_s_p90']:.6g} s")
    samples_metric = WORKLOADS[args.workload].samples_metric
    print(f"{samples_metric} = {result['report'][samples_metric]:.6g} 1/s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
