"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads mc_table long_sim --seeds 1-10 \
        --seconds 10 --trace 0 --label A

Each run is its own process, one after another.  For every workload and
metric it prints the median, the quartiles of ``statistics.quantiles(n=4)``
and their distance as a share of the median (the spread each bound in
BENCHMARK.json is held to), plus the share of failed operations.  The
untraced runs also give the unscaled figures and the reference times they
print on standard error (``RAW_METRICS``).
All results go to ``perfbench/out/sweep-<label>.json``.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RAW_METRICS = (("raw.setup_s", "s"), ("raw.setup_reference_ms", "ms"),
               ("raw.ops_per_s", "1/s"), ("raw.reference_ms", "ms"))
RAW = re.compile(r"perfbench: set-up (\S+) s, reference (\S+) ms; "
                 r"(\S+) operations per second, reference (\S+) ms")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", args.trace],
                cwd=HERE.parent, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            raw = RAW.search(proc.stderr)
            if raw:
                for i, (name, unit) in enumerate(RAW_METRICS, 1):
                    result["metrics"][name] = {"value": float(raw[i]),
                                               "unit": unit}
            results.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        summary = summarise(results)
        report[workload] = {"runs": results, "summary": summary}
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in results)}")
        for name, s in summary.items():
            print(f"  {name:34s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"sweep-{args.label}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
