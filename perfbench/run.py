"""Benchmark of lswhittle: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload mc_table --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` and
the slow oracles from ``tests/oracles.py``.  The run sets up the workload
(three times, to take a median), runs whole rounds of it for ``--seconds``,
then checks every output and fits the fixed accuracy panel.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  A traced run does every round untraced and
then traced: the traced rounds and the checks give the layer numbers, and
the gap between the two gives the tracing overhead.  Spans go to
``perfbench/out/``.

The host's speed drifts by a factor of two or more over minutes, so the
set-up time and the throughput are scaled by a reference computation timed
in the same stretch (reference.py): they are what the run would give on a
host where the reference takes ``reference.NOMINAL_S``.  The unscaled
figures go to standard error.

Every process runs with one BLAS/OpenMP thread (pool workers inherit it):
with the default thread count one 50-path draw at T=1024 took from 0.016 to
0.128 s across processes on a 2-core machine, with one thread 0.016 s.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("mc_table", "plan_grid", "long_sim", "fisher_sweep")
SETUP_REPEATS = 3
REF_REPEATS = 4


def seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {value}")
    return value


def seconds_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seconds must be a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"seconds must be positive, got {text}")
    return value


def process_age(fallback: float) -> float:
    """Seconds since this process started, from /proc (10 ms resolution).

    Where /proc is not there, seconds since the first statement of this
    file, `fallback` being that statement's perf_counter reading.
    """
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - fallback


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=seed_arg)
    parser.add_argument("--seconds", required=True, type=seconds_arg)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_rounds(workload, seconds, tally, tracer, ref):
    """Whole rounds until `seconds` have passed.

    The reference computation is timed REF_REPEATS times before every
    round, so it samples the host over the same stretch as the rounds.  A
    traced run does each round twice, untraced and then traced, so the
    tracing overhead is measured on the same inputs.  Returns the outputs,
    the round times, untraced and traced, and the reference times.
    """
    outputs, plain, traced, refs = [], [], [], []
    began = time.perf_counter()
    r = 0
    while True:
        refs.extend(ref.sample(REF_REPEATS))
        for on in (False, True) if tracer is not None else (False,):
            if on:
                tracer.phase, tracer.round = "timed", r
                tracer.install()
            t = time.perf_counter()
            out = tally.guard(workload.ops_per_round, f"round {r}",
                              workload.run_round, r)
            (traced if on else plain).append(time.perf_counter() - t)
            if out is not None:
                outputs.append(out)
                if on:
                    workload.replay(out)
            if on:
                tracer.uninstall()
        r += 1
        if time.perf_counter() - began >= seconds:
            return outputs, plain, traced, refs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ((ROOT / "src" / "lswhittle" / "__init__.py").is_file()
            and (ROOT / "tests" / "oracles.py").is_file()):
        print(f"perfbench: no lswhittle sources under {ROOT}; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 3
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

    import oracles
    import reference
    import tracing
    import workloads
    import_s = process_age(START)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    ref = reference.Reference()
    setups, setup_refs = [], ref.sample(REF_REPEATS)
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, oracles)
        workload.warm_up()
        setups.append(time.perf_counter() - t)
        setup_refs.extend(ref.sample(REF_REPEATS))

    tally = workloads.Tally()
    tracer = tracing.Tracer() if args.trace else None
    with (reference.ParallelReference(workload.workers)
          if workload.workers > 1 else contextlib.nullcontext(ref)) as round_ref:
        outputs, plain, traced, refs = timed_rounds(
            workload, args.seconds, tally, tracer, round_ref)

    if tracer is not None:
        tracer.phase, tracer.round = "check", -1
        tracer.install()
    try:
        workload.check(outputs, tally)
        mse = workload.accuracy(tally, traced=tracer is not None)
    finally:
        if tracer is not None:
            tracer.uninstall()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = tracing.layer_metrics(tracer, workload.workers, len(traced))
        checker = workload.checker
        values["whittle.argmin_miss_ratio"] = checker.misses / checker.fits
        values["trace.overhead_pct"] = 100.0 * (statistics.median(
            b / a for a, b in zip(plain, traced)) - 1.0)
        listed = spec["per_layer"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed, metrics=values)
    else:
        setup_s = import_s + statistics.median(setups)
        ops_per_s = workload.ops_per_round / statistics.median(plain)
        print(f"perfbench: set-up {setup_s:.4g} s, reference "
              f"{1e3 * statistics.median(setup_refs):.4g} ms; "
              f"{ops_per_s:.6g} operations per second, reference "
              f"{1e3 * statistics.median(refs):.4g} ms, {len(plain)} rounds",
              file=sys.stderr)
        values = {
            "setup_s": reference.scaled_seconds(setup_s, setup_refs),
            "ops_per_ref_s": reference.scaled_throughput(
                workload.ops_per_round, plain, refs),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mse": mse,
        }
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if values.get(m["name"]) is None]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
