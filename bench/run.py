"""Benchmark of coverdiam: end-to-end time and memory, or traced layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time from process
  start until coverdiam is imported and the workload's inputs are made;
* ``peak_mem_mb``: the peak resident set of this process (getrusage) after
  the first measured round, before anything else is imported;
* ``run_s``: median over the rounds of the time until every verdict of a
  round is in hand;
* ``largest_s``: median over the rounds of the time to the verdict of the
  largest instance.

The three times are on the scale of ``speed.py``: each set-up sample and
each round is timed next to a speed probe and multiplied by
``speed.REFERENCE_S`` over the probe's time.  The host's speed swings by
up to 2x for minutes at a time, and this takes the swing out of the
figures (README); the unscaled medians go to standard error.

With ``--trace 1`` it prints the per-layer metrics of ``layers.py`` from
rounds run under the tracer.  Either way whole rounds repeat until
``--seconds`` have passed and at least MIN_ROUNDS have run, every output
is checked (``checks.py``), and the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The same object, and the spans of a traced run, are written
under ``bench-results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
MIN_ROUNDS = 3
WORKLOAD_NAMES = ("sweep", "rp2", "cayley", "lens")

# one worker thread: BLAS pools are pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and make the inputs, print 'ready', exit (used to time set-up)")
    return ap.parse_args(argv)


def _import_program():
    """Put the checkout's src/ first on the path; fail if the program is absent."""
    src = ROOT / "src"
    if not (src / "coverdiam" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {src}/coverdiam; run from a full checkout")
    sys.path.insert(0, str(src))
    import coverdiam

    if Path(coverdiam.__file__).resolve().parent != (src / "coverdiam").resolve():
        sys.exit(f"bench: imported coverdiam from {coverdiam.__file__}, not {src}")
    import workloads

    return workloads


def _setup_times(args, speed) -> tuple[list, list]:
    """Wall times of fresh interpreters until they report ready, each with
    the speed probe taken just before it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples, probes = [], []
    for _ in range(SETUP_SAMPLES):
        probes.append(speed.probe())
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                sys.exit(f"bench: set-up child failed: {line!r}")
    return samples, probes


def _rounds(workload, seconds: float, speed) -> tuple[list, list, float]:
    """Whole rounds until `seconds` have passed and MIN_ROUNDS have run.

    Also returns the speed probe taken just before each round, and the
    peak resident set in MB after the first round.
    """
    results, probes = [], []
    start = time.perf_counter()
    while len(results) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        probes.append(speed.probe())
        results.append(workload.round())
        if len(results) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return results, probes, peak_mb


def _scaled_median(times, probes, reference: float) -> float:
    return statistics.median(t * reference / p for t, p in zip(times, probes))


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import speed  # not at the top: building its grid would count in every set-up sample

    t_start = time.perf_counter()
    if args.trace == 0:
        setup_samples, setup_probes = _setup_times(args, speed)
    t_rounds = time.perf_counter()
    workload.warm_up()
    if args.trace:
        import layers

        with layers.Tracer() as tracer:
            results, probes, _ = _rounds(workload, args.seconds, speed)
        round_s = [sum(r.times.values()) for r in results]
        metrics = layers.layer_metrics(tracer, results, _scaled_median(round_s, probes, speed.REFERENCE_S))
    else:
        results, probes, peak_mb = _rounds(workload, args.seconds, speed)
        round_s = [sum(r.times.values()) for r in results]
        largest_s = [workload.largest_s(r.times) for r in results]
        metrics = {
            "setup_s": {"value": _scaled_median(setup_samples, setup_probes, speed.REFERENCE_S), "unit": "s"},
            "run_s": {"value": _scaled_median(round_s, probes, speed.REFERENCE_S), "unit": "s"},
            "largest_s": {"value": _scaled_median(largest_s, probes, speed.REFERENCE_S), "unit": "s"},
            "peak_mem_mb": {"value": peak_mb, "unit": "MB"},
        }
        print(f"bench: unscaled medians: setup_s {statistics.median(setup_samples):.4f}, "
              f"run_s {statistics.median(round_s):.4f}, largest_s {statistics.median(largest_s):.4f}; "
              f"probe {statistics.median(probes + setup_probes) * 1e3:.1f} ms", file=sys.stderr)

    t_checks = time.perf_counter()
    import checks

    first = results[0]
    problems = checks.CHECKS[args.workload](workload, first)
    for i, r in enumerate(results[1:], start=2):
        if r.canonical != first.canonical:
            problems.append(f"round {i}: output differs from the first round on the same seed")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"bench: set-up samples {t_rounds - t_start:.1f} s, {len(results)} rounds "
          f"{t_checks - t_rounds:.1f} s, checks {time.perf_counter() - t_checks:.1f} s",
          file=sys.stderr)

    out = {
        "correct": not problems,
        "attempted": workload.ops * len(results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }
    results_dir = ROOT / "bench-results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(out, indent=1) + "\n")
    if args.trace:
        (results_dir / f"{stem}.spans.json").write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(out))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
