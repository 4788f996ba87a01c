"""Steadiness and sensitivity checks of the benchmark itself.

Runs ``run.py`` as a child process, one run at a time, from the repository
root, and applies the acceptance rules to the collected results::

    # spread: interquartile range / median of each end-to-end metric over
    # one run per seed, against the metric's bound; --sets 2 repeats the
    # seeds and compares the second median with the first.
    python3 perfbench/selfcheck.py spread --workload serve_unique \\
        --seeds 1-10 --sets 2

    # sensitivity: the same seeds with and without a featurize delay in
    # the serving path (alternating which runs first); a metric is flagged
    # when the delayed median is worse than the plain one by more than the
    # metric's bound.
    python3 perfbench/selfcheck.py sensitivity --delay-us 300 --seeds 1-5

``--out FILE`` appends every raw result as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds_arg(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload, seed, delay_us=0.0, out=None):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
               "--trace", "0"]
    if delay_us:
        command += ["--featurize-delay-us", str(delay_us)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if out is not None:
        with open(out, "a") as handle:
            handle.write(json.dumps({"workload": workload, "seed": seed,
                                     "delay_us": delay_us,
                                     "result": result}) + "\n")
    if not result["correct"]:
        print(f"  ! {workload} seed {seed}: incorrect result", flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def worse_by(metric, base, other):
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if BOUNDS[metric]["better"] == "lower":
        return (other - base) / base
    return (base - other) / base


def cmd_spread(args):
    ok = True
    sets = []
    for index in range(args.sets):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(args.workload, seed, out=args.out))
            print(f"  set {index + 1} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        sets.append(runs)
    print(f"{args.workload}: spread = IQR / median over {len(args.seeds)} "
          "seeds")
    for metric, spec in BOUNDS.items():
        line = f"  {metric:16s}"
        medians = []
        for runs in sets:
            median, share = spread([run[metric] for run in runs])
            medians.append(median)
            within = metric == "setup_s" or share <= spec["bound"]
            ok &= within
            line += (f"  median {median:10.4g} spread {share:6.3f}"
                     f" (bound {spec['bound']:.2f}, "
                     f"{'ok' if within else 'TOO WIDE'})")
        if len(medians) > 1:
            drift = worse_by(metric, medians[0], medians[1])
            within = drift <= spec["bound"]
            ok &= within
            line += f"  second/first worse by {drift:+.3f}" + (
                "" if within else " EXCEEDS BOUND")
        print(line)
    return 0 if ok else 1


def cmd_sensitivity(args):
    flagged = {}
    for workload in args.workloads:
        plain, slowed = [], []
        for position, seed in enumerate(args.seeds):
            order = [0.0, args.delay_us]
            if position % 2:
                order.reverse()
            for delay in order:
                runs = slowed if delay else plain
                runs.append(run_once(workload, seed, delay, out=args.out))
        print(f"{workload}: featurize delay {args.delay_us:g} us, "
              f"{len(args.seeds)} seeds")
        for metric, spec in BOUNDS.items():
            base = statistics.median(run[metric] for run in plain)
            other = statistics.median(run[metric] for run in slowed)
            drift = worse_by(metric, base, other)
            flag = drift > spec["bound"]
            if flag:
                flagged.setdefault(workload, []).append(metric)
            print(f"  {metric:16s} plain {base:10.4g} delayed {other:10.4g}"
                  f" worse by {drift:+.3f} (bound {spec['bound']:.2f})"
                  f"{'  FLAGGED' if flag else ''}")
    print("flagged: " + json.dumps(flagged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--workload", required=True)
    p_spread.add_argument("--seeds", type=seeds_arg, default="1-10")
    p_spread.add_argument("--sets", type=int, default=1)
    p_spread.add_argument("--out")
    p_sens = sub.add_parser("sensitivity")
    p_sens.add_argument("--delay-us", type=float, required=True)
    p_sens.add_argument("--seeds", type=seeds_arg, default="1-5")
    p_sens.add_argument("--workloads", nargs="+",
                        default=["serve_unique", "offline_zero_shot"])
    p_sens.add_argument("--out")
    args = parser.parse_args(argv)
    if args.command == "spread":
        return cmd_spread(args)
    return cmd_sensitivity(args)


if __name__ == "__main__":
    raise SystemExit(main())
