"""The repository benchmark: one workload, one seed, one measured window.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_unique --seed 1 \\
        --seconds 20 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``.
``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
phases with the layer probes installed and the program's own request
tracing on, prints the per-layer budget table and every per-layer metric.
The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Environment control: the interpreter's hash seed is derived from
``--seed`` (the planner breaks join-order ties in set iteration order, so
plans depend on it), ``REPRO_ARTIFACT_DIR`` / ``REPRO_PARALLEL`` /
``REPRO_SCALE`` are cleared and BLAS runs one thread; when the environment
differs, the script re-executes itself in place with the controlled one.
The model's matrices are small: a second BLAS thread does not speed
training up on two CPUs, but it spins on the second CPU, and when another
process wants that CPU training slows down several times over.  The
cyclic GC stays as users get it.  Both are recorded with the result.

``--featurize-delay-us N`` adds ``N`` microseconds per plan to every
serving featurize call; ``selfcheck.py`` uses it to show that the
benchmark flags a slowdown of known size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLEARED_ENV = ("REPRO_ARTIFACT_DIR", "REPRO_PARALLEL", "REPRO_SCALE")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def hash_seed(seed):
    """The interpreter hash seed a workload seed runs under."""
    return (seed * 2654435761 + 12345) % 4294967296


def controlled_env(seed):
    env = {key: value for key, value in os.environ.items()
           if key not in CLEARED_ENV}
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    env.update(PINNED_ENV)
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--featurize-delay-us", type=float, default=0.0)
    return parser.parse_args(argv)


def blas_info():
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        threads = getter()
    return {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def environment(args):
    import gc

    import numpy as np

    return {"cpus": os.cpu_count(), "blas": blas_info(),
            "python": platform.python_version(), "numpy": np.__version__,
            "gc_enabled": gc.isenabled(), "gc_threshold": gc.get_threshold(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def print_budget(budget):
    title, total, unit, rows = budget
    print(f"# budget: {title} = {total:.4f} {unit}")
    width = max(len(name) for name in rows)
    for name, value in sorted(rows.items(), key=lambda kv: -kv[1]):
        share = 100.0 * value / total if total else 0.0
        print(f"#   {name:<{width}}  {value:10.4f} {unit}  {share:6.2f} %")
    print(f"#   {'sum':<{width}}  {sum(rows.values()):10.4f} {unit}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = controlled_env(args.seed)
    if any(os.environ.get(key) != env.get(key)
           for key in ("PYTHONHASHSEED", *CLEARED_ENV, *PINNED_ENV)):
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  env)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Session

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    session = Session(args.seed, args.seconds, traced=bool(args.trace),
                      featurize_delay_s=args.featurize_delay_us / 1e6)
    try:
        session.install_probes()
        measured = WORKLOADS[args.workload](session)
    finally:
        session.close()
    values = session.layer if args.trace else measured
    if not args.trace:
        for metric in declared:
            session.check(metric["name"] in values,
                          f"metric {metric['name']} was not measured")
    print("# environment " + json.dumps(environment(args)))
    print("# notes " + json.dumps(session.notes))
    for problem in session.problems:
        print(f"# check failed: {problem}")
    if session.budget_table is not None:
        print_budget(session.budget_table)
    result = {
        "correct": not session.problems and session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
