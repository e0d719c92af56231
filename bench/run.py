"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each measurement runs in a fresh worker
process (``worker.py``) pinned to one BLAS thread and one CPU: six set-up
probes, then the measured run.  The script prints the machine facts, the
load average and every metric by name with its unit, writes a run record to
``bench/results/``, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

It exits with code 2, printing no result, when the checkout holds no
qfeedback sources, and with code 1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "qfeedback"
SETUP_PROBES = 6
DEADLINE_S = 170.0

# What the seed changes in each workload.
SEED_EFFECT = {
    "optimize-n3": "none: with one start the optimizer begins at the family's fixed "
    "initial point and never draws from the seed",
    "blocked-l3": "the order of the blocked codebook; the base code is fixed",
    "simulate-mc": "the Monte Carlo draws",
    "verify-lemmas": "the order in which the bank of lemma seeds runs",
}


def loadavg() -> float:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return float(fh.read().split()[0])


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.glob("*.py")))


def worker(args, extra: list[str], deadline: float) -> dict:
    """Run worker.py once and return the JSON object on its last output line."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else []) + extra
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def end_to_end(run: dict, setups: list[float]) -> dict:
    passed = run["attempted"] - len(run["failures"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (statistics.median(run["job_s"]), "s"),
        "evals_per_s": (statistics.median(run["evals_per_s"]) if run["evals_per_s"] else 0.0, "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "pass_ratio": (passed / run["attempted"], "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one qfeedback benchmark workload.")
    parser.add_argument("--workload", choices=tuple(SEED_EFFECT), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        print(f"no qfeedback sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load_before = loadavg()
    try:
        setups = [worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        run = worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    load_after = loadavg()
    setups.append(run["setup_s"])

    facts = run["facts"]
    nproc = facts["nproc"] or 1
    # The measured process itself adds about 1 to the load read afterwards.
    loaded = max(load_before, load_after - 1.0) > 0.75 * nproc
    metrics = run["per_layer"] if args.trace else end_to_end(run, setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "facts": facts,
        "loadavg_1m": {"before": load_before, "after": load_after},
        "loaded_machine": loaded,
        "seed_effect": SEED_EFFECT[args.workload],
        "src_lines": src_lines(),
        "samples": {"rounds": len(run["job_s"]), "jobs": len(run["job_wall_s"]), "setups": len(setups)},
        "setup_s": setups,
        "job_s": run["job_s"],
        "job_wall_s": run["job_wall_s"],
        "speed_rep_s": run["speed_rep_s"],
        "attempted": run["attempted"],
        "failures": run["failures"],
        "results": run["results"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (BENCH / "results").mkdir(exist_ok=True)
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} ({SEED_EFFECT[args.workload]})")
    print(" ".join(f"{k}={v}" for k, v in facts.items()) + f" src_lines={record['src_lines']}")
    print(f"loadavg 1m before={load_before} after={load_after}" + (" LOADED MACHINE" if loaded else ""))
    print(f"samples: {len(run['job_s'])} rounds, {len(run['job_wall_s'])} jobs, {len(setups)} set-ups")
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not run["failures"],
                "attempted": run["attempted"],
                "failed": len(run["failures"]),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
