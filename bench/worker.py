"""One benchmark workload, run in a fresh process.

``run.py`` starts this file once per set-up probe and once for the measured
run.  It pins the BLAS thread count (before numpy is imported) and the
process to one CPU, times the import of qfeedback plus the construction of
the workload's inputs (``setup_s``), then runs whole rounds of jobs for the
given number of seconds, checks every job's numeric results against
``references.json``, and prints one JSON object as its last line of output.

With ``--trace 1`` it first runs untraced rounds for half the time, then
installs the span tracer of ``spans.py`` and runs traced rounds for the rest;
the per-layer metrics come from the traced rounds and are given per round.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for the whole process, so that the SpeedMeter thread samples the
# CPU the jobs run on.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

# Absolute tolerance for each workload's float results; booleans and
# integers must match exactly.  The optimizer's path depends on comparisons
# of objective values, so its outputs get a looser tolerance than the exact
# quantities.
TOLERANCE = {
    "optimize-n3": 1e-6,
    "blocked-l3": 1e-9,
    "simulate-mc": 1e-10,
    "verify-lemmas": 1e-8,
}

# The blocked-l3 base code.  Drawn with random_feedback_code from this fixed
# seed; the run's --seed only reorders the blocked codebook (see README.md
# for why the base code does not follow the run seed).
BLOCKED_BASE_SEED = 9
# verify-lemmas runs this bank of lemma seeds as one round; the run's --seed
# only rotates the order.
LEMMA_SEEDS = (0, 1, 2, 3)


# ----------------------------------------------------------------------------
# Workloads.  Each set-up returns the round: a list of (key, job) pairs, where
# job() returns (results, evals).  ``key`` names the reference entry.


def setup_optimize(seed: int, smoke: bool):
    import qfeedback as q

    channel = q.depolarizing_channel(0.1)
    n = 2 if smoke else 3
    # One start: start 0 is the family's fixed initial point, so the
    # optimizer does not use the seed at all.
    cfg = q.OptimizerConfig(starts=1, seed=seed, max_sweeps=1)
    counter = [0]
    from spans import count_objective_evals

    count_objective_evals(counter)

    def job():
        counter[0] = 0
        res = q.estimate_feedback_capacity(channel, n, cfg)
        grid = q.grid_search_chi(channel)
        results = {
            "rate": res.rate,
            "rate_without_feedback": res.no_feedback_rate,
            "grid_oracle": grid,
        }
        return results, counter[0]

    return [("job", job)]


def setup_blocked(seed: int, smoke: bool):
    import numpy as np
    import qfeedback as q

    base = q.random_feedback_code(
        np.random.default_rng(BLOCKED_BASE_SEED), q.depolarizing_channel(0.1), 2, num_words=2
    )
    l = 2 if smoke else 3
    groups = list(itertools.product(base.codebook.words, repeat=l))
    groups = [groups[i] for i in np.random.default_rng(seed).permutation(len(groups))]

    def job():
        code = q.build_double_blocked_code(base, l, delta=0.3, groups=groups)
        avg, worst = q.error_probability(code)
        return {"average_error": avg, "max_error": worst}, len(groups)

    return [("job", job)]


def setup_simulate(seed: int, smoke: bool):
    import numpy as np
    import qfeedback as q
    from qfeedback.config import load_config

    code = load_config(str(ROOT / "configs" / "depolarizing.json")).code
    samples = 50 if smoke else 2000
    words = code.codebook.words
    prior = np.asarray(code.probs) / np.sum(code.probs)
    draws = itertools.count()

    def job():
        # Library form of `qfeedback simulate --samples N`.
        law: dict[str, float] = {}
        for idx, word in enumerate(words):
            for tr in q.enumerate_transcripts(code, word):
                key = "|".join(str(o) for o in tr.outcomes)
                law[key] = law.get(key, 0.0) + code.probs[idx] * tr.probability
        avg, worst = q.error_probability(code)
        rng = np.random.default_rng([seed, next(draws)])
        errors = 0
        for _ in range(samples):
            word = words[int(rng.choice(len(words), p=prior))]
            if q.sample_transcript(code, word, rng).decoded != word:
                errors += 1
        sampled = errors / samples
        sigma = math.sqrt(max(avg * (1.0 - avg), 1e-12) / samples)
        results = {f"law.{k}": law[k] for k in sorted(law)}
        results.update(
            average_error=avg,
            max_error=worst,
            sampled_error=sampled,
            sampled_within_5_sigma=abs(sampled - avg) <= 5.0 * sigma,
        )
        return results, samples

    return [("job", job)]


def setup_verify(seed: int, smoke: bool):
    from qfeedback import cli

    trials = 2 if smoke else 10
    bank = LEMMA_SEEDS[:1] if smoke else LEMMA_SEEDS
    start = seed % len(bank)
    order = bank[start:] + bank[:start]

    def make_job(lemma_seed):
        def job():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify-lemmas", "--trials", str(trials), "--seed", str(lemma_seed)])
            report = json.loads(out.getvalue())
            results = {"exit_code": code, "all_ok": report["all_ok"]}
            for check, entry in report["checks"].items():
                for field, value in entry.items():
                    if isinstance(value, (int, float)):
                        results[f"{check}.{field}"] = value
            return results, trials

        return job

    return [(f"seed{s}", make_job(s)) for s in order]


SETUPS = {
    "optimize-n3": setup_optimize,
    "blocked-l3": setup_blocked,
    "simulate-mc": setup_simulate,
    "verify-lemmas": setup_verify,
}


# ----------------------------------------------------------------------------
# Checking results.


def load_references(workload: str, smoke: bool) -> dict:
    with open(BENCH / "references.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]["smoke" if smoke else "full"]


def mismatches(results: dict, reference: dict | None, tol: float) -> list[str]:
    """Fields of ``reference`` that ``results`` misses or moves outside ``tol``."""
    if reference is None:
        return ["no reference for this job"]
    bad = []
    for field, want in reference.items():
        got = results.get(field)
        if got is None:
            bad.append(f"{field}: missing")
        elif isinstance(want, bool) or isinstance(got, bool) or isinstance(want, int):
            if got != want:
                bad.append(f"{field}: {got!r} != {want!r}")
        elif not abs(got - want) <= tol:
            bad.append(f"{field}: {got!r} differs from {want!r} by more than {tol}")
    return bad


# ----------------------------------------------------------------------------
# Machine speed.

# Seconds per repetition of the speed kernel that timings are scaled to.  On
# a 2-vCPU Intel Xeon virtual machine at 2.0 GHz a repetition took from
# 0.75 ms to 1.7 ms as the machine's speed changed.
NOMINAL_REP_S = 1e-3
# Length of the speed sample taken right after the set-up.
SETUP_SPEED_S = 0.25


def speed_kernel():
    """One repetition of a fixed kernel that does not use qfeedback.

    No change to the library can move its time.  It mixes what the workloads
    spend their time on: Python-level Jacobi rotations on a small complex
    Hermitian matrix, small Kronecker and matrix products, traces and
    dict/tuple handling.  It takes about a millisecond.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    herm = g + g.conj().T
    small = g[:2, :2]

    def rep():
        a = herm.copy()
        for p in range(7):
            for q in range(p + 1, 8):
                z = a[p, q]
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(z))
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                su = t * c * z / abs(z)
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - np.conj(su) * aq
                a[:, q] = su * ap + c * aq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - su * rq
                a[q, :] = np.conj(su) * rp + c * rq
        for i in range(20):
            k = (small[:, None, :, None] * small[None, :, None, :]).reshape(4, 4)
            m = k @ k.conj().T
            float(np.max(np.abs(m - m.conj().T)))
            np.trace(m.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            tuple({"i": i, "pair": (i, i)}.items())

    return rep


def speed_sample(seconds: float) -> float:
    """Thread CPU seconds per kernel repetition, over about ``seconds``."""
    rep = speed_kernel()
    reps = 0
    t0, c0 = time.perf_counter(), time.thread_time()
    while reps == 0 or time.perf_counter() - t0 < seconds:
        rep()
        reps += 1
    return (time.thread_time() - c0) / reps


class SpeedMeter:
    """Samples the machine's speed from a background thread while jobs run.

    Every ``interval`` seconds the thread times one kernel repetition in its
    own CPU time, which leaves out the time it waits for the interpreter
    lock, so the sample follows how fast the CPU runs, not how busy the main
    thread is.  The process is pinned to one CPU, so the thread runs where
    the jobs run.  Holding the lock for about a millisecond per interval
    slows the jobs by a constant two percent or so.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self._rep = speed_kernel()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-meter", daemon=True)

    def _run(self):
        while not self._stop.wait(self.interval):
            c0 = time.thread_time()
            self._rep()
            self.samples.append(time.thread_time() - c0)

    def rep_seconds(self, first: int) -> float:
        """Mean seconds per repetition of the samples taken since index ``first``."""
        taken = self.samples[first:]
        return sum(taken) / len(taken) if taken else speed_sample(0.0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


# ----------------------------------------------------------------------------
# Measurement.


class Runner:
    """Runs whole rounds, times each job and counts attempts and failures.

    Each job's wall time is scaled by NOMINAL_REP_S over the mean kernel time
    the SpeedMeter measured while the job ran.  A round's figures are the
    mean scaled seconds per job and the evals per scaled second of its
    passing jobs; where a round holds jobs of different cost, as on
    verify-lemmas, every round still measures the same work.
    """

    def __init__(self, workload: str, references: dict):
        self.tol = TOLERANCE[workload]
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []
        self.results: dict[str, dict] = {}
        self.wall: list[float] = []
        self.speed: list[float] = []
        # Peak resident memory up to the end of the first round, which every
        # run makes, so the figure does not depend on how many rounds fit.
        self.peak_rss_mb: float | None = None

    def job(self, key, job, meter, span):
        """Run, time and check one job; return (scaled seconds, evals if it passed)."""
        self.attempted += 1
        first = len(meter.samples)
        t = time.perf_counter()
        try:
            with span("bench.job") if span else contextlib.nullcontext():
                results, n = job()
        except Exception:  # a failing job is counted, not fatal
            results, n = None, 0
            self.failures.append(f"{key}: {traceback.format_exc(limit=3)}")
        wall = time.perf_counter() - t
        self.wall.append(wall)
        self.speed.append(meter.rep_seconds(first))
        if results is not None:
            self.results.setdefault(key, results)
            bad = mismatches(results, self.references.get(key), self.tol)
            if bad:
                self.failures.append(f"{key}: " + "; ".join(bad))
                n = 0
        return wall * NOMINAL_REP_S / self.speed[-1], n

    def rounds(self, jobs, budget: float, span=None):
        """Run rounds until the next would overrun ``budget`` seconds; at least one.

        Returns each round's mean scaled seconds per job and evals per
        scaled second.
        """
        job_s, evals_per_s = [], []
        t0 = time.perf_counter()
        with SpeedMeter() as meter:
            while True:
                timed = [self.job(key, job, meter, span) for key, job in jobs]
                seconds = sum(t for t, _ in timed)
                job_s.append(seconds / len(timed))
                evals_per_s.append(sum(n for _, n in timed) / seconds)
                if self.peak_rss_mb is None:
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                elapsed = time.perf_counter() - t0
                if elapsed * (len(job_s) + 1) / len(job_s) > budget:
                    return job_s, evals_per_s


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def per_layer(tracer, setup_range, job_range, rounds: int, overhead: float) -> dict:
    """The per-layer metrics, per traced round, as name -> (value, unit)."""
    jobs = tracer.aggregate(*job_range)
    setup = tracer.aggregate(*setup_range)
    per = 1.0 / rounds
    out: dict[str, tuple[float, str]] = {}

    def stat(name, field, unit="s", source=None, scale=per):
        entry = (source or jobs).get(name)
        value = entry[field] if entry else 0
        out[f"{name}.{field}"] = (value * scale, "count" if field == "calls" else unit)

    from spans import EIG_DIMS

    other_calls, other_self = 0, 0.0
    for name, entry in jobs.items():
        if name.startswith("linalg.herm_eig.d") and int(name[17:]) not in EIG_DIMS:
            other_calls += entry["calls"]
            other_self += entry["self_s"]
    for d in EIG_DIMS:
        entry = jobs.get(f"linalg.herm_eig.d{d}")
        out[f"linalg.herm_eig.calls.d{d}"] = ((entry["calls"] if entry else 0) * per, "count")
        out[f"linalg.herm_eig.self_s.d{d}"] = ((entry["self_s"] if entry else 0.0) * per, "s")
    out["linalg.herm_eig.calls.other"] = (other_calls * per, "count")
    out["linalg.herm_eig.self_s.other"] = (other_self * per, "s")

    for name in ("linalg.partial_trace", "linalg.embed_operator", "linalg.kron"):
        stat(name, "calls")
        stat(name, "self_s")
    for name in ("linalg.psd_sqrt", "linalg.pinv_sqrt"):
        stat(name, "calls")
        stat(name, "incl_s")
    for name in ("quantum.apply_channel_at", "quantum.measure", "quantum.apply_kraus"):
        stat(name, "calls")
        stat(name, "self_s")
    stat("quantum.entropy_of", "incl_s")
    stat("quantum.DensityMatrix.init", "calls")
    stat("quantum.DensityMatrix.init", "self_s")
    eig_calls = tracer.counts.get("quantum.DensityMatrix.eig.calls", 0)
    eig_hits = tracer.counts.get("quantum.DensityMatrix.eig.hits", 0)
    out["quantum.DensityMatrix.eig.calls"] = (eig_calls * per, "count")
    out["quantum.DensityMatrix.eig.cache_hit_ratio"] = (eig_hits / eig_calls if eig_calls else 0.0, "ratio")

    stat("cqstate.cq_entropy", "calls")
    stat("cqstate.cq_entropy", "self_s")
    stat("cqstate.cq_entropy", "incl_s")
    stat("cqstate.conditional_mutual_information", "incl_s")

    for name in ("protocol.ehs_states", "protocol.enumerate_transcripts", "protocol.error_probability"):
        stat(name, "calls")
        stat(name, "incl_s")
    walks = sum(jobs[n]["calls"] for n in ("protocol._walk", "protocol.ehs_states") if n in jobs)
    out["protocol.walks"] = (walks * per, "count")
    out["protocol.transcripts"] = (tracer.counts.get("protocol.transcripts", 0) * per, "count")
    out["protocol.pruned_mass"] = (tracer.counts.get("protocol.pruned_mass", 0.0) * per, "prob")
    stat("protocol.sample_transcript", "calls")
    p50, tail = percentiles(jobs.get("protocol.sample_transcript"))
    out["protocol.sample_transcript.p50_us"] = (p50 * 1e6, "us")
    out["protocol.sample_transcript.tail_us"] = (tail * 1e6, "us")

    for name in ("directed.rate_report", "directed.message_information", "directed.directed_terms"):
        stat(name, "calls")
        stat(name, "incl_s")
    reports = jobs["directed.rate_report"]["calls"] if "directed.rate_report" in jobs else 0
    out["directed.walks_per_report"] = (walks / reports if reports else 0.0, "ratio")

    from spans import OBJECTIVE

    evals = jobs.get(OBJECTIVE)
    out["capacity.objective_evals"] = ((evals["calls"] if evals else 0) * per, "count")
    p50, tail = percentiles(evals)
    out["capacity.eval_p50_ms"] = (p50 * 1e3, "ms")
    out["capacity.eval_tail_ms"] = (tail * 1e3, "ms")
    stat("capacity.coordinate_ascent", "self_s")
    stat("capacity.grid_search_chi", "incl_s")

    stat("achievability.build_double_blocked_code", "incl_s")
    stat("achievability.build_double_blocked_code", "self_s")
    for name in (
        "achievability.square_root_measurement",
        "achievability.cond_typical_projector",
        "achievability.typical_projector",
    ):
        stat(name, "calls")
        stat(name, "incl_s")

    stat("config.load_config", "incl_s", source=setup, scale=1.0)
    stat("cli.main", "self_s")
    out["bench.tracing_overhead"] = (overhead, "ratio")
    out["bench.traced_rounds"] = (rounds, "count")
    return out


def percentiles(entry) -> tuple[float, float]:
    """Median and tail duration: the tail is the highest order statistic with
    at least ten samples above it (the maximum when there are fewer than 11)."""
    if not entry:
        return 0.0, 0.0
    durs = sorted(entry["durations"])
    return statistics.median(durs), durs[max(len(durs) - 11, 0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help="time the set-up and exit")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import qfeedback  # noqa: F401  (the import is part of the set-up time)

    jobs = SETUPS[args.workload](args.seed, args.smoke)
    setup_wall = time.perf_counter() - t0
    setup_speed = speed_sample(SETUP_SPEED_S)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_wall * NOMINAL_REP_S / setup_speed}))
        return 0

    runner = Runner(args.workload, load_references(args.workload, args.smoke))
    record: dict = {
        "setup_s": setup_wall * NOMINAL_REP_S / setup_speed,
        "facts": machine_facts(),
    }
    if not args.trace:
        record["job_s"], record["evals_per_s"] = runner.rounds(jobs, args.seconds)
    else:
        from spans import Tracer

        record["job_s"], _ = runner.rounds(jobs, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        first = len(tracer.start)
        with tracer.span("bench.setup"):
            jobs = SETUPS[args.workload](args.seed, args.smoke)
        setup_range = (first, len(tracer.start))
        tracer.counts.clear()  # the counters are per round of jobs
        remaining = args.seconds - (time.perf_counter() - t0 - setup_wall)
        record["traced_job_s"], _ = runner.rounds(jobs, remaining, span=tracer.span)
        rounds = len(record["traced_job_s"])
        job_range = (setup_range[1], len(tracer.start))
        overhead = statistics.median(record["traced_job_s"]) / statistics.median(record["job_s"]) - 1.0
        record["per_layer"] = per_layer(tracer, setup_range, job_range, rounds, overhead)
        (BENCH / "results").mkdir(exist_ok=True)
        tracer.save(BENCH / "results" / f"{args.workload}.spans.npz")
    record["peak_rss_mb"] = runner.peak_rss_mb
    record["attempted"] = runner.attempted
    record["failures"] = runner.failures
    record["results"] = runner.results
    record["job_wall_s"] = runner.wall
    record["speed_rep_s"] = runner.speed
    record["setup_wall_s"] = setup_wall
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
