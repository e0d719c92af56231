"""Command-line front end.

Subcommands: validate | simulate | info | optimize | verify-lemmas.
Every command is deterministic for a fixed --seed and emits machine-readable
output (JSON by default).  Exit codes: 0 success, 1 validation or inequality
failure, 2 parse failure, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import __version__
from .achievability import (
    _hn_violation,
    gentle_measurement_check,
    cumulative_disturbance_report,
    typicality_bounds_check,
)
from .capacity import OptimizerConfig, estimate_feedback_capacity, grid_search_chi
from .config import (
    ConfigError,
    channel_from_spec,
    dump_report,
    encode_code,
    load_config,
)
from .cqstate import CqState, mutual_information
from .directed import rate_report, verify_ddpi
from .linalg import LinalgError, herm_eigvals, identity
from .protocol import (
    CapExceededError,
    Codebook,
    FeedbackCode,
    _error_figures,
    _p_correct,
    _transcripts,
    _walk,
    random_feedback_code,
    sample_transcript,
    validate_code,
)
from .quantum import (
    Ensemble,
    Povm,
    ValidationError,
    basis_state,
    density,
    depolarizing_channel,
    holevo_chi,
    random_density_matrix,
    random_pure_state,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3


def _outcome_key(outcomes) -> str:
    return "|".join(str(o) for o in outcomes)


def _leaves(value, path: str = ""):
    """(path, value) for every leaf: ``a.b`` for dict keys, ``a[i]`` for list items."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], f"{path}.{k}" if path else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _emit(report: dict, args) -> None:
    report["artifact_version"] = __version__
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_leaves(report))
        text = buf.getvalue().rstrip("\n")
    else:
        text = dump_report(report)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    rep = validate_code(cfg.code)
    report = {
        "command": "validate",
        "ok": rep.ok,
        "violations": [{"check": name, "magnitude": mag} for name, mag in rep.violations],
    }
    _emit(report, args)
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    code = cfg.code
    report: dict = {"command": "simulate", "seed": args.seed, "n": code.n}
    try:
        exact: dict[str, float] = {}
        words = code.codebook.words
        laws = _transcripts(code, _walk(code, words))
        for prob, word in zip(code.probs, words):
            for outcomes, p in laws[word]:
                exact[_outcome_key(outcomes)] = exact.get(_outcome_key(outcomes), 0.0) + prob * p
        report["exact_outcome_distribution"] = {k: exact[k] for k in sorted(exact)}
        p_correct = [_p_correct(laws[w], w) for w in words]
        report["average_error"], report["max_error"] = _error_figures(code, p_correct)
    except CapExceededError:
        if not args.samples:
            raise
        report["exact_skipped"] = "enumeration exceeded the branch cap"
    if args.samples:
        rng = np.random.default_rng(args.seed)
        counts: dict[str, int] = {}
        words = code.codebook.words
        probs = np.asarray(code.probs)
        errors = 0
        for _ in range(args.samples):
            word = words[int(rng.choice(len(words), p=probs / probs.sum()))]
            tr = sample_transcript(code, word, rng)
            key = _outcome_key(tr.outcomes)
            counts[key] = counts.get(key, 0) + 1
            if tr.decoded != word:
                errors += 1
        report["samples"] = args.samples
        report["sampled_frequencies"] = {
            k: counts[k] / args.samples for k in sorted(counts)
        }
        report["sampled_error"] = errors / args.samples
    _emit(report, args)
    return EXIT_OK


def cmd_info(args) -> int:
    cfg = load_config(args.config)
    rep = rate_report(cfg.code)
    lhs, rhs, slack = verify_ddpi(cfg.code)
    report = {
        "command": "info",
        "n": rep.n,
        "num_messages": rep.num_messages,
        "per_round_information": list(rep.per_round),
        "directed_information": rep.directed_total,
        "directed_information_final_variant": rep.directed_final,
        "i_message_quantum": rep.i_message_quantum,
        "i_message_classical": rep.i_message_classical,
        "ddpi_lhs": lhs,
        "ddpi_rhs": rhs,
        "ddpi_slack": slack,
        "rate": rep.rate,
        "average_error": rep.avg_error,
        "max_error": rep.max_error,
        "epsilon_n": rep.epsilon_n,
        "fano_bound": rep.fano_bound,
        "message_entropy_rate": rep.h_message_rate,
    }
    _emit(report, args)
    ok = slack >= -1e-9 and rep.i_message_classical <= rep.i_message_quantum + 1e-9
    return EXIT_OK if ok else EXIT_FAIL


def cmd_optimize(args) -> int:
    channel = channel_from_spec(_channel_spec_from_args(args))
    cfg = OptimizerConfig(
        starts=args.starts,
        seed=args.seed,
        max_sweeps=args.max_sweeps,
        feedback=not args.no_feedback,
    )
    result = estimate_feedback_capacity(channel, args.n, cfg)
    report = {
        "command": "optimize",
        "channel": channel.label,
        "n": args.n,
        "seed": args.seed,
        "starts": args.starts,
        "feedback_enabled": not args.no_feedback,
        "rate": result.rate,
        "rate_without_feedback": result.no_feedback_rate,
        "per_start_rates": list(result.start_values),
        "converged": result.converged,
    }
    if args.grid_check:
        report["grid_oracle"] = grid_search_chi(channel)
    if args.code_out:
        payload = dump_report(encode_code(result.code))
        with open(args.code_out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        report["code_file"] = args.code_out
    _emit(report, args)
    # Non-convergence is flagged in the report, with best-so-far still emitted.
    return EXIT_OK


def _channel_spec_from_args(args) -> dict:
    spec: dict = {"name": args.channel}
    if args.p is not None:
        spec["p"] = args.p
    if args.gamma is not None:
        spec["gamma"] = args.gamma
    return spec


def _lemma_battery(trials: int, seed: int, self_test: bool) -> dict:
    """Randomized checks for the inequality suite; deterministic per seed."""
    rng = np.random.default_rng(seed)
    results: dict = {}

    # Directed data-processing inequality + converse chain on random codes.
    worst_ddpi = np.inf
    worst_holevo = np.inf
    worst_fano = np.inf
    for _ in range(trials):
        n = int(rng.integers(1, 4))
        code = random_feedback_code(
            rng,
            depolarizing_channel(float(rng.uniform(0.0, 0.6))),
            n,
            num_words=min(int(rng.integers(2, 5)), 2**n),
        )
        lhs, rhs, slack = verify_ddpi(code)
        worst_ddpi = min(worst_ddpi, slack)
        rep = rate_report(code)
        worst_holevo = min(worst_holevo, rep.i_message_quantum - rep.i_message_classical)
        worst_fano = min(worst_fano, rep.fano_bound - rep.h_message_rate)
    results["ddpi"] = {"trials": trials, "worst_slack": float(worst_ddpi), "ok": worst_ddpi >= -1e-9}
    results["holevo_ordering"] = {
        "trials": trials,
        "worst_slack": float(worst_holevo),
        "ok": worst_holevo >= -1e-9,
    }
    results["fano"] = {"trials": trials, "worst_slack": float(worst_fano), "ok": worst_fano >= -1e-9}

    # cq identity: block mutual information equals the Holevo quantity.
    worst_cq = 0.0
    for _ in range(max(trials, 20)):
        probs = rng.dirichlet(np.ones(3))
        states = [random_density_matrix(rng, 2) for _ in range(3)]
        s = CqState(
            (("A", 3),),
            (2,),
            tuple(((i,), float(probs[i]), states[i]) for i in range(3)),
        )
        chi = holevo_chi(Ensemble(tuple((float(probs[i]), states[i]) for i in range(3))))
        worst_cq = max(worst_cq, abs(mutual_information(s, ("A",), (0,)) - chi))
    results["cq_identity"] = {"worst_deviation": float(worst_cq), "ok": worst_cq <= 1e-10}

    # Hayashi-Nagaoka operator inequality.
    hn_factor = 0.2 if self_test else 2.0
    worst_hn = -np.inf
    hn_trials = max(trials * 5, 100)
    for _ in range(hn_trials):
        dim = int(rng.integers(2, 9))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = g @ g.conj().T
        s = s / (herm_eigvals(s)[0] * float(rng.uniform(1.0, 3.0)))
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = (h @ h.conj().T) / dim * float(rng.uniform(0.1, 2.0)) + 0.05 * identity(dim)
        worst_hn = max(worst_hn, _hn_violation(s, t, hn_factor))
    results["hayashi_nagaoka"] = {
        "trials": hn_trials,
        "worst_violation": float(worst_hn),
        "ok": worst_hn <= 1e-9,
        "self_test_weakened": self_test,
    }

    # Gentle measurement at epsilon = 0.01.
    eps = 0.01
    worst_gentle = -np.inf
    gentle_trials = max(trials * 5, 100)
    for _ in range(gentle_trials):
        rho = random_density_matrix(rng, 3)
        pert = random_pure_state(rng, 3).mat
        denom = float(np.trace(rho.mat @ pert).real)
        scale = min(1.0, 3.0 * eps * float(rng.uniform(0, 1)) / max(denom, 1e-12))
        effect = identity(3) - scale * pert
        rep = gentle_measurement_check(rho, effect, eps)
        worst_gentle = max(worst_gentle, rep.distance - rep.bound)
    results["gentle_measurement"] = {
        "trials": gentle_trials,
        "worst_excess": float(worst_gentle),
        "ok": worst_gentle <= 1e-9,
    }

    # Typicality bounds with the provable per-state exponent constant.
    rho = density(np.diag([0.75, 0.25]))
    w = rho.eigvals()
    c_star = float(np.sum(np.abs(np.log2(w[w > 1e-12]))))
    trep = typicality_bounds_check(rho, 12, 0.1, c=c_star)
    results["typicality"] = {
        "overlap": trep.overlap,
        "overlap_bound": trep.overlap_bound,
        "max_compressed_eigenvalue": trep.max_compressed,
        "eigen_cap_at_c_star": trep.eigen_cap,
        "c_star": c_star,
        "ok": trep.overlap_ok and trep.eigen_ok,
    }

    # Cumulative disturbance end-to-end on a small double-blocked instance.
    book = Codebook(2, 1, ((0,), (1,)))
    els = (
        ((0,), np.diag([1.0, 0.0]).astype(complex)),
        ((1,), np.diag([0.0, 1.0]).astype(complex)),
    )
    base = FeedbackCode(
        book,
        depolarizing_channel(0.1),
        (0.5, 0.5),
        (basis_state(2, 0), basis_state(2, 1)),
        (Povm(els),),
    )
    records = cumulative_disturbance_report(base, 2, delta=0.5)
    worst_l4 = max((r.distance - r.bound for r in records), default=-np.inf)
    results["cumulative_disturbance"] = {
        "branches": len(records),
        "worst_excess": float(worst_l4),
        "ok": worst_l4 <= 1e-9,
    }
    return results


def cmd_verify_lemmas(args) -> int:
    results = _lemma_battery(args.trials, args.seed, args.self_test)
    all_ok = all(entry["ok"] for entry in results.values())
    report = {
        "command": "verify-lemmas",
        "seed": args.seed,
        "trials": args.trials,
        "self_test": args.self_test,
        "checks": results,
        "all_ok": all_ok,
    }
    _emit(report, args)
    return EXIT_OK if all_ok else EXIT_FAIL


def _count(least: int):
    """argparse type for a count (or seed) of at least ``least``; a smaller one is a parse error."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfeedback",
        description="Simulate and verify classical communication over quantum "
        "channels with noiseless classical feedback.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("validate", parents=[common], help="validate a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", parents=[common], help="run the protocol")
    p.add_argument("config")
    p.add_argument("--exact", action="store_true", help="exact enumeration only (default)")
    p.add_argument("--samples", type=_count(0), default=0, help="Monte Carlo sample count")
    p.add_argument("--seed", type=_count(0), default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("info", parents=[common], help="directed information and converse chain")
    p.add_argument("config")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("optimize", parents=[common], help="estimate the n-block feedback rate")
    p.add_argument("--channel", required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--n", type=_count(1), default=1)
    p.add_argument("--starts", type=_count(1), default=8)
    p.add_argument("--max-sweeps", type=_count(0), default=60)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--no-feedback", action="store_true")
    p.add_argument("--grid-check", action="store_true", help="also run the grid oracle")
    p.add_argument("--code-out", help="write the best code to this file")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify-lemmas", parents=[common], help="randomized inequality battery")
    p.add_argument("--trials", type=_count(1), default=25)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument(
        "--self-test",
        action="store_true",
        help="weaken the Hayashi-Nagaoka constant to prove the checker catches violations",
    )
    p.set_defaults(func=cmd_verify_lemmas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "exact", False) and args.samples:
        parser.error("simulate: --exact (exact enumeration only) does not take --samples")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"resource cap: {exc} (try --samples for Monte Carlo)", file=sys.stderr)
        return EXIT_CAP
    except (ValidationError, LinalgError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
