"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Criterion 7's eigenvalue clause is implemented exactly as stated
(exponent constant c = 1); for the spectrum used there the true constant is
log2(3) ~ 1.585, so that single clause fails by arithmetic and is expected
red.  See the README's acceptance notes.
"""

import io
import json
import time
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

import numpy as np
import pytest
from oracles import cq_state, oracle_random_feedback_code, random_channel

from qfeedback.achievability import (
    build_double_blocked_code,
    gentle_measurement_check,
    hayashi_nagaoka_check,
    cumulative_disturbance_report,
    typical_projector_data,
)
from qfeedback.capacity import OptimizerConfig, estimate_feedback_capacity, grid_search_chi
from qfeedback.cli import main as cli_main
from qfeedback.cqstate import mutual_information
from qfeedback.directed import directed_information_total, rate_report, verify_ddpi
from qfeedback.linalg import herm_eigvals, identity
from qfeedback.protocol import (
    Codebook,
    FeedbackCode,
    ehs_state,
    random_feedback_code,
)
from qfeedback.quantum import (
    Ensemble,
    Povm,
    amplitude_damping_channel,
    basis_state,
    density,
    dephasing_channel,
    depolarizing_channel,
    entropy,
    holevo_chi,
    identity_channel,
    random_density_matrix,
    random_pure_state,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = [ROOT / "configs" / "identity.json", ROOT / "configs" / "depolarizing.json"]


def announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    return ok


def _random_channel(rng):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return depolarizing_channel(float(rng.uniform(0.0, 1.0)))
    if kind == 1:
        return amplitude_damping_channel(float(rng.uniform(0.0, 0.8)))
    if kind == 2:
        return dephasing_channel(float(rng.uniform(0.0, 1.0)))
    return random_channel(rng, 2, int(rng.integers(1, 4)))


@pytest.fixture(scope="module")
def code_corpus():
    """200 random feedback codes with their converse-chain reports."""
    rng = np.random.default_rng(20240817)
    t0 = time.time()
    corpus = []
    for i in range(200):
        n = int(rng.integers(1, 4))
        num_words = min(int(rng.integers(2, 5)), 2**n)
        code = random_feedback_code(rng, _random_channel(rng), n, num_words=num_words)
        _, _, slack = verify_ddpi(code)
        rep = rate_report(code)
        corpus.append((code, slack, rep))
    return corpus, time.time() - t0


def test_criterion_01_ddpi_suite(code_corpus):
    corpus, elapsed = code_corpus
    worst = min(slack for _, slack, _ in corpus)
    ok = worst >= -1e-9 and elapsed <= 300.0
    assert announce(
        1, ok, f"DDPI slack >= -1e-9 on {len(corpus)} random codes (worst {worst:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_02_converse_chain(code_corpus):
    corpus, _ = code_corpus
    worst_holevo = min(r.i_message_quantum - r.i_message_classical for _, _, r in corpus)
    worst_fano = min(r.fano_bound - r.h_message_rate for _, _, r in corpus)
    ok = worst_holevo >= -1e-9 and worst_fano >= -1e-9
    assert announce(
        2,
        ok,
        f"I(M:K)<=I(M:Z) worst {worst_holevo:.3e}; H(M)/n<=Fano worst {worst_fano:.3e}",
    )


def test_criterion_03_cq_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(k))
        states = [random_density_matrix(rng, 2) for _ in range(k)]
        s = cq_state(
            (("A", k),),
            (2,),
            tuple(((i,), float(probs[i]), states[i]) for i in range(k)),
        )
        chi = holevo_chi(Ensemble(tuple((float(probs[i]), states[i]) for i in range(k))))
        worst = max(worst, abs(mutual_information(s, ("A",), (0,)) - chi))
    ok = worst <= 1e-10
    assert announce(3, ok, f"|I(A:B) - chi| worst {worst:.3e} over 100 random cq states")


def test_criterion_04_hayashi_nagaoka():
    rng = np.random.default_rng(4)
    worst = -np.inf
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = g @ g.conj().T
        s = s / (herm_eigvals(s)[0] * float(rng.uniform(1.0, 3.0)))
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = (h @ h.conj().T) / dim * float(rng.uniform(0.1, 2.0)) + 0.05 * identity(dim)
        violation, passed = hayashi_nagaoka_check(s, t)
        worst = max(worst, violation)
        if not passed:
            break
    ok = worst <= 1e-9
    assert announce(4, ok, f"operator inequality worst violation {worst:.3e} over 1000 draws")


def test_criterion_05_gentle_measurement():
    rng = np.random.default_rng(5)
    eps = 0.01
    worst = -np.inf
    hypothesis_failures = 0
    for _ in range(1000):
        rho = random_density_matrix(rng, int(rng.integers(2, 5)))
        pert = random_pure_state(rng, rho.dim).mat
        denom = float(np.trace(rho.mat @ pert).real)
        scale = min(1.0, 3.0 * eps * float(rng.uniform(0.0, 1.0)) / max(denom, 1e-12))
        effect = identity(rho.dim) - scale * pert
        rep = gentle_measurement_check(rho, effect, eps)
        if not rep.hypothesis_ok:
            hypothesis_failures += 1
            continue
        worst = max(worst, rep.distance - rep.bound)
    ok = worst <= 1e-9 and hypothesis_failures == 0
    assert announce(5, ok, f"trace distance within sqrt(24e)+6e (worst excess {worst:.3e})")


def _one_block_basis_code(channel):
    book = Codebook(2, 1, ((0,), (1,)))
    els = (
        ((0,), np.diag([1.0, 0.0]).astype(complex)),
        ((1,), np.diag([0.0, 1.0]).astype(complex)),
    )
    return FeedbackCode(
        book, channel, (0.5, 0.5), (basis_state(2, 0), basis_state(2, 1)), (Povm(els),)
    )


def test_criterion_06_cumulative_disturbance_end_to_end():
    base = _one_block_basis_code(depolarizing_channel(0.1))
    worst = -np.inf
    branches = 0
    for l in (2, 3):
        records = cumulative_disturbance_report(build_double_blocked_code(base, l, delta=0.5), base)
        assert records
        branches += len(records)
        worst = max(worst, max(r.distance - r.bound for r in records))
    ok = worst <= 1e-9
    assert announce(
        6, ok, f"cumulative disturbance within bound on {branches} branches (worst excess {worst:.3e})"
    )


def test_criterion_07a_typicality_overlap_oracle():
    rho = density(np.diag([0.75, 0.25]))
    n, delta = 12, 0.1
    data = typical_projector_data(rho, n, delta)
    overlap = data.overlap()
    oracle = 0.0
    for zeros in range(n + 1):
        if abs(zeros - n * 0.75) <= n * delta and abs((n - zeros) - n * 0.25) <= n * delta:
            oracle += comb(n, zeros) * 0.75**zeros * 0.25 ** (n - zeros)
    ok = abs(overlap - oracle) <= 1e-12
    assert announce(
        7, ok, f"overlap tr(rho^12 Pi) = {overlap:.12f} equals binomial tail to 1e-12"
    )


def test_criterion_07b_typicality_eigenvalue_cap_c1():
    # As stated: every Pi-compressed eigenvalue <= 2^(-n(S - c delta)) at c = 1.
    # For diag(3/4, 1/4) the largest typical string probability is
    # (3/4)^10 (1/4)^2 = 2^-8.15 while the c = 1 cap is 2^-8.54, so this
    # clause is unattainable; the provable constant here is log2(3) ~ 1.585.
    rho = density(np.diag([0.75, 0.25]))
    n, delta, c = 12, 0.1, 1.0
    data = typical_projector_data(rho, n, delta)
    cap = 2.0 ** (-n * (entropy(rho) - c * delta))
    worst = float(data.compressed_eigenvalues().max())
    ok = worst <= cap + 1e-15
    announce(7, ok, f"eigenvalue cap at c=1: max {worst:.6e} vs cap {cap:.6e} (known spec defect)")
    assert ok, (
        "criterion as stated is mathematically unattainable: "
        f"max compressed eigenvalue {worst:.6e} > 2^(-n(S-delta)) = {cap:.6e}; "
        "the bound requires c >= log2(3) for this spectrum"
    )


def test_criterion_08_capacity_golden_values():
    cfg = OptimizerConfig(starts=4, seed=0, max_sweeps=60)
    ident = estimate_feedback_capacity(identity_channel(2), 1, cfg)
    ok = ident.rate >= 0.99
    full = estimate_feedback_capacity(
        fully_depolarizing := depolarizing_channel(1.0), 1, OptimizerConfig(starts=2, seed=0, max_sweeps=5)
    )
    ok = ok and full.rate <= 1e-6
    detail = [f"identity {ident.rate:.6f}", f"fully-depolarizing {full.rate:.2e}"]
    for p in (0.1, 0.2):
        res = estimate_feedback_capacity(depolarizing_channel(p), 1, cfg)
        oracle = grid_search_chi(depolarizing_channel(p))
        ok = ok and abs(res.rate - oracle) <= 1e-3
        detail.append(f"dep({p}) {res.rate:.6f} vs grid {oracle:.6f}")
    assert announce(8, ok, "; ".join(detail))


def _run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main([str(a) for a in args])
    return rc, buf.getvalue()


def test_criterion_09_exact_vs_sampled():
    ok = True
    details = []
    for cfg_path in CONFIGS:
        rc, out = _run_cli(["simulate", cfg_path, "--samples", 10000, "--seed", 17])
        assert rc == 0
        rep = json.loads(out)
        n = rep["samples"]
        worst_sigma = 0.0
        for key, p in rep["exact_outcome_distribution"].items():
            if p < 5e-4:
                continue
            sigma = np.sqrt(p * (1.0 - p) / n)
            dev = abs(rep["sampled_frequencies"].get(key, 0.0) - p) / sigma
            worst_sigma = max(worst_sigma, dev)
            ok = ok and dev <= 3.0
        details.append(f"{cfg_path.name}: worst {worst_sigma:.2f} sigma")
    assert announce(9, ok, "; ".join(details))


def test_criterion_10_no_feedback_reduction():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        code = oracle_random_feedback_code(
            rng, _random_channel(rng), n, num_words=min(int(rng.integers(2, 5)), 2**n), feedback=False
        )
        meas = tuple(Povm(((0, identity(2**j)),)) for j in range(1, n)) + (code.measurements[-1],)
        trivial = FeedbackCode(code.codebook, code.channel, code.probs, code.states, meas)
        total = directed_information_total(trivial)
        s = ehs_state(trivial, n - 1)
        mi = mutual_information(s, tuple(f"A{i}" for i in range(1, n + 1)), tuple(range(n)))
        worst = max(worst, abs(total - mi))
    ok = worst <= 1e-9
    assert announce(10, ok, f"|directed - I(A_1^n:Z_1^n)| worst {worst:.3e} over 50 instances")


def test_criterion_11_cli_determinism(tmp_path):
    commands = [
        ["validate", CONFIGS[0]],
        ["simulate", CONFIGS[1], "--samples", 2000, "--seed", 23],
        ["simulate", CONFIGS[1], "--exact"],
        ["info", CONFIGS[1]],
        ["optimize", "--channel", "depolarizing", "--p", 0.2, "--n", 1, "--starts", 2,
         "--max-sweeps", 10, "--seed", 3],
        ["verify-lemmas", "--trials", 2, "--seed", 5],
    ]
    ok = True
    for args in commands:
        rc1, out1 = _run_cli(args)
        rc2, out2 = _run_cli(args)
        ok = ok and rc1 == rc2 and out1 == out2
    assert announce(11, ok, f"{len(commands)} CLI commands byte-identical across repeat runs")
