"""Independent per-object oracles that only the tests read.

The library walks stacked (B, D, D) frontiers; these oracles redo the same
protocol one branch and one ``DensityMatrix`` at a time, through the public
per-object kernels of ``qfeedback.quantum`` (``apply_channel_at``,
``measure``, ``apply_kraus``) and ``measure_probabilities`` below, and evaluate
entropies on the materialized block-diagonal matrix.  They are slow and
small by design.  ``per_entropy`` is the exception: it is the one-entropy
body that the batched ``cq_entropies`` pass must equal bit for bit.
"""

from __future__ import annotations

import numpy as np

from qfeedback.cqstate import CqState, _first_seen, _split_keys
from qfeedback.linalg import RANK_TOL, as_matrix, herm_eig, partial_trace
from qfeedback.protocol import FeedbackCode, round_zero
from qfeedback.quantum import (
    PROB_FLOOR,
    DensityMatrix,
    ValidationError,
    apply_channel_at,
    apply_kraus,
    entropies,
    entropy,
    measure,
    outcome_probabilities,
    shannon,
)

MATERIALIZE_CAP = 4096


def measure_probabilities(povm, rho: DensityMatrix) -> dict:
    """Outcome probabilities of ``measure`` without its post-states, for one state (see ``outcome_probabilities``)."""
    p = outcome_probabilities(povm, rho.mat[None], rho.dims)[0]
    probs = {label: float(x) for label, x in zip(povm.labels, p) if x >= PROB_FLOOR}
    if not probs:
        raise ValidationError("all measurement outcomes fell below PROB_FLOOR")
    return probs


def round_update(code: FeedbackCode, state: DensityMatrix, m: int, outcome, history: tuple = ()):
    """One protocol update: channel on register m-1, measure M_{m-1}, post-process.

    ``state`` is omega^{m-2}; returns the conditional probability of
    ``outcome`` and omega^{m-1}.  ``history`` carries earlier outcomes for
    adaptive measurement schedules.
    """
    n = code.n
    if not 2 <= m <= n:
        raise ValidationError(f"round {m} out of range 2..{n}")
    branches = measure(code.measurement(m - 1, history), apply_channel_at(code.channel, state, m - 1))
    if outcome not in branches:
        raise ValidationError(f"outcome {outcome!r} has probability below the floor")
    p, post = branches[outcome]
    kraus = code.feedback_kraus(m, outcome)
    if kraus is not None and m < n:
        post = apply_kraus(kraus, post, registers=range(m, n))
    return p, post


def oracle_walk(code: FeedbackCode, word) -> list[list]:
    """Frontiers t = 0..n-1 of one codeword: lists of (history, probability, omega^0..omega^t)."""
    frontiers = [[((), 1.0, (round_zero(code, word),))]]
    for m in range(2, code.n + 1):
        new = []
        for history, p_path, states in frontiers[-1]:
            sigma = apply_channel_at(code.channel, states[-1], m - 1)
            for outcome in measure(code.measurement(m - 1, history), sigma):
                p, post = round_update(code, states[-1], m, outcome, history)
                if p_path * p >= PROB_FLOOR:
                    new.append((history + (outcome,), p_path * p, states + (post,)))
        frontiers.append(new)
    return frontiers


def oracle_transcripts(code: FeedbackCode, word) -> list[tuple]:
    """(outcomes, probability, omega^0..omega^{n-1}) of every transcript of one codeword."""
    out = []
    for history, p_path, states in oracle_walk(code, word)[-1]:
        finals = measure_probabilities(code.measurement(code.n, history), states[-1])
        for k_n, p in finals.items():
            if p_path * p >= PROB_FLOOR:
                out.append((history + (k_n,), p_path * p, states))
    return out


def outcome_chain(code: FeedbackCode) -> dict:
    """Joint distribution over (codeword, full outcome tuple)."""
    chain: dict = {}
    for idx, word in enumerate(code.codebook.words):
        if code.probs[idx] < PROB_FLOOR:
            continue
        for outcomes, prob, _ in oracle_transcripts(code, word):
            chain[(word, outcomes)] = chain.get((word, outcomes), 0.0) + code.probs[idx] * prob
    return chain


def oracle_error_probability(code: FeedbackCode) -> tuple[float, float]:
    errors = [
        1.0 - sum(p for outcomes, p, _ in oracle_transcripts(code, w) if outcomes[-1] == w)
        for w in code.codebook.words
    ]
    return float(np.dot(code.probs, errors)), max(errors)


def oracle_ehs_branches(code: FeedbackCode) -> list[dict]:
    """For t = 0..n-1: EHS label -> (weight, omega^t), weights normalized over live branches."""
    n = code.n
    labels = [code.outcome_labels(j) for j in range(1, n)]
    out = []
    for t in range(n):
        table = {}
        for idx, word in enumerate(code.codebook.words):
            if code.probs[idx] < PROB_FLOOR:
                continue
            for history, p_path, states in oracle_walk(code, word)[t]:
                xs = tuple(labels[j].index(k) + 1 for j, k in enumerate(history))
                table[word + xs + (0,) * (n - 1 - t)] = (code.probs[idx] * p_path, states[-1])
        total = sum(w for w, _ in table.values() if w >= PROB_FLOOR)
        out.append({lab: (w / total, rho) for lab, (w, rho) in table.items() if w >= PROB_FLOOR})
    return out


def materialize(state: CqState) -> DensityMatrix:
    """Block-diagonal embedding with classical labels as orthonormal basis states.

    A small-dimension test oracle; guarded by MATERIALIZE_CAP.
    """
    sizes = [s for _, s in state.classical_registers]
    c_dim = int(np.prod(sizes))
    total = c_dim * state.quantum_dim
    if total > MATERIALIZE_CAP:
        raise ValidationError(f"materialized dimension {total} exceeds cap {MATERIALIZE_CAP}")
    q_dim = state.quantum_dim
    mat = np.zeros((total, total), dtype=complex)
    for lab, w, rho in state.branches:
        offset = 0
        for x, s in zip(lab, sizes):
            offset = offset * s + x
        start = offset * q_dim
        mat[start : start + q_dim, start : start + q_dim] += w * rho.mat
    return DensityMatrix(mat, tuple(sizes) + state.quantum_dims)


def materialized_entropy(state: CqState, classical=(), quantum=()) -> float:
    """Entropy via the materialized block-diagonal marginal."""
    cls = [state.register_index(n) for n in classical]
    full = materialize(state)
    n_c = len(state.classical_registers)
    keep = sorted(cls) + [n_c + int(i) for i in quantum]
    return entropy(full.ptrace(keep)) if keep else 0.0


def per_entropy(state: CqState, classical=(), quantum=()) -> float:
    """One entropy on its own: its own key parse, grouping, partial trace and stacked eigvalsh.

    S = H(label marginal) + sum_a p_a S(rho_a), the block weights summed by
    ``bincount`` and the block marginals by ``np.add.at`` in branch order, the
    kept terms added by one ``cumsum``.
    """
    if isinstance(classical, str):
        classical = (classical,)
    cls, qnt = _split_keys(state, (*classical, *quantum))
    group, first = _first_seen(state.labels[:, cls])
    w_g = np.bincount(group, state.weights, minlength=len(first))
    h = shannon(w_g)
    if not qnt:
        return h
    reduced = partial_trace(state.states, state.quantum_dims, qnt)
    marginals = np.zeros((len(first),) + reduced.shape[1:], dtype=complex)
    np.add.at(marginals, group, state.weights[:, None, None] * reduced)
    keep = w_g >= PROB_FLOOR
    terms = w_g[keep] * entropies(marginals[keep] / w_g[keep, None, None])
    return h + float(np.cumsum(np.concatenate([[0.0], terms]))[-1])


def per_entropy_cmi(state: CqState, part_a, part_b, part_c) -> float:
    """I(A:B|C) = S(AC) + S(BC) - S(ABC) - S(C), each entropy by ``per_entropy``."""
    a, b, c = tuple(part_a), tuple(part_b), tuple(part_c)
    s_abc, s_ac, s_bc = per_entropy(state, a + b + c), per_entropy(state, a + c), per_entropy(state, b + c)
    return s_ac + s_bc - s_abc - per_entropy(state, c) if c else s_ac + s_bc - s_abc


def per_entropy_terms(states) -> list[float]:
    """Directed-information term t on the t-th state, I(A_1^t : Z_t | Z_1^{t-1}), by ``per_entropy_cmi``."""
    return [
        per_entropy_cmi(state, tuple(f"A{i}" for i in range(1, t + 1)), (t - 1,), tuple(range(t - 1)))
        for t, state in enumerate(states, start=1)
    ]


def oracle_rate_report(code: FeedbackCode, uniform_messages: bool = True) -> dict:
    """Every ``RateReport`` field from the oracle walk and materialized entropies."""
    n, words = code.n, code.codebook.words
    regs = tuple((f"A{i + 1}", code.codebook.alphabet) for i in range(n)) + tuple(
        (f"X{j}", len(code.outcome_labels(j)) + 1) for j in range(1, n)
    )
    states = [
        CqState(regs, code.dims, [(lab, w, rho) for lab, (w, rho) in table.items()])
        for table in oracle_ehs_branches(code)
    ]

    def cmi(state, t):
        a, b, c = tuple(f"A{i}" for i in range(1, t + 1)), (t - 1,), tuple(range(t - 1))
        s = lambda cls, qnt: materialized_entropy(state, cls, qnt)
        return s(a, c) + s((), b + c) - s(a, b + c) - s((), c)

    terms = [cmi(state, t) for t, state in enumerate(states, start=1)]
    if uniform_messages:
        probs = [1.0 / len(words)] * len(words)
    else:
        probs = list(np.asarray(code.probs) / sum(code.probs))
    transcripts = {w: oracle_transcripts(code, w) for w in words}
    finals = []
    for w in words:
        acc = sum(p * states_[-1].mat for _, p, states_ in oracle_walk(code, w)[-1])
        finals.append(DensityMatrix(acc / np.trace(acc).real, code.dims))
    avg = DensityMatrix(sum(p * rho.mat for p, rho in zip(probs, finals)), code.dims)
    i_mz = entropy(avg) - sum(p * entropy(rho) for p, rho in zip(probs, finals) if p > PROB_FLOOR)
    laws = [{} for _ in words]
    for law, w in zip(laws, words):
        for outcomes, p, _ in transcripts[w]:
            law[outcomes] = law.get(outcomes, 0.0) + p
    marginal: dict = {}
    for p_m, law in zip(probs, laws):
        for k, p in law.items():
            marginal[k] = marginal.get(k, 0.0) + p_m * p
    i_mk = shannon(marginal.values()) - sum(p_m * shannon(law.values()) for p_m, law in zip(probs, laws))
    errors = [1.0 - sum(p for o, p, _ in transcripts[w] if o[-1] == w) for w in words]
    rate = float(np.log2(len(words)) / n) if len(words) > 1 else 0.0
    eps = (1.0 + float(np.dot(probs, errors)) * n * rate) / n
    return {
        "n": n,
        "num_messages": len(words),
        "per_round": tuple(terms),
        "directed_total": sum(terms),
        "directed_final": sum(cmi(states[-1], t) for t in range(1, n + 1)),
        "i_message_quantum": i_mz,
        "i_message_classical": i_mk,
        "rate": rate,
        "avg_error": float(np.dot(code.probs, errors)),
        "max_error": max(errors),
        "epsilon_n": eps,
        "fano_bound": eps + i_mk / n,
        "h_message_rate": shannon(probs) / n,
    }


def support_projector(m: np.ndarray) -> np.ndarray:
    """Projector onto the eigenspace of eigenvalues above the rank cutoff."""
    w, v = herm_eig(m)
    if w.size == 0 or w[0] <= 0.0:
        return np.zeros_like(as_matrix(m))
    mask = (w > RANK_TOL * w[0]).astype(float)
    return (v * mask) @ v.conj().T
