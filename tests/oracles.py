"""Independent per-object oracles that only the tests read.

The library walks stacked (B, D, D) frontiers; these oracles redo the same
protocol one branch and one ``DensityMatrix`` at a time, through the public
per-object kernels of ``qfeedback.quantum`` (``apply_channel_at``,
``measure``, ``apply_kraus``) and ``measure_probabilities`` below, and evaluate
entropies on the materialized block-diagonal matrix.  They are slow and
small by design.  ``per_entropy`` is the exception: it is the one-entropy
body that the batched ``cq_entropies`` pass must equal bit for bit.  So is
``oracle_sample_transcript``, the sampler with no node table: every draw
steps its branch through the walk's ``_updated`` again and picks an outcome
with numpy's ``Generator.choice``, and ``sample_transcript`` must equal it bit
for bit.  The
capacity layer has two more: ``oracle_output_ensemble`` builds the Holevo
objective's ensemble one ``pure_state`` and ``apply_channel`` at a time, and
``oracle_coordinate_ascent`` is the ascent with its greedy extension written
as a loop of its own.  The typicality layer has two: ``oracle_typical_set``
and ``oracle_compressed_eigenvalues`` visit all k^n strings one at a time,
where the library works per type (letter-count vector).  The spectral
kernels have three, one matrix and one ``eigh`` at a time, as the library
computed them before they took stacks: ``oracle_psd_sqrt``,
``oracle_pinv_sqrt`` and ``oracle_roots``.  The seeded generators of the
tests live here too: ``random_isometry``, ``random_povm``, ``random_channel``
and ``oracle_random_feedback_code``, the library's ``random_feedback_code``
with feedback-free and non-projective draws added.  The classical limit has
``classical_channel`` (a classical channel as qubit Kraus operators),
``classical_channels`` (BSC(0.1) and the Z-channel(0.3) with their Shannon
capacities), ``oracle_blahut_arimoto`` (the Shannon capacity of any classical
channel) and ``oracle_massey_terms``, Massey's directed-information terms from
the classical joint law, with no quantum code path.  The per-branch form of a
``CqState`` is here too: ``cq_state`` builds one from (label tuple, weight,
DensityMatrix) branches and ``cq_branches`` lists them back.
"""

from __future__ import annotations

import itertools

import numpy as np

from qfeedback.capacity import ASCENT_TOL, FD_STEP, STEP0, AscentResult, simplex_projection
from qfeedback.cqstate import CqState, _first_seen, _split_keys
from qfeedback.linalg import PSD_TOL, RANK_TOL, LinalgError, as_matrix, herm_eig, kron_all, partial_trace
from qfeedback.protocol import (
    Codebook,
    FeedbackCode,
    ProtocolTranscript,
    _branch,
    _start,
    _updated,
    on_freshest,
    product_states,
    round_zero,
    with_pgm_decoder,
)
from qfeedback.quantum import (
    COMPLETENESS_TOL,
    PROB_FLOOR,
    DensityMatrix,
    Ensemble,
    Povm,
    QuantumChannel,
    ValidationError,
    _kept,
    apply_channel,
    apply_channel_at,
    apply_kraus,
    density,
    entropies,
    entropy,
    measure,
    outcome_probabilities,
    pure_state,
    random_density_matrix,
    random_unitary,
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
    povm = code.measurement(m - 1, history)
    branches = measure(povm, apply_channel_at(code.channel, state, m - 1))
    if outcome not in branches:
        raise ValidationError(f"outcome {outcome!r} has probability below the floor")
    p, post = branches[outcome]
    kraus = povm.feedback.get(outcome)
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


def oracle_sample_transcript(code: FeedbackCode, word, rng) -> ProtocolTranscript:
    """The per-call sampler: one drawn branch stepped through ``_updated`` on every draw, with no node table.

    Each outcome is numpy's ``Generator.choice`` on the kept outcome probabilities over their sum.
    ``sample_transcript`` must equal it bit for bit on an equally seeded generator.
    """
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)
    word = tuple(int(x) for x in word)
    front, prob = _start(code, [word]), 1.0
    states = (DensityMatrix(front.states[0], code.dims),)
    for m in range(2, code.n + 1):
        kids = _updated(code, m, code.measurement(m - 1, front.history[0]), front)
        b = int(rng.choice(len(kids.prob), p=kids.prob / kids.prob.sum()))
        prob *= float(kids.prob[b])
        front = _branch(kids, b)
        states += (DensityMatrix(front.states[0], code.dims),)
    final = code.measurement(code.n, front.history[0])
    p = outcome_probabilities(final, front.states, code.dims)
    _, e, labels = _kept(p, p, final.labels)
    b = int(rng.choice(len(e), p=p[0, e] / p[0, e].sum()))
    return ProtocolTranscript(word, front.history[0] + (labels[b],), prob * float(p[0, e[b]]), states)


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


def cq_state(registers, quantum_dims, branches) -> CqState:
    """The ``CqState`` of (label tuple, weight, DensityMatrix) branches, the per-branch form the tests write."""
    branches, regs = tuple(branches), tuple(registers)
    labels = np.array([lab for lab, _, _ in branches], dtype=int).reshape(len(branches), len(regs))
    weights = np.array([w for _, w, _ in branches], dtype=float)
    return CqState(regs, quantum_dims, labels, weights, np.array([rho.mat for _, _, rho in branches]))


def cq_branches(state: CqState) -> tuple:
    """(label tuple, weight, DensityMatrix) per branch of ``state``: ``cq_state``'s inverse."""
    return tuple(
        (tuple(int(x) for x in lab), float(w), DensityMatrix(rho, state.quantum_dims))
        for lab, w, rho in zip(state.labels, state.weights, state.states)
    )


def materialize(state: CqState) -> DensityMatrix:
    """Block-diagonal embedding with classical labels as orthonormal basis states.

    A small-dimension test oracle; guarded by MATERIALIZE_CAP.
    """
    sizes = [s for _, s in state.classical_registers]
    q_dim = int(np.prod(state.quantum_dims))
    total = int(np.prod(sizes)) * q_dim
    if total > MATERIALIZE_CAP:
        raise ValidationError(f"materialized dimension {total} exceeds cap {MATERIALIZE_CAP}")
    mat = np.zeros((total, total), dtype=complex)
    for lab, w, rho in zip(state.labels, state.weights, state.states):
        offset = 0
        for x, s in zip(lab, sizes):
            offset = offset * s + x
        start = offset * q_dim
        mat[start : start + q_dim, start : start + q_dim] += w * rho
    return DensityMatrix(mat, tuple(sizes) + state.quantum_dims)


def materialized_entropy(state: CqState, classical=(), quantum=()) -> float:
    """Entropy via the materialized block-diagonal marginal."""
    cls = [state.register_index(n) for n in classical]
    full = materialize(state)
    n_c = len(state.classical_registers)
    keep = sorted(cls) + [n_c + int(i) for i in quantum]
    return entropy(density(partial_trace(full.mat, full.dims, keep))) if keep else 0.0


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
        cq_state(regs, code.dims, [(lab, w, rho) for lab, (w, rho) in table.items()])
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


def oracle_output_ensemble(channel, num_states: int, x: np.ndarray) -> Ensemble:
    """The Holevo objective's ensemble, one ``pure_state`` and ``apply_channel`` per kept input.

    ``x`` holds ``num_states`` weights, then one (real, imaginary) vector of
    length 2 d per input; weights below 1e-12 are dropped and the rest
    renormalized, and a vector of norm below 1e-12 stands for |0>.
    """
    d = channel.in_dim
    items = []
    for k in range(num_states):
        if x[k] < 1e-12:
            continue
        vec = x[num_states + 2 * d * k : num_states + 2 * d * (k + 1)]
        v = vec[:d] + 1j * vec[d:]
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            v = np.zeros(d, dtype=complex)
            v[0] = 1.0
        else:
            v = v / norm
        items.append((float(x[k]), apply_channel(channel, pure_state(v))))
    total = sum(p for p, _ in items)
    return Ensemble(tuple((p / total, rho) for p, rho in items))


def oracle_coordinate_ascent(objective, x0, prob_block, cfg, frozen=None):
    """``coordinate_ascent`` written with a separate greedy-extension loop after the first paying move."""
    frozen = frozen or set()

    def clean(x):
        x = x.copy()
        if prob_block is not None:
            x[prob_block] = simplex_projection(x[prob_block])
        return x

    def bump(x, i, delta):
        y = x.copy()
        y[i] += delta
        return clean(y)

    x = clean(np.asarray(x0, dtype=float))
    best = objective(x)
    for sweep in range(cfg.max_sweeps):
        before = best
        for i in range(len(x)):
            if i in frozen:
                continue
            up, down = objective(bump(x, i, +FD_STEP)), objective(bump(x, i, -FD_STEP))
            if up == down:
                continue
            direction = 1.0 if up > down else -1.0
            step = STEP0
            while step >= FD_STEP:
                cand = bump(x, i, direction * step)
                val = objective(cand)
                if val > best + 1e-15:
                    x, best = cand, val
                    while True:
                        cand = bump(x, i, direction * step)
                        val = objective(cand)
                        if val > best + 1e-15:
                            x, best = cand, val
                        else:
                            break
                    break
                step *= 0.5
        if best - before < ASCENT_TOL:
            return AscentResult(x, best, True, sweep + 1)
    return AscentResult(x, best, False, cfg.max_sweeps)


def oracle_typical_set(p, n: int, delta: float) -> set[tuple[int, ...]]:
    """``typical_set`` as a loop over all k^n strings, one ``bincount`` each."""
    p = np.asarray(list(p), dtype=float)
    k = len(p)
    lo = np.ceil(n * p - n * delta - 1e-12)
    hi = np.floor(n * p + n * delta + 1e-12)
    hi[p <= 1e-12] = 0.0
    out = set()
    for s in itertools.product(range(k), repeat=n):
        counts = np.bincount(s, minlength=k)
        if np.all(counts >= lo) and np.all(counts <= hi):
            out.add(s)
    return out


def oracle_compressed_eigenvalues(eigvals, strings) -> np.ndarray:
    """The kept string probabilities, one per string in sorted order."""
    return np.asarray([float(np.prod(eigvals[list(s)])) for s in sorted(strings)])


def basis_povm(dim: int) -> Povm:
    """The computational-basis measurement, one projector per basis state."""
    els = tuple((k, np.diag(np.eye(dim)[k]).astype(complex)) for k in range(dim))
    return Povm(els)


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Orthonormalized Gaussian columns: V^dagger V = I_cols."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_povm(rng: np.random.Generator, dim: int, outcomes: int = 2) -> Povm:
    """Random complete POVM in measurement-operator form."""
    v = random_isometry(rng, dim * outcomes, dim)
    els = tuple((k, v[k * dim : (k + 1) * dim, :]) for k in range(outcomes))
    return Povm(els)


def random_channel(rng: np.random.Generator, dim: int, num_kraus: int) -> QuantumChannel:
    """Haar-like random channel: isometry split into Kraus blocks."""
    v = random_isometry(rng, dim * num_kraus, dim)
    ks = tuple(v[j * dim : (j + 1) * dim, :] for j in range(num_kraus))
    return QuantumChannel(ks, "random")


def classical_channel(w, label: str) -> QuantumChannel:
    """The classical channel W(y|x) = w[x][y] on a qubit: Kraus operators sqrt(W(y|x)) |y><x|."""
    kraus = []
    for x, row in enumerate(w):
        for y, p in enumerate(row):
            if p > 0:
                k = np.zeros((2, 2), dtype=complex)
                k[y, x] = np.sqrt(p)
                kraus.append(k)
    return QuantumChannel(tuple(kraus), label)


def classical_channels() -> list[tuple[QuantumChannel, list, float]]:
    """(channel, W, Shannon capacity C(W)) for BSC(0.1), C = 1 - h(0.1), and the Z-channel(0.3), whose optimal input is not uniform."""
    p, q = 0.1, 0.3
    bsc, z = [[1 - p, p], [p, 1 - p]], [[1.0, 0.0], [q, 1 - q]]
    return [
        (classical_channel(bsc, "bsc(0.1)"), bsc, 1.0 + p * np.log2(p) + (1 - p) * np.log2(1 - p)),
        (classical_channel(z, "z(0.3)"), z, float(np.log2(1.0 + (1 - q) * q ** (q / (1 - q))))),
    ]


def oracle_blahut_arimoto(w) -> float:
    """Shannon capacity of the classical channel W(y|x) = w[x][y] in bits, by the Blahut-Arimoto iteration.

    From the uniform input p, each step computes D(x) = sum_y W(y|x) log2(W(y|x) / q(y)) at the output law
    q = p W and reweights p(x) by 2^D(x).  I(p) = sum_x p(x) D(x) <= C <= max_x D(x) at every step (Blahut
    1972, Arimoto 1972); the iteration stops once that gap is below 1e-13 and returns the lower end.
    """
    w = np.asarray(w, dtype=float)
    p = np.full(len(w), 1.0 / len(w))
    for _ in range(10**6):
        q = p @ w
        d = np.array([sum(wy * np.log2(wy / qy) for wy, qy in zip(row, q) if wy > 0) for row in w])
        if d.max() - p @ d < 1e-13:
            return float(p @ d)
        p = p * 2.0**d
        p /= p.sum()
    raise AssertionError("Blahut-Arimoto did not converge")


def oracle_massey_terms(w, letters, words, probs, flips=None) -> tuple[list[float], float]:
    """Massey's I(A^t; Y_t | Y^(t-1)) for t = 1..n and I(A^n; Y^n), codewords sent with bit-flip feedback.

    Letter a enters the classical channel W(y|x) = w[x][y] as x with
    probability letters[a][x], so y follows W_eff(y|a) = sum_x letters[a][x] W(y|x).
    Feedback: once round t reads y_t, ``flips[t, y_t][s]`` (registers s
    0-indexed, t 1-indexed, set only for s > t, the registers not yet sent)
    flips register s's input bit; a register sent after several flips carries
    their XOR, and no ``flips`` means no feedback.  The joint law
    P(a^n) prod_t W_eff(y_t | a_t, flip_t) is listed one (a^n, y^n) pair at a
    time and every entropy is a sum over one of its marginals.
    """
    letters, w = np.asarray(letters, dtype=float), np.asarray(w, dtype=float)
    w_eff = np.stack([letters @ w, letters[:, ::-1] @ w])  # by flip: the input bit x read as 1 - x
    n = len(words[0])
    flips = flips or {}
    joint = {}
    for word, p in zip(words, probs):
        for ys in itertools.product(range(w.shape[1]), repeat=n):
            flip = [sum(flips.get((t, ys[t - 1]), (0,) * n)[s] for t in range(1, s)) % 2 for s in range(n)]
            joint[word, ys] = p * float(np.prod([w_eff[f, a, y] for f, a, y in zip(flip, word, ys)]))

    def h(t_a: int, t_y: int) -> float:
        marginal: dict = {}
        for (word, ys), p in joint.items():
            key = (word[:t_a], ys[:t_y])
            marginal[key] = marginal.get(key, 0.0) + p
        return -sum(p * np.log2(p) for p in marginal.values() if p > 0)

    terms = [h(t, t - 1) + h(0, t) - h(t, t) - h(0, t - 1) for t in range(1, n + 1)]
    return terms, h(n, 0) + h(0, n) - h(n, n)


def _oracle_eig_psd(m: np.ndarray):
    w, v = herm_eig(m)
    if w.size and w[-1] < -PSD_TOL:
        raise LinalgError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    return w, v


def oracle_psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = _oracle_eig_psd(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def oracle_pinv_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = herm_eig(m)
    if w.size == 0 or w[0] <= 0.0:
        return np.zeros_like(as_matrix(m))
    cutoff = RANK_TOL * w[0]
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (v * inv) @ v.conj().T


def oracle_roots(effects, remainder) -> list:
    """The square-root measurement's operators one matrix at a time: sqrt R per effect, then sqrt of the remainder."""
    out = []
    for m in [*effects, remainder]:
        w, v = _oracle_eig_psd(m)
        out.append((v * np.sqrt(np.where(w > COMPLETENESS_TOL, w, 0.0))) @ v.conj().T)
    return out


def oracle_random_feedback_code(
    rng: np.random.Generator,
    channel: QuantumChannel,
    n: int,
    num_words: int = 2,
    feedback: bool = True,
    projective: bool = True,
) -> FeedbackCode:
    """``random_feedback_code`` with two switches, drawing from ``rng`` in the same order.

    With both on it is the library's generator, bit for bit.  Without
    ``feedback`` the measurements carry no post-processing and no unitaries
    are drawn for it.  Without ``projective`` each intermediate measurement is a
    two-outcome ``random_povm`` on the freshest output, whose outcome the
    post-measurement state need not carry: I(M:K_1^n) <= I(M:Z_1^n) can then
    fail, while the directed data-processing inequality still holds.
    """
    d = channel.in_dim
    all_words = list(itertools.product(range(2), repeat=n))
    if num_words > len(all_words):
        raise ValidationError("more codewords than strings")
    order = rng.permutation(len(all_words))
    words = tuple(all_words[i] for i in order[:num_words])
    book = Codebook(2, n, words)

    probs = rng.dirichlet(np.ones(num_words)) * 0.8 + 0.2 / num_words
    probs = tuple(float(p) for p in probs / probs.sum())

    states = product_states([random_density_matrix(rng, d) for _ in range(2)], words)

    singles = []
    for j in range(1, n):
        if projective:
            u = random_unitary(rng, d)
            singles.append(Povm(tuple((k, np.outer(u[:, k], u[:, k].conj())) for k in range(d))))
        else:
            singles.append(random_povm(rng, d))

    # M_j's feedback acts on registers j+1..n-1; every measurement is drawn before it.
    fb: dict = {}
    if feedback:
        for j in range(1, n - 1):
            fb[j] = {k: (kron_all(random_unitary(rng, d) for _ in range(j + 1, n)),) for k in singles[j - 1].labels}
    measurements = tuple(on_freshest(single, j, fb.get(j, {})) for j, single in enumerate(singles, start=1))

    partial = FeedbackCode(book, channel, probs, states, measurements + (None,))
    return with_pgm_decoder(partial, probs)
