import dataclasses
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    basis_povm,
    cq_branches,
    oracle_random_feedback_code,
    oracle_sample_transcript,
    outcome_chain,
    random_channel,
    random_povm,
    round_update,
)

from qfeedback.achievability import build_double_blocked_code
from qfeedback.capacity import FeedbackCodeFamily, default_words
from qfeedback.config import load_config
from qfeedback.cqstate import cq_entropy
from qfeedback.directed import rate_report
from qfeedback.linalg import identity, kron, partial_trace
from qfeedback.protocol import (
    Codebook,
    FeedbackCode,
    ProtocolTranscript,
    _draw,
    _law,
    ehs_state,
    ehs_states,
    enumerate_transcripts,
    error_probability,
    random_feedback_code,
    round_zero,
    sample_transcript,
    validate_code,
)
from qfeedback.quantum import (
    ER,
    PROB_FLOOR,
    DensityMatrix,
    Povm,
    QuantumChannel,
    ValidationError,
    apply_kraus,
    basis_state,
    density,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    measure,
    random_unitary,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def two_word_basis_code(channel, n=1):
    """Orthogonal basis codewords with a computational-basis decoder."""
    words = tuple(tuple([w] * n) for w in (0, 1))
    book = Codebook(2, n, words)
    states = tuple(
        DensityMatrix(kron_all_states(w), (2,) * n) for w in words
    )
    measurements = []
    for j in range(1, n):
        measurements.append(Povm(((0, identity(2**j)),)))  # trivial single outcome
    els = []
    for k in range(2**n):
        proj = np.zeros((2**n, 2**n), dtype=complex)
        proj[k, k] = 1.0
        word = tuple(int(b) for b in format(k, f"0{n}b"))
        els.append((word if word in words else ("junk", k), proj))
    measurements.append(Povm(tuple(els)))
    return FeedbackCode(book, channel, (0.5, 0.5), states, tuple(measurements))


def kron_all_states(word):
    mat = basis_state(2, word[0]).mat
    for a in word[1:]:
        mat = kron(mat, basis_state(2, a).mat)
    return mat


def test_round_zero_identity_channel():
    code = two_word_basis_code(identity_channel(2), n=2)
    w = (0, 0)
    omega0 = round_zero(code, w)
    assert np.allclose(omega0.mat, code.states[0].mat)


def test_round_zero_single_use():
    code = two_word_basis_code(depolarizing_channel(0.3), n=1)
    omega0 = round_zero(code, (1,))
    from qfeedback.quantum import apply_channel

    want = apply_channel(depolarizing_channel(0.3), basis_state(2, 1))
    assert np.allclose(omega0.mat, want.mat)


def test_round_zero_applies_at_register_zero_only():
    code = two_word_basis_code(fully_depolarizing_channel(), n=2)
    omega0 = round_zero(code, (0, 0))
    want = kron(identity(2) / 2, basis_state(2, 0).mat)
    assert np.allclose(omega0.mat, want, atol=1e-12)


def test_round_update_orthogonal_codewords_deterministic():
    # Identity channel, basis measurement on register 0, identity feedback.
    book = Codebook(2, 2, ((0, 0), (1, 1)))
    states = tuple(DensityMatrix(kron_all_states(w), (2, 2)) for w in book.words)
    m1 = basis_povm(2)
    labels = {0: (0, 0), 3: (1, 1), 1: ("j", 1), 2: ("j", 2)}
    m2 = Povm(
        tuple(
            (labels[k], np.diag([1.0 * (i == k) for i in range(4)]).astype(complex))
            for k in range(4)
        )
    )
    code = FeedbackCode(book, identity_channel(2), (0.5, 0.5), states, (m1, m2))
    omega0 = round_zero(code, (1, 1))
    p, post = round_update(code, omega0, 2, 1)
    assert abs(p - 1.0) < 1e-12
    assert np.allclose(post.mat, states[1].mat)
    with pytest.raises(ValidationError):
        round_update(code, omega0, 2, 0)  # zero-probability outcome


def test_round_update_single_outcome_measurement():
    rng = np.random.default_rng(0)
    book = Codebook(2, 2, ((0, 1),))
    rho = DensityMatrix(kron(basis_state(2, 0).mat, basis_state(2, 1).mat), (2, 2))
    m1 = Povm(((0, identity(2)),))
    m2 = Povm((((0, 1), identity(4)),))
    code = FeedbackCode(book, identity_channel(2), (1.0,), (rho,), (m1, m2))
    p, post = round_update(code, round_zero(code, (0, 1)), 2, 0)
    assert abs(p - 1.0) < 1e-12
    assert np.allclose(post.mat, rho.mat)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2)])
def test_padded_povm_keeps_the_completeness_defect(dims):
    # The round engine measures the unpadded M_j on the leading registers and
    # relies on its validated defect: padding with an identity leaves it alone.
    from qfeedback.protocol import _padded_povm

    rng = np.random.default_rng(len(dims))
    for j in range(1, len(dims) + 1):
        povm = random_povm(rng, int(np.prod(dims[:j])), outcomes=3)
        padded = _padded_povm(povm, dims, j)
        assert padded.dim == int(np.prod(dims))
        assert abs(padded.completeness_defect() - povm.completeness_defect()) <= 1e-15


def test_padded_povm_keeps_the_feedback():
    from qfeedback.protocol import _padded_povm

    m1 = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.1), 3).measurements[0]
    padded = _padded_povm(m1, (2, 2, 2), 1)
    assert padded.dim == 8 and padded.feedback.keys() == m1.feedback.keys() == {0, 1}
    assert all(np.array_equal(u, v) for k in m1.feedback for u, v in zip(padded.feedback[k], m1.feedback[k], strict=True))


def test_measurement_rejects_a_povm_on_another_prefix():
    # measure accepts any leading block, so M_1 spanning both registers must be caught here.
    code = two_word_basis_code(identity_channel(2), n=2)
    bad = dataclasses.replace(code, measurements=(code.measurements[1],) * 2)
    with pytest.raises(ValidationError, match="does not match"):
        bad.measurement(1)
    with pytest.raises(ValidationError, match="does not match"):
        enumerate_transcripts(bad, (0, 0))
    # validate_code refuses it too, and a dimension that is no prefix product.
    assert "M_1: dimension 4 != 2" in [name for name, _ in validate_code(bad).violations]
    off = dataclasses.replace(code, measurements=(Povm(((0, identity(3)),)), code.measurements[1]))
    with pytest.raises(ValidationError, match=r"dimension 3 does not match the leading registers of \(2, 2\)"):
        off.measurement(1)
    assert "M_1: dimension 3 != 2" in [name for name, _ in validate_code(off).violations]


def test_measurement_on_fewer_registers_walks_as_its_padded_form():
    # M_2 on register 0 alone, a leading block of 1 <= 2 registers, is kron(f, I)
    # on registers 0 and 1: the same transcripts, EHS states and error, bit for bit.
    code = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.2), 3)
    short = random_povm(np.random.default_rng(4), 2, outcomes=3)
    padded = Povm(tuple((lab, kron(f, identity(2))) for lab, f in short.elements))
    a, b = (dataclasses.replace(code, measurements=(code.measurements[0], m, code.measurements[2])) for m in (short, padded))
    assert validate_code(a).ok and a.measurement(2) is short
    for word in code.codebook.words:
        for s, t in zip(enumerate_transcripts(a, word), enumerate_transcripts(b, word), strict=True):
            assert s.outcomes == t.outcomes and s.probability == t.probability
            assert all(np.array_equal(x.mat, y.mat) for x, y in zip(s.states, t.states, strict=True))
    for s, t in zip(ehs_states(a), ehs_states(b), strict=True):
        assert np.array_equal(s.labels, t.labels) and np.array_equal(s.weights, t.weights)
        assert np.array_equal(s.states, t.states)
    assert error_probability(a) == error_probability(b)


def test_round_update_matches_composition_oracle():
    # Rebuild one update from scratch with kron/measure/apply_kraus.
    rng = np.random.default_rng(1)
    for _ in range(10):
        code = random_feedback_code(rng, depolarizing_channel(0.2), 3, num_words=2)
        word = code.codebook.words[0]
        omega0 = round_zero(code, word)
        povm = code.measurement(1)
        sigma_mat = np.zeros((8, 8), dtype=complex)
        for k in depolarizing_channel(0.2).kraus:
            big = kron(kron(identity(2), k), identity(2))
            sigma_mat += big @ omega0.mat @ big.conj().T
        branches = measure(Povm(tuple((lab, kron(f, identity(4))) for lab, f in povm.elements)), DensityMatrix(sigma_mat, (2, 2, 2)))
        outcome = sorted(branches)[0]
        want_p, want_post = branches[outcome]
        fb = povm.feedback.get(outcome)
        if fb is not None:
            want_post = apply_kraus(fb, want_post, registers=[2])
        got_p, got_post = round_update(code, omega0, 2, outcome)
        assert abs(got_p - want_p) < 1e-12
        assert np.allclose(got_post.mat, want_post.mat, atol=1e-11)


def test_enumerate_transcripts_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        code = random_feedback_code(rng, depolarizing_channel(0.15), n, num_words=2)
        for word in code.codebook.words:
            trs = enumerate_transcripts(code, word)
            total = sum(t.probability for t in trs)
            assert abs(total - 1.0) < 1e-9
            for t in trs:
                for st in t.states:
                    assert abs(np.trace(st.mat).real - 1.0) < 1e-9


def test_enumerate_deterministic_protocol():
    code = two_word_basis_code(identity_channel(2), n=2)
    trs = enumerate_transcripts(code, (1, 1))
    assert len(trs) == 1
    assert abs(trs[0].probability - 1.0) < 1e-12
    assert trs[0].decoded == (1, 1)


def test_enumerate_single_round_two_outcomes():
    book = Codebook(2, 1, ((0,), (1,)))
    states = (basis_state(2, 0), basis_state(2, 1))
    els = (((0,), np.diag([1.0, 0.0]).astype(complex)), ((1,), np.diag([0.0, 1.0]).astype(complex)))
    code = FeedbackCode(book, depolarizing_channel(0.5), (0.5, 0.5), states, (Povm(els),))
    trs = enumerate_transcripts(code, (0,))
    assert len(trs) == 2
    assert abs(sum(t.probability for t in trs) - 1.0) < 1e-12


def test_sampling_matches_enumeration():
    rng = np.random.default_rng(3)
    code = random_feedback_code(rng, depolarizing_channel(0.3), 2, num_words=2)
    word = code.codebook.words[0]
    probs = {}
    for t in enumerate_transcripts(code, word):
        probs[t.outcomes] = probs.get(t.outcomes, 0.0) + t.probability
    n_samples = 10_000
    counts = {}
    srng = np.random.default_rng(42)
    for _ in range(n_samples):
        t = sample_transcript(code, word, srng)
        counts[t.outcomes] = counts.get(t.outcomes, 0) + 1
    for k, p in probs.items():
        if p < 1e-4:
            continue
        freq = counts.get(k, 0) / n_samples
        sigma = np.sqrt(p * (1 - p) / n_samples)
        assert abs(freq - p) <= 3.2 * sigma + 1e-12


def same_transcripts(got, want):
    """Outcomes, probability and every state's dims and bytes are equal."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.word, a.outcomes, a.probability) == (b.word, b.outcomes, b.probability)
        assert [(s.dims, s.mat.tobytes()) for s in a.states] == [(s.dims, s.mat.tobytes()) for s in b.states]


def test_sample_transcript_reproducible():
    # Two separately built codes: each draws from its own node table.
    one, two = (random_feedback_code(np.random.default_rng(4), depolarizing_channel(0.3), 2, num_words=2) for _ in "12")
    word = one.codebook.words[0]
    same_transcripts([sample_transcript(one, word, s) for s in range(20)], [sample_transcript(two, word, s) for s in range(20)])


def blocked_capture_code(l):
    """The seed-9 depolarizing(0.1) n=2 base of tests/capture_blocked.py, double-blocked at l copies."""
    from capture_blocked import DELTA

    base = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    return build_double_blocked_code(base, l, delta=DELTA)


SAMPLER_CODES = {
    "random-n1": lambda: random_feedback_code(np.random.default_rng(40), depolarizing_channel(0.2), 1, num_words=2),
    "random-n2": lambda: random_feedback_code(np.random.default_rng(41), depolarizing_channel(0.3), 2, num_words=3),
    "random-n3": lambda: random_feedback_code(np.random.default_rng(42), depolarizing_channel(0.2), 3, num_words=4),
    "config-depolarizing": lambda: load_config(str(CONFIGS / "depolarizing.json")).code,
    "config-identity": lambda: load_config(str(CONFIGS / "identity.json")).code,
    "blocked-l2": lambda: blocked_capture_code(2),
}


def draw_many(sampler, code, seed, count):
    """``count`` transcripts on one generator, cycling through the codewords."""
    rng = np.random.default_rng(seed)
    return [sampler(code, code.codebook.words[i % code.codebook.size], rng) for i in range(count)]


@pytest.mark.parametrize("name", SAMPLER_CODES)
def test_sample_transcript_equals_the_oracle_bit_for_bit(name):
    code = SAMPLER_CODES[name]()
    want = {seed: draw_many(oracle_sample_transcript, code, seed, 200) for seed in (1, 2)}
    assert not code._nodes
    same_transcripts(draw_many(sample_transcript, code, 1, 200), want[1])  # cold table
    nodes = dict(code._nodes)
    same_transcripts(draw_many(sample_transcript, code, 1, 200), want[1])  # warm: every node stored
    assert code._nodes == nodes
    same_transcripts(draw_many(sample_transcript, code, 2, 200), want[2])  # warm, new paths too
    copy = dataclasses.replace(code)
    assert not copy._nodes and repr(copy) == repr(code)
    same_transcripts(draw_many(sample_transcript, copy, 2, 200), want[2])
    # What a node draws from is what Generator.choice accepts: finite weights of at least PROB_FLOOR (``_kept``).
    for _, weights, cdf, _, _ in code._nodes.values():
        assert np.isfinite(weights).all() and weights.min() >= PROB_FLOOR and cdf == _law(weights)


def test_the_stored_law_draws_as_generator_choice():
    # 3,000 seeded laws of 1 to 200 unnormalized weights spread over 14 decades, about a fifth of them at
    # PROB_FLOOR: each draw from the stored law picks Generator.choice's index on an equally seeded generator,
    # and the two generators stay in step.
    corpus = np.random.default_rng(35)
    for i in range(3000):
        k = int(corpus.integers(1, 201))
        w = 10.0 ** corpus.uniform(-14, 0, size=k) * 10.0 ** corpus.uniform(-3, 3)
        w[corpus.random(k) < 0.2] = PROB_FLOOR
        law, lib, ref = _law(w), np.random.default_rng([35, i]), np.random.default_rng([35, i])
        for _ in range(10):
            assert _draw(law, lib) == int(ref.choice(k, p=w / w.sum()))
            assert lib.random() == ref.random()


def missing_history_code():
    """n=2: M_2 is tabulated for M_1's outcome 0 only."""
    code = random_feedback_code(np.random.default_rng(4), depolarizing_channel(0.3), 2, num_words=2)
    return dataclasses.replace(code, measurements=(code.measurements[0], {(0,): code.measurements[1]}))


def nan_feedback_code():
    """n=4: after M_1's outcome 1, M_2's feedback is a NaN family, which the update on that node rejects."""
    code = random_feedback_code(np.random.default_rng(4), depolarizing_channel(0.3), 4, num_words=2)
    m2 = code.measurements[1]
    bad = Povm(m2.elements, {k: (np.full((2, 2), np.nan),) for k in m2.labels})
    return dataclasses.replace(code, measurements=(code.measurements[0], {(0,): m2, (1,): bad}, *code.measurements[2:]))


@pytest.mark.parametrize(
    "make, message",
    [(missing_history_code, r"no measurement tabulated for history \(1,\)"), (nan_feedback_code, "Kraus family is not complete")],
    ids=["missing-history", "nan-feedback"],
)
def test_a_faulty_node_raises_on_every_draw_that_reaches_it(make, message):
    code = make()
    word = code.codebook.words[0]
    lib, ora = np.random.default_rng(5), np.random.default_rng(5)
    raised = 0
    for _ in range(40):
        try:
            want = oracle_sample_transcript(code, word, ora)
        except ValidationError:
            with pytest.raises(ValidationError, match=message):
                sample_transcript(code, word, lib)
            raised += 1
        else:
            same_transcripts([sample_transcript(code, word, lib)], [want])
        assert (0, (1,)) not in code._nodes
    assert 0 < raised < 40
    assert {(0, ()), (0, (0,))} <= set(code._nodes)


def test_a_sampled_state_is_read_only():
    code = load_config(str(CONFIGS / "depolarizing.json")).code
    word = code.codebook.words[0]
    tr = sample_transcript(code, word, 3)
    for state in tr.states:
        with pytest.raises(ValueError, match="read-only"):
            state.mat[0, 0] = 5.0
    same_transcripts([sample_transcript(code, word, 3)], [oracle_sample_transcript(code, word, 3)])


def test_a_sampled_state_eigendecomposition_is_read_only():
    # Sampled states are shared between transcripts through the node table, and so is each one's cached
    # eigendecomposition: writing into it raises instead of changing the next transcript's spectrum.
    code = load_config(str(CONFIGS / "depolarizing.json")).code
    word = code.codebook.words[0]
    w, v = sample_transcript(code, word, 3).states[0].eig()
    want = w.copy()
    for arr in (w, v):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = -1.0
    assert np.array_equal(sample_transcript(code, word, 3).states[0].eigvals(), want)


def test_node_count_is_the_nodes_the_draws_visit():
    # configs/depolarizing.json: each of 2 codewords has its omega^0 and 2 outcomes of M_1.
    code = load_config(str(CONFIGS / "depolarizing.json")).code
    draw_many(sample_transcript, code, 0, 200)
    assert len(code._nodes) == 6
    # The l=3 blocked code (d=64) after 2000 draws as `qfeedback simulate` makes them.
    code = blocked_capture_code(3)
    rng, probs = np.random.default_rng(0), np.asarray(code.probs)
    for _ in range(2000):
        sample_transcript(code, code.codebook.words[int(rng.choice(code.codebook.size, p=probs / probs.sum()))], rng)
    assert len(code._nodes) == 761


def test_ehs_state_time_zero_weights_are_input_ensemble():
    code = two_word_basis_code(identity_channel(2), n=2)
    s = ehs_state(code, 0)
    assert [n for n, _ in s.classical_registers] == ["A1", "A2", "X1"]
    weights = sorted(w for _, w, _ in cq_branches(s))
    assert np.allclose(weights, [0.5, 0.5])
    for lab, w, rho in cq_branches(s):
        word = lab[:2]
        assert lab[2] == 0  # X register still null
        assert np.allclose(rho.mat, kron_all_states(word))


def test_ehs_state_weights_match_prefix_probabilities():
    rng = np.random.default_rng(5)
    code = random_feedback_code(rng, depolarizing_channel(0.25), 3, num_words=2)
    s = ehs_state(code, 2)
    # Weights must equal p_word * prefix path probabilities from enumeration.
    table = {}
    for idx, word in enumerate(code.codebook.words):
        for t in enumerate_transcripts(code, word):
            key = (word, t.outcomes[:2])
            table[key] = table.get(key, 0.0) + code.probs[idx] * t.probability
    got = {}
    for lab, w, _ in cq_branches(s):
        word = lab[:3]
        k1 = code.outcome_labels(1)[lab[3] - 1]
        k2 = code.outcome_labels(2)[lab[4] - 1]
        got[(word, (k1, k2))] = w
    assert set(got) == set(table)
    for k in got:
        assert abs(got[k] - table[k]) < 1e-9


def test_ehs_states_of_a_word_below_the_floor_equal_a_walk_without_it():
    # ehs_states walks every codeword; a word below PROB_FLOOR weighs its
    # branches below the floor too, so _pruned weighs them 0, ehs_states drops
    # them and the states are those of a walk of the other words, array for
    # array.
    from qfeedback.protocol import _ehs_by_law, _walk
    from qfeedback.quantum import PROB_FLOOR

    code = random_feedback_code(np.random.default_rng(5), depolarizing_channel(0.25), 3, num_words=4)
    code = dataclasses.replace(code, probs=(0.3, PROB_FLOOR / 2, 0.3, 0.4 - PROB_FLOOR / 2))
    assert validate_code(code).ok
    others = [w for i, w in enumerate(code.codebook.words) if i != 1]
    want, _ = _ehs_by_law(code, list(_walk(code, others)))
    for got, ref in zip(ehs_states(code), want, strict=True):
        assert (got.classical_registers, got.quantum_dims) == (ref.classical_registers, ref.quantum_dims)
        for a, b in ((got.labels, ref.labels), (got.weights, ref.weights), (got.states, ref.states)):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_outcome_chain_normalization_and_k1_formula():
    rng = np.random.default_rng(6)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 2, num_words=2)
    chain = outcome_chain(code)
    assert abs(sum(chain.values()) - 1.0) < 1e-10
    # P(K_1 = k) = sum_w p_w tr(Phi_0(rho_w) F~_k^dagger F~_k)
    from qfeedback.quantum import apply_channel_at

    p_k1 = {}
    for (word, outcomes), p in chain.items():
        p_k1[outcomes[0]] = p_k1.get(outcomes[0], 0.0) + p
    povm = code.measurement(1)
    for lab, f in povm.elements:
        want = 0.0
        for idx, word in enumerate(code.codebook.words):
            omega0 = round_zero(code, word)
            sigma = apply_channel_at(code.channel, omega0, 1)
            f_big = kron(f, identity(2)) if f.shape[0] == 2 else f
            want += code.probs[idx] * float(np.trace(sigma.mat @ f_big.conj().T @ f_big).real)
        assert abs(p_k1.get(lab, 0.0) - want) < 1e-10


def test_outcome_chain_depolarizing_independence():
    rng = np.random.default_rng(7)
    code = random_feedback_code(rng, fully_depolarizing_channel(), 2, num_words=2)
    chain = outcome_chain(code)
    # outcome law must not depend on the codeword
    laws = {}
    for (word, outcomes), p in chain.items():
        laws.setdefault(word, {})[outcomes] = p
    words = list(laws)
    idx = {w: i for i, w in enumerate(code.codebook.words)}
    for k in set(laws[words[0]]) | set(laws[words[1]]):
        a = laws[words[0]].get(k, 0.0) / code.probs[idx[words[0]]]
        b = laws[words[1]].get(k, 0.0) / code.probs[idx[words[1]]]
        assert abs(a - b) < 1e-9


def test_error_probability_perfect_code():
    code = two_word_basis_code(identity_channel(2), n=2)
    avg, worst = error_probability(code)
    assert avg < 1e-12
    assert worst < 1e-12


def test_error_probability_fully_depolarizing():
    # Two equiprobable words, best decode: error 1/2.
    book = Codebook(2, 1, ((0,), (1,)))
    states = (basis_state(2, 0), basis_state(2, 1))
    els = (((0,), np.diag([1.0, 0.0]).astype(complex)), ((1,), np.diag([0.0, 1.0]).astype(complex)))
    code = FeedbackCode(book, fully_depolarizing_channel(), (0.5, 0.5), states, (Povm(els),))
    avg, worst = error_probability(code)
    assert abs(avg - 0.5) < 1e-10
    assert abs(worst - 0.5) < 1e-10


def test_error_probability_matches_enumeration_oracle():
    rng = np.random.default_rng(8)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 2, num_words=2)
    avg, worst = error_probability(code)
    # oracle: direct count over the outcome chain
    chain = outcome_chain(code)
    err = 0.0
    for (word, outcomes), p in chain.items():
        if outcomes[-1] != word:
            err += p
    assert abs(avg - err) < 1e-10
    assert 0.0 <= avg <= 1.0 and 0.0 <= worst <= 1.0


def test_validate_code_random_codes_pass():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        code = random_feedback_code(rng, depolarizing_channel(0.1), n, num_words=2)
        rep = validate_code(code)
        assert rep.ok, rep.violations


def test_random_feedback_code_draws_feedback_for_every_outcome():
    # A projective qutrit M_1 has three outcomes; each needs its own feedback map.
    code = random_feedback_code(np.random.default_rng(0), random_channel(np.random.default_rng(0), 3, 2), 3)
    assert code.outcome_labels(1) == (0, 1, 2)
    assert sorted(code.measurements[0].feedback) == [0, 1, 2]
    assert validate_code(code).ok


@pytest.mark.parametrize("num_words", [0, -1, 2.5])
def test_random_feedback_code_rejects_a_bad_word_count(num_words):
    # Unchecked, 0 divided by zero, -1 reached numpy's ValueError and 2.5 a TypeError.
    with pytest.raises(ValidationError, match="num_words must be an int >= 1"):
        random_feedback_code(np.random.default_rng(0), depolarizing_channel(0.1), 2, num_words=num_words)
    with pytest.raises(ValidationError, match="more codewords than strings"):
        random_feedback_code(np.random.default_rng(0), depolarizing_channel(0.1), 2, num_words=5)


@pytest.mark.parametrize("n", [0, -1, 1.5])
def test_random_feedback_code_rejects_a_bad_block_length(n):
    # Unchecked, 0 failed deep in the walk ("register 0 out of range for 0
    # registers"), -1 reached itertools' ValueError and 1.5 a TypeError.
    with pytest.raises(ValidationError, match="block length n must be an int >= 1"):
        random_feedback_code(np.random.default_rng(0), depolarizing_channel(0.1), n, num_words=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_generator_matches_the_library(n):
    # The tests draw feedback-free and non-projective codes from the oracle
    # copy; with both switches on it must draw the library's codes exactly.
    for seed in range(4):
        channel = random_channel(np.random.default_rng(100 + seed), 2, 2)
        num_words = min(2 + seed % 3, 2**n)
        got = random_feedback_code(np.random.default_rng(seed), channel, n, num_words=num_words)
        want = oracle_random_feedback_code(np.random.default_rng(seed), channel, n, num_words=num_words)
        assert got.codebook == want.codebook and got.probs == want.probs
        assert all(np.array_equal(a.mat, b.mat) and a.dims == b.dims for a, b in zip(got.states, want.states, strict=True))
        for a, b in zip(got.measurements, want.measurements, strict=True):  # M_n is the decoder
            assert a.labels == b.labels
            assert all(np.array_equal(f, g) for (_, f), (_, g) in zip(a.elements, b.elements))
            assert a.feedback.keys() == b.feedback.keys()
            for k, kraus in a.feedback.items():
                assert all(np.array_equal(u, v) for u, v in zip(kraus, b.feedback[k], strict=True))


def test_validate_code_flags_nan_probability():
    code = two_word_basis_code(identity_channel(2))
    rep = validate_code(dataclasses.replace(code, probs=(float("nan"), 0.5)))
    names = [name for name, _ in rep.violations]
    assert "ensemble: probabilities do not sum to 1" in names
    assert "ensemble: negative probability" in names


def test_validate_code_flags_bad_povm():
    code = two_word_basis_code(identity_channel(2), n=1)
    els = tuple((lab, (1.0 - 5e-4) * f) for lab, f in code.measurements[0].elements)
    bad_povm = Povm.__new__(Povm)
    object.__setattr__(bad_povm, "elements", els)
    object.__setattr__(bad_povm, "feedback", {})
    bad = FeedbackCode(code.codebook, code.channel, code.probs, code.states, (bad_povm,))
    rep = validate_code(bad)
    assert not rep.ok
    assert any("M_1" in name for name, _ in rep.violations)


def test_validate_code_flags_nan_completeness_defects():
    # A NaN defect fails "defect > tol"; both completeness checks must flag it.
    code = random_feedback_code(np.random.default_rng(1), depolarizing_channel(0.2), 3)
    nan = np.full((2, 2), np.nan, dtype=complex)
    m1 = code.measurements[0]
    outcome = next(iter(m1.feedback))
    m1 = dataclasses.replace(m1, feedback={**m1.feedback, outcome: (nan,)})
    rep = validate_code(dataclasses.replace(code, measurements=(m1,) + code.measurements[1:]))
    assert [name for name, _ in rep.violations] == [f"feedback round 2 outcome {outcome!r}: completeness"]

    bad_povm = Povm.__new__(Povm)
    object.__setattr__(bad_povm, "elements", ((0, nan), (1, nan)))
    object.__setattr__(bad_povm, "feedback", {})
    measurements = (bad_povm,) + code.measurements[1:]
    rep = validate_code(dataclasses.replace(code, measurements=measurements))
    assert [name for name, _ in rep.violations] == ["M_1: completeness defect (history=())"]


def test_an_empty_feedback_family_is_reported_and_rejected_as_incomplete():
    # Sum K^dagger K over no operators is 0: the family misses I by 1 wherever the walk applies it.
    code = random_feedback_code(np.random.default_rng(1), depolarizing_channel(0.2), 3)
    m1 = dataclasses.replace(code.measurements[0], feedback={0: ()})
    code = dataclasses.replace(code, measurements=(m1,) + code.measurements[1:])
    assert validate_code(code).violations == [("feedback round 2 outcome 0: completeness", 1.0)]
    word = code.codebook.words[0]
    rng = np.random.default_rng(0)
    for run in (
        lambda: error_probability(code),
        lambda: rate_report(code),
        lambda: enumerate_transcripts(code, word),
        lambda: [sample_transcript(code, word, rng) for _ in range(50)],
    ):
        with pytest.raises(ValidationError, match="Kraus family is not complete"):
            run()


def test_validate_code_flags_feedback_for_a_missing_outcome():
    # M_1 has outcomes {0, 1}, so a map keyed by 7 would never run.
    code = random_feedback_code(np.random.default_rng(1), depolarizing_channel(0.2), 3)
    m1 = code.measurements[0]
    m1 = dataclasses.replace(m1, feedback={**m1.feedback, 7: m1.feedback[0]})
    rep = validate_code(dataclasses.replace(code, measurements=(m1,) + code.measurements[1:]))
    assert [name for name, _ in rep.violations] == ["feedback round 2 outcome 7: not an outcome of M_1"]


def _basis_code_with(**changes):
    code = two_word_basis_code(identity_channel(2))
    assert validate_code(code).ok
    return dataclasses.replace(code, **changes)


def _not_psd_state():
    rho = DensityMatrix.__new__(DensityMatrix)
    object.__setattr__(rho, "mat", np.diag([1.5, -0.5]).astype(complex))
    object.__setattr__(rho, "dims", (2,))
    object.__setattr__(rho, "_eig", None)
    return rho


def _wrong_shape_feedback():
    code = random_feedback_code(np.random.default_rng(1), depolarizing_channel(0.2), 3)
    m1 = code.measurements[0]
    m1 = dataclasses.replace(m1, feedback={**m1.feedback, 0: (identity(4),)})
    return dataclasses.replace(code, measurements=(m1,) + code.measurements[1:])


VIOLATIONS = {
    "channel: not square": lambda: _basis_code_with(channel=QuantumChannel((np.eye(3, 2),))),
    "ensemble: arity mismatch with codebook": lambda: _basis_code_with(probs=(0.5, 0.25, 0.25)),
    "ensemble: state 0 has shape (2, 2)": lambda: _basis_code_with(
        states=(DensityMatrix(np.eye(4) / 4, (2, 2)), basis_state(2, 1))
    ),
    "ensemble: state 0 is not PSD": lambda: _basis_code_with(states=(_not_psd_state(), basis_state(2, 1))),
    "measurements: expected 1, got 2": lambda: _basis_code_with(measurements=(basis_povm(2),) * 2),
    "feedback round 2 outcome 0: wrong shape": _wrong_shape_feedback,
}


@pytest.mark.parametrize("name", list(VIOLATIONS))
def test_validate_code_reports_each_structural_violation(name):
    # One fault in a valid code is reported as that violation alone.
    assert [v for v, _ in validate_code(VIOLATIONS[name]()).violations] == [name]


def test_validate_code_reports_what_is_not_a_measurement():
    # FeedbackCodeFamily.build leaves M_n as None for with_pgm_decoder to fill.
    family = FeedbackCodeFamily(depolarizing_channel(0.1), default_words(2))
    code = family.build(family.initial(None))
    assert [v for v, _ in validate_code(code).violations] == ["M_2: not a measurement (history=())"]
    # Inside an adaptive table, the entry is reported and its history ends there:
    # an M_3 table without its extensions is complete.
    code = random_feedback_code(np.random.default_rng(1), depolarizing_channel(0.2), 3)
    m1, m2, m3 = code.measurements
    table = {(m1.labels[0],): m2, (m1.labels[1],): "not a povm"}
    last = {(m1.labels[0], lab): m3 for lab in m2.labels}
    rep = validate_code(dataclasses.replace(code, measurements=(m1, table, last)))
    assert [v for v, _ in rep.violations] == [f"M_2: not a measurement (history={(m1.labels[1],)!r})"]


def test_validate_code_flags_feedback_on_the_last_two_measurements():
    # Feedback after M_{n-1} would act on no register and after M_n on none
    # either; the walk applies neither, so both are reported.
    code = random_feedback_code(np.random.default_rng(1), depolarizing_channel(0.2), 3)
    m2, m3 = code.measurements[1:]
    late = (
        dataclasses.replace(m2, feedback={0: (identity(2),)}),
        dataclasses.replace(m3, feedback={m3.labels[0]: (identity(2),)}),
    )
    late_code = dataclasses.replace(code, measurements=code.measurements[:1] + late)
    rep = validate_code(late_code)
    assert [name for name, _ in rep.violations] == [
        "feedback round 3: acts on an empty register set",
        "feedback round 4: out of range",
    ]
    assert error_probability(late_code) == error_probability(code)


def test_validate_trivial_one_round_code():
    code = two_word_basis_code(identity_channel(2), n=1)
    assert validate_code(code).ok


def _chi2_sf(x, k):
    """Survival function of chi-square with k dof via the regularized
    incomplete gamma function (series + continued fraction)."""
    import math

    a, half = k / 2.0, x / 2.0
    if half <= 0:
        return 1.0
    if half < a + 1.0:
        # lower series
        term = 1.0 / a
        total = term
        for i in range(1, 500):
            term *= half / (a + i)
            total += term
            if term < total * 1e-14:
                break
        p_lower = total * math.exp(-half + a * math.log(half) - math.lgamma(a))
        return max(0.0, 1.0 - p_lower)
    # continued fraction for the upper tail
    tiny = 1e-300
    b = half + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h * np.exp(-half + a * np.log(half) - __import__("math").lgamma(a))


def test_sampling_chi_square_goodness_of_fit():
    rng = np.random.default_rng(30)
    code = random_feedback_code(rng, depolarizing_channel(0.25), 2, num_words=2)
    word = code.codebook.words[0]
    probs = {}
    for t in enumerate_transcripts(code, word):
        probs[t.outcomes] = probs.get(t.outcomes, 0.0) + t.probability
    n_samples = 10_000
    counts = dict.fromkeys(probs, 0)
    srng = np.random.default_rng(123)
    for _ in range(n_samples):
        t = sample_transcript(code, word, srng)
        counts[t.outcomes] = counts.get(t.outcomes, 0) + 1
    stat = 0.0
    dof = -1
    for k, p in probs.items():
        expected = p * n_samples
        if expected < 5.0:
            continue
        stat += (counts[k] - expected) ** 2 / expected
        dof += 1
    assert dof >= 1
    assert _chi2_sf(stat, dof) > 0.001


def test_enumeration_cap_raises(monkeypatch):
    from qfeedback import protocol
    from qfeedback.protocol import CapExceededError

    rng = np.random.default_rng(31)
    code = random_feedback_code(rng, depolarizing_channel(0.3), 3, num_words=2)
    monkeypatch.setattr(protocol, "ENUM_CAP", 2)
    with pytest.raises(CapExceededError):
        enumerate_transcripts(code, code.codebook.words[0])


def test_ehs_receiver_state_cross_check():
    # The EHS state's branches, traced onto the received registers and
    # averaged, must reproduce the receiver's state computed directly from
    # transcripts.
    rng = np.random.default_rng(32)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 2, num_words=2)
    t = 1
    s = ehs_state(code, t)
    got = sum(w * partial_trace(rho.mat, rho.dims, range(t + 1)) for _, w, rho in cq_branches(s))
    # direct oracle from the walk
    acc = None
    for idx, word in enumerate(code.codebook.words):
        for tr in enumerate_transcripts(code, word):
            part = partial_trace(tr.states[t].mat, tr.states[t].dims, range(t + 1))
            w = code.probs[idx] * tr.probability
            acc = w * part if acc is None else acc + w * part
    assert np.allclose(got, acc, atol=1e-9)
