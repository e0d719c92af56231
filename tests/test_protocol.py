import dataclasses

import numpy as np
import pytest

from qfeedback.cqstate import cq_entropy
from qfeedback.linalg import identity, kron
from qfeedback.protocol import (
    Codebook,
    FeedbackCode,
    ProtocolTranscript,
    ehs_state,
    enumerate_transcripts,
    error_probability,
    outcome_chain,
    random_feedback_code,
    round_update,
    round_zero,
    sample_transcript,
    validate_code,
)
from qfeedback.quantum import (
    ER,
    DensityMatrix,
    Povm,
    ValidationError,
    apply_kraus,
    basis_povm,
    basis_state,
    density,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    measure,
    random_unitary,
)


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
    from qfeedback.quantum import random_povm

    rng = np.random.default_rng(len(dims))
    for j in range(1, len(dims) + 1):
        povm = random_povm(rng, int(np.prod(dims[:j])), outcomes=3)
        padded = _padded_povm(povm, dims, j)
        assert padded.dim == int(np.prod(dims))
        assert abs(padded.completeness_defect() - povm.completeness_defect()) <= 1e-15


def test_measurement_rejects_a_povm_on_another_prefix():
    # measure accepts any leading block, so M_1 spanning both registers must be caught here.
    code = two_word_basis_code(identity_channel(2), n=2)
    bad = dataclasses.replace(code, measurements=(code.measurements[1],) * 2)
    with pytest.raises(ValidationError, match="does not match"):
        bad.measurement(1)
    with pytest.raises(ValidationError, match="does not match"):
        enumerate_transcripts(bad, (0, 0))


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
        fb = code.feedback_kraus(2, outcome)
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


def test_sample_transcript_reproducible():
    rng = np.random.default_rng(4)
    code = random_feedback_code(rng, depolarizing_channel(0.3), 2, num_words=2)
    word = code.codebook.words[0]
    t1 = sample_transcript(code, word, 7)
    t2 = sample_transcript(code, word, 7)
    assert t1.outcomes == t2.outcomes
    assert t1.probability == t2.probability


def test_ehs_state_time_zero_weights_are_input_ensemble():
    code = two_word_basis_code(identity_channel(2), n=2)
    s = ehs_state(code, 0)
    assert [n for n, _ in s.classical_registers] == ["A1", "A2", "X1"]
    weights = sorted(w for _, w, _ in s.branches)
    assert np.allclose(weights, [0.5, 0.5])
    for lab, w, rho in s.branches:
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
    for lab, w, _ in s.branches:
        word = lab[:3]
        k1 = code.outcome_labels(1)[lab[3] - 1]
        k2 = code.outcome_labels(2)[lab[4] - 1]
        got[(word, (k1, k2))] = w
    assert set(got) == set(table)
    for k in got:
        assert abs(got[k] - table[k]) < 1e-9


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
    from qfeedback.quantum import random_channel

    code = random_feedback_code(np.random.default_rng(0), random_channel(np.random.default_rng(0), 3), 3)
    assert code.outcome_labels(1) == (0, 1, 2)
    assert sorted(code.feedback[2]) == [0, 1, 2]
    assert validate_code(code).ok


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
    object.__setattr__(bad_povm, "mode", "complete")
    bad = FeedbackCode(
        code.codebook, code.channel, code.probs, code.states, (bad_povm,), {}
    )
    rep = validate_code(bad)
    assert not rep.ok
    assert any("M_1" in name for name, _ in rep.violations)


def test_validate_code_flags_nan_completeness_defects():
    # A NaN defect fails "defect > tol"; both completeness checks must flag it.
    code = random_feedback_code(np.random.default_rng(1), depolarizing_channel(0.2), 3)
    nan = np.full((2, 2), np.nan, dtype=complex)
    outcome = next(iter(code.feedback[2]))
    feedback = {**code.feedback, 2: {**code.feedback[2], outcome: (nan,)}}
    rep = validate_code(dataclasses.replace(code, feedback=feedback))
    assert [name for name, _ in rep.violations] == [f"feedback round 2 outcome {outcome!r}: completeness"]

    bad_povm = Povm.__new__(Povm)
    object.__setattr__(bad_povm, "elements", ((0, nan), (1, nan)))
    object.__setattr__(bad_povm, "mode", "complete")
    measurements = (bad_povm,) + code.measurements[1:]
    rep = validate_code(dataclasses.replace(code, measurements=measurements))
    assert [name for name, _ in rep.violations] == ["M_1: completeness defect (history=())"]


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


def test_enumeration_cap_raises():
    from qfeedback.protocol import CapExceededError

    rng = np.random.default_rng(31)
    code = random_feedback_code(rng, depolarizing_channel(0.3), 3, num_words=2)
    with pytest.raises(CapExceededError):
        enumerate_transcripts(code, code.codebook.words[0], cap=2)


def test_ehs_receiver_state_cross_check():
    # Marginalizing the EHS state onto the received registers and averaging
    # must reproduce the receiver's state computed directly from transcripts.
    rng = np.random.default_rng(32)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 2, num_words=2)
    t = 1
    s = ehs_state(code, t)
    from qfeedback.cqstate import marginalize

    received = marginalize(
        s,
        drop_classical=tuple(n for n, _ in s.classical_registers),
        drop_quantum=tuple(range(t + 1, code.n)),
    )
    assert len(received.branches) == 1
    got = received.branches[0][2].mat
    # direct oracle from the walk
    acc = None
    for idx, word in enumerate(code.codebook.words):
        for tr in enumerate_transcripts(code, word):
            part = tr.states[t].ptrace(range(t + 1)).mat
            w = code.probs[idx] * tr.probability
            acc = w * part if acc is None else acc + w * part
    assert np.allclose(got, acc, atol=1e-9)
