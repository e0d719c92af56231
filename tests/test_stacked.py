"""The stacked walk, entropies and Holevo body against the per-object oracles of ``oracles.py``."""

import dataclasses
import re

import numpy as np
import pytest
from oracles import (
    measure_probabilities,
    oracle_ehs_branches,
    oracle_error_probability,
    oracle_rate_report,
    oracle_transcripts,
    per_entropy,
    per_entropy_terms,
    round_update,
)

from qfeedback import cqstate, protocol, quantum
from qfeedback.achievability import build_double_blocked_code
from qfeedback.capacity import grid_search_chi
from qfeedback.cqstate import (
    CqState,
    _first_seen,
    conditional_mutual_information,
    conditional_mutual_informations,
    cq_entropies,
    cq_entropy,
)
from qfeedback.directed import (
    _directed_parts,
    directed_information_final,
    directed_information_total,
    directed_terms,
    message_information,
    rate_report,
    verify_ddpi,
)
from qfeedback.linalg import LinalgError
from qfeedback.protocol import (
    _walk,
    ehs_states,
    enumerate_transcripts,
    error_probability,
    on_freshest,
    random_feedback_code,
    round_zero,
    with_pgm_decoder,
)
from qfeedback.quantum import (
    DensityMatrix,
    Ensemble,
    Povm,
    ValidationError,
    amplitude_damping_channel,
    density,
    depolarizing_channel,
    holevo_chi,
    holevo_chis,
    measure,
    random_unitary,
)

TOL = 1e-12


def adaptive_code(seed):
    """n=3 code whose M_2 depends on the M_1 outcome, its elements in a different order per history."""
    base = random_feedback_code(np.random.default_rng(seed), depolarizing_channel(0.2), 3, num_words=3)
    rng = np.random.default_rng(seed + 1)

    def rotated(order):
        u = random_unitary(rng, 2)
        return on_freshest(Povm(tuple((k, np.outer(u[:, k], u[:, k].conj())) for k in order)), 2)

    m2 = {(k,): rotated((0, 1) if k == 0 else (1, 0)) for k in base.outcome_labels(1)}
    partial = dataclasses.replace(base, measurements=(base.measurements[0], m2, None))
    return with_pgm_decoder(partial, partial.probs)


def seeded_codes():
    codes = {}
    for n in (1, 2, 3):
        codes[f"n{n}"] = random_feedback_code(
            np.random.default_rng(40 + n), depolarizing_channel(0.15), n, num_words=min(3, 2**n)
        )
    codes["n3-no-feedback"] = random_feedback_code(
        np.random.default_rng(44), depolarizing_channel(0.15), 3, num_words=3, feedback=False
    )
    codes["n3-non-projective"] = random_feedback_code(
        np.random.default_rng(45), amplitude_damping_channel(0.3), 3, num_words=2, projective=False
    )
    codes["n3-adaptive"] = adaptive_code(46)
    return codes


CODES = seeded_codes()


def blocked_codes():
    """l=2 blocked codes of an n=2 base and of an n=3 base, whose flat code has a non-empty feedback table."""
    n2 = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    n3 = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.1), 3, num_words=2)
    return {
        "n2-base": build_double_blocked_code(n2, 2, delta=0.3),
        "n3-base": build_double_blocked_code(n3, 2, delta=0.5),
    }


BLOCKED = blocked_codes()


def floored_code():
    """Adaptive n=3 code with a branch whose children all fall below PROB_FLOOR.

    M_1 has an outcome of probability 1.2e-14 on each word, and after that
    outcome M_2 splits the branch 0.7 : 0.3, so both children fall below the
    path floor and the run of that one branch makes an empty piece.
    """
    book = protocol.Codebook(2, 3, ((0, 0, 0), (1, 1, 1)))
    letters = [quantum.basis_state(2, 0), quantum.basis_state(2, 1)]
    m1 = on_freshest(quantum.rotated_qubit_povm(2.0 * np.arcsin(np.sqrt(1.2e-14)), 0.0), 1)
    split = on_freshest(Povm(((0, np.sqrt(0.7) * np.eye(2)), (1, np.sqrt(0.3) * np.eye(2)))), 2)
    m2 = {(0,): on_freshest(quantum.basis_povm(2), 2), (1,): split}
    states = protocol.product_states(letters, book.words)
    partial = protocol.FeedbackCode(book, quantum.identity_channel(2), (0.5, 0.5), states, (m1, m2, None))
    return with_pgm_decoder(partial, partial.probs)


@pytest.mark.parametrize("name", list(CODES))
def test_transcripts_and_ehs_match_the_oracle(name):
    code = CODES[name]
    for word in code.codebook.words:
        got = enumerate_transcripts(code, word)
        want = oracle_transcripts(code, word)
        assert [t.outcomes for t in got] == [o for o, _, _ in want]
        for tr, (_, p, states) in zip(got, want):
            assert abs(tr.probability - p) <= TOL
            assert max(np.max(np.abs(a.mat - b.mat)) for a, b in zip(tr.states, states)) <= TOL
    for state, table in zip(ehs_states(code), oracle_ehs_branches(code), strict=True):
        got = {lab: (w, rho) for lab, w, rho in state.branches}
        assert set(got) == set(table)
        for lab, (w, rho) in table.items():
            assert abs(got[lab][0] - w) <= TOL
            assert np.max(np.abs(got[lab][1].mat - rho.mat)) <= TOL


@pytest.mark.parametrize("name", list(CODES))
def test_rate_report_matches_the_oracle(name):
    code = CODES[name]
    for uniform in (True, False):
        got = dataclasses.asdict(rate_report(code, uniform_messages=uniform))
        want = oracle_rate_report(code, uniform)
        assert set(got) == set(want)
        for field, value in want.items():
            assert np.max(np.abs(np.subtract(got[field], value))) <= TOL, field


@pytest.mark.parametrize("name", list(BLOCKED))
def test_blocked_code_matches_the_oracle(name):
    code = BLOCKED[name]
    assert bool(code.feedback) == (name == "n3-base")
    got, want = error_probability(code), oracle_error_probability(code)
    assert max(abs(a - b) for a, b in zip(got, want)) <= TOL
    for word in code.codebook.words[:2]:
        probs = [t.probability for t in enumerate_transcripts(code, word)]
        assert np.max(np.abs(np.subtract(probs, [p for _, p, _ in oracle_transcripts(code, word)]))) <= TOL


def test_a_branch_whose_children_all_fall_below_the_floor_leaves_an_empty_piece():
    code = floored_code()
    pieces = list(_walk(code, code.codebook.words))
    assert any(len(piece.word) == 0 for t, piece in pieces if t == 2)
    for word in code.codebook.words:
        got = [(t.outcomes, t.probability) for t in enumerate_transcripts(code, word)]
        want = [(o, p) for o, p, _ in oracle_transcripts(code, word)]
        assert [o for o, _ in got] == [o for o, _ in want]
        assert max(abs(a[1] - b[1]) for a, b in zip(got, want)) <= TOL
    got, want = error_probability(code), oracle_error_probability(code)
    assert max(abs(a - b) for a, b in zip(got, want)) <= TOL
    for state, table in zip(ehs_states(code), oracle_ehs_branches(code), strict=True):
        got = {lab: w for lab, w, _ in state.branches}
        assert set(got) == set(table)
        assert max(abs(got[lab] - w) for lab, (w, _) in table.items()) <= TOL


def message(fn):
    with pytest.raises((ValidationError, LinalgError)) as info:
        fn()
    return type(info.value), str(info.value)


def test_walk_raises_as_the_oracle_on_a_corrupted_feedback_operator():
    code = dataclasses.replace(CODES["n3"])
    outcome = next(iter(code.feedback[2]))
    feedback = {**code.feedback, 2: {**code.feedback[2], outcome: (1.01 * code.feedback[2][outcome][0],)}}
    object.__setattr__(code, "feedback", feedback)
    word = code.codebook.words[0]
    want = message(lambda: round_update(code, round_zero(code, word), 2, outcome))
    assert want == (ValidationError, "Kraus family is not complete")
    assert message(lambda: enumerate_transcripts(code, word)) == want
    assert message(lambda: rate_report(code)) == want


def test_walk_raises_as_the_oracle_on_a_corrupted_povm_element():
    code = dataclasses.replace(CODES["n3"])
    povm = Povm(code.measurements[0].elements)
    nan = np.full_like(povm.elements[0][1], np.nan)
    object.__setattr__(povm, "elements", ((povm.labels[0], nan),) + povm.elements[1:])
    object.__setattr__(code, "measurements", (povm,) + code.measurements[1:])
    word = code.codebook.words[0]
    sigma = quantum.apply_channel_at(code.channel, round_zero(code, word), 1)
    want = message(lambda: measure(povm, sigma))
    assert want == (ValidationError, "density matrix is not Hermitian")
    assert message(lambda: enumerate_transcripts(code, word)) == want
    assert message(lambda: directed_information_total(code)) == want

    # Every element scaled to zero: each outcome falls below PROB_FLOOR.
    zeros = tuple((lab, 0.0 * f) for lab, f in CODES["n3"].measurements[0].elements)
    object.__setattr__(povm, "elements", zeros)
    want = message(lambda: measure(povm, sigma))
    assert want == (ValidationError, "all measurement outcomes fell below PROB_FLOOR")
    assert message(lambda: enumerate_transcripts(code, word)) == want
    assert message(lambda: directed_information_total(code)) == want

    # A NaN element of the final measurement, as measure_probabilities reports it.
    code = dataclasses.replace(CODES["n2"])
    final = Povm(code.measurements[-1].elements)
    lab = final.labels[0]
    object.__setattr__(final, "elements", ((lab, np.full_like(final.elements[0][1], np.nan)),) + final.elements[1:])
    object.__setattr__(code, "measurements", code.measurements[:-1] + (final,))
    state = next(iter(enumerate_transcripts(CODES["n2"], code.codebook.words[0]))).states[-1]
    want = message(lambda: measure_probabilities(final, state))
    assert want == (ValidationError, f"outcome {lab!r} has probability nan")
    assert message(lambda: error_probability(code)) == want


def test_stacked_entropy_rejects_a_non_hermitian_marginal():
    rho = density(np.diag([0.6, 0.4]))
    state = CqState((("A", 2),), (2,), (((0,), 0.5, rho), ((1,), 0.5, rho)))
    assert cq_entropy(state, ("A",), (0,)) > 0.0
    object.__setattr__(state, "states", state.states.copy())
    state.states[1, 0, 1] = 1e-3
    with pytest.raises(LinalgError, match="not Hermitian"):
        cq_entropy(state, ("A",), (0,))


def test_chi_body_rejects_non_psd_and_non_hermitian_mixtures():
    good = density(np.diag([0.5, 0.5]))
    bad = DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))
    with pytest.raises(ValidationError, match=r"density matrix has eigenvalue -5\.000e-01"):
        holevo_chi(Ensemble(((0.5, good), (0.5, bad))))
    outputs = np.array([good.mat, bad.mat])
    with pytest.raises(ValidationError, match="has eigenvalue"):
        holevo_chis(np.array([[0.5, 0.5]]), np.array([[0, 1]]), outputs)
    skew = outputs.copy()
    skew[1, 0, 1] = 1e-3
    with pytest.raises(ValidationError, match="density matrix is not Hermitian"):
        holevo_chis(np.array([[0.5, 0.5]]), np.array([[0, 1]]), skew)


def test_grid_is_one_stacked_chi(monkeypatch):
    calls = []
    real = quantum.holevo_chis

    def counted(weights, index, states):
        calls.append(len(weights))
        return real(weights, index, states)

    monkeypatch.setattr("qfeedback.capacity.holevo_chis", counted)
    assert abs(grid_search_chi(depolarizing_channel(0.1)) - 0.7136030428840441) <= 1e-12
    assert calls == [4410]


def test_one_stacked_eigen_call_per_marginal_size_and_no_branch_objects(monkeypatch):
    code = random_feedback_code(np.random.default_rng(12), depolarizing_channel(0.2), 3, num_words=3)
    eigen, built, checks = [], [], []
    real_eig, real_check = quantum.herm_eigvals, protocol.check_states

    def eig(m):
        eigen.append(np.shape(m))
        return real_eig(m)

    def check(stack):
        checks.append(len(stack))
        return real_check(stack)

    def init(self):
        built.append(self)

    states = ehs_states(code)
    want = float(sum(conditional_mutual_information(state, *_directed_parts(t)) for t, state in enumerate(states, 1)))
    monkeypatch.setattr(quantum, "herm_eigvals", eig)
    monkeypatch.setattr(protocol, "check_states", check)
    monkeypatch.setattr(DensityMatrix, "__post_init__", init)
    assert directed_information_total(code) == want
    assert built == []
    # The marginals have sizes d = 2, 4 and 8: one stacked eigvalsh each.
    assert sorted(shape[1:] for shape in eigen) == [(2, 2), (4, 4), (8, 8)]
    assert len(checks) == code.n  # one stacked check per frontier

    checks.clear()
    list(_walk(code, code.codebook.words))
    assert len(checks) == code.n


def floored_state():
    """Three classical registers and two qubits; grouping by X leaves a group of weight 4e-15 < PROB_FLOOR."""
    rng = np.random.default_rng(7)
    rhos = [quantum.random_density_matrix(rng, 4) for _ in range(4)]
    labels = ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2))
    weights = (0.5, 0.3, 0.2 - 4e-15, 4e-15)
    registers = (("A1", 2), ("A2", 2), ("X", 3))
    return CqState(registers, (2, 2), [(lab, w, DensityMatrix(r.mat, (2, 2))) for lab, w, r in zip(labels, weights, rhos)])


def test_batched_entropies_equal_one_request_at_a_time():
    n2, n3 = ehs_states(CODES["n2"]), ehs_states(CODES["n3-adaptive"])
    floored = floored_state()
    requests = [
        (n3[2], ("A1", "A2", 0, 1)),
        (n2[1], (1, "A2", "A1", 0)),
        (floored, ("X", 1)),
        (n3[2], ("X2", "A1")),
        (n3[2], (1, 0, "A2", "A1")),
        (floored, ("A2", "X", 0, 1)),
        (n2[0], ()),
        (floored, ("X",)),
        (n3[1], ("A1", 0)),
        (n3[2], ("A1", "A2", 0, 1)),
        (floored, (1, "X")),
    ]
    got = cq_entropies(requests)
    assert got == [cq_entropy(state, keys) for state, keys in requests]
    assert got == [per_entropy(state, keys) for state, keys in requests]
    assert got[0] == got[4] == got[9] and got[2] == got[10]
    assert np.bincount(_first_seen(floored.labels[:, [2]])[0], floored.weights).min() < quantum.PROB_FLOOR


def test_batched_entropies_raise_the_one_request_messages():
    state = ehs_states(CODES["n3"])[1]
    good = (state, ("A1", 0))
    for keys, text in [
        (("A1", "Z"), "unknown classical register 'Z'"),
        (("A1", 0, "A1"), "repeated register keys"),
        ((0, 5), "quantum register 5 out of range"),
    ]:
        with pytest.raises(ValidationError) as info:
            per_entropy(state, keys)
        assert str(info.value) == text
        with pytest.raises(ValidationError, match=re.escape(text)):
            cq_entropies([good, (state, keys), good])
        with pytest.raises(ValidationError, match=re.escape(text)):
            conditional_mutual_informations([(state, ("A1",), (0,), ()), (state, keys, (1,), ())])


@pytest.mark.parametrize("name", ["n2", "n3", "n3-no-feedback", "n3-non-projective", "n3-adaptive"])
def test_converse_chain_equals_the_per_entropy_oracle(name):
    code = CODES[name]
    states = ehs_states(code)
    terms = per_entropy_terms(states)
    final = float(sum(per_entropy_terms([states[-1]] * code.n)))
    assert directed_terms(code) == terms
    assert directed_information_final(code) == final
    for uniform in (True, False):
        rep = rate_report(code, uniform_messages=uniform)
        assert rep.per_round == tuple(terms)
        assert rep.directed_total == float(sum(terms))
        assert rep.directed_final == final
    lhs, rhs, slack = verify_ddpi(code)
    assert (lhs, rhs, slack) == (message_information(code)[0], float(sum(terms)), rhs - lhs)
