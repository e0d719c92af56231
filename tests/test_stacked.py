"""The stacked walk, entropies and Holevo body against the per-object oracles of ``oracles.py``."""

import dataclasses
import re

import numpy as np
import pytest
from oracles import (
    basis_povm,
    cq_branches,
    cq_state,
    measure_probabilities,
    oracle_coordinate_ascent,
    oracle_ehs_branches,
    oracle_error_probability,
    oracle_output_ensemble,
    oracle_pinv_sqrt,
    oracle_psd_sqrt,
    oracle_random_feedback_code,
    oracle_rate_report,
    oracle_roots,
    oracle_transcripts,
    per_entropy,
    random_isometry,
    per_entropy_terms,
    random_channel,
    round_update,
)

from qfeedback import capacity, cqstate, protocol, quantum
from qfeedback.achievability import (
    _gentle_distances,
    _hn_violations,
    build_double_blocked_code,
    gentle_measurement_check,
    hayashi_nagaoka_check,
)
from qfeedback.capacity import grid_search_chi
from qfeedback.cqstate import (
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
    fano_bound,
    message_information,
    rate_report,
    verify_ddpi,
)
from qfeedback.linalg import LinalgError, dagger, herm_eigvals, identity, pinv_sqrt, psd_sqrt, trace_norm
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
    ER,
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
    square_root_measurement,
)

TOL = 1e-12


def adaptive_code(seed):
    """n=3 code whose M_2 depends on the M_1 outcome, its elements in a different order per history."""
    base = random_feedback_code(np.random.default_rng(seed), depolarizing_channel(0.2), 3, num_words=3)
    rng = np.random.default_rng(seed + 1)

    def rotated(order):
        u = random_unitary(rng, 2)
        return on_freshest(Povm(tuple((k, np.outer(u[:, k], u[:, k].conj())) for k in order)), 2, {})

    m2 = {(k,): rotated((0, 1) if k == 0 else (1, 0)) for k in base.outcome_labels(1)}
    partial = dataclasses.replace(base, measurements=(base.measurements[0], m2, None))
    return with_pgm_decoder(partial, partial.probs)


def seeded_codes():
    codes = {}
    for n in (1, 2, 3):
        codes[f"n{n}"] = random_feedback_code(
            np.random.default_rng(40 + n), depolarizing_channel(0.15), n, num_words=min(3, 2**n)
        )
    codes["n3-no-feedback"] = oracle_random_feedback_code(
        np.random.default_rng(44), depolarizing_channel(0.15), 3, num_words=3, feedback=False
    )
    codes["n3-non-projective"] = oracle_random_feedback_code(
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
    m1 = on_freshest(quantum.rotated_qubit_povm(2.0 * np.arcsin(np.sqrt(1.2e-14)), 0.0), 1, {})
    split = on_freshest(Povm(((0, np.sqrt(0.7) * np.eye(2)), (1, np.sqrt(0.3) * np.eye(2)))), 2, {})
    m2 = {(0,): on_freshest(basis_povm(2), 2, {}), (1,): split}
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
        got = {lab: (w, rho) for lab, w, rho in cq_branches(state)}
        assert set(got) == set(table)
        for lab, (w, rho) in table.items():
            assert abs(got[lab][0] - w) <= TOL
            assert np.max(np.abs(got[lab][1].mat - rho.mat)) <= TOL


@pytest.mark.parametrize("name", list(CODES))
def test_rate_report_matches_the_oracle(name):
    code = CODES[name]
    got = dataclasses.asdict(rate_report(code))
    want = oracle_rate_report(code, True)
    assert set(got) == set(want)
    for field, value in want.items():
        assert np.max(np.abs(np.subtract(got[field], value))) <= TOL, field
    # The ensemble law is message_information's and fano_bound's.
    want = oracle_rate_report(code, False)
    i_mz, i_mk = message_information(code)
    got = {"i_message_quantum": i_mz, "i_message_classical": i_mk, "fano_bound": fano_bound(code)}
    for field, value in got.items():
        assert abs(value - want[field]) <= TOL, field


@pytest.mark.parametrize("name", list(BLOCKED))
def test_blocked_code_matches_the_oracle(name):
    code = BLOCKED[name]
    slots = [slot.values() if isinstance(slot, dict) else (slot,) for slot in code.measurements]
    assert any(povm.feedback for povms in slots for povm in povms) == (name == "n3-base")
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
        got = {lab: w for lab, w, _ in cq_branches(state)}
        assert set(got) == set(table)
        assert max(abs(got[lab] - w) for lab, (w, _) in table.items()) <= TOL


def message(fn):
    with pytest.raises((ValidationError, LinalgError)) as info:
        fn()
    return type(info.value), str(info.value)


def test_walk_raises_as_the_oracle_on_a_corrupted_feedback_operator():
    m1 = CODES["n3"].measurements[0]
    outcome = next(iter(m1.feedback))
    m1 = dataclasses.replace(m1, feedback={**m1.feedback, outcome: (1.01 * m1.feedback[outcome][0],)})
    code = dataclasses.replace(CODES["n3"], measurements=(m1,) + CODES["n3"].measurements[1:])
    word = code.codebook.words[0]
    want = message(lambda: round_update(code, round_zero(code, word), 2, outcome))
    assert want == (ValidationError, "Kraus family is not complete")
    assert message(lambda: enumerate_transcripts(code, word)) == want
    assert message(lambda: rate_report(code)) == want


def test_walk_raises_as_the_oracle_on_a_corrupted_povm_element():
    code = dataclasses.replace(CODES["n3"])
    povm = Povm(code.measurements[0].elements, code.measurements[0].feedback)
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
    state = cq_state((("A", 2),), (2,), (((0,), 0.5, rho), ((1,), 0.5, rho)))
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
    return cq_state(registers, (2, 2), [(lab, w, DensityMatrix(r.mat, (2, 2))) for lab, w, r in zip(labels, weights, rhos)])


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
    rep = rate_report(code)
    assert rep.per_round == tuple(terms)
    assert rep.directed_total == float(sum(terms))
    assert rep.directed_final == final
    lhs, rhs, slack = verify_ddpi(code)
    assert (lhs, rhs, slack) == (message_information(code)[0], float(sum(terms)), rhs - lhs)


def qubit_to_qutrit_channel():
    """A rectangular channel: two Kraus operators of shape (3, 2) from one seeded isometry."""
    v = random_isometry(np.random.default_rng(5), 6, 2)
    return quantum.QuantumChannel((v[:3], v[3:]), "qubit-to-qutrit")


HOLEVO_CHANNELS = {
    "amplitude-damping": amplitude_damping_channel(0.3),
    "qutrit": random_channel(np.random.default_rng(2), 3, 2),
    "qubit-to-qutrit": qubit_to_qutrit_channel(),
}


def holevo_objective(monkeypatch, channel):
    """The objective ``holevo_capacity`` hands to the ascent, and its first start."""
    seen = []

    def capture(objective, x0, prob_block, cfg, frozen=None):
        seen.append((objective, x0))
        return capacity.AscentResult(x0, objective(x0), True, 0)

    monkeypatch.setattr(capacity, "coordinate_ascent", capture)
    capacity.holevo_capacity(channel, capacity.OptimizerConfig(starts=1))
    monkeypatch.undo()
    return seen[0]


def holevo_points(channel, seed):
    """Seeded ensemble points: one weight below 1e-12, one kept input of norm zero."""
    rng = np.random.default_rng(seed)
    d = channel.in_dim
    num = d * d
    x = np.concatenate([rng.dirichlet(np.ones(num)), rng.standard_normal(2 * d * num)])
    x[1] = 1e-13
    x[num + 4 * d : num + 6 * d] = 0.0  # the third input, whose weight is kept
    return x


@pytest.mark.parametrize("name", sorted(HOLEVO_CHANNELS))
def test_holevo_objective_equals_the_per_object_oracle(monkeypatch, name):
    channel = HOLEVO_CHANNELS[name]
    num = channel.in_dim**2
    objective, x0 = holevo_objective(monkeypatch, channel)
    for x in [x0] + [holevo_points(channel, seed) for seed in range(4)]:
        want = oracle_output_ensemble(channel, num, x)
        weights, outputs = capacity._output_ensemble(channel, num, x)
        assert len(weights) == len(want.items) == (num if x is x0 else num - 1)
        for p, rho, (q, sigma) in zip(weights, outputs, want.items, strict=True):
            assert abs(p - q) <= TOL and np.abs(rho - sigma.mat).max() <= TOL
        assert abs(objective(x) - holevo_chi(want)) <= TOL


def test_holevo_objective_builds_no_objects(monkeypatch):
    objective, x0 = holevo_objective(monkeypatch, amplitude_damping_channel(0.3))
    built = []
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: built.append(self))
    monkeypatch.setattr(Ensemble, "__post_init__", lambda self: built.append(self))
    objective(x0)
    objective(holevo_points(amplitude_damping_channel(0.3), 0))
    assert built == []


def test_holevo_result_ensemble_is_built_once_from_the_best_point():
    channel = qubit_to_qutrit_channel()
    res = capacity.holevo_capacity(channel, capacity.OptimizerConfig(starts=2, max_sweeps=2))
    assert all(rho.dims == (3,) for _, rho in res.ensemble.items)
    assert holevo_chi(res.ensemble) == res.value


def test_pure_outputs_equal_apply_channel_of_pure_state():
    # The grid's and the objective's outputs, one pure input at a time.  With
    # 64 rows some row norms differ in the last bit from the axis=1 norm.
    channel = qubit_to_qutrit_channel()
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    vecs[2] = 0.0
    outputs = capacity._pure_outputs(channel, vecs)
    inputs = [quantum.basis_state(2, 0) if k == 2 else quantum.pure_state(v) for k, v in enumerate(vecs)]
    for out, rho in zip(outputs, inputs, strict=True):
        assert np.array_equal(out, quantum.apply_channel(channel, rho).mat)


def ascent_cases(monkeypatch):
    """(objective, x0, prob_block, frozen) of the amplitude-damping Holevo objective and of a smooth test function."""
    objective, x0 = holevo_objective(monkeypatch, amplitude_damping_channel(0.3))
    target = np.array([0.1, 0.6, 0.3, 1.0, -0.5, 2.0])

    def smooth(v):
        return -float(np.sum((v - target) ** 2)) + 0.25 * float(np.cos(v[3] * v[4]))

    x_smooth = np.concatenate([np.full(3, 1.0 / 3.0), np.zeros(3)])
    return [(objective, x0, slice(0, 4), None), (smooth, x_smooth, slice(0, 3), {5})]


@pytest.mark.parametrize("case", [0, 1])
def test_coordinate_ascent_evaluates_the_points_of_the_oracle_loop(monkeypatch, case):
    objective, x0, prob_block, frozen = ascent_cases(monkeypatch)[case]
    cfg = capacity.OptimizerConfig(max_sweeps=3)
    runs = []
    for ascent in (capacity.coordinate_ascent, oracle_coordinate_ascent):
        points = []

        def recorded(x):
            points.append(x.copy())
            return objective(x)

        res = ascent(recorded, x0, prob_block, cfg, frozen)
        runs.append((points, res))
    (got, res), (want, ref) = runs
    assert len(got) == len(want) > 50
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(res.x, ref.x)
    assert (res.value, res.converged, res.sweeps) == (ref.value, ref.converged, ref.sweeps)


def psd_stack(rng, dim: int, size: int = 5) -> np.ndarray:
    g = rng.standard_normal((size, dim, dim)) + 1j * rng.standard_normal((size, dim, dim))
    return g @ dagger(g)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 64])
def test_stacked_spectral_kernels_equal_per_matrix_calls(dim):
    rng = np.random.default_rng(dim)
    psd = psd_stack(rng, dim)
    psd[2] = 0.0  # pinv_sqrt maps the zero matrix to zero
    indefinite = psd - psd[::-1]
    indefinite[1] = -psd[1]  # and a matrix with no positive eigenvalue
    for kernel, stack in ((psd_sqrt, psd), (pinv_sqrt, psd), (pinv_sqrt, indefinite), (trace_norm, indefinite)):
        assert np.array_equal(kernel(stack), np.array([kernel(m) for m in stack]))
    assert isinstance(trace_norm(indefinite[0]), float)
    assert np.array_equal(psd_sqrt(psd), np.array([oracle_psd_sqrt(m) for m in psd]))
    assert np.array_equal(pinv_sqrt(psd), np.array([oracle_pinv_sqrt(m) for m in psd]))
    assert np.array_equal(pinv_sqrt(indefinite), np.array([oracle_pinv_sqrt(m) for m in indefinite]))
    assert not pinv_sqrt(psd)[2].any() and not pinv_sqrt(indefinite)[1].any()

    half = np.diag(np.arange(dim) < dim // 2).astype(complex)
    gammas = half @ psd @ half  # their sum has a kernel, so the remainder is not zero
    povm = square_root_measurement(dict(enumerate(gammas)))
    assert povm.labels == (0, 1, 2, 3, 4, ER)
    w = pinv_sqrt(gammas.sum(axis=0))
    r = w @ gammas @ w
    effects = 0.5 * (r + dagger(r))
    rem = identity(dim) - effects.sum(axis=0)
    want = oracle_roots(effects, 0.5 * (rem + dagger(rem)))
    assert all(np.array_equal(a, b) for (_, a), b in zip(povm.elements, want, strict=True))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 64])
def test_stacked_lemma_bodies_equal_their_one_pair_checks(dim):
    rng = np.random.default_rng(100 + dim)
    s = psd_stack(rng, dim)
    s = s / herm_eigvals(s)[:, :1, None]
    s = 0.5 * (s + dagger(s))  # exactly Hermitian, so the check's own symmetrization keeps every bit
    t = psd_stack(rng, dim) / dim
    t = 0.5 * (t + dagger(t))
    for c in (2.0, 0.2):
        got = _hn_violations(s, t, c)
        assert np.array_equal(got, [_hn_violations(a[None], b[None], c)[0] for a, b in zip(s, t)])
    assert np.array_equal(_hn_violations(s, t, 2.0), [hayashi_nagaoka_check(a, b)[0] for a, b in zip(s, t)])

    rhos = psd_stack(rng, dim)
    rhos = rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    rhos = 0.5 * (rhos + dagger(rhos))
    effects = identity(dim) - 0.5 * s
    effects[1] = 0.0  # overlap at the floor: distance 2
    overlaps, distances = _gentle_distances(rhos, effects)
    reports = [gentle_measurement_check(density(rho), effect, 0.01) for rho, effect in zip(rhos, effects)]
    assert np.array_equal(overlaps, [r.overlap for r in reports])
    assert np.array_equal(distances, [r.distance for r in reports])
    assert distances[1] == 2.0


def test_a_stack_with_one_non_psd_matrix_raises_its_message():
    stack = psd_stack(np.random.default_rng(7), 4)
    stack[3] = stack[3] - 50.0 * identity(4)
    stack[4] = stack[4] - 90.0 * identity(4)  # lower, but after the first one
    with pytest.raises(LinalgError) as single:
        psd_sqrt(stack[3])
    with pytest.raises(LinalgError, match=f"^{re.escape(str(single.value))}$"):
        psd_sqrt(stack)
    # One effect below zero while the effects still sum to at most the identity.
    bad, good = np.diag([0.5, -0.05]).astype(complex), np.diag([0.2, 0.5]).astype(complex)
    w = pinv_sqrt(good + bad)
    with pytest.raises(LinalgError) as single:
        psd_sqrt(w @ bad @ w)
    with pytest.raises(LinalgError, match=f"^{re.escape(str(single.value))}$"):
        square_root_measurement({0: good, 1: bad})


def test_ddpi_right_side_is_the_reports_directed_total():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        channel = depolarizing_channel(float(rng.uniform(0.0, 0.6)))
        code = random_feedback_code(rng, channel, n, num_words=min(int(rng.integers(2, 5)), 2**n))
        lhs, rhs, slack = verify_ddpi(code)
        assert rate_report(code).directed_total == rhs == directed_information_total(code)
        assert (lhs, slack) == (message_information(code)[0], rhs - lhs)
