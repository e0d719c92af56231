import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    basis_povm,
    classical_channels,
    materialize,
    materialized_entropy,
    oracle_massey_terms,
    oracle_random_feedback_code,
)
from qfeedback.achievability import build_double_blocked_code
from qfeedback.cli import main
from qfeedback.config import load_config
from qfeedback.cqstate import conditional_mutual_information, conditional_mutual_informations
from qfeedback.directed import (
    _term_requests,
    directed_information_final,
    directed_information_total,
    directed_terms,
    fano_bound,
    message_information,
    rate_report,
    verify_ddpi,
)
from qfeedback.linalg import LinalgError, kron, kron_all
from qfeedback.protocol import (
    Codebook,
    FeedbackCode,
    ehs_state,
    ehs_states,
    error_probability,
    on_freshest,
    product_states,
    random_feedback_code,
    sample_transcript,
    validate_code,
    with_pgm_decoder,
)
from qfeedback.quantum import (
    ER,
    DensityMatrix,
    Ensemble,
    Povm,
    ValidationError,
    basis_state,
    depolarizing_channel,
    fully_depolarizing_channel,
    holevo_chi,
    identity_channel,
)


def basis_code(channel, n=1):
    words = ((0,) * n, (1,) * n)
    book = Codebook(2, n, words)
    states = []
    for w in words:
        mat = basis_state(2, w[0]).mat
        for a in w[1:]:
            mat = kron(mat, basis_state(2, a).mat)
        states.append(DensityMatrix(mat, (2,) * n))
    meas = []
    for j in range(1, n):
        from qfeedback.linalg import identity

        meas.append(Povm(((0, identity(2**j)),)))
    labels = {}
    for k in range(2**n):
        w = tuple(int(b) for b in format(k, f"0{n}b"))
        labels[k] = w if w in words else ("junk", k)
    proj = lambda k: np.diag([1.0 * (i == k) for i in range(2**n)]).astype(complex)
    meas.append(Povm(tuple((labels[k], proj(k)) for k in range(2**n))))
    return FeedbackCode(book, channel, (0.5, 0.5), tuple(states), tuple(meas))


def uniform_twin(code):
    """``code`` with uniform codeword probabilities: its ensemble law is ``rate_report``'s uniform law."""
    num = code.codebook.size
    return dataclasses.replace(code, probs=(1.0 / num,) * num)


def test_directed_information_identity_one_round():
    code = basis_code(identity_channel(2), n=1)
    terms = directed_terms(code)
    assert len(terms) == 1
    assert abs(terms[0] - 1.0) < 1e-10


def test_directed_information_fully_depolarizing_is_zero():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        code = random_feedback_code(rng, fully_depolarizing_channel(), n, num_words=2)
        assert abs(directed_information_total(code)) < 1e-10


def test_directed_terms_match_materialization_oracle():
    rng = np.random.default_rng(1)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 2, num_words=2)
    terms = directed_terms(code)
    # Term t recomputed through the materialized four-entropy formula.
    for t in (1, 2):
        s = ehs_state(code, t - 1)
        part_a = tuple(f"A{i}" for i in range(1, t + 1))
        qs_b, qs_c = (t - 1,), tuple(range(t - 1))
        want = (
            materialized_entropy(s, part_a, qs_c)
            + materialized_entropy(s, (), qs_b + qs_c)
            - materialized_entropy(s, part_a, qs_b + qs_c)
            - materialized_entropy(s, (), qs_c)
        )
        assert abs(terms[t - 1] - want) < 1e-9


def test_final_variant_equals_directed_at_n1():
    rng = np.random.default_rng(2)
    code = random_feedback_code(rng, depolarizing_channel(0.3), 1, num_words=2)
    assert abs(directed_information_total(code) - directed_information_final(code)) < 1e-12


def test_final_variant_no_feedback_reduction():
    # Trivial feedback and single-outcome intermediate measurements:
    # both quantities coincide.
    code = basis_code(depolarizing_channel(0.25), n=2)
    d = directed_information_total(code)
    f = directed_information_final(code)
    assert abs(d - f) < 1e-9


def test_final_variant_bounded_by_directed_on_generator_codes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        code = random_feedback_code(rng, depolarizing_channel(0.2), n, num_words=2)
        assert directed_information_final(code) <= directed_information_total(code) + 1e-9


def test_message_information_perfect_channel():
    code = basis_code(identity_channel(2), n=1)
    i_mz, i_mk = message_information(code)
    assert abs(i_mk - 1.0) < 1e-10
    assert abs(i_mz - 1.0) < 1e-10


def test_holevo_ordering_random_codes():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 3))
        code = random_feedback_code(rng, depolarizing_channel(0.2), n, num_words=2)
        i_mz, i_mk = message_information(code)
        assert i_mk <= i_mz + 1e-9
        assert i_mz >= -1e-10 and i_mk >= -1e-10


def test_verify_ddpi_identity_one_round():
    code = basis_code(identity_channel(2), n=1)
    lhs, rhs, slack = verify_ddpi(code)
    assert abs(lhs - rhs) < 1e-9  # both collapse to I(A:Z)
    assert slack >= -1e-9


def test_verify_ddpi_fully_depolarizing():
    rng = np.random.default_rng(5)
    code = random_feedback_code(rng, fully_depolarizing_channel(), 2, num_words=2)
    lhs, rhs, slack = verify_ddpi(code)
    assert abs(lhs) < 1e-9
    assert abs(rhs) < 1e-9


def test_ddpi_randomized_suite():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        words = min(int(rng.integers(2, 5)), 2**n)
        code = random_feedback_code(
            rng, depolarizing_channel(float(rng.uniform(0, 0.6))), n, num_words=words
        )
        lhs, rhs, slack = verify_ddpi(code)
        assert slack >= -1e-9, (n, lhs, rhs)


def test_ddpi_also_holds_for_nonprojective_measurements():
    # Single-register measurement back-action cannot break the directed DPI,
    # projective or not; only the Holevo ordering needs projectivity.
    rng = np.random.default_rng(60)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        code = oracle_random_feedback_code(
            rng, depolarizing_channel(0.2), n, num_words=2, projective=False
        )
        _, _, slack = verify_ddpi(code)
        assert slack >= -1e-9


def test_fano_bound_perfect_code():
    code = basis_code(identity_channel(2), n=1)
    b = fano_bound(code)
    assert b >= 1.0  # log2(2)/1 = 1 for a zero-error code with 2 words


def test_fano_bound_dominates_message_entropy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        code = random_feedback_code(rng, depolarizing_channel(0.3), n, num_words=2)
        num = code.codebook.size
        b = fano_bound(uniform_twin(code))
        h_rate = np.log2(num) / code.n
        assert h_rate <= b + 1e-9


def test_fano_bound_equals_rate_report_field():
    # One formula, eps_n + I(M:K)/n: the bound written as (1 + P_e n R + I(M:K))/n
    # differed in the last bit on 7 of these codes (seed 2 first).  rate_report
    # takes the uniform law, which is fano_bound's ensemble law on the uniform twin.
    for seed in range(30):
        code = random_feedback_code(np.random.default_rng(seed), depolarizing_channel(0.2), 3, num_words=3)
        assert fano_bound(uniform_twin(code)) == rate_report(code).fano_bound, seed


def test_rate_report_consistency():
    rng = np.random.default_rng(8)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 2, num_words=2)
    rep = rate_report(code)
    assert abs(rep.directed_total - sum(rep.per_round)) < 1e-12
    assert all(x >= -1e-9 for x in rep.per_round)
    assert rep.i_message_classical <= rep.i_message_quantum + 1e-9
    assert rep.h_message_rate <= rep.fano_bound + 1e-9
    assert 0.0 <= rep.avg_error <= 1.0
    assert rep.avg_error <= rep.max_error + 1e-12


# Each converse view and the part of ``_converse(code)`` = (report, ensemble
# triple) it must equal.
VIEWS = {
    "rate_report": (rate_report, lambda report, ens: report),
    "verify_ddpi": (verify_ddpi, lambda report, ens: (ens[0], report.directed_total, report.directed_total - ens[0])),
    "message_information": (message_information, lambda report, ens: ens[:2]),
    "fano_bound": (fano_bound, lambda report, ens: ens[2]),
    "directed_information_final": (directed_information_final, lambda report, ens: report.directed_final),
}


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_each_converse_view_walks_once_and_equals_the_body(name, monkeypatch):
    from qfeedback import directed, protocol

    view, part = VIEWS[name]
    codes = []
    for n in (1, 2, 3):
        for seed in range(2):
            rng = np.random.default_rng(100 * n + seed)
            codes.append(random_feedback_code(rng, depolarizing_channel(0.15), n, num_words=min(3, 2**n)))
    zeroed = np.array([0.0, *codes[-1].probs[1:]])
    codes.append(dataclasses.replace(codes[-1], probs=tuple(zeroed / zeroed.sum())))  # a word at probability 0
    for code in codes:
        assert view(code) == part(*directed._converse(code)), (name, code.n)

    code = random_feedback_code(np.random.default_rng(12), depolarizing_channel(0.2), 3, num_words=3)
    walked, built = [], []
    walk, by_law = protocol._walk, protocol._ehs_by_law

    def counted(code, words, *args, **kwargs):
        walked.extend(tuple(w) for w in words)
        return walk(code, words, *args, **kwargs)

    def counted_by_law(*args):
        built.append(args)
        return by_law(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} rebuilt the EHS states")

    for mod in (protocol, directed):
        monkeypatch.setattr(mod, "_walk", counted, raising=False)
        monkeypatch.setattr(mod, "_ehs_by_law", counted_by_law, raising=False)
    monkeypatch.setattr(protocol, "ehs_states", forbidden)
    monkeypatch.setattr(protocol, "ehs_state", forbidden)
    view(code)
    assert sorted(walked) == sorted(code.codebook.words)  # each codeword is walked once
    assert len(built) == 1  # the EHS states are built once


def test_directed_terms_with_a_word_at_zero_stay_within_1e15_of_the_terms_on_ehs_states():
    # The terms are evaluated on every walked branch, a word at probability 0
    # weighing 0, while ehs_states drops those branches.  The letter groups of
    # the entropies are then summed in walk order, not in kept-branch order, so
    # a code whose words are not sorted may move by rounding; with its words
    # sorted the two orders agree and so do the bits.
    channel = depolarizing_channel(0.25)
    for seed in range(10):
        for n, num_words in ((2, 3), (3, 4), (3, 6)):
            base = random_feedback_code(np.random.default_rng(seed), channel, n, num_words=num_words)
            for i in range(num_words):
                probs = np.array(base.probs)
                probs[i] = 0.0
                code = dataclasses.replace(base, probs=tuple(probs / probs.sum()))
                want = conditional_mutual_informations(_term_requests(ehs_states(code)))
                assert max(abs(a - b) for a, b in zip(directed_terms(code), want, strict=True)) <= 1e-15
                order = sorted(range(num_words), key=lambda j: code.codebook.words[j])
                ordered = dataclasses.replace(
                    code,
                    codebook=Codebook(2, n, [code.codebook.words[j] for j in order]),
                    probs=tuple(code.probs[j] for j in order),
                    states=tuple(code.states[j] for j in order),
                )
                assert directed_terms(ordered) == conditional_mutual_informations(_term_requests(ehs_states(ordered)))


CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.fixture(scope="module")
def law_codes():
    # The law corpus: the library generator, the oracle generator with each
    # switch off, both shipped configs and an l=2 blocked code.
    channel = depolarizing_channel(0.1)
    base = random_feedback_code(np.random.default_rng(9), channel, 2)
    return {
        "random_feedback_code": random_feedback_code(np.random.default_rng(1), channel, 2),
        "no feedback": oracle_random_feedback_code(np.random.default_rng(2), channel, 3, feedback=False),
        "not projective": oracle_random_feedback_code(np.random.default_rng(3), channel, 3, projective=False),
        "depolarizing.json": load_config(CONFIGS / "depolarizing.json").code,
        "identity.json": load_config(CONFIGS / "identity.json").code,
        "blocked l=2": build_double_blocked_code(base, 2, delta=0.3),
    }


LAW_CODES = (
    "random_feedback_code", "no feedback", "not projective", "depolarizing.json", "identity.json", "blocked l=2"
)
CONVERSE_VIEWS = (rate_report, verify_ddpi, message_information, fano_bound, directed_information_final)


def _with_law(code, law):
    """``code`` under ``law(code.probs)``, padded with zero probabilities to the codebook size."""
    probs = tuple(law(code.probs))
    return dataclasses.replace(code, probs=probs + (0.0,) * (code.codebook.size - len(probs)))


def _cli_exits(name, code, tmp_path, capsys) -> set:
    """Exit codes of ``qfeedback validate``/``info``/``simulate`` on config ``name`` with ``code``'s probabilities."""
    data = json.loads((CONFIGS / name).read_text())
    data["protocol"]["probs"] = list(code.probs)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    exits = {main([command, str(path)]) for command in ("validate", "info", "simulate")}
    capsys.readouterr()
    return exits


@pytest.mark.parametrize("name", LAW_CODES)
@pytest.mark.parametrize(
    "law",
    [
        lambda p: (1.25, -0.25),
        lambda p: (float("nan"), 1.0),
        lambda p: (0.0, 0.0),
        lambda p: (1.0, float("inf")),
        lambda p: (0.9, 0.9),
        lambda p: (0.45, 0.45),
        lambda p: (1 + 1e-13, -1e-13),
        lambda p: (p[0] + 2e-12, *p[1:]),
    ],
    ids=["(1.25,-0.25)", "(nan,1)", "(0,0)", "(1,inf)", "(0.9,0.9)", "(0.45,0.45)", "(1+1e-13,-1e-13)", "total+2e-12"],
)
def test_a_codeword_law_that_is_not_a_law_raises(law_codes, name, law, tmp_path, capsys):
    # One rule decides what a codeword law is (quantum.law_defects): every
    # entry >= 0 and a total within 1e-12 of 1.  validate_code reports a law
    # that breaks it and every entry point that reads the law raises
    # ValidationError, nothing else.  Once, (0.9, 0.9) gave the directed
    # terms of (0.5, 0.5), because the EHS weights were renormalized, and an
    # average error above the maximal one, because the error was not.
    code = law_codes[name]
    bad = _with_law(code, law)
    names = {name for name, _ in validate_code(bad).violations}
    assert names and names <= {"ensemble: probabilities do not sum to 1", "ensemble: negative probability"}
    for f in (ehs_states, directed_terms, directed_information_total, error_probability, *CONVERSE_VIEWS):
        with pytest.raises(ValidationError, match="not a law"):
            f(bad)
    with pytest.raises(ValidationError, match="not a law"):
        build_double_blocked_code(bad, 2)
    with pytest.raises(ValidationError, match="not a law"):
        Ensemble(tuple(zip(bad.probs, bad.states)))
    if name.endswith(".json"):
        assert _cli_exits(name, bad, tmp_path, capsys) == {1}
    # The one entry point that reads no law: the law is reported only.
    for word in code.codebook.words:
        got, want = sample_transcript(bad, word, 5), sample_transcript(code, word, 5)
        assert (got.outcomes, got.probability) == (want.outcomes, want.probability)


@pytest.mark.parametrize("name", LAW_CODES)
@pytest.mark.parametrize("law", [lambda p: p, lambda p: (p[0] + 5e-13, *p[1:])], ids=["unmutated", "total+5e-13"])
def test_a_law_within_the_tolerance_passes_everywhere(law_codes, name, law, tmp_path, capsys):
    code = _with_law(law_codes[name], law)
    assert validate_code(code).ok
    average, worst = error_probability(code)
    assert average <= worst * (1 + 1e-12)
    for f in (ehs_states, directed_terms, *CONVERSE_VIEWS):
        f(code)
    report = rate_report(code)
    assert report.avg_error <= report.max_error * (1 + 1e-12)
    Ensemble(tuple(zip(code.probs, code.states)))
    if name.endswith(".json"):
        assert _cli_exits(name, code, tmp_path, capsys) == {0}


def _replaced(code, j, measurement):
    return dataclasses.replace(code, measurements=code.measurements[: j - 1] + (measurement,) + code.measurements[j:])


def _with_feedback(code, j, outcome, kraus):
    m = code.measurements[j - 1]
    return _replaced(code, j, Povm(m.elements, {**m.feedback, outcome: kraus}))


def _renamed(povm, old, new):
    return Povm(tuple((new if lab == old else lab, f) for lab, f in povm.elements), povm.feedback)


def _scaled_feedback(code):
    return _with_feedback(code, 1, 0, (0.5 * code.measurements[0].feedback[0][0],))


NOT_PSD = np.kron(np.diag([1.3, -0.3]), np.eye(2) / 2)  # Hermitian with unit trace, eigenvalue -0.15


def _not_psd(code):
    return dataclasses.replace(code, states=(DensityMatrix(NOT_PSD, (2, 2)), *code.states[1:]))


RAISES, REPORTED = "every entry point raises", "reported only; the walk is unaffected"


# Each mutation acts on random_feedback_code(seed, depolarizing(0.1), n): at
# seed 4 and n = 3, M_1 carries a feedback unitary per outcome.
@pytest.mark.parametrize(
    "cls, seed, n, mutate",
    [
        pytest.param(
            RAISES,
            4,
            3,
            lambda c: _replaced(c, 2, {(k,): c.measurements[1] for k in c.measurements[0].labels if k != 1}),
            id="dropped table history",
        ),
        pytest.param(RAISES, 4, 3, lambda c: _with_feedback(c, 1, 0, ()), id="empty feedback family"),
        pytest.param(RAISES, 4, 3, lambda c: _with_feedback(c, 1, 0, (np.eye(4),)), id="mis-shaped feedback family"),
        pytest.param(RAISES, 4, 3, _scaled_feedback, id="incomplete feedback family"),
        pytest.param(
            REPORTED, 4, 3, lambda c: _with_feedback(c, 3, c.codebook.words[0], (np.eye(1),)), id="feedback on M_n"
        ),
        pytest.param(
            REPORTED,
            4,
            3,
            lambda c: _replaced(c, 3, _renamed(c.measurements[2], ER, "lost")),
            id="final label not a codeword",
        ),
        pytest.param(
            RAISES,
            1,
            2,
            _not_psd,
            id="non-PSD codeword state",
            marks=pytest.mark.xfail(
                strict=True,
                reason="FOUND: only validate_code checks a codeword state's spectrum, so every walk reads it and "
                "error_probability gives (0.1688, 0.7517); item 7 measures the cost of a check first",
            ),
        ),
    ],
)
def test_a_mutated_code_is_rejected_by_every_entry_point_or_by_none(cls, seed, n, mutate):
    # Each kind of structural mutation has one class: either validate_code
    # reports it and every entry point raises (ValidationError or
    # LinalgError, nothing else; a draw raises once it reaches the defect),
    # or validate_code reports it and the walk never reads it, so every
    # number equals the unmutated code's.  The law's kinds are the corpus
    # above.
    code = random_feedback_code(np.random.default_rng(seed), depolarizing_channel(0.1), n)
    bad = mutate(code)
    assert not validate_code(bad).ok
    draws = [(word, k) for word in code.codebook.words for k in range(20)]
    if cls == RAISES:
        for f in (ehs_states, directed_terms, rate_report, error_probability):
            with pytest.raises((ValidationError, LinalgError)):
                f(bad)
        raised = 0
        for word, k in draws:
            try:
                sample_transcript(bad, word, k)
            except (ValidationError, LinalgError):
                raised += 1
        assert raised
        return
    for got, want in zip(ehs_states(bad), ehs_states(code), strict=True):
        assert np.array_equal(got.weights, want.weights) and np.array_equal(got.states, want.states)
    for f in (directed_terms, rate_report, error_probability):
        assert f(bad) == f(code)
    for word, k in draws:
        got, want = sample_transcript(bad, word, k), sample_transcript(code, word, k)
        assert (got.outcomes[:-1], got.probability) == (want.outcomes[:-1], want.probability)
        assert (got.decoded == word) == (want.decoded == word)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rate_report_equals_public_functions(n):
    # Seeded codes with feedback (n=3 has post-processing maps); every
    # field must equal the public function's value exactly.
    for seed in range(2):
        rng = np.random.default_rng(100 * n + seed)
        code = random_feedback_code(rng, depolarizing_channel(0.15), n, num_words=min(3, 2**n))
        rep = rate_report(code)
        assert rep.per_round == tuple(directed_terms(code))
        assert rep.directed_total == directed_information_total(code)
        assert rep.directed_final == directed_information_final(code)
        assert (rep.i_message_quantum, rep.i_message_classical) == message_information(uniform_twin(code))
        assert (rep.avg_error, rep.max_error) == error_probability(code)


def test_no_feedback_reduction_to_mutual_information():
    # Product codewords, trivial feedback: directed info equals I(A_1^n : Z_1^n).
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        code = oracle_random_feedback_code(
            rng, depolarizing_channel(float(rng.uniform(0, 0.5))), n, num_words=2, feedback=False
        )
        # strip intermediate measurements down to the trivial one
        from qfeedback.linalg import identity as eye

        meas = tuple(Povm(((0, eye(2**j)),)) for j in range(1, n)) + (code.measurements[-1],)
        trivial = FeedbackCode(code.codebook, code.channel, code.probs, code.states, meas)
        total = directed_information_total(trivial)
        s = ehs_state(trivial, n - 1)
        mi = conditional_mutual_information(
            s, tuple(f"A{i}" for i in range(1, n + 1)), tuple(range(n)), ()
        )
        assert abs(total - mi) < 1e-9


def test_directed_nonnegative():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        code = random_feedback_code(rng, depolarizing_channel(0.4), n, num_words=2)
        for term in directed_terms(code):
            assert term >= -1e-9


def test_directed_terms_equal_massey_terms_without_feedback():
    # Classical limit: diagonal letter states sent over a classical channel and
    # read in the computational basis, with no feedback.  Each term is then
    # Massey's I(A^t; Y_t | Y^(t-1)) and their sum I(A^n; Y^n).
    rng = np.random.default_rng(2024)
    for channel, w, _ in classical_channels():
        for n in (1, 2, 3):
            for _ in range(3):
                letters = [rng.dirichlet(np.ones(2)) for _ in range(2)]
                strings = [tuple(int(b) for b in np.binary_repr(i, n)) for i in range(2**n)]
                picked = sorted(rng.choice(2**n, size=int(rng.integers(2, 2**n + 1)), replace=False))
                words = tuple(strings[i] for i in picked)
                probs = tuple(rng.dirichlet(np.ones(len(words))))
                states = product_states([DensityMatrix(np.diag(x).astype(complex), (2,)) for x in letters], words)
                measurements = tuple(on_freshest(basis_povm(2), j, {}) for j in range(1, n))
                code = FeedbackCode(Codebook(2, n, words), channel, probs, states, measurements + (None,))
                terms = directed_terms(with_pgm_decoder(code, probs))
                want, total = oracle_massey_terms(w, letters, words, probs)
                assert np.allclose(terms, want, rtol=0.0, atol=1e-12), (channel.label, terms, want)
                assert abs(sum(terms) - total) <= 1e-12, (channel.label, sum(terms), total)


def test_ddpi_holds_with_equality_in_the_classical_limit_under_feedback():
    # Diagonal letters over a classical channel, read in the computational
    # basis on the freshest register, with outcome-conditioned bit flips on
    # the registers not yet sent (only n = 3 has one).  Y_t then depends on
    # A_t and Y^(t-1) alone, so I(M : Z^n) = I(A^n; Y^n) = sum_t
    # I(A^t; Y_t | Y^(t-1)) (Massey 1990): each term matches the oracle and
    # the DDPI's slack is 0.
    rng = np.random.default_rng(2027)
    flip, keep = np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2, dtype=complex)
    flipped = False
    for channel, w, _ in classical_channels():
        for n in (2, 3):
            for _ in range(10):
                letters = [rng.dirichlet(np.ones(2)) for _ in range(2)]
                strings = [tuple(int(b) for b in np.binary_repr(i, n)) for i in range(2**n)]
                picked = sorted(rng.choice(2**n, size=int(rng.integers(2, 2**n + 1)), replace=False))
                words = tuple(strings[i] for i in picked)
                probs = tuple(rng.dirichlet(np.ones(len(words))))
                flips = {(t, y): tuple(int(b) * (s > t) for s, b in enumerate(rng.integers(2, size=n)))
                         for t in range(1, n - 1) for y in range(2)}
                flipped |= any(any(bits) for bits in flips.values())
                feedback = [
                    {y: (kron_all(flip if flips[t, y][s] else keep for s in range(t + 1, n)),) for y in range(2)}
                    if t < n - 1 else {}
                    for t in range(1, n)
                ]
                states = product_states([DensityMatrix(np.diag(x).astype(complex), (2,)) for x in letters], words)
                measurements = tuple(on_freshest(basis_povm(2), t, feedback[t - 1]) for t in range(1, n))
                code = FeedbackCode(Codebook(2, n, words), channel, probs, states, measurements + (None,))
                code = with_pgm_decoder(code, probs)
                lhs, _, slack = verify_ddpi(code)
                want, total = oracle_massey_terms(w, letters, words, probs, flips)
                assert abs(slack) <= 1e-12, (channel.label, n, slack)
                assert np.allclose(directed_terms(code), want, rtol=0.0, atol=1e-12), (channel.label, n)
                assert abs(lhs - total) <= 1e-12, (channel.label, n, lhs, total)
    assert flipped


def test_directed_terms_with_feedback_stay_below_the_shannon_capacity():
    # Shannon's feedback theorem step by step: the channel reads its input in
    # the computational basis, so (A^t, Z^(t-1)) -> X_t -> Y_t is a Markov
    # chain and every term I(A^t; Z_t | Z^(t-1)) <= I(X_t; Y_t) <= C(W).
    rng = np.random.default_rng(56)
    for channel, _, c in classical_channels():
        for n in (1, 2, 3):
            for _ in range(20):
                code = random_feedback_code(rng, channel, n, num_words=int(rng.integers(2, 2**n + 1)))
                for term in directed_terms(code):
                    assert term <= c + 1e-9, (channel.label, n, term, c)


CONVERSE_PIN = json.loads((Path(__file__).parent / "data" / "converse_chain.json").read_text())


@pytest.mark.parametrize("config", sorted(CONVERSE_PIN["info"]))
def test_info_output_pin(config, capsys):
    main(["info", str(Path(__file__).parent.parent / "configs" / f"{config}.json")])
    assert capsys.readouterr().out == CONVERSE_PIN["info"][config]


@pytest.mark.parametrize("seed", range(15))
def test_converse_chain_pin(seed):
    # Seeded codes with non-uniform codeword probabilities at n = 1-3: every
    # value of the chain, under both message laws, bit for bit.
    n = 1 + seed % 3
    channel = depolarizing_channel(0.05 + 0.04 * seed)
    code = random_feedback_code(np.random.default_rng(seed), channel, n, num_words=min(2 + seed % 3, 2**n))
    report = dataclasses.asdict(rate_report(code))
    got = {
        "rate_report": {k: list(v) if isinstance(v, tuple) else v for k, v in report.items()},
        "verify_ddpi": list(verify_ddpi(code)),
        "message_information": list(message_information(code)),
        "fano_bound": fano_bound(code),
        "directed_information_final": directed_information_final(code),
    }
    assert got == CONVERSE_PIN["codes"][str(seed)]
