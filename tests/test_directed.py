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
from qfeedback.cli import main
from qfeedback.cqstate import conditional_mutual_information
from qfeedback.directed import (
    directed_information_final,
    directed_information_total,
    directed_terms,
    fano_bound,
    message_information,
    rate_report,
    verify_ddpi,
)
from qfeedback.linalg import kron, kron_all
from qfeedback.protocol import (
    Codebook,
    FeedbackCode,
    ehs_state,
    error_probability,
    on_freshest,
    product_states,
    random_feedback_code,
    with_pgm_decoder,
)
from qfeedback.quantum import (
    DensityMatrix,
    Ensemble,
    Povm,
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


def test_rate_report_walks_each_codeword_once(monkeypatch):
    from qfeedback import directed, protocol

    rng = np.random.default_rng(12)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 3, num_words=3)
    walked = []
    walk = protocol._walk

    def counted(code, words, *args, **kwargs):
        walked.extend(tuple(w) for w in words)
        return walk(code, words, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("rate_report rebuilt the EHS states")

    for mod in (protocol, directed):
        monkeypatch.setattr(mod, "_walk", counted, raising=False)
        monkeypatch.setattr(mod, "ehs_states", forbidden)
        monkeypatch.setattr(mod, "ehs_state", forbidden)
    rate_report(code)
    assert sorted(walked) == sorted(code.codebook.words)


def test_verify_ddpi_walks_each_codeword_once(monkeypatch):
    from qfeedback import directed, protocol

    rng = np.random.default_rng(12)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 3, num_words=3)
    want = verify_ddpi(code)
    walked = []
    walk = protocol._walk

    def counted(code, words, *args, **kwargs):
        walked.extend(tuple(w) for w in words)
        return walk(code, words, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_ddpi walked the codewords again")

    for mod in (protocol, directed):
        monkeypatch.setattr(mod, "_walk", counted, raising=False)
        monkeypatch.setattr(mod, "ehs_states", forbidden)
        monkeypatch.setattr(mod, "ehs_state", forbidden)
    monkeypatch.setattr(directed, "message_information", forbidden)
    assert verify_ddpi(code) == want
    assert sorted(walked) == sorted(code.codebook.words)


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
