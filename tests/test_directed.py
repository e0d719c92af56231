import numpy as np
import pytest

from qfeedback.cqstate import conditional_mutual_information, materialize, materialized_entropy
from qfeedback.directed import (
    directed_information_final,
    directed_information_total,
    directed_terms,
    fano_bound,
    message_information,
    rate_report,
    verify_ddpi,
)
from qfeedback.linalg import kron
from qfeedback.protocol import (
    Codebook,
    FeedbackCode,
    ehs_state,
    error_probability,
    random_feedback_code,
)
from qfeedback.quantum import (
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
    i_mz, i_mk = message_information(code, message_probs={0: 0.5, 1: 0.5})
    assert abs(i_mk - 1.0) < 1e-10
    assert abs(i_mz - 1.0) < 1e-10


def test_message_information_constant_map():
    code = basis_code(identity_channel(2), n=1)
    i_mz, i_mk = message_information(
        code, message_map={0: (0,), 1: (0,)}, message_probs={0: 0.5, 1: 0.5}
    )
    assert abs(i_mz) < 1e-10
    assert abs(i_mk) < 1e-10


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
        code = random_feedback_code(
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
        uniform = {i: 1.0 / num for i in range(num)}
        b = fano_bound(code, message_probs=uniform)
        h_rate = np.log2(num) / code.n
        assert h_rate <= b + 1e-9


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


def test_message_information_rejects_nan_message_probability():
    code = basis_code(identity_channel(2), n=1)
    with pytest.raises(ValidationError, match="do not sum to 1"):
        message_information(code, message_probs={0: float("nan"), 1: 0.5})


@pytest.mark.parametrize(
    "message_probs, match",
    [({0: 1.5, 1: -0.5}, "non-negative"), ({0: 1.0}, "no probability given for message 1")],
    ids=["negative", "missing"],
)
def test_message_information_rejects_bad_message_law(message_probs, match):
    # The first law sums to 1 but has a negative entry: I(M:Z) came out as -1.454.
    code = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.2), 2, num_words=2)
    with pytest.raises(ValidationError, match=match):
        message_information(code, message_probs=message_probs)
    with pytest.raises(ValidationError, match=match):
        fano_bound(code, message_probs=message_probs)


def test_rate_report_walks_each_codeword_once(monkeypatch):
    from qfeedback import directed, protocol

    rng = np.random.default_rng(12)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 3, num_words=3)
    walked = []
    walk = protocol._walk

    def counted(code, word, *args, **kwargs):
        walked.append(tuple(word))
        return walk(code, word, *args, **kwargs)

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

    def counted(code, word, *args, **kwargs):
        walked.append(tuple(word))
        return walk(code, word, *args, **kwargs)

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
        num = code.codebook.size
        message_map = dict(enumerate(code.codebook.words))
        for uniform in (True, False):
            probs = {i: 1.0 / num for i in range(num)} if uniform else None
            rep = rate_report(code, uniform_messages=uniform)
            assert rep.per_round == tuple(directed_terms(code))
            assert rep.directed_total == directed_information_total(code)
            assert rep.directed_final == directed_information_final(code)
            assert (rep.i_message_quantum, rep.i_message_classical) == message_information(
                code, message_map, probs
            )
            assert (rep.avg_error, rep.max_error) == error_probability(code)


def test_no_feedback_reduction_to_mutual_information():
    # Product codewords, trivial feedback: directed info equals I(A_1^n : Z_1^n).
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        code = random_feedback_code(
            rng, depolarizing_channel(float(rng.uniform(0, 0.5))), n, num_words=2, feedback=False
        )
        # strip intermediate measurements down to the trivial one
        from qfeedback.linalg import identity as eye

        meas = tuple(Povm(((0, eye(2**j)),)) for j in range(1, n)) + (code.measurements[-1],)
        trivial = FeedbackCode(
            code.codebook, code.channel, code.probs, code.states, meas, {}
        )
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
