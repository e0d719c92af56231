import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import oracle_compressed_eigenvalues, oracle_typical_set

from qfeedback.achievability import (
    STRING_CAP,
    DisturbanceRecord,
    SubPovm,
    TypicalityParams,
    build_double_blocked_code,
    cond_typical_projector,
    cumulative_disturbance_bound,
    disturbance_accumulator,
    error_recursion,
    gamma_operator,
    gentle_measurement_check,
    hayashi_nagaoka_check,
    cumulative_disturbance_report,
    rate_split,
    square_root_measurement,
    typical_projector,
    typical_projector_data,
    typical_set,
    typicality_bounds_check,
)
from qfeedback.linalg import herm_eigvals, identity, kron, trace_norm
from qfeedback.protocol import (
    CapExceededError,
    Codebook,
    FeedbackCode,
    enumerate_transcripts,
    error_probability,
    validate_code,
)
from qfeedback.quantum import (
    ER,
    DensityMatrix,
    Povm,
    ValidationError,
    basis_state,
    density,
    depolarizing_channel,
    identity_channel,
    pure_state,
    random_density_matrix,
    random_pure_state,
)


def one_block_code(channel, p0=0.5):
    """n=1 code: letters 0/1 as basis states, basis decode."""
    book = Codebook(2, 1, ((0,), (1,)))
    states = (basis_state(2, 0), basis_state(2, 1))
    els = (((0,), np.diag([1.0, 0.0]).astype(complex)), ((1,), np.diag([0.0, 1.0]).astype(complex)))
    return FeedbackCode(book, channel, (p0, 1 - p0), states, (Povm(els),))


def test_typicality_params():
    p = TypicalityParams(delta=0.1, c=1.0, l=100)
    assert 0 < p.epsilon(2) < p.epsilon(1) < 1
    assert abs(p.epsilon(1) - 2.0 ** (-100 * 0.01)) < 1e-15
    with pytest.raises(ValidationError):
        TypicalityParams(delta=-1.0)


def test_typical_set_all_strings_for_wide_delta():
    got = typical_set([0.5, 0.5], 3, 1.0)
    assert len(got) == 8


def test_typical_set_deterministic_distribution():
    got = typical_set([1.0, 0.0], 4, 0.1)
    assert got == {(0, 0, 0, 0)}
    # zero-probability letters stay excluded even for wide widths
    assert typical_set([1.0, 0.0], 4, 2.0) == {(0, 0, 0, 0)}


def test_typical_set_matches_counting_oracle():
    p = (0.75, 0.25)
    n, delta = 12, 0.1
    got = typical_set(p, n, delta)
    for s in itertools.product(range(2), repeat=n):
        zeros = s.count(0)
        ok = abs(zeros - n * p[0]) <= n * delta and abs((n - zeros) - n * p[1]) <= n * delta
        assert (s in got) == ok


def _typicality_case(rng):
    """A seeded (p, n, delta): k = 1-4 letters, some of probability zero, some widths with n delta an integer."""
    k = int(rng.integers(1, 5))
    n = int(rng.integers(0, {1: 12, 2: 12, 3: 7, 4: 5}[k] + 1))
    p = rng.dirichlet(np.ones(k))
    if k > 1 and rng.random() < 0.4:
        p[rng.integers(k)] = 0.0
        p = p / p.sum()
    if n and rng.random() < 0.4:
        p = rng.multinomial(n, p) / n  # n p(x) on the integers: every bound is an exact count
    delta = int(rng.integers(1, n + 1)) / n if n and rng.random() < 0.5 else float(rng.uniform(0.02, 0.5))
    return p, n, delta


def test_typical_types_match_per_string_oracle():
    rng = np.random.default_rng(15)
    for _ in range(150):
        p, n, delta = _typicality_case(rng)
        assert typical_set(p, n, delta) == oracle_typical_set(p, n, delta), (p, n, delta)
        data = typical_projector_data(density(np.diag(p)), n, delta)
        strings = oracle_typical_set(data.eigvals, n, delta)
        assert data.rank == len(strings)
        if not strings:
            continue
        per_string = oracle_compressed_eigenvalues(data.eigvals, strings)
        assert abs(data.overlap() - math.fsum(per_string)) <= 1e-15
        assert abs(data.compressed_eigenvalues().max() - per_string.max()) <= 1e-15


def test_typicality_at_block_length_400_matches_exact_binomial_sum():
    # 2^400 strings: only the 81 kept types are visited.
    rep = typicality_bounds_check(density(np.diag([0.75, 0.25])), 400, 0.1)
    kept = [z for z in range(401) if abs(z - 300) <= 40]
    assert rep.rank == sum(math.comb(400, z) for z in kept)
    exact = sum(math.comb(400, z) * Fraction(3, 4) ** z * Fraction(1, 4) ** (400 - z) for z in kept)
    assert abs(rep.overlap - float(exact)) <= 1e-12
    assert rep.overlap_ok and math.isfinite(rep.max_compressed)


def test_string_cap_counts_the_typical_strings():
    # 2^21 strings in all, but only 196,878 typical ones.
    assert len(typical_set([0.75, 0.25], 21, 0.1)) == 196_878
    with pytest.raises(CapExceededError, match="typical strings exceed"):
        typical_set([0.5, 0.5], 21, 0.5)
    assert 2**21 > STRING_CAP


@pytest.mark.parametrize(
    "p, n",
    [([float("nan"), 0.5], 4), ([0.5, 0.7], 4), ([-0.2, 1.2], 4), ([0.75, 0.25], -1), ([0.75, 0.25], 2.5)],
    ids=["nan-entry", "sum-above-one", "negative-entry", "negative-n", "fractional-n"],
)
def test_typical_set_rejects_what_it_cannot_read(p, n):
    with pytest.raises(ValidationError):
        typical_set(p, n, 0.1)


def test_typical_set_of_an_empty_block():
    assert typical_set([0.75, 0.25], 0, 0.1) == {()}


def test_typical_projector_maximally_mixed():
    rho = density(identity(2) / 2)
    assert np.allclose(typical_projector(rho, 3, 1.0), identity(8))


def test_typical_projector_pure_state():
    rho = basis_state(2, 0)
    proj = typical_projector(rho, 3, 0.05)
    assert abs(np.trace(proj).real - 1.0) < 1e-12
    assert np.allclose(proj @ proj, proj, atol=1e-12)


def test_typical_projector_rank_matches_set():
    rho = density(np.diag([0.75, 0.25]))
    data = typical_projector_data(rho, 10, 0.1)
    assert data.rank == len(typical_set([0.75, 0.25], 10, 0.1))
    proj = typical_projector(rho, 10, 0.1)
    assert abs(np.trace(proj).real - data.rank) < 1e-9
    # projector commutes with rho^(x)n
    big = rho.mat
    for _ in range(9):
        big = kron(big, rho.mat)
    assert np.max(np.abs(proj @ big - big @ proj)) < 1e-10


def test_typical_projector_independent_of_degenerate_basis():
    # rho has a twofold eigenvalue; W rotates inside that eigenspace, so
    # W rho W^dagger equals rho up to rounding, which is enough to make the
    # solver return a different basis there.  The kept strings (letter counts
    # 2, 1, 1) are not rotation invariant, so only a canonical basis agrees.
    rng = np.random.default_rng(5)
    u = np.ones(3) / np.sqrt(3.0)
    rho = 0.5 * np.outer(u, u) + 0.25 * (identity(3) - np.outer(u, u))
    perp = np.column_stack([np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0), np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)])
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    r, _ = np.linalg.qr(z)
    w = np.outer(u, u) + perp @ r @ perp.conj().T
    rotated = w @ rho @ w.conj().T
    a = typical_projector(density(rho), 4, 0.1)
    b = typical_projector(density(rotated), 4, 0.1)
    assert abs(np.trace(a).real - 12.0) < 1e-9
    assert np.max(np.abs(a - b)) < 1e-9


def test_cond_typical_projector_uniform_word():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(rng, 2)
    states = {"a": rho}
    got = cond_typical_projector(states, ("a", "a", "a"), 0.2)
    want = typical_projector(rho, 3, 0.2)
    assert np.allclose(got, want, atol=1e-10)


def test_cond_typical_projector_singletons_wide_delta():
    rng = np.random.default_rng(1)
    states = {"a": random_density_matrix(rng, 2), "b": random_density_matrix(rng, 2)}
    got = cond_typical_projector(states, ("a", "b"), 1.0)
    assert np.allclose(got, identity(4), atol=1e-12)


def test_cond_typical_projector_matches_kron_oracle():
    rng = np.random.default_rng(2)
    sa = random_density_matrix(rng, 2)
    sb = random_density_matrix(rng, 2)
    states = {"a": sa, "b": sb}
    # word with grouped positions: (a, b, a) -> P_a on {0,2} copies, P_b on {1}
    got = cond_typical_projector(states, ("a", "b", "a"), 0.4)
    pa = typical_projector(sa, 2, 0.4)  # acts on positions 0 and 2
    pb = typical_projector(sb, 1, 0.4)
    from qfeedback.linalg import embed_operator

    want = embed_operator(pa, (2, 2, 2), [0, 2]) @ embed_operator(pb, (2, 2, 2), [1])
    assert np.allclose(got, want, atol=1e-10)


def test_gamma_operator_identity_and_orthogonal():
    assert np.allclose(gamma_operator(identity(3), identity(3)), identity(3))
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)
    assert np.allclose(gamma_operator(p, q), np.zeros((2, 2)))


def test_gamma_operator_eigenvalues_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        # random projectors from random orthonormal columns
        from qfeedback.quantum import random_unitary

        u = random_unitary(rng, 4)
        v = random_unitary(rng, 4)
        p = u[:, :2] @ u[:, :2].conj().T
        q = v[:, :3] @ v[:, :3].conj().T
        g = gamma_operator(p, q)
        w = herm_eigvals(g)
        assert w[0] <= 1.0 + 1e-10
        assert w[-1] >= -1e-10


def test_square_root_measurement_orthogonal_states():
    # Orthogonal rank-1 gammas: PGM is the projective measurement onto them.
    g = {0: np.diag([1.0, 0.0]).astype(complex), 1: np.diag([0.0, 1.0]).astype(complex)}
    sub = square_root_measurement(g)
    els = dict(sub.elements)
    assert np.allclose(els[0], g[0], atol=1e-12)
    assert np.allclose(els[1], g[1], atol=1e-12)
    assert np.allclose(sub.remainder, np.zeros((2, 2)), atol=1e-12)


def test_square_root_measurement_single_full_rank():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(rng, 3)
    sub = square_root_measurement({0: rho.mat})
    assert np.allclose(dict(sub.elements)[0], identity(3), atol=1e-9)


def test_square_root_measurement_gram_oracle():
    # Two non-orthogonal pure states: closed-form PGM from the 2x2 Gram matrix.
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([np.cos(0.4), np.sin(0.4)], dtype=complex)
    gammas = {0: 0.5 * np.outer(a, a.conj()), 1: 0.5 * np.outer(b, b.conj())}
    sub = square_root_measurement(gammas)
    els = dict(sub.elements)
    # Oracle: PGM probabilities from T^(-1/2) computed via the Gram structure.
    t = gammas[0] + gammas[1]
    w, v = np.linalg.eigh(t)
    tinv = (v * (1 / np.sqrt(np.maximum(w, 1e-15)))) @ v.conj().T
    for k in (0, 1):
        want = tinv @ gammas[k] @ tinv
        assert np.allclose(els[k], want, atol=1e-9)
    total = els[0] + els[1]
    assert np.max(np.abs(total @ total - total)) < 1e-9  # support projector


def test_sub_povm_bounds():
    sub = square_root_measurement({0: 0.3 * identity(2), 1: 0.2 * identity(2)})
    total = sum(m for _, m in sub.elements)
    w = herm_eigvals(total)
    assert w[0] <= 1.0 + 1e-9
    povm = sub.as_complete_povm()
    assert povm.completeness_defect() < 1e-9
    assert ER in povm.labels


def test_gentle_measurement_trivial():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng, 3)
    rep = gentle_measurement_check(rho, identity(3), eps=0.01)
    assert rep.distance < 1e-10
    assert rep.passed
    # projector containing the support
    psi = random_pure_state(rng, 3)
    proj = psi.mat / np.trace(psi.mat).real
    proj = np.round(proj @ np.linalg.pinv(proj) @ proj, 14)
    rep = gentle_measurement_check(psi, psi.mat, eps=0.01)
    assert rep.distance < 1e-9


def _random_high_overlap_pair(rng, dim, eps):
    rho = random_density_matrix(rng, dim)
    u = rng.standard_normal()  # how much of the 3-eps budget to use
    frac = abs(u) % 1.0
    from qfeedback.quantum import random_pure_state as rps

    pert = rps(rng, dim).mat
    denom = float(np.trace(rho.mat @ pert).real)
    s = min(1.0, 3.0 * eps * frac / max(denom, 1e-12))
    effect = identity(dim) - s * pert
    return rho, effect


def test_gentle_measurement_randomized_suite():
    rng = np.random.default_rng(6)
    eps = 0.01
    for _ in range(300):
        rho, effect = _random_high_overlap_pair(rng, 3, eps)
        rep = gentle_measurement_check(rho, effect, eps)
        assert rep.hypothesis_ok
        assert rep.passed, (rep.distance, rep.bound)


def test_hayashi_nagaoka_trivial_cases():
    v, ok = hayashi_nagaoka_check(identity(3), np.zeros((3, 3)))
    assert ok and v <= 1e-12
    proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
    v, ok = hayashi_nagaoka_check(np.zeros((3, 3)), proj)
    assert ok


def test_hayashi_nagaoka_randomized_suite():
    rng = np.random.default_rng(7)
    for _ in range(300):
        dim = int(rng.integers(2, 9))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = g @ g.conj().T
        s = s / (herm_eigvals(s)[0] * float(rng.uniform(1.0, 3.0)))  # 0 <= S <= I
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = (h @ h.conj().T) / dim * float(rng.uniform(0.1, 2.0)) + 0.05 * identity(dim)
        violation, ok = hayashi_nagaoka_check(s, t)
        assert ok, violation


def test_hayashi_nagaoka_rejects_bad_input():
    with pytest.raises(ValidationError):
        hayashi_nagaoka_check(2.0 * identity(2), identity(2))


def test_typicality_bounds_pure_state():
    rep = typicality_bounds_check(basis_state(2, 0), 6, 0.2)
    assert abs(rep.overlap - 1.0) < 1e-12
    assert rep.overlap_ok


def test_typicality_bounds_maximally_mixed_wide_delta():
    rep = typicality_bounds_check(density(identity(2) / 2), 4, 1.0)
    assert rep.rank == 16
    assert abs(rep.overlap - 1.0) < 1e-12
    # every eigenvalue is 2^-n and the cap is 2^(-n(1-c))
    assert abs(rep.max_compressed - 2.0**-4) < 1e-15
    assert rep.eigen_ok


def test_typicality_overlap_matches_binomial_oracle():
    rho = density(np.diag([0.75, 0.25]))
    n, delta = 12, 0.1
    rep = typicality_bounds_check(rho, n, delta)
    from math import comb

    want = 0.0
    for zeros in range(n + 1):
        if abs(zeros - n * 0.75) <= n * delta and abs((n - zeros) - n * 0.25) <= n * delta:
            want += comb(n, zeros) * 0.75**zeros * 0.25 ** (n - zeros)
    assert abs(rep.overlap - want) < 1e-12


def test_error_recursion_basics():
    assert error_recursion([0.0, 0.0, 0.0]) == [0.0, 0.0, 0.0]
    assert error_recursion([0.3]) == [0.3]
    rng = np.random.default_rng(8)
    ps = rng.uniform(0, 1, 6)
    got = error_recursion(ps)
    # telescoping oracle: 1 - prod(1 - p)
    acc = 1.0
    for i, p in enumerate(ps):
        acc *= 1.0 - p
        assert abs(got[i] - (1.0 - acc)) < 1e-12
    assert all(got[i] <= got[i + 1] + 1e-15 for i in range(5))
    assert all(g <= sum(ps[: i + 1]) + 1e-12 for i, g in enumerate(got))


def test_disturbance_accumulator():
    params = TypicalityParams(delta=0.1, c=1.0, l=100)
    assert disturbance_accumulator(params, 1) == cumulative_disturbance_bound([params.epsilon(1)])
    # closed form for eps = 1/24 at every round
    assert abs(cumulative_disturbance_bound([1 / 24] * 3) - 3 * (1.0 + 6.0 / 24.0)) < 1e-12
    want = sum(np.sqrt(24 * params.epsilon(s)) + 6 * params.epsilon(s) for s in (1, 2, 3))
    assert abs(disturbance_accumulator(params, 3) - want) < 1e-12


def test_double_blocked_identity_channel_zero_error():
    # delta below 1 keeps single-copy typical projectors rank-1, so the
    # Gamma operators actually separate the orthogonal codewords.
    base = one_block_code(identity_channel(2))
    flat = build_double_blocked_code(base, 2, delta=0.5)
    assert validate_code(flat).ok, validate_code(flat).violations
    avg, worst = error_probability(flat)
    assert avg < 1e-9
    assert worst < 1e-9


def test_double_blocked_codebook_structure():
    base = one_block_code(depolarizing_channel(0.1))
    flat = build_double_blocked_code(base, 3, delta=0.3)
    assert flat.codebook.size == 8
    assert flat.codebook.n == 3
    assert rate_split(flat, 3) == (np.log2(8) / 3,)
    rep = validate_code(flat)
    assert rep.ok, rep.violations


def test_double_blocked_error_matches_enumeration_oracle():
    # n=1, l=3: the flat protocol is one PGM on the tensor outputs, so the
    # error probability must match a direct Born-rule computation.
    base = one_block_code(depolarizing_channel(0.1))
    flat = build_double_blocked_code(base, 3, delta=0.3)
    avg, worst = error_probability(flat)

    from qfeedback.quantum import apply_channel

    outs = {w: apply_channel(base.channel, base.states[i]) for i, w in enumerate(base.codebook.words)}
    povm = flat.measurement(3)  # final adaptive or fixed measurement
    if hasattr(povm, "at"):
        povm = povm.at((0, 0))
    err = 0.0
    for idx, word in enumerate(flat.codebook.words):
        rho = outs[(word[0],)].mat
        for a in word[1:]:
            rho = kron(rho, outs[(a,)].mat)
        p_correct = 0.0
        for lab, el in povm.elements:
            if lab == word:
                p_correct += float(np.trace(el @ rho @ el.conj().T).real)
        err += flat.probs[idx] * (1.0 - p_correct)
    assert abs(avg - err) < 1e-10


def test_double_blocked_n2_runs_and_validates():
    # two-round base code with a real intermediate measurement
    from qfeedback.protocol import random_feedback_code

    rng = np.random.default_rng(9)
    base = random_feedback_code(rng, depolarizing_channel(0.15), 2, num_words=2)
    flat = build_double_blocked_code(base, 2, delta=0.6)
    rep = validate_code(flat)
    assert rep.ok, rep.violations
    for word in flat.codebook.words[:2]:
        trs = enumerate_transcripts(flat, word)
        assert abs(sum(t.probability for t in trs) - 1.0) < 1e-9


def test_cumulative_disturbance_bound_one_round():
    base = one_block_code(depolarizing_channel(0.1))
    for l in (2, 3):
        records = cumulative_disturbance_report(base, l, delta=0.3)
        assert records, "no correct-decoding branches tracked"
        for rec in records:
            assert rec.distance <= rec.bound + 1e-9, rec


def test_trace_distance_monotone_under_channels():
    rng = np.random.default_rng(10)
    from qfeedback.quantum import apply_channel, random_channel

    for _ in range(30):
        phi = random_channel(rng, 3, 2)
        a = random_density_matrix(rng, 3)
        b = random_density_matrix(rng, 3)
        d0 = trace_norm(a.mat - b.mat)
        d1 = trace_norm(apply_channel(phi, a).mat - apply_channel(phi, b).mat)
        assert d1 <= d0 + 1e-9


def test_double_blocked_l1_reduces_to_pgm_decoder():
    # l = 1 keeps the base protocol and just appends the global PGM; with an
    # identity channel and orthogonal words it decodes perfectly.
    base = one_block_code(identity_channel(2))
    flat = build_double_blocked_code(base, 1, delta=0.5)
    assert flat.codebook.words == base.codebook.words
    assert validate_code(flat).ok
    avg, worst = error_probability(flat)
    assert avg < 1e-9 and worst < 1e-9


def test_square_root_measurement_subnormalized_randomized():
    rng = np.random.default_rng(11)
    from oracles import support_projector
    from qfeedback.linalg import pinv_sqrt

    for _ in range(25):
        dim = int(rng.integers(2, 6))
        count = int(rng.integers(1, 4))
        gammas = {}
        for k in range(count):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            gammas[k] = m / (herm_eigvals(m)[0] * float(rng.uniform(1.0, 4.0)))
        sub = square_root_measurement(gammas)
        total = sum(m for _, m in sub.elements)
        w = herm_eigvals(total)
        assert w[0] <= 1.0 + 1e-9
        # equality with the support projector of the Gamma sum
        proj = support_projector(sum(gammas.values()))
        assert np.max(np.abs(total - proj)) < 1e-8


def test_ehs_states_consistent_with_single_queries():
    from qfeedback.protocol import ehs_states, ehs_state, random_feedback_code

    rng = np.random.default_rng(12)
    code = random_feedback_code(rng, depolarizing_channel(0.2), 3, num_words=2)
    all_states = ehs_states(code)
    for t in range(3):
        single = ehs_state(code, t)
        assert single.classical_registers == all_states[t].classical_registers
        got = {lab: w for lab, w, _ in single.branches}
        want = {lab: w for lab, w, _ in all_states[t].branches}
        assert set(got) == set(want)
        for k in got:
            assert abs(got[k] - want[k]) < 1e-12


def test_cumulative_disturbance_two_global_rounds():
    # Two-round base codes exercise the cumulative (multi-round) bound.
    from qfeedback.protocol import random_feedback_code
    from qfeedback.quantum import amplitude_damping_channel

    for seed in range(4):
        rng = np.random.default_rng(seed)
        chan = depolarizing_channel(0.1) if seed % 2 == 0 else amplitude_damping_channel(0.3)
        base = random_feedback_code(rng, chan, 2, num_words=2)
        records = cumulative_disturbance_report(base, 2, delta=0.5)
        assert {r.round for r in records} == {1, 2}
        for rec in records:
            assert rec.distance <= rec.bound + 1e-9, rec


def test_double_blocked_first_global_round_matches_scratch_oracle():
    # Rebuild R_1 of an n=2, l=2 blocked code from scratch with numpy only
    # and compare against the effects of the composite slot-2 measurement.
    from qfeedback.protocol import random_feedback_code
    from qfeedback.linalg import partial_trace

    rng = np.random.default_rng(5)
    base = random_feedback_code(rng, depolarizing_channel(0.2), 2, num_words=2)
    l, delta = 2, 0.6
    flat = build_double_blocked_code(base, l, delta=delta)

    # Oracle pieces: per-copy receiver states at t=1 are the first-register
    # marginals of omega^0, and the posterior over words is the prior.
    from qfeedback.protocol import round_zero

    words = base.codebook.words
    sigma = {w: partial_trace(round_zero(base, w).mat, (2, 2), [0]) for w in words}
    avg = sum(base.probs[i] * sigma[w] for i, w in enumerate(words))

    def typ(rho_mat, copies):
        w_eig, v_eig = np.linalg.eigh(rho_mat)
        order = np.argsort(-w_eig, kind="stable")
        w_eig, v_eig = w_eig[order], v_eig[:, order]
        keep = []
        import itertools as it

        for s in it.product(range(2), repeat=copies):
            counts = np.bincount(s, minlength=2)
            ok = True
            for x in range(2):
                if w_eig[x] <= 1e-12 and counts[x] > 0:
                    ok = False
                if abs(counts[x] - copies * w_eig[x]) > copies * delta + 1e-12:
                    ok = False
            if ok:
                keep.append(s)
        basis = v_eig
        big = np.zeros((2**copies, 2**copies), dtype=complex)
        for s in keep:
            vec = np.array([1.0 + 0j])
            for x in s:
                vec = np.kron(vec, basis[:, x])
            big += np.outer(vec, vec.conj())
        return big

    pi_avg = typ(avg, 2)
    # candidates: per-copy first letters, grouped when equal
    letters = sorted({w[0] for w in words})
    cond = {}
    for a in letters:
        mass = sum(base.probs[i] for i, w in enumerate(words) if w[0] == a)
        cond[a] = sum(
            base.probs[i] * sigma[w] for i, w in enumerate(words) if w[0] == a
        ) / mass
    gammas = {}
    for r1 in letters:
        for r2 in letters:
            if r1 == r2:
                pi_r = typ(cond[r1], 2)
            else:
                pi_r = np.kron(typ(cond[r1], 1), typ(cond[r2], 1))
            gammas[(r1, r2)] = pi_avg @ pi_r @ pi_avg
    total = sum(gammas.values())
    w_t, v_t = np.linalg.eigh(total)
    inv = np.where(w_t > 1e-10 * max(w_t.max(), 1e-300), 1.0 / np.sqrt(np.maximum(w_t, 1e-300)), 0.0)
    t_inv = (v_t * inv) @ v_t.conj().T
    oracle = {r: t_inv @ g @ t_inv for r, g in gammas.items()}

    povm = flat.measurement(2, (0,))  # slot 2, after the trivial first slot
    effects = {}
    for lab, el in povm.elements:
        r_lab = lab[0] if isinstance(lab, tuple) and len(lab) == 2 else lab
        if r_lab == "er":
            continue
        effects[r_lab] = effects.get(r_lab, 0.0) + el.conj().T @ el
    assert set(effects) == set(oracle)
    for r in oracle:
        assert np.max(np.abs(effects[r] - oracle[r])) < 1e-8, r


def _pinned_disturbance_cases():
    from qfeedback.protocol import random_feedback_code
    from qfeedback.quantum import amplitude_damping_channel

    cases = {
        "basis-l2": (one_block_code(depolarizing_channel(0.1)), 2),
        "basis-l3": (one_block_code(depolarizing_channel(0.1)), 3),
    }
    channels = {
        "depolarizing": (depolarizing_channel(0.3), 77),
        "amplitude_damping": (amplitude_damping_channel(0.4), 78),
    }
    for name, (chan, seed) in channels.items():
        for projective in (True, False):
            rng = np.random.default_rng(seed)
            base = random_feedback_code(rng, chan, 2, num_words=2, projective=projective)
            cases[f"{name}-seed{seed}-{'projective' if projective else 'general'}"] = (base, 2)
    return cases


@pytest.mark.parametrize("case", list(_pinned_disturbance_cases()))
def test_cumulative_disturbance_records_pinned(case):
    # Every record field against values from an independent implementation
    # of the paired walk that embedded and applied each operator by hand.
    import json
    from pathlib import Path

    pins = json.loads((Path(__file__).parent / "data" / "disturbance_records.json").read_text())
    base, l = _pinned_disturbance_cases()[case]
    records = cumulative_disturbance_report(base, l, delta=0.3)
    want = pins[case]
    assert len(records) == len(want)
    for rec, pin in zip(records, want):
        assert repr(rec.group) == pin["group"]
        assert repr(rec.outcomes) == pin["outcomes"]
        assert rec.round == pin["round"]
        assert len(rec.epsilons) == len(pin["epsilons"])
        got = [rec.probability, rec.distance, rec.bound, *rec.epsilons]
        expected = [pin["probability"], pin["distance"], pin["bound"], *pin["epsilons"]]
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12), (rec, pin)


@pytest.mark.parametrize("case", list(_pinned_disturbance_cases()))
def test_blocked_code_errors_and_labels_pinned(case):
    # The l=2 blocked code of each pinned base: both error figures and the
    # outcome labels of every slot, pinned in tests/data/blocked_codes.json.
    import json
    from pathlib import Path

    pins = json.loads((Path(__file__).parent / "data" / "blocked_codes.json").read_text())[case]
    base, _ = _pinned_disturbance_cases()[case]
    flat = build_double_blocked_code(base, 2, delta=0.3)
    assert np.allclose(error_probability(flat), pins["error"], rtol=0.0, atol=1e-12)
    labels = [sorted(repr(lab) for lab in flat.outcome_labels(j)) for j in range(1, flat.n + 1)]
    assert labels == pins["labels"]


@pytest.mark.parametrize("order", [None, 0, 1, 2, 3, 4])
def test_blocked_l3_errors_pinned(order):
    # n=2 base at l=3 (d=64): the benchmark's blocked-l3 code, with the
    # codebook in product order and in seeded permutations.  The global
    # rounds sum over groups and letters in sorted order, so every order
    # meets the same pin.
    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    groups = list(itertools.product(base.codebook.words, repeat=3))
    if order is not None:
        groups = [groups[i] for i in np.random.default_rng(order).permutation(len(groups))]
    flat = build_double_blocked_code(base, 3, delta=0.3, groups=groups)
    want = (0.8261757527082543, 0.8635006579787097)
    assert np.allclose(error_probability(flat), want, rtol=0.0, atol=1e-12)


def test_blocked_l3_error_ignores_projector_rounding(monkeypatch):
    # Symmetrizing each conditional typical projector moves its entries by
    # less than 1e-17.  Square roots of the PGM effects' rounding-noise
    # eigenvalues would turn that into an error change far above the pin.
    from qfeedback import achievability
    from qfeedback.protocol import random_feedback_code

    projector = achievability.cond_typical_projector

    def symmetrized(*args, **kwargs):
        p = projector(*args, **kwargs)
        return 0.5 * (p + p.conj().T)

    monkeypatch.setattr(achievability, "cond_typical_projector", symmetrized)
    base = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    flat = build_double_blocked_code(base, 3, delta=0.3)
    want = (0.8261757527082543, 0.8635006579787097)
    assert np.allclose(error_probability(flat), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("delta", [float("nan"), 0.0, -0.3])
def test_non_positive_or_nan_delta_rejected(delta):
    with pytest.raises(ValidationError, match="positive"):
        typical_set([0.75, 0.25], 4, delta)
    with pytest.raises(ValidationError, match="positive"):
        TypicalityParams(delta=delta)
    with pytest.raises(ValidationError, match="positive"):
        typicality_bounds_check(density([[0.75, 0.0], [0.0, 0.25]]), 4, delta)
    with pytest.raises(ValidationError, match="positive"):
        build_double_blocked_code(one_block_code(depolarizing_channel(0.1)), 2, delta=delta)


def _independent_copies_miss(flat, base, l):
    # Largest distance, over every branch on the last frontier of the flat walk,
    # between the flat state and the interleaved product of l independent base
    # walks, each copy conditioned on its own base outcomes in the flat history.
    # The flat side comes from the library walk, the copies from the oracle.
    from qfeedback.achievability import _copy_to_flat_perm, _label_parts
    from qfeedback.linalg import kron_all, permute_registers
    from qfeedback.protocol import _walk
    from oracles import oracle_walk

    n = base.n
    worst, branches = 0.0, 0
    for word in flat.codebook.words:
        copies = [{h: states[-1] for h, _, states in oracle_walk(base, word[j::l])[-1]} for j in range(l)]
        last = [piece for t, piece in _walk(flat, [word]) if t == flat.n - 1]
        for history, state in ((h, s) for piece in last for h, s in zip(piece.history, piece.states)):
            outcomes = [() for _ in range(l)]
            for q, lab in enumerate(history, start=1):
                b = _label_parts(q, n, l, lab)[1]
                if b is not None:
                    outcomes[q % l] += (b,)
            omegas = [copies[j][outcomes[j]].mat for j in range(l)]
            want = permute_registers(kron_all(omegas), flat.dims, _copy_to_flat_perm(n, l))
            worst = max(worst, float(np.max(np.abs(state - want))))
            branches += 1
    return worst, branches


def test_double_blocked_feedback_matches_independent_copies():
    # At delta=5 every eigenstring is typical, so every Gamma_r is the identity
    # and each global round is sqrt(1/N) I: the flat state after the last
    # update is then the interleaved product of the copies' own states.  The
    # n=3 base has round-2 feedback for both outcomes, which the flat code
    # must place on each copy's last register.
    import dataclasses

    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.1), 3, num_words=2)
    flat = build_double_blocked_code(base, 2, delta=5.0)
    assert flat.feedback
    worst, branches = _independent_copies_miss(flat, base, 2)
    assert branches == 64
    assert worst < 1e-12
    # Without its feedback the flat code misses the oracle by far.
    assert _independent_copies_miss(dataclasses.replace(flat, feedback={}), base, 2)[0] > 0.1


def test_cumulative_disturbance_through_feedback():
    # An n=3 base with round-2 feedback: each branch's global rounds 2 and 3
    # follow feedback placed on the flat registers still to be sent.
    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.1), 3, num_words=2)
    records = cumulative_disturbance_report(base, 2, delta=0.5)
    assert len(records) == 104
    assert {r.round for r in records} == {1, 2, 3}
    for rec in records:
        assert rec.distance <= rec.bound + 1e-9, rec
