import collections
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from oracles import oracle_compressed_eigenvalues, oracle_typical_set, random_channel

from qfeedback.achievability import (
    STRING_CAP,
    DisturbanceRecord,
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
    got = cond_typical_projector(states, ("a", "a", "a"), 0.2, {})
    want = typical_projector(rho, 3, 0.2)
    assert np.allclose(got, want, atol=1e-10)


def test_cond_typical_projector_singletons_wide_delta():
    rng = np.random.default_rng(1)
    states = {"a": random_density_matrix(rng, 2), "b": random_density_matrix(rng, 2)}
    got = cond_typical_projector(states, ("a", "b"), 1.0, {})
    assert np.allclose(got, identity(4), atol=1e-12)


def test_cond_typical_projector_matches_kron_oracle():
    rng = np.random.default_rng(2)
    sa = random_density_matrix(rng, 2)
    sb = random_density_matrix(rng, 2)
    states = {"a": sa, "b": sb}
    # word with grouped positions: (a, b, a) -> P_a on {0,2} copies, P_b on {1}
    got = cond_typical_projector(states, ("a", "b", "a"), 0.4, {})
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


def effects(povm) -> dict:
    """The effect F^dagger F of each outcome of a measurement in operator form."""
    return {lab: f.conj().T @ f for lab, f in povm.elements}


def test_square_root_measurement_orthogonal_states():
    # Orthogonal rank-1 gammas: PGM is the projective measurement onto them.
    g = {0: np.diag([1.0, 0.0]).astype(complex), 1: np.diag([0.0, 1.0]).astype(complex)}
    els = dict(square_root_measurement(g).elements)
    assert np.allclose(els[0], g[0], atol=1e-12)
    assert np.allclose(els[1], g[1], atol=1e-12)
    assert np.allclose(els[ER], np.zeros((2, 2)), atol=1e-12)


def test_square_root_measurement_single_full_rank():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(rng, 3)
    povm = square_root_measurement({0: rho.mat})
    assert np.allclose(dict(povm.elements)[0], identity(3), atol=1e-9)


def test_square_root_measurement_gram_oracle():
    # Two non-orthogonal pure states: closed-form PGM from the 2x2 Gram matrix.
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([np.cos(0.4), np.sin(0.4)], dtype=complex)
    gammas = {0: 0.5 * np.outer(a, a.conj()), 1: 0.5 * np.outer(b, b.conj())}
    els = effects(square_root_measurement(gammas))
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
    povm = square_root_measurement({0: 0.3 * identity(2), 1: 0.2 * identity(2)})
    total = sum(m for lab, m in effects(povm).items() if lab != ER)
    w = herm_eigvals(total)
    assert w[0] <= 1.0 + 1e-9
    assert povm.completeness_defect() < 1e-9
    assert ER in povm.labels


def test_square_root_measurement_takes_two_eigensolves(monkeypatch):
    # One on T for T^(-1/2) and one stacked call over the effects and the
    # remainder, whose spectrum also gives the bounds of sum R.
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, solver=solver, name=name: calls.append(name) or solver(a))
    gammas = {k: np.diag(np.eye(3)[k] + 0.1).astype(complex) for k in range(3)}
    square_root_measurement(gammas)
    assert calls == ["eigh", "eigh"]


@pytest.mark.parametrize("factor", [2.0, 1j])
def test_square_root_measurement_checks_the_sum_of_effects(monkeypatch, factor):
    # A broken T^(-1/2) makes sum R = 4 P (above I) or -P (below 0, and each
    # effect negative): the sum check fires before the PSD raise.
    from qfeedback import quantum
    from qfeedback.linalg import pinv_sqrt

    monkeypatch.setattr(quantum, "pinv_sqrt", lambda m: factor * pinv_sqrt(m))
    gammas = {0: np.diag([0.5, 0.0]).astype(complex), 1: np.diag([0.2, 0.3]).astype(complex)}
    with pytest.raises(ValidationError, match=r"^effects violate 0 <= sum R <= I$"):
        square_root_measurement(gammas)


@pytest.mark.parametrize("eps", [float("nan"), -0.01, float("inf")])
def test_gentle_measurement_rejects_a_bad_eps(eps):
    # Unchecked, a NaN or negative eps gave bound=nan, passed=False and a RuntimeWarning.
    rho = random_density_matrix(np.random.default_rng(5), 2)
    with pytest.raises(ValidationError, match="eps must be finite and >= 0"):
        gentle_measurement_check(rho, identity(2), eps)


@pytest.mark.parametrize("l", [1.5, 0, -2])
def test_typicality_params_reject_a_bad_copy_count(l):
    with pytest.raises(ValidationError, match="block copies l must be an int >= 1"):
        TypicalityParams(0.1, l=l)


@pytest.mark.parametrize("t", [1.5, 0, -1])
def test_round_index_must_be_a_positive_int(t):
    # Unchecked, epsilon(1.5) returned a value and disturbance_accumulator(params, 1.5) raised TypeError.
    params = TypicalityParams(0.1, l=2)
    with pytest.raises(ValidationError, match="round index must be an int >= 1"):
        params.epsilon(t)
    with pytest.raises(ValidationError, match="round index must be an int >= 1"):
        disturbance_accumulator(params, t)


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


@pytest.mark.parametrize("n, delta", [(1100, 0.05), (10000, 0.05), (10000, 0.005)])
def test_typicality_overlap_past_the_float_range_matches_the_exact_sum(n, delta):
    # Multiplicities above 2^1024 made the per-type float product overflow.
    # The exact overlap of diag(1/2, 1/2) is the binomial mass of
    # |c - n/2| <= n delta over 2^n, with the binomial row stepped exactly.
    rep = typicality_bounds_check(density(np.diag([0.5, 0.5])), n, delta)
    row, binom = [], 1
    for c in range(n + 1):
        row.append(binom)
        binom = binom * (n - c) // (c + 1)
    kept = [row[c] for c in range(n + 1) if abs(c - n / 2) <= n * delta + 1e-12]
    want = Fraction(sum(kept), 2**n)
    assert rep.rank == sum(kept)
    assert abs(rep.overlap - float(want)) <= 1e-12
    assert rep.overlap_ok


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
        records = cumulative_disturbance_report(build_double_blocked_code(base, l, delta=0.3), base)
        assert records, "no correct-decoding branches tracked"
        for rec in records:
            assert rec.distance <= rec.bound + 1e-9, rec


def test_trace_distance_monotone_under_channels():
    rng = np.random.default_rng(10)
    from qfeedback.quantum import apply_channel

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
        total = sum(m for lab, m in effects(square_root_measurement(gammas)).items() if lab != ER)
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
        records = cumulative_disturbance_report(build_double_blocked_code(base, 2, delta=0.5), base)
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
    from oracles import oracle_random_feedback_code
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
            base = oracle_random_feedback_code(rng, chan, 2, num_words=2, projective=projective)
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
    records = cumulative_disturbance_report(build_double_blocked_code(base, l, delta=0.3), base)
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


def test_blocked_l3_build_computes_each_typical_projector_once(monkeypatch):
    # The benchmark's l=3 build asks for 311 typical projectors, on 19
    # distinct (state, copies) pairs: each pair is computed once.  Every slot
    # element, padded to the slot's registers, equals the element of a build
    # with the parent construction: a fresh projector per request and each
    # base element embedded on all q leading registers.
    from qfeedback import achievability
    from qfeedback.linalg import embed_operator
    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    typical, cond, base_slot = (
        achievability.typical_projector,
        achievability.cond_typical_projector,
        achievability._base_slot_povm,
    )
    computed, requested = [], []

    def counted(rho, n, delta):
        computed.append((rho.mat.tobytes(), n))
        return typical(rho, n, delta)

    def requesting(states, word, delta, projectors):
        requested.extend(set(word))
        return cond(states, word, delta, projectors)

    monkeypatch.setattr(achievability, "typical_projector", counted)
    monkeypatch.setattr(achievability, "cond_typical_projector", requesting)
    flat = build_double_blocked_code(base, 3, delta=0.3)
    assert (len(requested), len(computed), len(set(computed))) == (311, 19, 19)

    def on_all_q_registers(base, q, l):
        if base_slot(base, q, l) is None:
            return None
        j, k = achievability._slot_components(q, base.n, l)[0]
        targets = [s * l + (j - 1) for s in range(k)]
        return Povm(tuple((lab, embed_operator(f, (2,) * q, targets)) for lab, f in base.measurement(k).elements))

    monkeypatch.setattr(achievability, "cond_typical_projector", lambda states, word, delta, _: cond(states, word, delta, {}))
    monkeypatch.setattr(achievability, "_base_slot_povm", on_all_q_registers)
    parent = build_double_blocked_code(base, 3, delta=0.3)
    assert [f.shape[0] for f in (flat.measurement(4).elements[0][1], parent.measurement(4).elements[0][1])] == [4, 16]
    for q, (mine, theirs) in enumerate(zip(flat.measurements, parent.measurements, strict=True), start=1):
        mine, theirs = (m if isinstance(m, dict) else {(): m} for m in (mine, theirs))
        assert mine.keys() == theirs.keys()
        for h, povm in mine.items():
            assert povm.labels == theirs[h].labels
            for (_, f), (_, g) in zip(povm.elements, theirs[h].elements):
                assert np.array_equal(kron(f, identity(2**q // len(f))), g)


def _count_calls(monkeypatch, module, names) -> dict:
    """Count calls to ``module``'s ``names`` and ``Povm`` validations, in the returned dict."""
    calls = dict.fromkeys((*names, "Povm"), 0)

    def counting(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(Povm, "__post_init__", counting("Povm", Povm.__post_init__))
    return calls


def test_blocked_l3_build_reads_the_base_walk_once(monkeypatch):
    # The benchmark's l=3 build takes one stacked partial trace per base walk
    # piece (2) and validates each measurement once (79 Povms).  Only slot 3's
    # 8-candidate round is a square-root measurement: the 64 final rounds
    # leave one candidate and are the projective test {Pi, I - Pi}.  Deriving
    # the letter states per history took 312 partial traces, relabelling
    # every final-round measurement validated 143 Povms, and decoding every
    # round by the square-root recipe took 65 square-root measurements.
    from qfeedback import achievability
    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    calls = _count_calls(monkeypatch, achievability, ("partial_trace", "square_root_measurement"))
    flat = build_double_blocked_code(base, 3, delta=0.3)
    assert calls == {"partial_trace": 2, "square_root_measurement": 1, "Povm": 79}
    # 64 final histories decode a flat codeword; 8 follow an 'er' block and measure ER alone.
    decoding = [p for p in flat.measurements[-1].values() if p.labels != (ER,)]
    assert len(decoding) == 64
    for povm in decoding:
        (label, pi), (er, rest) = povm.elements
        assert len(label) == 6 and er == ER
        assert np.array_equal(rest, identity(64) - pi)
        assert np.max(np.abs(pi @ pi - pi)) < 1e-12 and np.array_equal(pi, pi.conj().T)


def _recorded_rounds(monkeypatch):
    """Wrap the build's global round; each call appends a dict of its t, prefix, base Povm,
    posterior, the conditional projectors it asked for (Pi_avg first), its square-root
    measurement count and its Povm to the returned list."""
    from qfeedback import achievability

    cond, srm, global_round = (
        achievability.cond_typical_projector,
        achievability.square_root_measurement,
        achievability._global_round,
    )
    rounds = []

    def recording_cond(*args):
        rounds[-1]["projectors"].append(cond(*args))
        return rounds[-1]["projectors"][-1]

    def recording_srm(gammas):
        rounds[-1]["srm"] += 1
        return srm(gammas)

    def recording_round(table, post, t, r_blocks, k_hists, delta, projectors, prefix, base_povm):
        rounds.append(dict(t=t, prefix=prefix, base_povm=base_povm, post=post, projectors=[], srm=0))
        rounds[-1]["povm"] = global_round(table, post, t, r_blocks, k_hists, delta, projectors, prefix, base_povm)
        return rounds[-1]["povm"]

    monkeypatch.setattr(achievability, "cond_typical_projector", recording_cond)
    monkeypatch.setattr(achievability, "square_root_measurement", recording_srm)
    monkeypatch.setattr(achievability, "_global_round", recording_round)
    return rounds


def _parent_recipe(record, l, d):
    """The round decoded as before single-candidate rounds became projective:
    the square-root measurement of Gamma_r = Pi_avg Pi_r Pi_avg, then composed
    with the slot's base measurement as kron(f, I) @ m, labelled (r, b)."""
    from qfeedback.achievability import _copy_to_flat_perm
    from qfeedback.linalg import permute_registers

    t = record["t"]
    dims, perm = (d,) * (t * l), _copy_to_flat_perm(t, l)
    pi_avg, *pi_rs = (permute_registers(p, dims, perm) for p in record["projectors"])
    candidates = sorted({tuple(g[j][t - 1] for j in range(l)) for g in record["post"]})
    povm = square_root_measurement({record["prefix"] + r: gamma_operator(pi_avg, p) for r, p in zip(candidates, pi_rs)})
    if record["base_povm"] is None:
        return povm.labels, [m for _, m in povm.elements]
    pairs = [(r, m, b, f) for r, m in povm.elements for b, f in record["base_povm"].elements]
    return [(r, b) for r, _, b, _ in pairs], [kron(f, identity(len(m) // len(f))) @ m for _, m, _, f in pairs]


@pytest.mark.parametrize("case", range(6))
def test_projective_global_rounds_match_the_square_root_recipe(monkeypatch, case):
    # On each capture code, every round that leaves one candidate block whose
    # Pi_r equals Pi_avg is built as {Pi, I - Pi} without a square-root
    # measurement, and equals the parent recipe to 1e-13, labels in order.
    from capture_blocked import CASES, DELTA

    from qfeedback.protocol import random_feedback_code

    seed, channel, n, l = CASES[case]
    base = random_feedback_code(np.random.default_rng(seed), channel, n, num_words=2)
    rounds = _recorded_rounds(monkeypatch)
    build_double_blocked_code(base, l, delta=DELTA)
    projective = [r for r in rounds if r["srm"] == 0]
    assert projective and all(r["srm"] == 1 for r in rounds if r["srm"])
    for record in projective:
        assert len(record["projectors"]) == 2 and np.array_equal(*record["projectors"])
        labels, elements = _parent_recipe(record, l, base.channel.in_dim)
        assert record["povm"].labels == tuple(labels)
        for (_, mine), theirs in zip(record["povm"].elements, elements, strict=True):
            assert np.max(np.abs(mine - theirs)) < 1e-13


def test_a_round_whose_copies_share_a_label_but_not_a_letter_keeps_the_square_root_measurement(monkeypatch):
    # One group (w0, w1) at l=2: at round 1 both copies carry the label
    # ((), ()) but different letters, so Pi_avg is one two-copy projector and
    # Pi_r a product of two one-copy ones; that round keeps its square-root
    # measurement.  The final rounds give the copies different labels.
    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    w0, w1 = base.codebook.words
    assert w0[0] != w1[0]
    rounds = _recorded_rounds(monkeypatch)
    build_double_blocked_code(base, 2, delta=0.3, groups=[(w0, w1)])
    assert [(r["t"], r["srm"]) for r in rounds] == [(1, 1), (2, 0), (2, 0), (2, 0), (2, 0)]
    for record in rounds[1:]:
        (label, pi), (er, rest) = record["povm"].elements
        assert label == (w0[0], w1[0], w0[1], w1[1]) and er == ER and np.array_equal(rest, identity(16) - pi)


def test_composed_projective_rounds_are_validated_once(monkeypatch):
    # The seed-5 n=3, l=2 build: slot 4 composes 16 projective rounds (and the
    # 'er' histories' one-element rounds) with copy 1's base M_2, and builds
    # their composed elements directly, so each is validated once; the one
    # square-root round is still validated as returned and composed.  The
    # square-root recipe for every round took 81 square-root measurements and
    # 191 validations.
    from qfeedback import achievability
    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(5), depolarizing_channel(0.2), 3, num_words=2)
    calls = _count_calls(monkeypatch, achievability, ("square_root_measurement",))
    build_double_blocked_code(base, 2, delta=0.3)
    assert calls == {"square_root_measurement": 1, "Povm": 171}


def _non_product_codes():
    """16 seeded blocked codebooks that are not products of per-copy word sets, by name.

    Code s uses capture base s % 4 of tests/capture_blocked.py, at l = 2 + (s // 4) % 2
    (l = 2 for the n=3 base), and draws from default_rng(s) a subset of 2 to N - 1 of
    the N product groups, in product order, redrawn while it is itself a product or
    repeats an earlier code's.
    """
    from capture_blocked import CASES

    from qfeedback.protocol import random_feedback_code

    bases = {seed: (channel, n) for seed, channel, n, _ in CASES}
    codes, drawn = {}, collections.defaultdict(list)
    for s in range(16):
        seed, (channel, n) = list(bases.items())[s % 4]
        l = 2 + (s // 4) % 2 if n == 2 else 2
        base = random_feedback_code(np.random.default_rng(seed), channel, n, num_words=2)
        product = list(itertools.product(base.codebook.words, repeat=l))
        rng = np.random.default_rng(s)
        while True:
            picked = sorted(rng.choice(len(product), size=rng.integers(2, len(product)), replace=False))
            groups = [product[i] for i in picked]
            if len(groups) < math.prod(len({g[j] for g in groups}) for j in range(l)) and groups not in drawn[seed, l]:
                break
        drawn[seed, l].append(groups)
        codes[f"seed{seed}-n{n}-l{l}-subset{s}"] = (base, l, groups)
    return codes


@pytest.mark.parametrize("name", list(_non_product_codes()))
def test_non_product_blocked_errors_pinned(name):
    # Groups and (average, max) error of each code as the build computed them
    # before single-candidate rounds became projective, in
    # tests/data/non_product_codes.json.
    import json
    from pathlib import Path

    pins = json.loads((Path(__file__).parent / "data" / "non_product_codes.json").read_text())[name]
    base, l, groups = _non_product_codes()[name]
    assert [[list(w) for w in g] for g in groups] == pins["groups"]
    flat = build_double_blocked_code(base, l, delta=0.3, groups=groups)
    assert np.allclose(error_probability(flat), pins["error"], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("probs", [(1.0, 0.0), (0.5, float("nan"))])
def test_blocked_code_rejects_groups_of_no_probability(probs):
    # Unchecked, (1.0, 0.0) with the one group (w1, w1) normalized 0 by 0: the
    # code came out with probs (nan,) and a RuntimeWarning, and its error
    # probability was (nan, 1.0).
    from dataclasses import replace

    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    base = replace(base, probs=probs)
    w1 = base.codebook.words[1]
    with pytest.raises(ValidationError, match="groups must carry positive total base probability"):
        build_double_blocked_code(base, 2, delta=0.3, groups=[(w1, w1)])


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
    slots = [slot.values() if isinstance(slot, dict) else (slot,) for slot in flat.measurements]
    assert any(povm.feedback for povms in slots for povm in povms)
    worst, branches = _independent_copies_miss(flat, base, 2)
    assert branches == 64
    assert worst < 1e-12
    # Without its feedback the flat code misses the oracle by far.
    bare = tuple(
        {h: dataclasses.replace(p, feedback={}) for h, p in slot.items()}
        if isinstance(slot, dict)
        else dataclasses.replace(slot, feedback={})
        for slot in flat.measurements
    )
    assert _independent_copies_miss(dataclasses.replace(flat, measurements=bare), base, 2)[0] > 0.1


def test_cumulative_disturbance_through_feedback():
    # An n=3 base with round-2 feedback: each branch's global rounds 2 and 3
    # follow feedback placed on the flat registers still to be sent.
    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.1), 3, num_words=2)
    records = cumulative_disturbance_report(build_double_blocked_code(base, 2, delta=0.5), base)
    assert len(records) == 104
    assert {r.round for r in records} == {1, 2, 3}
    for rec in records:
        assert rec.distance <= rec.bound + 1e-9, rec


def test_cumulative_disturbance_reads_the_code_it_is_given():
    # The report walks the code it is handed: built from the groups in a
    # seeded order, as the benchmark's blocked-l3 job draws them, it gives
    # the product-order code's records bit for bit once both are sorted by group.
    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    groups = list(itertools.product(base.codebook.words, repeat=3))
    permuted = [groups[i] for i in np.random.default_rng(1).permutation(len(groups))]
    assert permuted != groups
    want = cumulative_disturbance_report(build_double_blocked_code(base, 3, delta=0.3), base)
    got = cumulative_disturbance_report(build_double_blocked_code(base, 3, delta=0.3, groups=permuted), base)
    assert [r.group for r in got] != [r.group for r in want]
    assert sorted(got, key=lambda r: r.group) == sorted(want, key=lambda r: r.group)


def test_cumulative_disturbance_rejects_a_code_that_is_not_copies_of_the_base():
    from qfeedback.protocol import random_feedback_code

    n2 = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    n3 = random_feedback_code(np.random.default_rng(5), depolarizing_channel(0.2), 3, num_words=2)
    other = random_feedback_code(np.random.default_rng(8), depolarizing_channel(0.1), 2, num_words=2)
    assert other.codebook.words != n2.codebook.words
    for code, base in ((build_double_blocked_code(n2, 2), n3), (n2, n3), (build_double_blocked_code(other, 2), n2)):
        with pytest.raises(ValidationError, match="interleaved copies"):
            cumulative_disturbance_report(code, base)


def test_cumulative_disturbance_rejects_a_base_the_code_was_not_built_from():
    # The seed-4 base has the seed-9 base's words but other measurements and
    # letters, so its blocked codes interleave the same codewords.  Only the
    # slots that hold a base measurement and no global round can tell: slot 3
    # at l = 2, slots 4 and 5 at l = 3.
    from qfeedback.protocol import random_feedback_code

    channel = depolarizing_channel(0.1)
    own, other = (random_feedback_code(np.random.default_rng(s), channel, 2, num_words=2) for s in (9, 4))
    assert other.codebook.words == own.codebook.words
    for l, slots in ((2, [3]), (3, [4, 5])):
        code = build_double_blocked_code(own, l, delta=0.3)
        assert cumulative_disturbance_report(code, own)
        with pytest.raises(ValidationError, match=re.escape(f"slots {slots} of the code")):
            cumulative_disturbance_report(code, other)


@pytest.mark.parametrize("n", [100, 400, 2000])
def test_eigenvalue_cap_is_checked_on_exponents(n):
    # The largest compressed eigenvalue of diag(3/4, 1/4) at delta = 0.1 is
    # 2^(n (0.85 log2(3/4) - 0.15 * 2)), above the c = 1 cap and below the
    # cap at c = log2(4/3) + 2.  Both values fall under 1e-15 by n = 100 and
    # to 0 at n = 2000, where an absolute slack passed every c.
    rho = density(np.diag([0.75, 0.25]))
    assert not typicality_bounds_check(rho, n, 0.1, c=1.0).eigen_ok
    assert typicality_bounds_check(rho, n, 0.1, c=math.log2(4 / 3) + 2).eigen_ok



@pytest.mark.parametrize("p, n, delta", [((0.5, 0.5), 10000, 0.05), ((0.75, 0.25), 3000, 0.1)])
def test_typicality_exponents_match_exact_fractions(p, n, delta):
    # max_compressed and eigen_cap read 0.0 at these n; their log2 forms stay
    # finite and match the largest kept-type product prod_x p_x^c_x, computed
    # in exact rationals, and -n (S - delta).
    rep = typicality_bounds_check(density(np.diag(p)), n, delta)
    assert rep.max_compressed == 0.0 and rep.eigen_cap == 0.0
    data = typical_projector_data(density(np.diag(p)), n, delta)
    exact = max(math.prod(Fraction(q) ** c for q, c in zip(data.eigvals, t)) for t in data.types)
    log2_exact = math.log2(exact.numerator) - math.log2(exact.denominator)
    assert math.isfinite(rep.log2_max_compressed)
    assert abs(rep.log2_max_compressed - log2_exact) <= 1e-12 * max(1.0, abs(log2_exact))
    entropy = -sum(Fraction(q) * Fraction(math.log2(q)) for q in p)
    assert abs(rep.log2_eigen_cap - float(-n * (entropy - Fraction(delta)))) <= 1e-12 * n


def _full_walk_errors(code):
    from qfeedback.protocol import _error_figures, _transcripts, _walk

    return _error_figures(code, _transcripts(code, _walk(code, code.codebook.words)))


def _capture_code(case):
    from capture_blocked import CASES, DELTA

    from qfeedback.protocol import random_feedback_code

    seed, channel, n, l = CASES[case]
    base = random_feedback_code(np.random.default_rng(seed), channel, n, num_words=2)
    return build_double_blocked_code(base, l, delta=DELTA)


def _shipped_code(name):
    from pathlib import Path

    from qfeedback.config import load_config

    return load_config(str(Path(__file__).parent.parent / "configs" / f"{name}.json")).code


@pytest.mark.parametrize(
    "code",
    [("capture", c) for c in range(6)]
    + [("non-product", name) for name in _non_product_codes()]
    + [("config", name) for name in ("identity", "depolarizing")],
    ids=lambda code: f"{code[0]}-{code[1]}",
)
def test_decoding_walk_errors_equal_the_full_walk_bit_for_bit(code):
    # The walk behind error_probability follows only branches that can still
    # decode; the dropped ones add nothing to a word's correct-decoding sum,
    # so both figures equal the full walk's exactly on a code validate_code
    # accepts, and every code here tabulates each history it can produce.
    kind, key = code
    if kind == "capture":
        code = _capture_code(key)
    elif kind == "non-product":
        base, l, groups = _non_product_codes()[key]
        code = build_double_blocked_code(base, l, delta=0.3, groups=groups)
    else:
        code = _shipped_code(key)
    assert validate_code(code).ok, validate_code(code).violations[:3]
    assert error_probability(code) == _full_walk_errors(code)


def test_a_word_with_no_decodable_branch_has_error_one():
    # Seed 77 at l = 3: no branch of some word can decode to it, so the
    # decoding walk registers no transcript for it and its error is 1.0.
    from qfeedback.protocol import _decodable, _decoding_walk, _transcripts

    code = _capture_code(3)
    words = code.codebook.words
    laws = _transcripts(code, _decoding_walk(code, words, _decodable(code)))
    assert set(words) - set(laws)
    assert error_probability(code)[1] == 1.0


def _branch_counts(code, reach):
    from qfeedback.protocol import _decoding_walk

    counts = [0] * code.n
    for t, piece in _decoding_walk(code, code.codebook.words, reach):
        counts[t] += len(piece.word)
    return counts


def test_decoding_walk_branch_counts():
    # The seed-9 base at l = 3 with every group: after t = 0..5 measured
    # rounds the full walk holds 8, 8, 8, 144, 288, 576 branches, of which
    # only 8, 8, 8, 16, 32, 64 can still decode to their own word.
    from qfeedback.protocol import _decodable, _decoding_walk, _walk, random_feedback_code

    code = _capture_code(1)
    assert _branch_counts(code, _decodable(code)) == [8, 8, 8, 16, 32, 64]
    assert _branch_counts(code, {}) == [8, 8, 8, 144, 288, 576]
    # A fixed M_n leaves every label reachable: the same pieces either way.
    fixed = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.1), 3, num_words=4)
    assert _decodable(fixed) == {}
    assert _branch_counts(fixed, {}) == [4, 8, 16]
    pieces = _walk(fixed, fixed.codebook.words)
    for (t, a), (u, b) in zip(pieces, _decoding_walk(fixed, fixed.codebook.words, _decodable(fixed)), strict=True):
        assert t == u and a.history == b.history
        assert all(np.array_equal(x, y) for x, y in zip((a.word, a.prob, a.states), (b.word, b.prob, b.states)))


def test_decoding_walk_still_raises_on_a_missing_history():
    # A history of the l = 2 code's M_n table is deleted; the branches that
    # reach it are walked, so the missing measurement still raises.
    from dataclasses import replace

    code = _capture_code(0)
    table = dict(code.measurements[-1])
    history = next(h for h, povm in table.items() if ER in povm.labels and len(povm.labels) > 1)
    del table[history]
    with pytest.raises(ValidationError, match="no measurement tabulated"):
        error_probability(replace(code, measurements=code.measurements[:-1] + (table,)))


def test_validate_code_reports_each_missing_final_history():
    # Each of the 20 histories of the seed-9 l = 2 code's M_n table is one
    # that M_1..M_{n-1} can produce; deleting any one is reported by name,
    # and the complete table validates clean.
    from dataclasses import replace

    code = _capture_code(0)
    table = code.measurements[-1]
    assert len(table) == 20 and validate_code(code).ok
    for history in table:
        rest = {h: povm for h, povm in table.items() if h != history}
        rep = validate_code(replace(code, measurements=code.measurements[:-1] + (rest,)))
        assert rep.violations == [(f"M_{code.n}: no measurement tabulated for history {history!r}", 0.0)]


def test_capture_blocked_digest():
    # The six codes of tests/capture_blocked.py: every slot element, feedback
    # operator, exact error and disturbance record, as one digest.
    from capture_blocked import digest

    assert digest(lambda line: None) == "777bfae9de5752d3d5c318e449d5f23ee2856d68152a15013041f0658cd4be03"

def test_blocked_code_rejects_bad_copies_and_groups():
    base = one_block_code(depolarizing_channel(0.1))
    words = base.codebook.words
    for l in (0, -1, 1.5):
        with pytest.raises(ValidationError, match="block copies"):
            build_double_blocked_code(base, l)
    for groups in ([], [(words[0],)], [(words[0], words[1]), (words[1],)], [(words[0], words[1], words[0])]):
        with pytest.raises(ValidationError, match="groups"):
            build_double_blocked_code(base, 2, groups=groups)


def test_rate_split_rejects_copies_that_do_not_split_the_block():
    from qfeedback.protocol import random_feedback_code

    base = random_feedback_code(np.random.default_rng(9), depolarizing_channel(0.1), 2, num_words=2)
    flat = build_double_blocked_code(base, 2)
    assert flat.codebook.n == 4
    for l in (0, 3, -2, 2.0):
        with pytest.raises(ValidationError, match="does not split"):
            rate_split(flat, l)
    assert len(rate_split(flat, 2)) == 2
