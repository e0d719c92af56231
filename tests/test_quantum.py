import re

import numpy as np
import pytest
from oracles import basis_povm, measure_probabilities, random_channel, random_isometry, random_povm

from qfeedback.linalg import embed_operator, herm_eigvals, identity, kron
from qfeedback.quantum import (
    ER,
    DensityMatrix,
    Ensemble,
    Povm,
    QuantumChannel,
    ValidationError,
    amplitude_damping_channel,
    apply_channel,
    apply_channel_at,
    apply_kraus,
    basis_state,
    bloch_state,
    channel_output,
    density,
    depolarizing_channel,
    entropy,
    euler_unitary,
    fully_depolarizing_channel,
    holevo_chi,
    identity_channel,
    leading_block_rest,
    measure,
    pure_state,
    random_density_matrix,
    random_pure_state,
    rotated_qubit_povm,
    random_unitary,
    square_root_measurement,
)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        density(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        density(np.diag([0.7, 0.7]))  # trace != 1
    rho = density(np.diag([0.5, -0.1, 0.6]))
    with pytest.raises(ValidationError):
        rho.validate()  # negative eigenvalue surfaces lazily


def test_nan_fails_every_validation():
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError):
        density(nan)
    with pytest.raises(ValidationError):
        density(np.array([[np.nan, 0.0], [0.0, 0.0]]))  # NaN trace
    with pytest.raises(ValidationError):
        QuantumChannel((nan,))
    with pytest.raises(ValidationError):
        apply_kraus([nan], basis_state(2, 0))
    with pytest.raises(ValidationError):
        Povm(((0, nan),))


def test_eig_basis_canonical_inside_degenerate_eigenspace():
    # Eigenvalue 1/4 is twofold on the plane orthogonal to (1, 1, 1).  Its
    # canonical basis is Gram-Schmidt of P e_0, P e_1 for that plane's
    # projector P, whichever basis the solver returns.
    u = np.ones(3) / np.sqrt(3.0)
    rho = density(0.5 * np.outer(u, u) + 0.25 * (identity(3) - np.outer(u, u)))
    w, v = rho.eig()
    assert np.allclose(w, [0.5, 0.25, 0.25], atol=1e-12)
    want = np.column_stack([np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0), np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)])
    assert np.max(np.abs(v[:, 1:] - want)) < 1e-12
    assert np.max(np.abs(v.conj().T @ v - identity(3))) < 1e-12
    assert np.max(np.abs((v * w) @ v.conj().T - rho.mat)) < 1e-12
    with pytest.raises(ValueError, match="read-only"):
        v[:, 1:] = 0.0  # the decomposition is cached: a write would corrupt every later eig()
    assert np.max(np.abs(v[:, 1:] - want)) < 1e-12


def test_apply_identity_channel():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(rng, 3)
    out = apply_channel(identity_channel(3), rho)
    assert np.allclose(out.mat, rho.mat)


def test_fully_depolarizing_on_basis_state():
    out = apply_channel(fully_depolarizing_channel(), basis_state(2, 0))
    assert np.allclose(out.mat, identity(2) / 2, atol=1e-12)


def test_amplitude_damping_oracle():
    # Direct 2x2 Kraus evaluation on |1><1|.
    gamma = 0.3
    out = apply_channel(amplitude_damping_channel(gamma), basis_state(2, 1))
    assert np.allclose(out.mat, np.diag([gamma, 1.0 - gamma]), atol=1e-12)


def test_channel_output_of_a_stack_is_apply_channel_per_matrix():
    # Square and rectangular (qubit to qutrit) channels; apply_channel is the
    # Kraus sum written out, bit for bit.
    rng = np.random.default_rng(11)
    v = random_isometry(rng, 6, 2)
    for phi in (random_channel(rng, 2, 3), QuantumChannel((v[:3], v[3:]))):
        stack = np.array([random_density_matrix(rng, 2).mat for _ in range(5)])
        outputs = channel_output(phi, stack)
        assert outputs.shape == (5, phi.out_dim, phi.out_dim)
        for rho, out in zip(stack, outputs, strict=True):
            single = apply_channel(phi, density(rho))
            assert np.array_equal(single.mat, out)
            assert np.array_equal(single.mat, sum(k @ rho @ k.conj().T for k in phi.kraus))
            assert single.dims == (phi.out_dim,)
    with pytest.raises(ValidationError, match="channel input dim 2 != state dim 3"):
        channel_output(phi, np.zeros((3, 3)))


def test_channel_completeness_enforced():
    with pytest.raises(ValidationError):
        QuantumChannel((np.array([[1.0, 0.0], [0.0, 0.5]]),))


def test_apply_channel_at_matches_padded_kraus():
    rng = np.random.default_rng(1)
    for _ in range(10):
        phi = random_channel(rng, 2, 3)
        rho = random_density_matrix(rng, 4)
        rho = DensityMatrix(rho.mat, (2, 2))
        reg = int(rng.integers(0, 2))
        got = apply_channel_at(phi, rho, reg)
        # Padded-Kraus oracle built with raw krons.
        out = np.zeros((4, 4), dtype=complex)
        for k in phi.kraus:
            big = kron(k, identity(2)) if reg == 0 else kron(identity(2), k)
            out += big @ rho.mat @ big.conj().T
        assert np.allclose(got.mat, out, atol=1e-12)
        assert abs(np.trace(got.mat) - 1.0) < 1e-10


def test_apply_channel_at_depolarizing_register_zero():
    rng = np.random.default_rng(2)
    rho_b = random_density_matrix(rng, 2)
    joint = DensityMatrix(kron(basis_state(2, 0).mat, rho_b.mat), (2, 2))
    out = apply_channel_at(fully_depolarizing_channel(), joint, 0)
    assert np.allclose(out.mat, kron(identity(2) / 2, rho_b.mat), atol=1e-12)


def test_entropy_values():
    assert entropy(basis_state(2, 0)) == 0.0
    assert abs(entropy(density(identity(2) / 2)) - 1.0) < 1e-12
    want = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert abs(entropy(density(np.diag([0.75, 0.25]))) - want) < 1e-12
    rng = np.random.default_rng(3)
    psi = random_pure_state(rng, 5)
    assert entropy(psi) < 1e-10


def test_entropy_concavity():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = random_density_matrix(rng, 3)
        b = random_density_matrix(rng, 3)
        mix = density(0.5 * a.mat + 0.5 * b.mat)
        assert entropy(mix) >= 0.5 * entropy(a) + 0.5 * entropy(b) - 1e-10


def test_measure_basis_povm():
    povm = basis_povm(2)
    branches = measure(povm, basis_state(2, 0))
    assert set(branches) == {0}
    p, post = branches[0]
    assert abs(p - 1.0) < 1e-12
    assert np.allclose(post.mat, basis_state(2, 0).mat)

    branches = measure(povm, density(identity(2) / 2))
    assert abs(branches[0][0] - 0.5) < 1e-12
    assert abs(branches[1][0] - 0.5) < 1e-12


def test_measure_matches_trace_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        povm = random_povm(rng, 3, outcomes=3)
        rho = random_density_matrix(rng, 3)
        branches = measure(povm, rho)
        total = 0.0
        for label, f in povm.elements:
            want = float(np.trace(rho.mat @ f.conj().T @ f).real)
            if label in branches:
                assert abs(branches[label][0] - want) < 1e-12
                total += branches[label][0]
        assert abs(total - 1.0) < 1e-10
        for p, post in branches.values():
            assert abs(np.trace(post.mat) - 1.0) < 1e-10
        probs = measure_probabilities(povm, rho)
        assert set(probs) == set(branches)
        assert all(abs(probs[k] - branches[k][0]) < 1e-12 for k in probs)


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2)])
def test_register_kernels_match_dense_oracle(dims):
    # Channel on every register, measurement on every prefix and a Kraus
    # family on every trailing block, against the padded dense products.
    rng = np.random.default_rng(len(dims))
    n, dim = len(dims), int(np.prod(dims))
    rho = DensityMatrix(random_density_matrix(rng, dim).mat, dims)

    def dense(ops, targets):
        bigs = [embed_operator(k, dims, targets) for k in ops]
        return sum(b @ rho.mat @ b.conj().T for b in bigs)

    for r in range(n):
        phi = random_channel(rng, dims[r], 3)
        assert _max_diff(apply_channel_at(phi, rho, r).mat, dense(phi.kraus, [r])) <= 1e-13
    for j in range(1, n + 1):
        povm = random_povm(rng, int(np.prod(dims[:j])), outcomes=3)
        branches = measure(povm, rho)
        probs = measure_probabilities(povm, rho)
        assert set(branches) == set(probs) == set(povm.labels)
        for label, f in povm.elements:
            want = dense([f], range(j))
            p_want = np.trace(want).real
            assert abs(branches[label][0] - p_want) <= 1e-13
            assert _max_diff(branches[label][1].mat, want / p_want) <= 1e-13
            assert abs(probs[label] - branches[label][0]) <= 1e-14
    for m in range(n):
        kraus = random_channel(rng, int(np.prod(dims[m:])), 2).kraus
        got = apply_kraus(kraus, rho, registers=range(m, n))
        assert _max_diff(got.mat, dense(kraus, range(m, n))) <= 1e-13


def test_measure_rejects_a_povm_off_the_register_prefixes():
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(6), 12).mat, (2, 3, 2))
    for bad in (random_povm(np.random.default_rng(7), 3), random_povm(np.random.default_rng(8), 4)):
        with pytest.raises(ValidationError, match="does not match"):
            measure(bad, rho)
        with pytest.raises(ValidationError, match="does not match"):
            measure_probabilities(bad, rho)


@pytest.mark.parametrize(
    "dim, dims, registers, rest",
    [
        (2, (2, 3, 2), None, 6),
        (6, (2, 3, 2), None, 2),
        (12, (2, 3, 2), None, 1),
        (6, (2, 3, 2), 2, 2),
        (2, (2, 3, 2), 3, 6),  # registers bounds the block from above
        (6, (2, 3, 2), 1, None),
        (4, (2, 3, 2), None, None),
        (3, (2, 3, 2), None, None),
        (1, (2, 3, 2), None, None),  # a leading block holds at least one register
        (1, (1, 2, 3), None, 6),
        (2, (1, 2, 1, 3), None, 3),
        (2, (1, 2, 1, 3), 1, None),
        (2, (1, 2, 1, 3), 2, 3),
        (6, (1, 2, 1, 3), 4, 1),
        (6, (1, 2, 1, 3), 3, None),
        (2, (2,), 0, None),
    ],
)
def test_leading_block_rest_table(dim, dims, registers, rest):
    if rest is not None:
        assert leading_block_rest(dim, dims, registers) == rest
        return
    message = f"dimension {dim} does not match the leading registers of {dims}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        leading_block_rest(dim, dims, registers)


def test_apply_kraus_rejects_a_non_contiguous_block():
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(9), 8).mat, (2, 2, 2))
    with pytest.raises(ValidationError, match="does not fit"):
        apply_kraus([identity(4)], rho, registers=[0, 2])
    with pytest.raises(ValidationError, match="does not fit"):
        apply_kraus([identity(2)], rho, registers=[0, 1])


def test_measure_probabilities_rejects_nan_and_all_below_floor():
    # A NaN probability raises in measure_probabilities as it does in measure,
    # and so does a state whose every outcome falls below the floor.
    povm = basis_povm(2)
    nan_state = basis_state(2, 1)
    nan_state.mat[0, 0] = np.nan  # bypasses validation: the kernel must still refuse it
    with pytest.raises(ValidationError), np.errstate(invalid="ignore"):
        measure(povm, nan_state)
    with pytest.raises(ValidationError, match="probability nan"):
        measure_probabilities(povm, nan_state)
    zero_state = basis_state(2, 0)
    zero_state.mat[:] = 0.0
    with pytest.raises(ValidationError, match="PROB_FLOOR"):
        measure(povm, zero_state)
    with pytest.raises(ValidationError, match="PROB_FLOOR"):
        measure_probabilities(povm, zero_state)


def test_ensemble_rejects_nan_probability():
    with pytest.raises(ValidationError, match="negative ensemble probability"):
        Ensemble(((float("nan"), basis_state(2, 0)), (0.5, basis_state(2, 1))))


def test_holevo_chi_orthogonal_pair():
    e = Ensemble(((0.5, basis_state(2, 0)), (0.5, basis_state(2, 1))))
    assert abs(holevo_chi(e) - 1.0) < 1e-12
    single = Ensemble(((1.0, basis_state(2, 0)),))
    assert holevo_chi(single) == 0.0


def test_holevo_chi_nonorthogonal_oracle():
    # chi of {1/2 |0>, 1/2 |+>} equals the entropy of the 2x2 average,
    # computed here from the closed-form eigenvalues.
    plus = pure_state(np.array([1.0, 1.0]))
    e = Ensemble(((0.5, basis_state(2, 0)), (0.5, plus)))
    avg = 0.5 * basis_state(2, 0).mat + 0.5 * plus.mat
    tr, det = np.trace(avg).real, np.linalg.det(avg).real
    lam = np.array([(tr + np.sqrt(tr * tr - 4 * det)) / 2, (tr - np.sqrt(tr * tr - 4 * det)) / 2])
    want = float(-np.sum(lam * np.log2(lam)))
    assert abs(holevo_chi(e) - want) < 1e-12


def test_holevo_chi_bounded_by_average_entropy():
    rng = np.random.default_rng(6)
    for _ in range(10):
        probs = rng.dirichlet(np.ones(3))
        states = [random_density_matrix(rng, 2) for _ in range(3)]
        e = Ensemble(tuple((float(p), s) for p, s in zip(probs, states)))
        assert holevo_chi(e) <= entropy(e.average()) + 1e-10
    # Equality for pure-state members.
    for _ in range(10):
        probs = rng.dirichlet(np.ones(3))
        states = [random_pure_state(rng, 2) for _ in range(3)]
        e = Ensemble(tuple((float(p), s) for p, s in zip(probs, states)))
        assert abs(holevo_chi(e) - entropy(e.average())) < 1e-9


def test_apply_kraus_identity_and_unitary():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(rng, 3)
    assert np.allclose(apply_kraus([identity(3)], rho).mat, rho.mat)
    u = random_unitary(rng, 3)
    out = apply_kraus([u], rho)
    pur_in = np.trace(rho.mat @ rho.mat).real
    pur_out = np.trace(out.mat @ out.mat).real
    assert abs(pur_in - pur_out) < 1e-12


def test_apply_kraus_trace_preserved():
    rng = np.random.default_rng(8)
    for _ in range(10):
        phi = random_channel(rng, 3, 2)
        rho = random_density_matrix(rng, 3)
        out = apply_kraus(phi.kraus, rho)
        assert abs(np.trace(out.mat).real - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        apply_kraus([0.5 * identity(2)], density(identity(2) / 2))


def test_channel_preserves_trace_and_psd_randomized():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        dim = int(rng.integers(2, 4))
        phi = random_channel(rng, dim, int(rng.integers(1, 4)))
        rho = random_density_matrix(rng, dim)
        out = apply_channel(phi, rho)
        assert abs(np.trace(out.mat).real - 1.0) < 1e-10
        assert out.eigvals()[-1] > -1e-9


def test_bloch_state_poles():
    assert np.allclose(bloch_state(0.0, 0.0).mat, basis_state(2, 0).mat)
    assert np.allclose(bloch_state(np.pi, 0.0).mat, basis_state(2, 1).mat, atol=1e-12)


def test_random_generators_deterministic():
    a = random_channel(np.random.default_rng(42), 2, 2)
    b = random_channel(np.random.default_rng(42), 2, 2)
    assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))
    pa = random_povm(np.random.default_rng(43), 2, 2)
    pb = random_povm(np.random.default_rng(43), 2, 2)
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(pa.elements, pb.elements))


@pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.7, 2.3), (np.pi, 1.1), (2.9, -0.4)])
def test_rotated_qubit_povm_first_element_is_bloch_state(theta, phi):
    povm = rotated_qubit_povm(theta, phi)
    assert povm.labels == (0, 1)
    assert np.allclose(povm.elements[0][1], bloch_state(theta, phi).mat, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("a,b,c", [(0.0, 0.0, 0.0), (0.3, 1.2, -2.0), (3.0, 2.5, 0.9)])
def test_euler_unitary_is_unitary_closed_form(a, b, c):
    u = euler_unitary(a, b, c)
    assert np.allclose(u.conj().T @ u, identity(2), rtol=0.0, atol=1e-15)
    cb, sb = np.cos(b / 2), np.sin(b / 2)
    closed = np.array(
        [
            [np.exp(-0.5j * (a + c)) * cb, -np.exp(-0.5j * (a - c)) * sb],
            [np.exp(0.5j * (a - c)) * sb, np.exp(0.5j * (a + c)) * cb],
        ]
    )
    assert np.allclose(u, closed, rtol=0.0, atol=1e-15)


def _er_operator(gammas: dict) -> np.ndarray:
    return dict(square_root_measurement(gammas).elements)[ER]


def test_pgm_er_operator_is_exactly_zero_on_full_rank_ensembles():
    # The weighted states span the space, so the completeness remainder is
    # zero up to rounding; its root must not turn that noise into ~1e-8
    # entries that change with the label order.
    rng = np.random.default_rng(21)
    for _ in range(30):
        weights = rng.dirichlet(np.ones(3))
        gammas = {k: p * random_density_matrix(rng, 4).mat for k, p in enumerate(weights)}
        forward = _er_operator(gammas)
        backward = _er_operator(dict(reversed(list(gammas.items()))))
        assert np.max(np.abs(forward - backward)) <= 1e-14
        assert not np.any(forward) and not np.any(backward)


def test_pgm_er_operator_is_kernel_projector_for_two_pure_states():
    rng = np.random.default_rng(22)
    a, b = random_pure_state(rng, 4), random_pure_state(rng, 4)
    er = _er_operator({0: 0.5 * a.mat, 1: 0.5 * b.mat})
    assert np.allclose(herm_eigvals(er), [1.0, 1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)
    assert np.max(np.abs(er @ er - er)) <= 1e-12
    for psi in (a, b):
        assert np.max(np.abs(er @ psi.mat)) <= 1e-12
