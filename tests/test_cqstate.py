import numpy as np
import pytest

from qfeedback.cqstate import (
    CqState,
    conditional_mutual_information,
    cq_entropy,
    marginalize,
    materialize,
    materialized_entropy,
    mutual_information,
)
from qfeedback.linalg import kron
from qfeedback.quantum import (
    DensityMatrix,
    ValidationError,
    basis_state,
    density,
    entropy,
    holevo_chi,
    Ensemble,
    pure_state,
    random_density_matrix,
    random_pure_state,
)


def test_cq_state_rejects_nan_weight():
    branches = (((0,), float("nan"), basis_state(2, 0)), ((1,), 0.5, basis_state(2, 1)))
    with pytest.raises(ValidationError, match="negative branch weight"):
        CqState((("A", 2),), (2,), branches)


def random_cq(rng, names=("A",), sizes=(2,), qdims=(2,), sparse=1.0):
    """Random CqState with every label combination (or a subset) populated."""
    import itertools

    labels = list(itertools.product(*[range(s) for s in sizes]))
    if sparse < 1.0:
        keep = max(1, int(len(labels) * sparse))
        idx = rng.choice(len(labels), size=keep, replace=False)
        labels = [labels[i] for i in sorted(idx)]
    w = rng.dirichlet(np.ones(len(labels)))
    dim = int(np.prod(qdims))
    branches = tuple(
        (lab, float(w[i]), DensityMatrix(random_density_matrix(rng, dim).mat, qdims))
        for i, lab in enumerate(labels)
    )
    return CqState(tuple(zip(names, sizes)), qdims, branches)


def test_uniform_classical_bit_entropy():
    psi = basis_state(2, 0)
    s = CqState((("A", 2),), (2,), (((0,), 0.5, psi), ((1,), 0.5, psi)))
    assert abs(cq_entropy(s, classical=("A",), quantum=(0,)) - 1.0) < 1e-12
    assert abs(cq_entropy(s, classical=("A",)) - 1.0) < 1e-12
    # No classical registers selected: plain entropy of the averaged marginal.
    assert abs(cq_entropy(s, quantum=(0,)) - 0.0) < 1e-12


def test_cq_entropy_matches_materialization():
    rng = np.random.default_rng(10)
    for _ in range(10):
        s = random_cq(rng, names=("A", "B"), sizes=(2, 2), qdims=(2,))
        got = cq_entropy(s, classical=("A", "B"), quantum=(0,))
        want = materialized_entropy(s, classical=("A", "B"), quantum=(0,))
        assert abs(got - want) < 1e-9
        got = cq_entropy(s, classical=("B",), quantum=(0,))
        want = materialized_entropy(s, classical=("B",), quantum=(0,))
        assert abs(got - want) < 1e-9


def test_mutual_information_product_state():
    rng = np.random.default_rng(11)
    rho = random_density_matrix(rng, 2)
    s = CqState(
        (("A", 2),),
        (2,),
        (((0,), 0.5, rho), ((1,), 0.5, rho)),
    )
    assert abs(mutual_information(s, ("A",), (0,))) < 1e-10


def test_mutual_information_equals_holevo():
    rng = np.random.default_rng(12)
    for _ in range(20):
        probs = rng.dirichlet(np.ones(3))
        states = [random_density_matrix(rng, 2) for _ in range(3)]
        s = CqState(
            (("A", 3),),
            (2,),
            tuple(((i,), float(probs[i]), states[i]) for i in range(3)),
        )
        chi = holevo_chi(Ensemble(tuple((float(probs[i]), states[i]) for i in range(3))))
        assert abs(mutual_information(s, ("A",), (0,)) - chi) < 1e-12


def test_mutual_information_maximally_entangled():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = DensityMatrix(pure_state(psi).mat, (2, 2))
    s = CqState((), (2, 2), (((), 1.0, rho),))
    assert abs(mutual_information(s, (0,), (1,)) - 2.0) < 1e-10


def test_cmi_empty_condition_reduces_to_mi():
    rng = np.random.default_rng(13)
    s = random_cq(rng, names=("A",), sizes=(2,), qdims=(2, 2))
    a = conditional_mutual_information(s, ("A",), (0,), ())
    b = mutual_information(s, ("A",), (0,))
    assert abs(a - b) < 1e-12


def test_cmi_markov_chain_is_zero():
    # Classical A -> C -> B: B depends on C only.
    rng = np.random.default_rng(14)
    p_a = [0.3, 0.7]
    p_c_given_a = [[0.8, 0.2], [0.4, 0.6]]
    p_b_given_c = [[0.9, 0.1], [0.25, 0.75]]
    branches = []
    psi = basis_state(2, 0)
    for a in range(2):
        for c in range(2):
            for b in range(2):
                w = p_a[a] * p_c_given_a[a][c] * p_b_given_c[c][b]
                branches.append(((a, c, b), w, psi))
    s = CqState((("A", 2), ("C", 2), ("B", 2)), (2,), tuple(branches))
    assert abs(conditional_mutual_information(s, ("A",), ("B",), ("C",))) < 1e-10


def test_cmi_strong_subadditivity_and_materialization_oracle():
    rng = np.random.default_rng(15)
    for _ in range(30):
        s = random_cq(rng, names=("A",), sizes=(2,), qdims=(2, 2))
        val = conditional_mutual_information(s, ("A",), (0,), (1,))
        assert val >= -1e-9
        # materialized four-entropy oracle: I(A:q0|q1) = S(A,q1)+S(q0,q1)-S(A,q0,q1)-S(q1)
        want = (
            materialized_entropy(s, ("A",), (1,))
            + materialized_entropy(s, (), (0, 1))
            - materialized_entropy(s, ("A",), (0, 1))
            - materialized_entropy(s, (), (1,))
        )
        assert abs(val - want) < 1e-9


def test_strong_subadditivity_many_random_states():
    rng = np.random.default_rng(16)
    for _ in range(500):
        s = random_cq(rng, names=("A",), sizes=(2,), qdims=(2, 2), sparse=1.0)
        assert conditional_mutual_information(s, ("A",), (0,), (1,)) >= -1e-9


def test_chain_rule():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = random_cq(rng, names=("A", "B"), sizes=(2, 2), qdims=(2,))
        lhs = mutual_information(s, ("A",), ("B", 0))
        rhs = mutual_information(s, ("A",), (0,)) + conditional_mutual_information(
            s, ("A",), ("B",), (0,)
        )
        assert abs(lhs - rhs) < 1e-9


def test_entropy_decomposition():
    rng = np.random.default_rng(18)
    for _ in range(10):
        s = random_cq(rng, names=("A",), sizes=(3,), qdims=(2,))
        total = cq_entropy(s, classical=("A",), quantum=(0,))
        h_label = cq_entropy(s, classical=("A",))
        avg = sum(w * entropy(rho) for _, w, rho in s.branches)
        assert abs(total - (h_label + avg)) < 1e-10


def test_conditioning_reduces_conditional_entropy():
    # S(Z | C1 C2) <= S(Z | C1): refine the classical conditioning.
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = random_cq(rng, names=("C1", "C2"), sizes=(2, 2), qdims=(2,))
        s_z_c1c2 = cq_entropy(s, ("C1", "C2"), (0,)) - cq_entropy(s, ("C1", "C2"))
        s_z_c1 = cq_entropy(s, ("C1",), (0,)) - cq_entropy(s, ("C1",))
        assert s_z_c1c2 <= s_z_c1 + 1e-9


def test_marginalize_identity_and_full_drop():
    rng = np.random.default_rng(20)
    s = random_cq(rng, names=("A",), sizes=(2,), qdims=(2, 2))
    same = marginalize(s)
    assert same.classical_registers == s.classical_registers
    assert same.quantum_dims == s.quantum_dims
    only_classical = marginalize(s, drop_quantum=(0, 1))
    assert only_classical.quantum_dims == (1,)
    w_want = {lab: w for lab, w, _ in s.branches}
    for lab, w, rho in only_classical.branches:
        assert abs(w - w_want[lab]) < 1e-12
        assert abs(rho.mat[0, 0] - 1.0) < 1e-12


def test_marginalize_commutes_with_materialize():
    rng = np.random.default_rng(21)
    for _ in range(10):
        s = random_cq(rng, names=("A", "B"), sizes=(2, 2), qdims=(2, 2))
        dropped = marginalize(s, drop_classical=("B",), drop_quantum=(1,))
        left = materialize(dropped).mat
        # materialize-then-trace: classical regs occupy indices 0,1; quantum 2,3
        right = materialize(s).ptrace([0, 2]).mat
        assert np.allclose(left, right, atol=1e-10)


def test_materialize_single_branch():
    rho = basis_state(2, 1)
    s = CqState((("A", 2),), (2,), (((1,), 1.0, rho),))
    full = materialize(s)
    want = kron(basis_state(2, 1).mat, rho.mat)
    assert np.allclose(full.mat, want)


def test_materialize_two_orthogonal_branches():
    psi = basis_state(2, 0)
    s = CqState((("A", 2),), (2,), (((0,), 0.5, psi), ((1,), 0.5, psi)))
    full = materialize(s)
    assert abs(np.trace(full.mat) - 1.0) < 1e-12
    assert abs(entropy(full) - 1.0) < 1e-10


def test_materialize_cross_check_random():
    rng = np.random.default_rng(22)
    s = random_cq(rng, names=("A",), sizes=(3,), qdims=(2,))
    full = materialize(s)
    assert abs(np.trace(full.mat) - 1.0) < 1e-12
    assert abs(entropy(full) - cq_entropy(s, ("A",), (0,))) < 1e-9


def test_invalid_subsets_raise():
    rng = np.random.default_rng(23)
    s = random_cq(rng)
    with pytest.raises(ValidationError):
        cq_entropy(s, classical=("Nope",))
    with pytest.raises(ValidationError):
        mutual_information(s, ("A",), ("A",))
    with pytest.raises(ValidationError):
        conditional_mutual_information(s, ("A",), (0,), (0,))
