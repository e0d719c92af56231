import numpy as np
import pytest

from qfeedback.cqstate import (
    CqState,
    _cmi_plan,
    _compile,
    _pruned,
    conditional_mutual_information,
    conditional_mutual_informations,
    cq_entropies,
    cq_entropy,
    mutual_information,
)
from oracles import cq_branches, cq_state, materialize, materialized_entropy
from qfeedback.linalg import LinalgError, kron
from qfeedback.quantum import (
    PROB_FLOOR,
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
        cq_state((("A", 2),), (2,), branches)


def test_cq_entropy_raises_on_a_branch_state_with_negative_spectrum():
    # diag(1.2, -0.2) is Hermitian with unit trace, so the constructor keeps it; its entropy would read -0.316 bit.
    states = np.array([np.diag([1.2, -0.2]), np.eye(2) / 2])
    s = CqState((("A", 2),), (2,), np.array([[0], [1]]), np.array([0.5, 0.5]), states)
    one = CqState((("A", 1),), (2,), np.array([[0]]), np.array([1.0]), states[:1])
    for state, classical in ((s, "A"), (one, ()), (one, "A")):
        with pytest.raises(LinalgError, match="not PSD: min eigenvalue -2.000e-01"):
            cq_entropy(state, classical, (0,))
    assert cq_entropy(s, "A", ()) == 1.0


def test_cq_state_rejects_a_duplicate_branch_label():
    branches = (((0, 1), 0.5, basis_state(2, 0)), ((1, 0), 0.25, basis_state(2, 1)), ((0, 1), 0.25, basis_state(2, 1)))
    with pytest.raises(ValidationError, match=r"duplicate branch label \(0, 1\)"):
        cq_state((("A", 2), ("B", 2)), (2,), branches)


def _arrays(**changes):
    """Two branches on register A (size 2) and one qubit, as constructor arguments, with ``changes`` applied."""
    rho = random_density_matrix(np.random.default_rng(0), 2).mat
    args = dict(
        classical_registers=(("A", 2),),
        quantum_dims=(2,),
        labels=np.array([[0], [1]]),
        weights=np.array([0.25, 0.75]),
        states=np.array([rho, rho]),
    )
    return {**args, **changes}


@pytest.mark.parametrize(
    "changes, message",
    [
        (
            dict(classical_registers=(("A", 2), ("A", 2)), labels=np.array([[0, 0], [1, 1]])),
            "duplicate classical register names",
        ),
        (dict(labels=np.zeros((0, 1), dtype=int), weights=np.zeros(0), states=np.zeros((0, 2, 2))), "at least one branch"),
        (dict(labels=np.array([[0, 0], [1, 0]])), "label tuple length does not match registers"),
        (dict(labels=np.array([[0], [2]])), r"label \(2,\) outside register alphabets"),
        (dict(labels=np.array([[1], [1]])), r"duplicate branch label \(1,\)"),
        (dict(weights=np.array([np.nan, 0.75])), "negative branch weight"),
        (dict(weights=np.array([0.25, 0.75]) * (1 + 1e-9)), "branch weights sum to 1.000000001"),
        (dict(states=np.zeros((3, 2, 2))), "branch state shape mismatch"),  # B + 1 states for B weights
        (dict(weights=np.float64(1.0)), "1-D weight array with at least one branch"),
        (dict(weights=np.array([[0.25], [0.75]])), "1-D weight array with at least one branch"),
        (dict(labels=np.array([[0.7], [1.0]])), "branch labels are not integers"),
    ],
)
def test_cq_state_rejects_each_invalid_array_input(changes, message):
    CqState(**_arrays())
    with pytest.raises(ValidationError, match=message):
        CqState(**_arrays(**changes))


def test_cq_state_of_nested_lists_equals_the_array_built_state():
    arrays = _arrays()
    nested = CqState(**{**arrays, "labels": [[0], [1]], "weights": [0.25, 0.75]})
    requests = [("A", 0), ("A",), (0,)]
    got = cq_entropies([(nested, keys) for keys in requests])
    assert got == cq_entropies([(CqState(**arrays), keys) for keys in requests])


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
    return cq_state(tuple(zip(names, sizes)), qdims, branches)


def test_uniform_classical_bit_entropy():
    psi = basis_state(2, 0)
    s = cq_state((("A", 2),), (2,), (((0,), 0.5, psi), ((1,), 0.5, psi)))
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
    s = cq_state(
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
        s = cq_state(
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
    s = cq_state((), (2, 2), (((), 1.0, rho),))
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
    s = cq_state((("A", 2), ("C", 2), ("B", 2)), (2,), tuple(branches))
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
        avg = sum(w * entropy(rho) for _, w, rho in cq_branches(s))
        assert abs(total - (h_label + avg)) < 1e-10


def test_conditioning_reduces_conditional_entropy():
    # S(Z | C1 C2) <= S(Z | C1): refine the classical conditioning.
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = random_cq(rng, names=("C1", "C2"), sizes=(2, 2), qdims=(2,))
        s_z_c1c2 = cq_entropy(s, ("C1", "C2"), (0,)) - cq_entropy(s, ("C1", "C2"))
        s_z_c1 = cq_entropy(s, ("C1",), (0,)) - cq_entropy(s, ("C1",))
        assert s_z_c1c2 <= s_z_c1 + 1e-9


def test_materialize_single_branch():
    rho = basis_state(2, 1)
    s = cq_state((("A", 2),), (2,), (((1,), 1.0, rho),))
    full = materialize(s)
    want = kron(basis_state(2, 1).mat, rho.mat)
    assert np.allclose(full.mat, want)


def test_materialize_two_orthogonal_branches():
    psi = basis_state(2, 0)
    s = cq_state((("A", 2),), (2,), (((0,), 0.5, psi), ((1,), 0.5, psi)))
    full = materialize(s)
    assert abs(np.trace(full.mat) - 1.0) < 1e-12
    assert abs(entropy(full) - 1.0) < 1e-10


def test_materialize_cross_check_random():
    rng = np.random.default_rng(22)
    s = random_cq(rng, names=("A",), sizes=(3,), qdims=(2,))
    full = materialize(s)
    assert abs(np.trace(full.mat) - 1.0) < 1e-12
    assert abs(entropy(full) - cq_entropy(s, ("A",), (0,))) < 1e-9


def test_cq_entropy_takes_a_bare_register_name():
    s = random_cq(np.random.default_rng(24), names=("A1", "A2"), sizes=(2, 3), qdims=(2,))
    assert cq_entropy(s, "A1") == cq_entropy(s, ("A1",))
    assert cq_entropy(s, "A2", (0,)) == cq_entropy(s, ("A2",), (0,))
    assert cq_entropy(s, "A1") != cq_entropy(s, ("A2",))


def test_invalid_subsets_raise():
    rng = np.random.default_rng(23)
    s = random_cq(rng)
    with pytest.raises(ValidationError):
        cq_entropy(s, classical=("Nope",))
    with pytest.raises(ValidationError):
        mutual_information(s, ("A",), ("A",))
    with pytest.raises(ValidationError):
        conditional_mutual_information(s, ("A",), (0,), (0,))


QDIMS = ((2,), (3,), (2, 2), (5,), (2, 3), (7,), (2, 2, 2), (8,))  # d = 2..8


def random_keys(rng, state) -> list:
    """A random set of the state's register keys, classical names first in random order, then quantum indices."""
    names = [n for n, _ in state.classical_registers if rng.random() < 0.5]
    qnt = [q for q in range(len(state.quantum_dims)) if rng.random() < 0.5]
    return [*rng.permutation(names).tolist(), *qnt]


def random_split(rng, state) -> tuple:
    """(A, B, C) for a conditional mutual information: each register in one part or none, A and B not empty."""
    keys = [n for n, _ in state.classical_registers] + list(range(len(state.quantum_dims)))
    while True:
        part = rng.integers(0, 4, len(keys))  # 3 = traced out
        a, b, c = ([k for k, p in zip(keys, part) if p == i] for i in range(3))
        if a and b:
            return a, b, c


@pytest.mark.parametrize("seed", range(8))
def test_a_compiled_plan_equals_the_one_shot_pass_on_every_law(seed):
    # cq_entropies compiles its requests (_compile) and calls the plan on the states' weights, and _cmi_plan
    # compiles conditional_mutual_informations.  One plan compiled on the states of every branch and called on
    # the weights of later laws, zero-filled by _pruned, must equal a fresh one-shot pass on states that carry
    # those weights, bit for bit, a law that sends a branch below PROB_FLOOR (weight 0) included.
    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    names, sizes = tuple(f"R{i}" for i in range(k)), tuple(int(s) for s in rng.integers(2, 4, k))
    states = [random_cq(rng, names, sizes, QDIMS[seed], sparse=0.75) for _ in range(2)]
    keys = [(i, random_keys(rng, states[i])) for i in rng.integers(0, 2, 12)]
    splits = [(i, random_split(rng, states[i])) for i in rng.integers(0, 2, 6)]
    plan = _compile([(states[i], ks) for i, ks in keys])
    cmi_plan = _cmi_plan([(states[i], *abc) for i, abc in splits])
    for below in [False] * 5 + [True] * 5:
        raw = [rng.dirichlet(np.ones(len(s.weights))) for s in states]
        if below:
            raw[0][0] = PROB_FLOOR / 3  # _pruned sets it to 0 and renormalizes what is left
        weights = {s: _pruned(w) for s, w in zip(states, raw)}
        assert (weights[states[0]][0] == 0.0) == below
        fresh = [CqState(s.classical_registers, s.quantum_dims, s.labels, weights[s], s.states) for s in states]
        assert plan(weights) == cq_entropies([(fresh[i], ks) for i, ks in keys])
        assert cmi_plan(weights) == conditional_mutual_informations([(fresh[i], *abc) for i, abc in splits])
    # Every CqState weight check runs on a reused plan too.
    weights = {state: state.weights for state in states}
    negative = states[0].weights.copy()
    negative[:2] = negative[0] + negative[1] + 1e-6, -1e-6
    heavy = states[0].weights * (1 + 1e-9)
    for w, text in ((negative, "negative branch weight"), (heavy, "branch weights sum to 1.000000001")):
        for evaluate in (plan, cmi_plan):
            with pytest.raises(ValidationError, match=text):
                evaluate({**weights, states[0]: w})
