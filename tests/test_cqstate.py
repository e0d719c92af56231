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
from oracles import materialize, materialized_entropy
from qfeedback.linalg import kron
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
        CqState((("A", 2),), (2,), branches)


def test_cq_state_rejects_a_duplicate_branch_label():
    branches = (((0, 1), 0.5, basis_state(2, 0)), ((1, 0), 0.25, basis_state(2, 1)), ((0, 1), 0.25, basis_state(2, 1)))
    with pytest.raises(ValidationError, match=r"duplicate branch label \(0, 1\)"):
        CqState((("A", 2), ("B", 2)), (2,), branches)


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
    # compiles conditional_mutual_informations.  A plan compiled on the states of one set of kept branches (the
    # keep masks of _pruned) and called on the weights of later laws that keep the same branches must equal a
    # fresh one-shot pass bit for bit.  A law that sends a branch below PROB_FLOOR keeps other branches, so it
    # gets its own plan.
    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    names, sizes = tuple(f"R{i}" for i in range(k)), tuple(int(s) for s in rng.integers(2, 4, k))
    base = [random_cq(rng, names, sizes, QDIMS[seed], sparse=0.75) for _ in range(2)]
    keys = [(i, random_keys(rng, base[i])) for i in rng.integers(0, 2, 12)]
    splits = [(i, random_split(rng, base[i])) for i in rng.integers(0, 2, 6)]
    plans = {}
    for below in [False] * 5 + [True] * 5:
        raw = [rng.dirichlet(np.ones(len(s.weights))) for s in base]
        if below:
            raw[0][0] = PROB_FLOOR / 3  # _pruned renormalizes what is left
        kept = [_pruned(w) for w in raw]
        fresh = [
            CqState.stacked(s.classical_registers, s.quantum_dims, s.labels[keep], w, s.states[keep])
            for s, (keep, w) in zip(base, kept)
        ]
        masks = tuple(keep.tobytes() for keep, _ in kept)
        if masks not in plans:
            plan = _compile([(fresh[i], ks) for i, ks in keys])
            plans[masks] = fresh, plan, _cmi_plan([(fresh[i], *abc) for i, abc in splits])
        states, plan, cmi_plan = plans[masks]
        weights = {state: w for state, (_, w) in zip(states, kept)}
        assert plan(weights) == cq_entropies([(fresh[i], ks) for i, ks in keys])
        want = conditional_mutual_informations([(fresh[i], *abc) for i, abc in splits])
        assert cmi_plan(weights) == want
    assert len(plans) == 2
    # Every CqState weight check runs on a reused plan too.
    states, plan, cmi_plan = plans[next(iter(plans))]
    weights = {state: state.weights for state in states}
    negative = states[0].weights.copy()
    negative[:2] = negative[0] + negative[1] + 1e-6, -1e-6
    heavy = states[0].weights * (1 + 1e-9)
    for w, text in ((negative, "negative branch weight"), (heavy, "branch weights sum to 1.000000001")):
        for evaluate in (plan, cmi_plan):
            with pytest.raises(ValidationError, match=text):
                evaluate({**weights, states[0]: w})
