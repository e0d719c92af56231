"""Classical-quantum states over labeled classical and quantum registers.

A CqState is a weighted list of branches, each pairing a tuple of classical
labels with a quantum state, stored as stacks: a (B, C) label array, a (B,)
weight array and a (B, D, D) state array.  The full block-diagonal matrix is
never built; entropies and mutual informations run on the branch
decomposition, one batched partial trace and one stacked eigvalsh per
entropy, which is what keeps protocol states with many classical registers
tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace
from .quantum import (
    PROB_FLOOR,
    DensityMatrix,
    ValidationError,
    check_states,
    entropies,
    shannon,
)

WEIGHT_TOL = 1e-10


@dataclass(frozen=True, init=False, eq=False)
class CqState:
    """Block-diagonal state: sum_a w_a |a><a| (x) rho_a with tuple labels a.

    Built from (label tuple, weight, DensityMatrix) branches, or by
    ``stacked`` from (B, C) labels, (B,) weights and (B, D, D) states that
    have passed ``check_states``.
    """

    classical_registers: tuple[tuple[str, int], ...]
    quantum_dims: tuple[int, ...]
    labels: np.ndarray
    weights: np.ndarray
    states: np.ndarray

    def __init__(self, classical_registers, quantum_dims, branches):
        regs, branches = tuple(classical_registers), tuple(branches)
        qdims = tuple(int(d) for d in quantum_dims)
        for lab, _, rho in branches:
            if len(lab) != len(regs):
                raise ValidationError("label tuple length does not match registers")
            if rho.dims != qdims:
                raise ValidationError("branch state shape mismatch")
        labels = np.array([[int(x) for x in lab] for lab, _, _ in branches], dtype=int)
        weights = np.array([float(w) for _, w, _ in branches])
        states = np.array([rho.mat for _, _, rho in branches])
        self._fill(regs, qdims, labels.reshape(len(branches), len(regs)), weights, states)

    @classmethod
    def stacked(cls, classical_registers, quantum_dims, labels, weights, states) -> "CqState":
        self = object.__new__(cls)
        self._fill(tuple(classical_registers), tuple(quantum_dims), labels, weights, states)
        return self

    def _fill(self, regs, qdims, labels, weights, states):
        regs = tuple((str(n), int(s)) for n, s in regs)
        if len({n for n, _ in regs}) != len(regs):
            raise ValidationError("duplicate classical register names")
        if not len(weights):
            raise ValidationError("CqState needs at least one branch")
        if labels.shape != (len(weights), len(regs)):
            raise ValidationError("label tuple length does not match registers")
        if states.shape[1:] != (int(np.prod(qdims)),) * 2:
            raise ValidationError("branch state shape mismatch")
        sizes = [s for _, s in regs]
        outside = ((labels < 0) | (labels >= np.array(sizes, dtype=int))).any(axis=1)
        if outside.any():
            raise ValidationError(f"label {_label(labels[outside][0])} outside register alphabets")
        group, first = _first_seen(labels)
        if len(first) != len(group):
            dup = np.flatnonzero(np.bincount(group) > 1)[0]
            raise ValidationError(f"duplicate branch label {_label(labels[first[dup]])}")
        if not np.all(weights >= -1e-12):  # "not >=" so that a NaN weight fails
            raise ValidationError("negative branch weight")
        total = float(np.cumsum(weights)[-1])
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise ValidationError(f"branch weights sum to {total:.12g}")
        fields = dict(classical_registers=regs, quantum_dims=qdims, labels=labels, weights=weights, states=states)
        vars(self).update(fields)  # the dataclass is frozen: its fields are set once, here

    @property
    def branches(self) -> tuple:
        """(label tuple, weight, DensityMatrix) per branch."""
        return tuple(
            (_label(lab), float(w), DensityMatrix(rho, self.quantum_dims))
            for lab, w, rho in zip(self.labels, self.weights, self.states)
        )

    @property
    def quantum_dim(self) -> int:
        return int(np.prod(self.quantum_dims))

    def register_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.classical_registers):
            if n == name:
                return i
        raise ValidationError(f"unknown classical register {name!r}")


def _label(row) -> tuple[int, ...]:
    return tuple(int(x) for x in row)


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group index of each row of ``keys`` (groups in first-seen order) and each group's first row."""
    ids: dict = {}
    group, first = [], []
    for b, row in enumerate(map(tuple, keys.tolist())):
        if row not in ids:
            ids[row] = len(first)
            first.append(b)
        group.append(ids[row])
    return np.array(group, dtype=int), np.array(first, dtype=int)


def pruned(labels, weights, states):
    """Drop branches below PROB_FLOOR and renormalize, summing the weights in branch order."""
    keep = weights >= PROB_FLOOR
    if not keep.any():
        raise ValidationError("all branches fell below the weight floor")
    kept = weights[keep]
    return labels[keep], kept / np.cumsum(kept)[-1], states[keep]


def _split_keys(state: CqState, keys):
    """Classical register indices (in key order) and sorted quantum indices of a key collection.

    Keys are classical register names (str) or quantum register indices (int).
    """
    classical, quantum = [], []
    for k in keys:
        if isinstance(k, str):
            classical.append(state.register_index(k))
        else:
            k = int(k)
            if not 0 <= k < len(state.quantum_dims):
                raise ValidationError(f"quantum register {k} out of range")
            quantum.append(k)
    if len(set(classical)) != len(classical) or len(set(quantum)) != len(quantum):
        raise ValidationError("repeated register keys")
    return classical, sorted(quantum)


def _grouped_marginals(state: CqState, cls, qnt):
    """Branches grouped by their labels on classical registers ``cls``, in first-seen order.

    Returns each group's label on ``cls``, its weight and, when ``qnt`` is
    not empty, the unnormalized marginal on quantum registers ``qnt`` (else
    None).  Weights and marginals are summed in branch order.
    """
    keys = state.labels[:, cls]
    group, first = _first_seen(keys)
    weights = np.bincount(group, state.weights, minlength=len(first))
    marginals = None
    if qnt:
        reduced = partial_trace(state.states, state.quantum_dims, qnt)
        marginals = np.zeros((len(first),) + reduced.shape[1:], dtype=complex)
        np.add.at(marginals, group, state.weights[:, None, None] * reduced)
    return keys[first], weights, marginals


def cq_entropy(state: CqState, classical=(), quantum=()) -> float:
    """Entropy (bits) of the marginal on the named classical and quantum registers.

    Uses S = H(label marginal) + sum_a p_a S(rho_a) on the block decomposition:
    one batched partial trace, one grouped weighted sum, one stacked eigvalsh.
    """
    if isinstance(classical, str):
        classical = (classical,)
    cls, qnt = _split_keys(state, (*classical, *quantum))
    _, w_g, marginals = _grouped_marginals(state, cls, qnt)
    h = shannon(w_g)
    if not qnt:
        return h
    keep = w_g >= PROB_FLOOR
    terms = w_g[keep] * entropies(marginals[keep] / w_g[keep, None, None])
    return h + float(np.cumsum(np.concatenate([[0.0], terms]))[-1])


def mutual_information(state: CqState, part_a, part_b) -> float:
    """I(A:B) = S(A) + S(B) - S(AB): ``conditional_mutual_information`` with nothing conditioned on."""
    return conditional_mutual_information(state, part_a, part_b, ())


def conditional_mutual_information(state: CqState, part_a, part_b, part_c) -> float:
    """I(A:B|C) = S(AC) + S(BC) - S(ABC) - S(C) over register-key collections.

    Keys are classical register names (str) or quantum register indices (int);
    registers in no part are traced out.  Overlapping parts repeat a key in
    ABC and raise.
    """
    a, b, c = tuple(part_a), tuple(part_b), tuple(part_c)
    s_abc = cq_entropy(state, a + b + c)
    s_ac = cq_entropy(state, a + c)
    s_bc = cq_entropy(state, b + c)
    if not c:
        return s_ac + s_bc - s_abc
    return s_ac + s_bc - s_abc - cq_entropy(state, c)


def marginalize(state: CqState, drop_classical=(), drop_quantum=()) -> CqState:
    """Drop classical registers (merging branches) and/or trace out quantum ones."""
    drop_c, drop_q = _split_keys(state, (*drop_classical, *drop_quantum))
    keep_c = [i for i in range(len(state.classical_registers)) if i not in drop_c]
    keep_q = [i for i in range(len(state.quantum_dims)) if i not in drop_q]
    new_qdims = tuple(state.quantum_dims[i] for i in keep_q)
    labels, w_g, marginals = _grouped_marginals(state, keep_c, keep_q)
    keep = w_g >= PROB_FLOOR
    if new_qdims:
        states = marginals[keep] / w_g[keep, None, None]
        check_states(states)
    else:
        states = np.ones((int(keep.sum()), 1, 1), dtype=complex)
    return CqState.stacked(
        tuple(state.classical_registers[i] for i in keep_c),
        new_qdims or (1,),
        *pruned(labels[keep], w_g[keep], states),
    )
