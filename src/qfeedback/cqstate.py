"""Classical-quantum states over labeled classical and quantum registers.

A CqState is a weighted list of branches, each pairing a tuple of classical
labels with a quantum state, stored as stacks: a (B, C) label array, a (B,)
weight array and a (B, D, D) state array.  The full block-diagonal matrix is
never built; entropies and mutual informations run on the branch
decomposition in one pass per call: the requests of a call share each
classical grouping and partial trace of a state, and every block marginal of
one size goes through one stacked eigvalsh.  That is what keeps protocol
states with many classical registers tractable.
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


def _grouping(state: CqState, cls):
    """Each branch's group by its labels on ``cls`` (first-seen order), each group's first branch and weight."""
    group, first = _first_seen(state.labels[:, cls])
    return group, first, np.bincount(group, state.weights, minlength=len(first))


def _block_sums(state: CqState, group, size: int, reduced) -> np.ndarray:
    """Unnormalized marginal of each of ``size`` groups: the weighted ``reduced`` states summed in branch order."""
    marginals = np.zeros((size,) + reduced.shape[1:], dtype=complex)
    np.add.at(marginals, group, state.weights[:, None, None] * reduced)
    return marginals


def cq_entropies(requests) -> list[float]:
    """Entropies (bits) of the marginals named by ``(state, register keys)`` requests.

    Each is S = H(label marginal) + sum_a p_a S(rho_a) on the block
    decomposition.  Requests on one state share each classical grouping and
    each partial trace, a repeated request is evaluated once, and the
    normalized block marginals of one size, over all requests, go through
    one stacked eigvalsh.
    """
    split = [(state, *_split_keys(state, keys)) for state, keys in requests]
    ids = [(state, frozenset(cls), tuple(qnt)) for state, cls, qnt in split]  # groups ignore the key order
    groupings, traces, values, by_size = {}, {}, {}, {}
    for key, (state, cls, qnt) in dict(zip(ids, split)).items():
        if key[:2] not in groupings:
            group, first, w_g = _grouping(state, cls)
            groupings[key[:2]] = group, first, w_g, shannon(w_g), w_g >= PROB_FLOOR
        group, first, w_g, h, keep = groupings[key[:2]]
        if not qnt:
            values[key] = h
            continue
        if (state, key[2]) not in traces:
            traces[state, key[2]] = partial_trace(state.states, state.quantum_dims, qnt)
        stack = _block_sums(state, group, len(first), traces[state, key[2]])[keep] / w_g[keep, None, None]
        by_size.setdefault(stack.shape[-1], []).append((key, h, w_g[keep], stack))
    for same in by_size.values():
        ents = entropies(np.concatenate([stack for *_, stack in same]))
        start = 0
        for key, h, kept, stack in same:
            terms = kept * ents[start : start + len(stack)]
            start += len(stack)
            values[key] = h + float(np.cumsum(np.concatenate([[0.0], terms]))[-1])
    return [values[key] for key in ids]


def cq_entropy(state: CqState, classical=(), quantum=()) -> float:
    """Entropy (bits) of the marginal on the named classical and quantum registers: one ``cq_entropies`` request."""
    if isinstance(classical, str):
        classical = (classical,)
    return cq_entropies([(state, (*classical, *quantum))])[0]


def mutual_information(state: CqState, part_a, part_b) -> float:
    """I(A:B) = S(A) + S(B) - S(AB): ``conditional_mutual_information`` with nothing conditioned on."""
    return conditional_mutual_information(state, part_a, part_b, ())


def conditional_mutual_information(state: CqState, part_a, part_b, part_c) -> float:
    """I(A:B|C) of one state: one ``conditional_mutual_informations`` request."""
    return conditional_mutual_informations([(state, part_a, part_b, part_c)])[0]


def conditional_mutual_informations(requests) -> list[float]:
    """I(A:B|C) = S(AC) + S(BC) - S(ABC) - S(C) per ``(state, A, B, C)`` request, in one ``cq_entropies`` pass.

    A, B and C are register-key collections: classical register names (str)
    or quantum register indices (int); registers in no part are traced out.
    Overlapping parts repeat a key in ABC and raise.
    """
    parts = [(state, tuple(a), tuple(b), tuple(c)) for state, a, b, c in requests]
    wanted = [(state, keys) for state, a, b, c in parts for keys in (a + b + c, a + c, b + c, c)[: 4 if c else 3]]
    values = iter(cq_entropies(wanted))
    out = []
    for *_, c in parts:
        s_abc, s_ac, s_bc = next(values), next(values), next(values)
        out.append(s_ac + s_bc - s_abc - next(values) if c else s_ac + s_bc - s_abc)
    return out


def marginalize(state: CqState, drop_classical=(), drop_quantum=()) -> CqState:
    """Drop classical registers (merging branches) and/or trace out quantum ones."""
    drop_c, drop_q = _split_keys(state, (*drop_classical, *drop_quantum))
    keep_c = [i for i in range(len(state.classical_registers)) if i not in drop_c]
    keep_q = [i for i in range(len(state.quantum_dims)) if i not in drop_q]
    new_qdims = tuple(state.quantum_dims[i] for i in keep_q)
    group, first, w_g = _grouping(state, keep_c)
    keep = w_g >= PROB_FLOOR
    if new_qdims:
        reduced = partial_trace(state.states, state.quantum_dims, keep_q)
        states = _block_sums(state, group, len(first), reduced)[keep] / w_g[keep, None, None]
        check_states(states)
    else:
        states = np.ones((int(keep.sum()), 1, 1), dtype=complex)
    return CqState.stacked(
        tuple(state.classical_registers[i] for i in keep_c),
        new_qdims or (1,),
        *pruned(state.labels[first][:, keep_c][keep], w_g[keep], states),
    )
