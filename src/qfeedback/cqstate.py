"""Classical-quantum states over labeled classical and quantum registers.

A CqState is a weighted list of branches, each pairing a tuple of classical
labels with a quantum state, stored as stacks: a (B, C) label array, a (B,)
weight array and a (B, D, D) state array.  The full block-diagonal matrix is
never built; entropies and mutual informations run on the branch
decomposition in two steps.  A plan (``_compile``) holds each classical
grouping and partial trace that a call's requests share; evaluated on the
weights, it sums the weighted blocks and puts every block marginal of one
size through one stacked eigvalsh.  So the optimizer compiles one plan per
walk, and a codeword-law move costs only the weighted sums and the eigvalsh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace
from .quantum import (
    PROB_FLOOR,
    DensityMatrix,
    ValidationError,
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
        _check_weights(weights)
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


def _check_weights(weights) -> None:
    if not np.all(weights >= -1e-12):  # "not >=" so that a NaN weight fails
        raise ValidationError("negative branch weight")
    total = float(np.cumsum(weights)[-1])
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise ValidationError(f"branch weights sum to {total:.12g}")


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


def _pruned(weights) -> tuple[np.ndarray, np.ndarray]:
    """Which branches are at or above PROB_FLOOR, and their weights renormalized, summing them in branch order."""
    keep = weights >= PROB_FLOOR
    if not keep.any():
        raise ValidationError("all branches fell below the weight floor")
    kept = weights[keep]
    return keep, kept / np.cumsum(kept)[-1]


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


def _compile(requests):
    """``cq_entropies`` compiled: a function of each state's branch weights (a dict), which it checks.  The plan
    holds what the weights do not change: the keys, each grouping's (group, first), each partial trace, and per
    marginal size the keys whose block marginals share one eigvalsh."""
    split = [(state, *_split_keys(state, keys)) for state, keys in requests]
    ids = [(state, frozenset(cls), tuple(qnt)) for state, cls, qnt in split]  # groups ignore the key order
    groupings, traces, by_size = {}, {}, {}
    for key, (state, cls, qnt) in dict(zip(ids, split)).items():
        if key[:2] not in groupings:
            groupings[key[:2]] = _first_seen(state.labels[:, cls])
        if qnt and key[::2] not in traces:
            traces[key[::2]] = partial_trace(state.states, state.quantum_dims, qnt)
        if qnt:
            by_size.setdefault(traces[key[::2]].shape[-1], []).append(key)

    def evaluate(weights: dict) -> list[float]:
        for w in weights.values():
            _check_weights(w)
        sums = {}  # per grouping: the group weights, summed in branch order, their entropy, the groups kept
        for (state, cls), (group, first) in groupings.items():
            w_g = np.bincount(group, weights[state], minlength=len(first))
            sums[state, cls] = w_g, shannon(w_g), w_g >= PROB_FLOOR
        values = {key: sums[key[:2]][1] for key in ids}
        for keys in by_size.values():
            stacks = []
            for state, cls, qnt in keys:  # each kept group's marginal: its weighted traces summed in branch order
                w_g, _, keep = sums[state, cls]
                marginals = np.zeros((len(w_g),) + traces[state, qnt].shape[1:], dtype=complex)
                np.add.at(marginals, groupings[state, cls][0], weights[state][:, None, None] * traces[state, qnt])
                stacks.append(marginals[keep] / w_g[keep, None, None])
            ents, start = entropies(np.concatenate(stacks)), 0
            for key, stack in zip(keys, stacks):
                w_g, _, keep = sums[key[:2]]
                terms = w_g[keep] * ents[start : start + len(stack)]
                start += len(stack)
                values[key] += float(np.cumsum(np.concatenate([[0.0], terms]))[-1])
        return [values[key] for key in ids]

    return evaluate


def cq_entropies(requests) -> list[float]:
    """Entropies (bits) of the marginals named by ``(state, register keys)`` requests.

    Each is S = H(label marginal) + sum_a p_a S(rho_a) on the block
    decomposition.  Requests on one state share each classical grouping and
    each partial trace, and a repeated request is evaluated once (``_compile``);
    on the states' weights, the normalized block marginals of one size, over
    all requests, go through one stacked eigvalsh.
    """
    requests = list(requests)
    return _compile(requests)({state: state.weights for state, _ in requests})


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


def _cmi_plan(requests):
    """``conditional_mutual_informations`` compiled: a function of the weights, as ``_compile``'s plan takes them."""
    parts = [(state, tuple(a), tuple(b), tuple(c)) for state, a, b, c in requests]
    wanted = [(state, keys) for state, a, b, c in parts for keys in (a + b + c, a + c, b + c, c)[: 4 if c else 3]]
    plan = _compile(wanted)

    def cmis(weights: dict) -> list[float]:
        values, out = iter(plan(weights)), []
        for *_, c in parts:
            s_abc, s_ac, s_bc = next(values), next(values), next(values)
            out.append(s_ac + s_bc - s_abc - next(values) if c else s_ac + s_bc - s_abc)
        return out

    return cmis


def conditional_mutual_informations(requests) -> list[float]:
    """I(A:B|C) = S(AC) + S(BC) - S(ABC) - S(C) per ``(state, A, B, C)`` request, in one ``cq_entropies`` pass.

    A, B and C are register-key collections: classical register names (str)
    or quantum register indices (int); registers in no part are traced out.
    Overlapping parts repeat a key in ABC and raise.
    """
    requests = list(requests)
    return _cmi_plan(requests)({state: state.weights for state, *_ in requests})
