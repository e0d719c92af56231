"""Classical-quantum states over labeled classical and quantum registers.

A CqState is a weighted list of branches, each pairing a tuple of classical
labels with a quantum state.  The full block-diagonal matrix is never built
except on demand as a cross-check oracle (``materialize``); entropies and
mutual informations run on the branch decomposition, which is what keeps
protocol states with many classical registers tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace
from .quantum import (
    PROB_FLOOR,
    DensityMatrix,
    ValidationError,
    entropy,
    entropy_of,
    shannon,
)

MATERIALIZE_CAP = 4096
WEIGHT_TOL = 1e-10


@dataclass(frozen=True)
class CqState:
    """Block-diagonal state: sum_a w_a |a><a| (x) rho_a with tuple labels a."""

    classical_registers: tuple[tuple[str, int], ...]
    quantum_dims: tuple[int, ...]
    branches: tuple[tuple[tuple[int, ...], float, DensityMatrix], ...]

    def __post_init__(self):
        regs = tuple((str(n), int(s)) for n, s in self.classical_registers)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate classical register names")
        qdims = tuple(int(d) for d in self.quantum_dims)
        branches = tuple((tuple(int(x) for x in lab), float(w), rho) for lab, w, rho in self.branches)
        if not branches:
            raise ValidationError("CqState needs at least one branch")
        seen = set()
        total = 0.0
        for lab, w, rho in branches:
            if len(lab) != len(regs):
                raise ValidationError("label tuple length does not match registers")
            for x, (_, size) in zip(lab, regs):
                if not 0 <= x < size:
                    raise ValidationError(f"label {lab} outside register alphabets")
            if lab in seen:
                raise ValidationError(f"duplicate branch label {lab}")
            seen.add(lab)
            if not w >= -1e-12:  # "not >=" so that a NaN weight fails
                raise ValidationError("negative branch weight")
            if rho.dims != qdims:
                raise ValidationError("branch state shape mismatch")
            total += w
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise ValidationError(f"branch weights sum to {total:.12g}")
        object.__setattr__(self, "classical_registers", regs)
        object.__setattr__(self, "quantum_dims", qdims)
        object.__setattr__(self, "branches", branches)

    @property
    def quantum_dim(self) -> int:
        d = 1
        for x in self.quantum_dims:
            d *= x
        return d

    def register_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.classical_registers):
            if n == name:
                return i
        raise ValidationError(f"unknown classical register {name!r}")


def prune_branches(branches):
    """Drop branches below PROB_FLOOR and renormalize."""
    kept = [(lab, w, rho) for lab, w, rho in branches if w >= PROB_FLOOR]
    if not kept:
        raise ValidationError("all branches fell below the weight floor")
    total = sum(w for _, w, _ in kept)
    return tuple((lab, w / total, rho) for lab, w, rho in kept)


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


def _grouped_marginals(state: CqState, cls, qnt) -> list:
    """(label, weight, unnormalized quantum marginal) per group of branches sharing classical registers ``cls``.

    Groups keep first-seen order; the marginal on quantum registers ``qnt``
    is None when ``qnt`` is empty or the group weighs less than PROB_FLOOR.
    """
    groups: dict[tuple[int, ...], list] = {}
    for lab, w, rho in state.branches:
        groups.setdefault(tuple(lab[i] for i in cls), []).append((w, rho))
    out = []
    for key, g in groups.items():
        w_g = sum(w for w, _ in g)
        acc = None
        if qnt and w_g >= PROB_FLOOR:
            for w, rho in g:
                red = partial_trace(rho.mat, rho.dims, qnt)
                acc = w * red if acc is None else acc + w * red
        out.append((key, w_g, acc))
    return out


def cq_entropy(state: CqState, classical=(), quantum=()) -> float:
    """Entropy (bits) of the marginal on the named classical and quantum registers.

    Uses S = H(label marginal) + sum_a p_a S(rho_a) on the block decomposition.
    """
    if isinstance(classical, str):
        classical = (classical,)
    cls, qnt = _split_keys(state, (*classical, *quantum))
    groups = _grouped_marginals(state, cls, qnt)
    h = shannon([w_g for _, w_g, _ in groups])
    if not qnt:
        return h
    total_entropy = 0.0
    for _, w_g, acc in groups:
        if acc is not None:
            total_entropy += w_g * entropy_of(acc / w_g)
    return h + total_entropy


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
    out = []
    for key, w_g, acc in _grouped_marginals(state, keep_c, keep_q):
        if w_g < PROB_FLOOR:
            continue
        if new_qdims:
            out.append((key, w_g, DensityMatrix(acc / w_g, new_qdims)))
        else:
            out.append((key, w_g, DensityMatrix(np.array([[1.0 + 0j]]), (1,))))
    return CqState(
        tuple(state.classical_registers[i] for i in keep_c),
        new_qdims or (1,),
        prune_branches(out),
    )


def materialize(state: CqState) -> DensityMatrix:
    """Block-diagonal embedding with classical labels as orthonormal basis states.

    Intended as a small-dimension test oracle; guarded by MATERIALIZE_CAP.
    """
    sizes = [s for _, s in state.classical_registers]
    c_dim = 1
    for s in sizes:
        c_dim *= s
    total = c_dim * state.quantum_dim
    if total > MATERIALIZE_CAP:
        raise ValidationError(f"materialized dimension {total} exceeds cap {MATERIALIZE_CAP}")
    q_dim = state.quantum_dim
    mat = np.zeros((total, total), dtype=complex)
    for lab, w, rho in state.branches:
        offset = 0
        for x, s in zip(lab, sizes):
            offset = offset * s + x
        start = offset * q_dim
        mat[start : start + q_dim, start : start + q_dim] += w * rho.mat
    dims = tuple(sizes) + state.quantum_dims
    return DensityMatrix(mat, dims)


def materialized_entropy(state: CqState, classical=(), quantum=()) -> float:
    """Oracle: entropy via the materialized block-diagonal marginal."""
    cls = [state.register_index(n) for n in classical]
    full = materialize(state)
    n_c = len(state.classical_registers)
    keep = sorted(cls) + [n_c + int(i) for i in quantum]
    return entropy(full.ptrace(keep)) if keep else 0.0
