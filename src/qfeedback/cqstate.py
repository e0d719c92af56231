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
    """Separate a register-key collection into classical names and quantum indices."""
    classical, quantum = [], []
    for k in keys:
        if isinstance(k, str):
            state.register_index(k)
            classical.append(k)
        else:
            k = int(k)
            if not 0 <= k < len(state.quantum_dims):
                raise ValidationError(f"quantum register {k} out of range")
            quantum.append(k)
    if len(set(classical)) != len(classical) or len(set(quantum)) != len(quantum):
        raise ValidationError("repeated register keys")
    return tuple(classical), tuple(sorted(quantum))


def cq_entropy(state: CqState, classical=(), quantum=()) -> float:
    """Entropy (bits) of the marginal on the named classical and quantum registers.

    Uses S = H(label marginal) + sum_a p_a S(rho_a) on the block decomposition.
    """
    cls = [state.register_index(n) for n in (classical if not isinstance(classical, str) else [classical])]
    qnt = sorted(int(i) for i in quantum)
    if len(set(cls)) != len(cls) or len(set(qnt)) != len(qnt):
        raise ValidationError("repeated registers in subset")
    for i in qnt:
        if not 0 <= i < len(state.quantum_dims):
            raise ValidationError(f"quantum register {i} out of range")

    groups: dict[tuple[int, ...], list] = {}
    for lab, w, rho in state.branches:
        key = tuple(lab[i] for i in cls)
        groups.setdefault(key, []).append((w, rho))

    if not qnt:
        return shannon(sum(w for w, _ in g) for g in groups.values())

    total_entropy = 0.0
    weights = []
    for g in groups.values():
        w_g = sum(w for w, _ in g)
        weights.append(w_g)
        if w_g < PROB_FLOOR:
            continue
        acc = None
        for w, rho in g:
            red = partial_trace(rho.mat, rho.dims, qnt)
            acc = w * red if acc is None else acc + w * red
        total_entropy += w_g * entropy_of(acc / w_g)
    return shannon(weights) + total_entropy


def mutual_information(state: CqState, part_a, part_b) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) over register-key collections.

    Keys are classical register names (str) or quantum register indices (int).
    Registers not mentioned in either part are traced out implicitly.
    """
    ca, qa = _split_keys(state, part_a)
    cb, qb = _split_keys(state, part_b)
    if set(ca) & set(cb) or set(qa) & set(qb):
        raise ValidationError("parts overlap")
    s_a = cq_entropy(state, ca, qa)
    s_b = cq_entropy(state, cb, qb)
    s_ab = cq_entropy(state, ca + cb, qa + qb)
    return s_a + s_b - s_ab


def conditional_mutual_information(state: CqState, part_a, part_b, part_c) -> float:
    """I(A:B|C) = S(AC) + S(BC) - S(ABC) - S(C)."""
    ca, qa = _split_keys(state, part_a)
    cb, qb = _split_keys(state, part_b)
    cc, qc = _split_keys(state, part_c)
    groups = [(set(ca), set(qa)), (set(cb), set(qb)), (set(cc), set(qc))]
    for i in range(3):
        for j in range(i + 1, 3):
            if groups[i][0] & groups[j][0] or groups[i][1] & groups[j][1]:
                raise ValidationError("parts overlap")
    if not (cc or qc):
        return mutual_information(state, part_a, part_b)
    s_ac = cq_entropy(state, ca + cc, qa + qc)
    s_bc = cq_entropy(state, cb + cc, qb + qc)
    s_abc = cq_entropy(state, ca + cb + cc, qa + qb + qc)
    s_c = cq_entropy(state, cc, qc)
    return s_ac + s_bc - s_abc - s_c


def marginalize(state: CqState, drop_classical=(), drop_quantum=()) -> CqState:
    """Drop classical registers (merging branches) and/or trace out quantum ones."""
    drop_c = {state.register_index(n) for n in drop_classical}
    drop_q = {int(i) for i in drop_quantum}
    for i in drop_q:
        if not 0 <= i < len(state.quantum_dims):
            raise ValidationError(f"quantum register {i} out of range")
    keep_c = [i for i in range(len(state.classical_registers)) if i not in drop_c]
    keep_q = [i for i in range(len(state.quantum_dims)) if i not in drop_q]

    merged: dict[tuple[int, ...], list] = {}
    for lab, w, rho in state.branches:
        key = tuple(lab[i] for i in keep_c)
        merged.setdefault(key, []).append((w, rho))

    new_qdims = tuple(state.quantum_dims[i] for i in keep_q)
    out = []
    for key, group in merged.items():
        w_g = sum(w for w, _ in group)
        if w_g < PROB_FLOOR:
            continue
        acc = None
        for w, rho in group:
            red = partial_trace(rho.mat, rho.dims, keep_q)
            acc = w * red if acc is None else acc + w * red
        if new_qdims:
            out.append((key, w_g, DensityMatrix(acc / w_g, new_qdims)))
        else:
            out.append((key, w_g, DensityMatrix(np.array([[1.0 + 0j]]), (1,))))
    qdims = new_qdims if new_qdims else (1,)
    return CqState(
        tuple(state.classical_registers[i] for i in keep_c),
        qdims,
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
