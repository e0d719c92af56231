"""Quantum objects and entropic functionals.

Density matrices, Kraus channels, POVMs, square-root measurements,
ensembles, von Neumann entropy, Holevo quantity and measurement
back-action.  Entropies are in bits throughout so information quantities
compare directly to rates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .linalg import (
    HERM_TOL,
    PSD_TOL,
    as_matrix,
    check_psd,
    check_register_shape,
    dagger,
    from_spectrum,
    herm_eig,
    herm_eigvals,
    identity,
    left_product,
    pinv_sqrt,
)

PROB_FLOOR = 1e-14
TRACE_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
# Bytes of states one stacked step acts on at once.  A D x D state takes
# 16 D^2 bytes: at D = 64 a step takes one state, at D = 8 up to 64.
STACK_BYTES = 2**16

ER = "er"  # distinguished error outcome label


class ValidationError(Exception):
    """A quantum object violates one of its invariants."""


def check_count(x, what: str, least: int) -> None:
    """Raise ``ValidationError`` unless ``x`` is an int >= ``least``; ``what`` names ``x`` in the message."""
    if not (isinstance(x, numbers.Integral) and x >= least):
        raise ValidationError(f"{what} must be an int >= {least}, got {x!r}")


def law_defects(probs, noun: str) -> list[tuple[str, float]]:
    """The one law rule, each defect as (name, magnitude): every entry >= 0 (NaN fails), the total within 1e-12 of 1."""
    defects = [] if (off := abs(sum(probs) - 1.0)) <= 1e-12 else [(f"{noun}probabilities do not sum to 1", off)]
    return defects if all(p >= 0 for p in probs) else [*defects, (f"negative {noun}probability", min(probs))]


def check_law(probs, noun: str) -> None:
    """Raise ``ValidationError`` naming each of ``law_defects(probs, noun)``, whose ``noun`` is "" or a word and a space."""
    if defects := law_defects(probs, noun):
        names = "; ".join(name for name, _ in defects)
        raise ValidationError(f"probabilities {list(probs)} are not a law (not a probability distribution): {names}")


@dataclass(frozen=True)
class DensityMatrix:
    """PSD, trace-one Hermitian matrix on a multi-register Hilbert space."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = as_matrix(self.mat)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", check_register_shape(self.dims, m.shape[0]))
        check_states(m[None])
        object.__setattr__(self, "_eig", None)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached eigendecomposition with a canonical degenerate basis.

        Also enforces positivity.  The eigenvectors of each degenerate
        eigenspace are the canonical basis of ``_canonical_basis``, so what
        is built from individual eigenvectors (typical projectors) depends
        on the state alone, not on the solver's choice inside the eigenspace.
        """
        if self._eig is None:
            w, v = herm_eig(self.mat)
            if w[-1] < -PSD_TOL:
                raise ValidationError(f"density matrix has eigenvalue {w[-1]:.3e}")
            # Eigenvalues within HERM_TOL of their neighbour form one cluster.
            ends = np.flatnonzero(w[:-1] - w[1:] > HERM_TOL) + 1
            for lo, hi in zip([0, *ends], [*ends, len(w)]):
                if hi - lo > 1:
                    v[:, lo:hi] = _canonical_basis(v[:, lo:hi])
            w.setflags(write=False)  # read-only: every holder of this state shares them
            v.setflags(write=False)
            object.__setattr__(self, "_eig", (w, v))
        return self._eig

    def eigvals(self) -> np.ndarray:
        return self.eig()[0]

    def validate(self) -> None:
        self.eig()


def check_states(stack: np.ndarray) -> None:
    """The density-matrix checks on every matrix of a (B, D, D) stack at once.

    Hermitian defect at most HERM_TOL, and the real and imaginary parts of
    the trace within TRACE_TOL of 1 and 0.  Each check is written so that
    NaN entries fail it.
    """
    if not np.abs(stack - dagger(stack)).max(initial=0.0) <= HERM_TOL:
        raise ValidationError("density matrix is not Hermitian")
    tr = stack.trace(axis1=1, axis2=2)
    dev = np.maximum(np.abs(tr.real - 1.0), np.abs(tr.imag))
    if not dev.max(initial=0.0) <= TRACE_TOL:
        raise ValidationError(f"density matrix trace {tr[~(dev <= TRACE_TOL)][0]:.12g} != 1")


def _canonical_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(v) that depends on the span alone.

    Gram-Schmidt of P e_0, P e_1, ... with P = v v^dagger, skipping vectors
    whose residual is below 1e-6: rounding leaves about 1e-15 of an axis
    orthogonal to the span, which must not be picked up.  Works in the
    coordinates of ``v`` (P e_j = v c_j with c_j = v^dagger e_j).
    """
    k = v.shape[1]
    q = np.zeros((k, k), dtype=complex)
    found = 0
    for c in v.conj():
        for _ in range(2):  # the second pass restores orthogonality lost to rounding
            c = c - q[:, :found] @ (q[:, :found].conj().T @ c)
        norm = np.linalg.norm(c)
        if norm > 1e-6:
            q[:, found] = c / norm
            found += 1
            if found == k:
                break
    return v @ q


def density(mat) -> DensityMatrix:
    m = as_matrix(mat)
    return DensityMatrix(m, (m.shape[0],))


def pure_state(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return density(np.outer(v, v.conj()))


def basis_state(dim: int, k: int) -> DensityMatrix:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return pure_state(v)


def bloch_vector(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def bloch_state(theta: float, phi: float) -> DensityMatrix:
    """Pure qubit state at the given Bloch angles."""
    return pure_state(bloch_vector(theta, phi))


@dataclass(frozen=True)
class QuantumChannel:
    """Trace-preserving completely positive map stored as a Kraus family."""

    kraus: tuple[np.ndarray, ...]
    label: str = "channel"

    def __post_init__(self):
        ks = tuple(as_matrix(k) for k in self.kraus)
        if not completeness_defect(ks) <= COMPLETENESS_TOL:
            raise ValidationError(f"channel '{self.label}' is not trace preserving")
        object.__setattr__(self, "kraus", ks)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]


def completeness_defect(mats) -> float:
    """max |sum M^dagger M - I|, elementwise: 1 for an empty family (a zero sum), inf for operators of unequal shapes."""
    mats = tuple(mats)
    if len({m.shape for m in mats}) != 1:
        return math.inf if mats else 1.0
    total = sum(m.conj().T @ m for m in mats)
    return float(np.max(np.abs(total - identity(total.shape[0]))))


def channel_output(phi: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Phi(X) = sum_j E_j X E_j^dagger, d_out x d_out, for a d_in x d_in matrix or a (B, d_in, d_in) stack."""
    if np.shape(x)[-1] != phi.in_dim:
        raise ValidationError(f"channel input dim {phi.in_dim} != state dim {np.shape(x)[-1]}")
    return sum(k @ x @ k.conj().T for k in phi.kraus)


def apply_channel(phi: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Phi(rho) = sum_j E_j rho E_j^dagger, by ``channel_output``."""
    dims = (phi.out_dim,) if phi.out_dim != rho.dim else rho.dims
    return DensityMatrix(channel_output(phi, rho.mat), dims)


def sandwich(ops, x: np.ndarray, d_pre: int) -> np.ndarray:
    """K X K^dagger for each K of a (K, d, d) family, on the register block after d_pre.

    ``x`` is a matrix or a (B, D, D) stack and the result is (K, *x.shape):
    each product is two left products, (K (K X)^dagger)^dagger, batched
    over the family and the stack.
    """
    ops = np.asarray(ops, dtype=complex)
    ops = ops.reshape(len(ops), *(1,) * (np.ndim(x) - 2), *ops.shape[1:])
    return dagger(left_product(ops, dagger(left_product(ops, x, d_pre)), d_pre))


def channel_at(phi: QuantumChannel, stack: np.ndarray, dims, register: int) -> np.ndarray:
    """The channel on one register of a matrix or (B, D, D) stack over ``dims``, identity elsewhere."""
    n = len(dims)
    if not 0 <= register < n:
        raise ValidationError(f"register {register} out of range for {n} registers")
    if dims[register] != phi.in_dim:
        raise ValidationError("channel input dim does not match the register")
    if phi.in_dim != phi.out_dim:
        raise ValidationError("per-register application needs a square channel")
    d_pre = int(np.prod(dims[:register]))
    return sum(sandwich(phi.kraus, stack, d_pre))


def apply_channel_at(phi: QuantumChannel, rho: DensityMatrix, register: int) -> DensityMatrix:
    """Apply the channel on one tensor factor, identity elsewhere."""
    return DensityMatrix(channel_at(phi, rho.mat, rho.dims, register), rho.dims)


def kraus_at(maps, stack: np.ndarray, dims, registers) -> np.ndarray:
    """A complete Kraus family on a contiguous ascending register block of a matrix or (B, D, D) stack over ``dims``."""
    mats = [as_matrix(m) for m in maps]
    if not completeness_defect(mats) <= COMPLETENESS_TOL:
        raise ValidationError("Kraus family is not complete")
    dim = mats[0].shape[0]
    regs = list(range(len(dims)) if registers is None else registers)
    if not regs or regs != list(range(regs[0], regs[-1] + 1)) or (
        dim != np.prod(dims[regs[0] : regs[-1] + 1])
    ):
        raise ValidationError(f"Kraus family of dimension {dim} does not fit registers {regs}")
    return sum(sandwich(mats, stack, int(np.prod(dims[: regs[0]]))))


def apply_kraus(maps, rho: DensityMatrix, registers=None) -> DensityMatrix:
    """Apply a trace-preserving Kraus family, optionally on a contiguous ascending register block."""
    return DensityMatrix(kraus_at(maps, rho.mat, rho.dims, registers), rho.dims)


def _spectral_entropies(w: np.ndarray) -> np.ndarray:
    """``shannon`` of each row of a (B, D) array of descending spectra.

    The entries above 1e-15 are a prefix of each row, and a row with k of
    them is summed as ``np.sum`` sums the 1-D array of those k entries, so
    each entropy equals ``shannon`` of its row to the last bit.
    """
    kept = w > 1e-15
    counts = kept.sum(axis=1)
    terms = w * np.log2(np.where(kept, w, 1.0))
    out = np.zeros(len(w))
    for k in set(counts.tolist()) - {0}:
        rows = counts == k
        out[rows] = -terms[rows, :k].sum(axis=1)
    return out


def shannon(probs) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention."""
    p = np.asarray(list(probs), dtype=float)
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p))) if p.size else 0.0


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy in bits: the Shannon entropy of the spectrum."""
    return shannon(rho.eigvals())


def entropies(stack: np.ndarray) -> np.ndarray:
    """Entropies of a non-empty (B, D, D) stack of PSD unit-trace matrices, from one eigvalsh (``check_psd``-checked)."""
    w = herm_eigvals(stack)
    check_psd(w)
    return _spectral_entropies(w)


def entropy_of(mat: np.ndarray) -> float:
    """Entropy of a raw PSD matrix of unit trace: ``entropies`` of it alone, so negative spectrum raises."""
    return float(entropies(np.asarray(mat)[None])[0])


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of density matrices on a common space."""

    items: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self):
        items = tuple((float(p), rho) for p, rho in self.items)
        if not items:
            raise ValidationError("empty ensemble")
        check_law([p for p, _ in items], "ensemble ")
        dims = items[0][1].dims
        if any(rho.dims != dims for _, rho in items):
            raise ValidationError("ensemble states have mixed shapes")
        object.__setattr__(self, "items", items)


def holevo_chi(e: Ensemble) -> float:
    """S(sum p_i rho_i) - sum p_i S(rho_i), in bits."""
    weights = np.array([[p for p, _ in e.items]])
    states = np.array([rho.mat for _, rho in e.items])
    return float(holevo_chis(weights, np.arange(len(states))[None], states)[0])


def holevo_chis(weights: np.ndarray, index: np.ndarray, states: np.ndarray) -> np.ndarray:
    """chi of K ensembles at once: ensemble k weighs ``states[index[k, i]]`` by ``weights[k, i]``.

    ``weights`` and ``index`` are (K, L) and ``states`` is (M, D, D).  The K
    averages and the M states get the density-matrix checks and one
    eigvalsh together; an eigenvalue below -PSD_TOL raises.  Zero weights
    add nothing.
    """
    avgs = 0
    for i in range(weights.shape[1]):
        avgs = avgs + weights[:, i, None, None] * states[index[:, i]]
    stack = np.concatenate([avgs, states])
    check_states(stack)
    spectra = herm_eigvals(stack)
    low = spectra[:, -1].min()
    if low < -PSD_TOL:
        raise ValidationError(f"density matrix has eigenvalue {low:.3e}")
    ent = _spectral_entropies(spectra)
    own = 0
    for i in range(weights.shape[1]):
        own = own + np.where(weights[:, i] > 0.0, weights[:, i] * ent[len(avgs) + index[:, i]], 0.0)
    return ent[: len(avgs)] - own


@dataclass(frozen=True)
class Povm:
    """Outcome-labeled measurement in measurement-operator form.

    Elements are operators F_k with outcome probability tr(F rho F^dagger)
    and post-state F rho F^dagger / p; completeness sum F^dagger F = I.
    ``feedback`` maps an outcome to the Kraus family applied after the next
    channel use: for M_j of a feedback code, on registers j+1..n-1
    (0-indexed).  ``validate_code`` reports the families, and the walk
    checks each one where it applies it.
    """

    elements: tuple[tuple[Hashable, np.ndarray], ...]
    feedback: dict = field(default_factory=dict)

    def __post_init__(self):
        fb = {label: tuple(as_matrix(k) for k in ops) for label, ops in self.feedback.items()}
        object.__setattr__(self, "feedback", fb)
        els = tuple((label, as_matrix(m)) for label, m in self.elements)
        labels = [label for label, _ in els]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate POVM outcome labels")
        object.__setattr__(self, "elements", els)
        if not self.completeness_defect() <= COMPLETENESS_TOL or self.dim != els[0][1].shape[1]:
            raise ValidationError("POVM is not complete")

    @property
    def dim(self) -> int:
        return self.elements[0][1].shape[0]

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return tuple(label for label, _ in self.elements)

    def completeness_defect(self) -> float:
        return completeness_defect(m for _, m in self.elements)


def square_root_measurement(gammas: dict) -> Povm:
    """Pretty-good measurement: sqrt(R_r) per label of ``gammas``, in its order, then (ER, sqrt(I - sum R)).

    R_r = T^(-1/2) Gamma_r T^(-1/2) with T = sum Gamma.  The inverse square
    root lives on the support of T, so the effects sum to the support
    projector (never above the identity) and the remainder I - sum R is the
    error outcome's effect.  The effects and the remainder are rooted in one
    stacked eigh, whose remainder spectrum also gives the bounds of sum R
    (1 minus it) for the 0 <= sum R <= I check: eigenvalues at or below
    COMPLETENESS_TOL count as zero, and one below -PSD_TOL raises.  They lie
    inside the tolerance the measurement is checked to; here they are
    rounding noise, and their roots (~1e-8) would make the operators depend
    on the last bits of the effects.
    """
    if not gammas:
        raise ValidationError("no Gamma operators supplied")
    stack = np.array([np.asarray(g, dtype=complex) for g in gammas.values()])
    t_inv = pinv_sqrt(stack.sum(axis=0))
    r = t_inv @ stack @ t_inv
    effects = 0.5 * (r + dagger(r))
    total = effects.sum(axis=0)
    w, v = herm_eig(np.concatenate([effects, [identity(total.shape[0]) - total]]))
    bounds = 1.0 - w[-1]
    if bounds[-1] > 1.0 + COMPLETENESS_TOL or bounds[0] < -COMPLETENESS_TOL:
        raise ValidationError("effects violate 0 <= sum R <= I")
    check_psd(w)
    roots = from_spectrum(v, np.sqrt(np.where(w > COMPLETENESS_TOL, w, 0.0)))
    return Povm(tuple(zip([*gammas, ER], roots)))


def rotated_qubit_povm(theta: float, phi: float) -> Povm:
    """Two-outcome projective qubit measurement along a rotated axis."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    u = np.array([[c, -np.exp(-1j * phi) * s], [np.exp(1j * phi) * s, c]])
    els = tuple((k, np.outer(u[:, k], u[:, k].conj())) for k in range(2))
    return Povm(els)


def euler_unitary(a: float, b: float, c: float) -> np.ndarray:
    """Qubit rotation Rz(a) Ry(b) Rz(c)."""
    rz = lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]], dtype=complex)
    return rz(a) @ ry @ rz(c)


def leading_block_rest(dim: int, dims, registers: int | None = None) -> int:
    """Dimension of the registers after a leading block of dimension ``dim``.

    Raises unless ``dim`` is the product of the first i >= 1 registers of
    ``dims`` (with i <= ``registers``, if given).
    """
    prefix = 1
    for d in dims[:registers]:
        prefix *= d
        if prefix == dim:
            return math.prod(dims) // dim
    raise ValidationError(f"dimension {dim} does not match the leading registers of {tuple(dims)}")


def _kept(p: np.ndarray, prob: np.ndarray, labels) -> tuple:
    """(row, element, label) of every outcome whose probability ``p`` and path probability ``prob`` pass PROB_FLOOR.

    ``p`` is (branches, elements); a branch whose outcomes all fall below
    the floor raises.  A NaN probability is kept, so the post-state check
    rejects it.
    """
    low = p < PROB_FLOOR
    if low.all(axis=1).any():
        raise ValidationError("all measurement outcomes fell below PROB_FLOOR")
    r, e = np.nonzero(~(low | (prob < PROB_FLOOR)))
    return r, e, [labels[k] for k in e]


def measure(povm: Povm, rho: DensityMatrix) -> dict:
    """All measurement branches: outcome -> (probability, post-state).

    The POVM acts on the leading registers of ``rho`` whose dimensions
    multiply to ``povm.dim``, identity on the rest.  Outcomes are kept by
    ``_kept``, the walk's floor rule.
    """
    leading_block_rest(povm.dim, rho.dims)
    posts = sandwich([f for _, f in povm.elements], rho.mat, 1)
    p = np.trace(posts, axis1=1, axis2=2).real
    _, e, labels = _kept(p[None], p[None], povm.labels)
    with np.errstate(invalid="ignore"):  # dividing by a NaN p: the DensityMatrix check rejects its post-state
        return {lab: (float(p[k]), DensityMatrix(posts[k] / p[k], rho.dims)) for k, lab in zip(e, labels)}


def outcome_probabilities(povm: Povm, stack: np.ndarray, dims) -> np.ndarray:
    """(B, K) outcome probabilities of ``povm`` on each state of a (B, D, D) stack over ``dims``.

    p_F = Re sum (F rho_A) o conj(F), rho_A the state of the measured leading
    registers, batched over elements and states; a NaN probability raises.
    """
    d, rest = povm.dim, leading_block_rest(povm.dim, dims)
    rho_a = stack.reshape(-1, d, rest, d, rest).trace(axis1=2, axis2=4)
    f = np.array([f for _, f in povm.elements])
    p = np.sum((f[:, None] @ rho_a) * f.conj()[:, None], axis=(2, 3)).real.T
    if np.isnan(p).any():
        b, k = np.argwhere(np.isnan(p))[0]
        raise ValidationError(f"outcome {povm.labels[k]!r} has probability {p[b, k]}")
    return p


# ----------------------------------------------------------------------------
# Built-in channel library.


def identity_channel(dim: int = 2) -> QuantumChannel:
    return QuantumChannel((identity(dim),), "identity")


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def depolarizing_channel(p: float) -> QuantumChannel:
    """Qubit depolarizing noise; p = 1 is the fully depolarizing channel."""
    if not 0.0 <= p <= 4.0 / 3.0:
        raise ValidationError(f"depolarizing parameter {p} out of range")
    ks = (
        np.sqrt(1.0 - 3.0 * p / 4.0) * _PAULI["I"],
        np.sqrt(p / 4.0) * _PAULI["X"],
        np.sqrt(p / 4.0) * _PAULI["Y"],
        np.sqrt(p / 4.0) * _PAULI["Z"],
    )
    return QuantumChannel(ks, f"depolarizing({p})")


def fully_depolarizing_channel() -> QuantumChannel:
    return depolarizing_channel(1.0)


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"damping parameter {gamma} out of range")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel((k0, k1), f"amplitude_damping({gamma})")


def dephasing_channel(p: float) -> QuantumChannel:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"dephasing parameter {p} out of range")
    ks = (np.sqrt(1.0 - p) * _PAULI["I"], np.sqrt(p) * _PAULI["Z"])
    return QuantumChannel(ks, f"dephasing({p})")


# ----------------------------------------------------------------------------
# Seeded random generators (used by tests and the lemma-check harness).


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density_matrix(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return density(rho / np.trace(rho).real)


def random_pure_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return pure_state(v)
