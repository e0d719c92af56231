"""Quantum objects and entropic functionals.

Density matrices, Kraus channels, POVMs and sub-POVMs, square-root
measurements, ensembles, von Neumann entropy, Holevo quantity and
measurement back-action.  Entropies are in bits throughout so information
quantities compare directly to rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from . import linalg
from .linalg import (
    HERM_TOL,
    PSD_TOL,
    as_matrix,
    check_register_shape,
    herm_eig,
    herm_eigvals,
    identity,
    left_product,
    partial_trace,
    pinv_sqrt,
)

PROB_FLOOR = 1e-14
TRACE_TOL = 1e-10
COMPLETENESS_TOL = 1e-9

ER = "er"  # distinguished error outcome label


class ValidationError(Exception):
    """A quantum object violates one of its invariants."""


@dataclass(frozen=True)
class DensityMatrix:
    """PSD, trace-one Hermitian matrix on a multi-register Hilbert space."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = as_matrix(self.mat)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", check_register_shape(self.dims, m.shape[0]))
        # Each check is written "not <=" so that NaN entries fail it.
        if not linalg.hermitian_defect(m) <= HERM_TOL:
            raise ValidationError("density matrix is not Hermitian")
        if not (abs(np.trace(m).real - 1.0) <= TRACE_TOL and abs(np.trace(m).imag) <= TRACE_TOL):
            raise ValidationError(f"density matrix trace {np.trace(m):.12g} != 1")
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
            object.__setattr__(self, "_eig", (w, v))
        return self._eig

    def eigvals(self) -> np.ndarray:
        return self.eig()[0]

    def validate(self) -> None:
        self.eig()

    def ptrace(self, keep) -> "DensityMatrix":
        keep = sorted(set(keep))
        out = partial_trace(self.mat, self.dims, keep)
        return DensityMatrix(out, tuple(self.dims[k] for k in keep))


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


def density(mat, dims=None) -> DensityMatrix:
    m = as_matrix(mat)
    if dims is None:
        dims = (m.shape[0],)
    return DensityMatrix(m, tuple(dims))


def pure_state(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return density(np.outer(v, v.conj()))


def basis_state(dim: int, k: int) -> DensityMatrix:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return pure_state(v)


def bloch_state(theta: float, phi: float) -> DensityMatrix:
    """Pure qubit state at the given Bloch angles."""
    v = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    return pure_state(v)


@dataclass(frozen=True)
class QuantumChannel:
    """Trace-preserving completely positive map stored as a Kraus family."""

    kraus: tuple[np.ndarray, ...]
    label: str = "channel"

    def __post_init__(self):
        ks = tuple(as_matrix(k) for k in self.kraus)
        if not ks:
            raise ValidationError("channel needs at least one Kraus operator")
        rows, cols = ks[0].shape
        if any(k.shape != (rows, cols) for k in ks):
            raise ValidationError("Kraus operators have mixed shapes")
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
    """max |sum M^dagger M - I|, elementwise, for a family of operators of one shape."""
    total = sum(m.conj().T @ m for m in mats)
    return float(np.max(np.abs(total - identity(total.shape[0]))))


def apply_channel(phi: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Phi(rho) = sum_j E_j rho E_j^dagger."""
    if rho.dim != phi.in_dim:
        raise ValidationError(f"channel input dim {phi.in_dim} != state dim {rho.dim}")
    out = sum(k @ rho.mat @ k.conj().T for k in phi.kraus)
    dims = (phi.out_dim,) if phi.out_dim != rho.dim else rho.dims
    return DensityMatrix(out, dims)


def _sandwich(k: np.ndarray, x: np.ndarray, d_pre: int) -> np.ndarray:
    """K X K^dagger for K on the register block after d_pre, as two left products."""
    return left_product(k, left_product(k, x, d_pre).conj().T, d_pre).conj().T


def apply_channel_at(phi: QuantumChannel, rho: DensityMatrix, register: int) -> DensityMatrix:
    """Apply the channel on one tensor factor, identity elsewhere."""
    n = len(rho.dims)
    if not 0 <= register < n:
        raise ValidationError(f"register {register} out of range for {n} registers")
    if rho.dims[register] != phi.in_dim:
        raise ValidationError("channel input dim does not match the register")
    if phi.in_dim != phi.out_dim:
        raise ValidationError("per-register application needs a square channel")
    d_pre = int(np.prod(rho.dims[:register]))
    return DensityMatrix(sum(_sandwich(k, rho.mat, d_pre) for k in phi.kraus), rho.dims)


def apply_kraus(maps, rho: DensityMatrix, registers=None) -> DensityMatrix:
    """Apply a trace-preserving Kraus family, optionally on a contiguous ascending register block."""
    mats = [as_matrix(m) for m in maps]
    dim = mats[0].shape[0]
    if not completeness_defect(mats) <= COMPLETENESS_TOL:
        raise ValidationError("Kraus family is not complete")
    regs = list(range(len(rho.dims)) if registers is None else registers)
    if not regs or regs != list(range(regs[0], regs[-1] + 1)) or (
        dim != np.prod(rho.dims[regs[0] : regs[-1] + 1])
    ):
        raise ValidationError(f"Kraus family of dimension {dim} does not fit registers {regs}")
    d_pre = int(np.prod(rho.dims[: regs[0]]))
    return DensityMatrix(sum(_sandwich(m, rho.mat, d_pre) for m in mats), rho.dims)


def shannon(probs) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention."""
    p = np.asarray(list(probs), dtype=float)
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p))) if p.size else 0.0


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy in bits: the Shannon entropy of the spectrum."""
    return shannon(rho.eigvals())


def entropy_of(mat: np.ndarray) -> float:
    """Entropy of a raw PSD matrix of unit trace."""
    return shannon(herm_eigvals(mat))


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of density matrices on a common space."""

    items: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self):
        items = tuple((float(p), rho) for p, rho in self.items)
        if not items:
            raise ValidationError("empty ensemble")
        if not all(p >= -1e-12 for p, _ in items):
            raise ValidationError("negative ensemble probability")
        if not abs(sum(p for p, _ in items) - 1.0) <= 1e-12:
            raise ValidationError("ensemble probabilities do not sum to 1")
        dims = items[0][1].dims
        if any(rho.dims != dims for _, rho in items):
            raise ValidationError("ensemble states have mixed shapes")
        object.__setattr__(self, "items", items)

    def average(self) -> DensityMatrix:
        mat = sum(p * rho.mat for p, rho in self.items)
        return DensityMatrix(mat, self.items[0][1].dims)


def holevo_chi(e: Ensemble) -> float:
    """S(sum p_i rho_i) - sum p_i S(rho_i), in bits."""
    avg = entropy(e.average())
    return avg - sum(p * entropy(rho) for p, rho in e.items if p > 0.0)


@dataclass(frozen=True)
class Povm:
    """Outcome-labeled measurement in measurement-operator form.

    Elements are operators F_k with outcome probability tr(F rho F^dagger)
    and post-state F rho F^dagger / p; completeness sum F^dagger F = I.
    """

    elements: tuple[tuple[Hashable, np.ndarray], ...]

    def __post_init__(self):
        els = tuple((label, as_matrix(m)) for label, m in self.elements)
        if not els:
            raise ValidationError("POVM needs at least one element")
        labels = [label for label, _ in els]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate POVM outcome labels")
        dim = els[0][1].shape[0]
        if any(m.shape != (dim, dim) for _, m in els):
            raise ValidationError("POVM elements have mixed shapes")
        object.__setattr__(self, "elements", els)
        if not self.completeness_defect() <= COMPLETENESS_TOL:
            raise ValidationError("POVM is not complete")

    @property
    def dim(self) -> int:
        return self.elements[0][1].shape[0]

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return tuple(label for label, _ in self.elements)

    def completeness_defect(self) -> float:
        return completeness_defect(m for _, m in self.elements)


@dataclass(frozen=True)
class SubPovm:
    """PSD effects summing to at most the identity, with an explicit remainder."""

    elements: tuple
    remainder: np.ndarray = field(init=False)

    def __post_init__(self):
        els = tuple((lab, np.asarray(m, dtype=complex)) for lab, m in self.elements)
        if not els:
            raise ValidationError("sub-POVM needs at least one element")
        dim = els[0][1].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for _, m in els:
            total += m
        w = herm_eigvals(0.5 * (total + total.conj().T))
        if w[0] > 1.0 + COMPLETENESS_TOL or w[-1] < -COMPLETENESS_TOL:
            raise ValidationError("effects violate 0 <= sum R <= I")
        rem = identity(dim) - total
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "remainder", 0.5 * (rem + rem.conj().T))

    @property
    def dim(self) -> int:
        return self.elements[0][1].shape[0]

    def roots(self) -> tuple:
        """Measurement operators: (label, sqrt R) per effect, then (ER, sqrt remainder).

        Eigenvalues of an effect or of the remainder at or below
        COMPLETENESS_TOL count as zero, and one below -PSD_TOL raises.  They
        lie inside the tolerance the measurement is checked to; for a
        square-root measurement they are rounding noise, and their roots
        (~1e-8) would make the operators depend on the last bits of the
        effects.
        """
        out = []
        for lab, m in self.elements + ((ER, self.remainder),):
            w, v = herm_eig(m)
            if w[-1] < -PSD_TOL:
                raise linalg.LinalgError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
            w = np.sqrt(np.where(w > COMPLETENESS_TOL, w, 0.0))
            out.append((lab, (v * w) @ v.conj().T))
        return tuple(out)

    def as_complete_povm(self) -> Povm:
        """The complete measurement of ``roots()``; the remainder routes to 'er'."""
        return Povm(self.roots())


def square_root_measurement(gammas: dict) -> SubPovm:
    """Pretty-good measurement: R_r = T^(-1/2) Gamma_r T^(-1/2), T = sum Gamma.

    Elements keep the label order of ``gammas``.  The inverse square root
    lives on the support of T, so the elements sum to the support projector
    (never above the identity).
    """
    if not gammas:
        raise ValidationError("no Gamma operators supplied")
    total = None
    for g in gammas.values():
        g = np.asarray(g, dtype=complex)
        total = g.copy() if total is None else total + g
    w = pinv_sqrt(total)
    els = []
    for lab, g in gammas.items():
        r = w @ np.asarray(g, dtype=complex) @ w
        els.append((lab, 0.5 * (r + r.conj().T)))
    return SubPovm(tuple(els))


def basis_povm(dim: int) -> Povm:
    els = tuple((k, np.diag(np.eye(dim)[k]).astype(complex)) for k in range(dim))
    return Povm(els)


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

    Raises unless ``dim`` is the product of the leading registers of ``dims``
    (of exactly ``registers`` of them, if given).
    """
    prefix = np.cumprod(dims)
    if dim not in (prefix if registers is None else prefix[registers - 1 : registers]):
        raise ValidationError(f"dimension {dim} does not match the leading registers of {tuple(dims)}")
    return int(prefix[-1]) // dim


def measure(povm: Povm, rho: DensityMatrix) -> dict:
    """All measurement branches: outcome -> (probability, post-state).

    The POVM acts on the leading registers of ``rho`` whose dimensions
    multiply to ``povm.dim``, identity on the rest.  Outcomes with
    probability below PROB_FLOOR are omitted; raises if every outcome falls
    below the floor.
    """
    leading_block_rest(povm.dim, rho.dims)
    out = {}
    for label, f in povm.elements:
        post = _sandwich(f, rho.mat, 1)
        p = float(np.trace(post).real)
        if p < PROB_FLOOR:
            continue
        out[label] = (p, DensityMatrix(post / p, rho.dims))
    if not out:
        raise ValidationError("all measurement outcomes fell below PROB_FLOOR")
    return out


def measure_probabilities(povm: Povm, rho: DensityMatrix) -> dict:
    """Outcome probabilities of ``measure`` without its post-states; a NaN one raises.

    p_F = Re sum (F rho_A) o conj(F), rho_A the state of the measured leading registers.
    """
    d, rest = povm.dim, leading_block_rest(povm.dim, rho.dims)
    rho_a = rho.mat.reshape(d, rest, d, rest).trace(axis1=1, axis2=3)
    probs = {}
    for label, f in povm.elements:
        p = float(np.sum((f @ rho_a) * f.conj()).real)
        if not p >= PROB_FLOOR:
            if p < PROB_FLOOR:
                continue
            raise ValidationError(f"outcome {label!r} has probability {p}")
        probs[label] = p
    if not probs:
        raise ValidationError("all measurement outcomes fell below PROB_FLOOR")
    return probs


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


def _random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Orthonormalized Gaussian columns: V^dagger V = I_cols."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_channel(rng: np.random.Generator, dim: int, num_kraus: int = 2) -> QuantumChannel:
    """Haar-like random channel: isometry split into Kraus blocks."""
    v = _random_isometry(rng, dim * num_kraus, dim)
    ks = tuple(v[j * dim : (j + 1) * dim, :] for j in range(num_kraus))
    return QuantumChannel(ks, "random")


def random_povm(rng: np.random.Generator, dim: int, outcomes: int = 2) -> Povm:
    """Random complete POVM in measurement-operator form."""
    v = _random_isometry(rng, dim * outcomes, dim)
    els = tuple((k, v[k * dim : (k + 1) * dim, :]) for k in range(outcomes))
    return Povm(els)
