"""Dense complex matrix kernel for small multi-register Hilbert spaces.

All matrices are plain complex numpy arrays in row-major layout.  Register 0
is always the leftmost tensor factor; a "shape" is the ordered tuple of
per-register dimensions whose product equals the matrix dimension.
"""

from __future__ import annotations

import functools

import numpy as np

# Tolerances used across the package.
HERM_TOL = 1e-10
PSD_TOL = 1e-9
RANK_TOL = 1e-10  # relative to the largest eigenvalue


class LinalgError(Exception):
    """Invalid matrix input: wrong shape, or not Hermitian (NaN included)."""


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise LinalgError(f"expected a 2-d array, got ndim={m.ndim}")
    return m


def check_register_shape(dims, dim: int) -> tuple[int, ...]:
    """Validate a per-register dimension list against a total dimension."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise LinalgError(f"register dimensions must be >= 1, got {dims}")
    prod = 1
    for d in dims:
        prod *= d
    if prod != dim:
        raise LinalgError(f"register shape {dims} does not factor dimension {dim}")
    return dims


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (..., D, D) stack."""
    return m.conj().swapaxes(-1, -2)


def kron(a, b) -> np.ndarray:
    """Tensor product, register order left to right.

    Entry (i*rb+p, j*cb+q) is exactly a[i,j]*b[p,q] (one multiplication).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    ra, ca = a.shape
    rb, cb = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def kron_all(mats) -> np.ndarray:
    return functools.reduce(kron, mats, np.array([[1.0 + 0j]]))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every register not listed in ``keep``.

    ``m`` is a matrix or a (B, D, D) stack, reduced matrix by matrix.
    ``keep`` is a set of register indices; kept registers stay in their
    original order.  Keeping every register returns the matrix unchanged,
    keeping none returns a 1x1 matrix holding the trace.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise LinalgError("partial_trace requires a square matrix")
    dims = check_register_shape(dims, m.shape[-1])
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise LinalgError(f"keep indices {keep} out of range for {n} registers")
    if len(keep) == n:
        return m.copy()

    lead = m.shape[:-2]
    t = m.reshape(*lead, *dims, *dims)
    # Contract bra/ket axes of traced registers pairwise.
    for j in range(n - 1, -1, -1):
        if j not in keep:
            t = np.trace(t, axis1=len(lead) + j, axis2=len(lead) + j + (t.ndim - len(lead)) // 2)
    d_keep = 1
    for k in keep:
        d_keep *= dims[k]
    return t.reshape(*lead, d_keep, d_keep)


def permute_registers(m: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors: new register i is old register perm[i]."""
    m = as_matrix(m)
    dims = check_register_shape(dims, m.shape[0])
    n = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise LinalgError(f"{perm} is not a permutation of {n} registers")
    axes = perm + [p + n for p in perm]
    t = m.reshape(*dims, *dims).transpose(axes)
    return t.reshape(m.shape)


def embed_operator(op: np.ndarray, dims, targets) -> np.ndarray:
    """Pad ``op`` (acting on registers ``targets``, in that order) with identities.

    Realizes expressions of the form I x ... x op x ... x I for an arbitrary,
    possibly non-contiguous, register subset.
    """
    op = as_matrix(op)
    dims = tuple(int(d) for d in dims)
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise LinalgError("duplicate target registers")
    if targets and (min(targets) < 0 or max(targets) >= len(dims)):
        raise LinalgError(f"targets {targets} out of range")
    d_t = 1
    for t in targets:
        d_t *= dims[t]
    if op.shape != (d_t, d_t):
        raise LinalgError(f"operator shape {op.shape} does not match targets {targets}")
    rest = [i for i in range(len(dims)) if i not in targets]
    d_rest = 1
    for r in rest:
        d_rest *= dims[r]
    big = kron(op, identity(d_rest))
    # big acts on registers ordered (targets..., rest...); undo that ordering.
    order = targets + rest
    inverse = [0] * len(dims)
    for new_pos, old_pos in enumerate(order):
        inverse[old_pos] = new_pos
    return permute_registers(big, [dims[p] for p in order], inverse)


def left_product(op, x, d_pre: int) -> np.ndarray:
    """(I_pre (x) op (x) I_post) @ x for a square ``op`` on a contiguous register block.

    The block follows leading registers of total dimension ``d_pre``; the
    trailing dimension is what remains of x's rows.  ``x`` may be a
    (..., rows, cols) stack and ``op`` a (..., d, d) family, their leading
    axes broadcast as numpy broadcasts them.  One reshape and one ``@``
    batched over those axes and the d_pre leading blocks; no padded operator
    is built.  A conjugation B X B^dagger is two of these:
    (B (B X)^dagger)^dagger.
    """
    op, x = np.asarray(op, dtype=complex), np.asarray(x, dtype=complex)
    d = op.shape[-1]
    rows, cols = x.shape[-2:]
    if op.shape[-2] != d or rows % (d_pre * d):
        raise LinalgError(f"operator {op.shape} does not fit {rows} rows after d_pre={d_pre}")
    prod = op[..., None, :, :] @ x.reshape(*x.shape[:-2], d_pre, d, rows // (d_pre * d) * cols)
    return prod.reshape(*prod.shape[:-3], rows, cols)


def herm_eig(m: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy's ``eigh``).

    Returns eigenvalues in descending order (ties keep the solver's order, so
    the result is reproducible) and, if ``vectors``, a unitary whose columns
    are the matching eigenvectors.  Inside a degenerate eigenspace the basis
    is whatever the solver returns; ``DensityMatrix.eig`` makes it canonical.
    ``m`` may also be a (B, D, D) stack, each matrix checked against its own
    scale: one LAPACK call then returns (B, D) spectra (and (B, D, D) vectors).

    Raises LinalgError on non-square or non-Hermitian input, NaN included.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise LinalgError("herm_eig requires a square matrix")
    stack = m.reshape(-1, *m.shape[-2:])
    scale = np.abs(stack).max(axis=(1, 2), initial=0.0)
    # Written as "not <=" so that a NaN defect is rejected too.
    defects = np.abs(stack - dagger(stack)).max(axis=(1, 2), initial=0.0)
    if not np.all(defects <= HERM_TOL * np.maximum(1.0, scale)):
        raise LinalgError(f"matrix is not Hermitian within {HERM_TOL}")
    a = 0.5 * (m + dagger(m))
    if not vectors:
        return np.linalg.eigvalsh(a)[..., ::-1]
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, axis=-1, kind="stable")
    return np.take_along_axis(w, order, -1), np.take_along_axis(v, order[..., None, :], -1)


def herm_eigvals(m: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix or (B, D, D) stack (no eigenvectors)."""
    return herm_eig(m, vectors=False)


def check_psd(w: np.ndarray) -> None:
    """Raise on the first of descending spectra (a (D,) or (B, D) array) with an eigenvalue below -PSD_TOL."""
    if w.min(initial=0.0) < -PSD_TOL:  # one reduction: the spectra descend, so this is a last entry
        low = w[..., -1:].reshape(-1)
        raise LinalgError(f"matrix is not PSD: min eigenvalue {low[np.argmax(low < -PSD_TOL)]:.3e}")


def from_spectrum(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V diag(f) V^dagger for each matrix of a stack, or for one matrix."""
    return (v * f[..., None, :]) @ dagger(v)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive square root of a PSD matrix, or of each matrix of a (B, D, D) stack in one LAPACK call.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; anything lower raises.
    """
    w, v = herm_eig(m)
    check_psd(w)
    return from_spectrum(v, np.sqrt(np.clip(w, 0.0, None)))


def pinv_sqrt(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root: lambda^(-1/2) on the support, 0 on the kernel.

    The support cutoff is RANK_TOL relative to the largest eigenvalue; a
    matrix whose largest eigenvalue is not positive maps to zero.  ``m`` may
    be a (B, D, D) stack, taken in one LAPACK call.
    """
    w, v = herm_eig(m)
    support = w > RANK_TOL * w[..., :1]  # empty when the largest eigenvalue is not positive
    return from_spectrum(v, np.where(support, 1.0 / np.sqrt(np.where(support, w, 1.0)), 0.0))


def trace_norm(m: np.ndarray):
    """Sum of absolute eigenvalues of a Hermitian matrix (a float), or of each matrix of a stack (a (B,) array)."""
    norms = np.sum(np.abs(herm_eigvals(m)), axis=-1)
    return float(norms) if norms.ndim == 0 else norms
