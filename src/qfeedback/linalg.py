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


def hermitian_defect(m: np.ndarray) -> float:
    """max |M - M^dagger|, elementwise."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


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

    ``keep`` is a set of register indices; kept registers stay in their
    original order.  Keeping every register returns the matrix unchanged,
    keeping none returns a 1x1 matrix holding the trace.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise LinalgError("partial_trace requires a square matrix")
    dims = check_register_shape(dims, m.shape[0])
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise LinalgError(f"keep indices {keep} out of range for {n} registers")
    if len(keep) == n:
        return m.copy()

    t = m.reshape(*dims, *dims)
    # Contract bra/ket axes of traced registers pairwise.
    for j in range(n - 1, -1, -1):
        if j not in keep:
            t = np.trace(t, axis1=j, axis2=j + (t.ndim // 2))
    d_keep = 1
    for k in keep:
        d_keep *= dims[k]
    return t.reshape(d_keep, d_keep)


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
    # Contiguous ascending target block: plain I (x) op (x) I, no permutation.
    if targets == sorted(targets) and (
        not targets or targets == list(range(targets[0], targets[-1] + 1))
    ):
        d_pre = 1
        for i in range(targets[0] if targets else 0):
            d_pre *= dims[i]
        d_post = 1
        for i in range((targets[-1] + 1) if targets else 0, len(dims)):
            d_post *= dims[i]
        return kron(kron(identity(d_pre), op), identity(d_post))
    d_rest = 1
    for r in rest:
        d_rest *= dims[r]
    big = np.kron(op, identity(d_rest))
    # big acts on registers ordered (targets..., rest...); undo that ordering.
    order = targets + rest
    inverse = [0] * len(dims)
    for new_pos, old_pos in enumerate(order):
        inverse[old_pos] = new_pos
    return permute_registers(big, [dims[p] for p in order], inverse)


def left_product(op, x, d_pre: int) -> np.ndarray:
    """(I_pre (x) op (x) I_post) @ x for a square ``op`` on a contiguous register block.

    The block follows leading registers of total dimension ``d_pre``; the
    trailing dimension is what remains of x's rows.  One reshape and one
    ``@`` batched over the d_pre leading blocks; no padded operator is built.
    A conjugation B X B^dagger is two of these: (B (B X)^dagger)^dagger.
    """
    op, x = as_matrix(op), as_matrix(x)
    d = op.shape[1]
    rows, cols = x.shape
    if op.shape[0] != d or rows % (d_pre * d):
        raise LinalgError(f"operator {op.shape} does not fit {rows} rows after d_pre={d_pre}")
    return (op @ x.reshape(d_pre, d, -1)).reshape(rows, cols)


def herm_eig(m: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy's ``eigh``).

    Returns eigenvalues in descending order (ties keep the solver's order, so
    the result is reproducible) and, if ``vectors``, a unitary whose columns
    are the matching eigenvectors.  Inside a degenerate eigenspace the basis
    is whatever the solver returns; ``DensityMatrix.eig`` makes it canonical.

    Raises LinalgError on non-square or non-Hermitian input, NaN included.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if n != m.shape[1]:
        raise LinalgError("herm_eig requires a square matrix")
    scale = float(np.max(np.abs(m))) if n else 0.0
    # Written as "not <=" so that a NaN defect is rejected too.
    if not hermitian_defect(m) <= HERM_TOL * max(1.0, scale):
        raise LinalgError(f"matrix is not Hermitian within {HERM_TOL}")
    a = 0.5 * (m + m.conj().T)
    if not vectors:
        w = np.linalg.eigvalsh(a)
        return w[np.argsort(-w, kind="stable")]
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def herm_eigvals(m: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    return herm_eig(m, vectors=False)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive square root of a PSD matrix.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; anything lower raises.
    """
    w, v = herm_eig(m)
    if w.size and w[-1] < -PSD_TOL:
        raise LinalgError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def pinv_sqrt(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root: lambda^(-1/2) on the support, 0 on the kernel.

    The support cutoff is RANK_TOL relative to the largest eigenvalue.
    """
    w, v = herm_eig(m)
    if w.size == 0 or w[0] <= 0.0:
        return np.zeros_like(as_matrix(m))
    cutoff = RANK_TOL * w[0]
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (v * inv) @ v.conj().T


def support_projector(m: np.ndarray) -> np.ndarray:
    """Projector onto the eigenspace of eigenvalues above the rank cutoff."""
    w, v = herm_eig(m)
    if w.size == 0 or w[0] <= 0.0:
        return np.zeros_like(as_matrix(m))
    mask = (w > RANK_TOL * w[0]).astype(float)
    return (v * mask) @ v.conj().T


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(herm_eigvals(m))))
