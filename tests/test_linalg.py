import numpy as np
import pytest

from qfeedback import linalg
from qfeedback.linalg import (
    LinalgError,
    embed_operator,
    herm_eig,
    herm_eigvals,
    identity,
    kron,
    kron_all,
    partial_trace,
    permute_registers,
    pinv_sqrt,
    psd_sqrt,
    support_projector,
    trace_norm,
)


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def rand_hermitian(rng, n):
    a = rand_complex(rng, n)
    return 0.5 * (a + a.conj().T)


def rand_density(rng, n):
    g = rand_complex(rng, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_kron_identities():
    i2 = identity(2)
    assert np.array_equal(kron(i2, i2), identity(4))
    assert np.array_equal(
        kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.diag([0.0, 1.0, 0.0, 0.0])
    )


def test_kron_matches_index_formula():
    rng = np.random.default_rng(7)
    a = rand_complex(rng, 2)
    b = rand_complex(rng, 2)
    k = kron(a, b)
    # Vectorized complex multiply may use FMA; allow a couple of ulps.
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert abs(k[2 * i + p, 2 * j + q] - a[i, j] * b[p, q]) < 1e-15


def test_kron_associativity():
    rng = np.random.default_rng(8)
    # Exact equality on exactly-representable entries (products incur no rounding).
    pool = np.array([0.0, 1.0, -1.0, 0.5, -0.25, 1j, -0.5j], dtype=complex)
    a, b, c = (rng.choice(pool, size=(d, d)) for d in (2, 3, 2))
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    assert np.array_equal(kron_all([a, b, c]), kron(kron(a, b), c))
    # Random floats agree to the last ulp or two.
    a, b, c = (rand_complex(rng, d) for d in (2, 3, 2))
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), rtol=0, atol=1e-13)


def test_partial_trace_product_state():
    rng = np.random.default_rng(9)
    rho_a = rand_density(rng, 2)
    rho_b = rand_density(rng, 3)
    joint = kron(rho_a, rho_b)
    assert np.allclose(partial_trace(joint, (2, 3), keep=[0]), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), keep=[1]), rho_b, atol=1e-12)


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    for keep in ([0], [1]):
        assert np.allclose(partial_trace(rho, (2, 2), keep), identity(2) / 2, atol=1e-12)


def _ptrace_sum_oracle(m, dims, keep):
    # Explicit summation over the discarded multi-indices.
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(idx):
        f = 0
        for d, i in zip(dims, idx):
            f = f * d + i
        return f

    keep_ranges = [range(dims[k]) for k in keep]
    traced_ranges = [range(dims[t]) for t in traced]
    import itertools

    for row_k in itertools.product(*keep_ranges):
        for col_k in itertools.product(*keep_ranges):
            acc = 0.0 + 0j
            for tr in itertools.product(*traced_ranges):
                row = [0] * n
                col = [0] * n
                for pos, k in zip(row_k, keep):
                    row[k] = pos
                for pos, k in zip(col_k, keep):
                    col[k] = pos
                for pos, t in zip(tr, traced):
                    row[t] = pos
                    col[t] = pos
                acc += m[flat(row), flat(col)]
            r = 0
            for d, i in zip([dims[k] for k in keep], row_k):
                r = r * d + i
            c = 0
            for d, i in zip([dims[k] for k in keep], col_k):
                c = c * d + i
            out[r, c] = acc
    return out


def test_partial_trace_matches_sum_oracle():
    rng = np.random.default_rng(10)
    dims = (2, 3, 2)
    rho = rand_density(rng, 12)
    for keep in ([0], [1], [2], [0, 2], [1, 2]):
        got = partial_trace(rho, dims, keep)
        want = _ptrace_sum_oracle(rho, dims, keep)
        assert np.allclose(got, want, atol=1e-12)
        assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_keep_all_and_none():
    rng = np.random.default_rng(11)
    rho = rand_density(rng, 4)
    assert np.allclose(partial_trace(rho, (2, 2), [0, 1]), rho)
    tr = partial_trace(rho, (2, 2), [])
    assert tr.shape == (1, 1)
    assert abs(tr[0, 0] - np.trace(rho)) < 1e-14


def test_partial_trace_shape_mismatch():
    with pytest.raises(LinalgError):
        partial_trace(identity(4), (2, 3), [0])


def test_permute_registers_roundtrip():
    rng = np.random.default_rng(12)
    dims = (2, 3, 2)
    m = rand_complex(rng, 12)
    perm = [2, 0, 1]
    p = permute_registers(m, dims, perm)
    inverse = [perm.index(i) for i in range(3)]
    back = permute_registers(p, [dims[i] for i in perm], inverse)
    assert np.allclose(back, m)


def test_permute_registers_swap_matches_kron():
    rng = np.random.default_rng(13)
    a = rand_complex(rng, 2)
    b = rand_complex(rng, 3)
    assert np.allclose(permute_registers(kron(a, b), (2, 3), [1, 0]), kron(b, a))


def test_embed_operator_middle_register():
    rng = np.random.default_rng(14)
    op = rand_complex(rng, 2)
    got = embed_operator(op, (2, 2, 2), [1])
    want = kron_all([identity(2), op, identity(2)])
    assert np.allclose(got, want, atol=1e-13)


def test_embed_operator_noncontiguous():
    rng = np.random.default_rng(15)
    op = rand_complex(rng, 4)
    got = embed_operator(op, (2, 3, 2), [0, 2])
    # Oracle: permute (0,2,1) so the targets are adjacent, kron, permute back.
    big = kron(op, identity(3))
    want = permute_registers(big, (2, 2, 3), [0, 2, 1])
    assert np.allclose(got, want, atol=1e-13)
    # Acting on a product state touches only the target registers.
    rho = kron_all([rand_density(rng, 2), rand_density(rng, 3), rand_density(rng, 2)])
    out = got @ rho @ got.conj().T
    mid = partial_trace(out, (2, 3, 2), [1])
    mid_in = partial_trace(rho, (2, 3, 2), [1])
    assert np.allclose(mid / np.trace(mid), mid_in, atol=1e-10)


def test_herm_eig_identity_and_pauli_z():
    w, v = herm_eig(identity(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v, identity(2))
    w, v = herm_eig(np.diag([1.0, -1.0]))
    assert np.allclose(w, [1.0, -1.0])
    assert np.allclose(np.abs(v), identity(2))


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = rand_hermitian(rng, 8)
        w, v = herm_eig(a)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - a)) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - identity(8))) < 1e-10
        assert all(w[i] >= w[i + 1] - 1e-12 for i in range(7))


def test_herm_eig_against_numpy():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5, 8, 13):
        a = rand_hermitian(rng, n)
        w = herm_eigvals(a)
        want = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.max(np.abs(w - want)) < 1e-10


def test_herm_eig_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(18)
    for _ in range(10):
        a = rand_hermitian(rng, 6)
        assert abs(np.sum(herm_eigvals(a)) - np.trace(a).real) < 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(LinalgError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_rejects_nan():
    with pytest.raises(LinalgError):
        herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(LinalgError):
        herm_eigvals(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_psd_sqrt_basic():
    assert np.allclose(psd_sqrt(identity(3)), identity(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_squaring_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        g = rand_complex(rng, 6)
        gram = g.conj().T @ g
        r = psd_sqrt(gram)
        assert np.max(np.abs(r @ r - gram)) < 1e-10 * max(1.0, np.max(np.abs(gram)))
        assert herm_eigvals(r)[-1] > -1e-12


def test_psd_sqrt_rejects_negative():
    with pytest.raises(LinalgError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_pinv_sqrt_basic():
    assert np.allclose(pinv_sqrt(identity(2)), identity(2))
    assert np.allclose(pinv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_sqrt_support_projector_oracle():
    rng = np.random.default_rng(20)
    for _ in range(10):
        g = rand_complex(rng, 4, 2)
        m = g @ g.conj().T  # rank 2 PSD
        s = pinv_sqrt(m)
        proj = s @ m @ s
        assert np.max(np.abs(proj @ proj - proj)) < 1e-9
        assert np.max(np.abs(proj - support_projector(m))) < 1e-9
        assert np.max(np.abs(proj @ m - m)) < 1e-9
        # commutes with the input
        assert np.max(np.abs(s @ m - m @ s)) < 1e-9


def test_trace_norm_values():
    assert trace_norm(np.zeros((3, 3))) == 0.0
    rng = np.random.default_rng(21)
    rho = rand_density(rng, 5)
    assert abs(trace_norm(rho) - 1.0) < 1e-10
    assert abs(trace_norm(np.diag([0.5, -0.5])) - 1.0) < 1e-12


def test_trace_norm_triangle_inequality():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = rand_hermitian(rng, 5)
        b = rand_hermitian(rng, 5)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_sqrt_pinv_consistency_on_psd():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = rand_complex(rng, 5)
        m = g @ g.conj().T
        r = psd_sqrt(m)
        assert np.max(np.abs(r @ r - m)) < 1e-9 * max(1.0, np.max(np.abs(m)))
        s = pinv_sqrt(m)
        assert np.max(np.abs(s @ m @ s - support_projector(m))) < 1e-9
