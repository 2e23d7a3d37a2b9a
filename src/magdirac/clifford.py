"""Irreducible Clifford representations on the spinor space of dimension
2**floor(n/2), built from Pauli tensor products.

The generators g_1, ..., g_n are skew-Hermitian unitaries satisfying

    g_i g_j + g_j g_i = -2 delta_ij I,

with entries drawn exactly from {0, +-1, +-i}.  For odd n the last generator
is normalized so the volume element g_1 ... g_n equals -I when n = 3 (mod 4)
and -iI when n = 1 (mod 4); in particular n = 1 gives the one-dimensional
representation g_1 = [-i].
"""

import functools

import numpy as np

from .spectrum import check_int

_MAX_DIM = 12

_ID2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _kron_chain(factors):
    out = np.array([[1]], dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


# typed, so build_rep(2.0) is refused even after build_rep(2) is cached
@functools.lru_cache(maxsize=None, typed=True)
def build_rep(n: int) -> tuple[np.ndarray, ...]:
    """Clifford generators for R^n acting on C^(2**floor(n/2)).

    Returns a tuple of n read-only complex arrays, built once per n and
    shared by every caller.  Raises ValueError for n < 1 or n > 12 (spinor
    dimension beyond 64 is past any use here).
    """
    n = check_int(n, "dimension")
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if n > _MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the supported maximum {_MAX_DIM}")

    m = n // 2
    gens = []
    for j in range(1, m + 1):
        prefix = [PAULI_Z] * (j - 1)
        suffix = [_ID2] * (m - j)
        gens.append(1j * _kron_chain(prefix + [PAULI_X] + suffix))
        gens.append(1j * _kron_chain(prefix + [PAULI_Y] + suffix))
    if n % 2 == 1:
        last = 1j * _kron_chain([PAULI_Z] * m)
        # fix the sign so the volume element lands on -I (n = 3 mod 4)
        # or -iI (n = 1 mod 4)
        vol = volume_element(gens + [last])
        target = -1.0 if n % 4 == 3 else -1.0j
        if not np.allclose(vol, target * np.eye(vol.shape[0])):
            last = -last
        gens.append(last)

    for g in gens:
        g.setflags(write=False)
    return tuple(gens)


def volume_element(gens: tuple[np.ndarray, ...]) -> np.ndarray:
    """Product g_1 g_2 ... g_n of the generators."""
    vol = np.eye(gens[0].shape[0], dtype=np.complex128)
    for g in gens:
        vol = vol @ g
    return vol


def vector_action(v: np.ndarray, gens: tuple[np.ndarray, ...]) -> np.ndarray:
    """Clifford action sum_j v_j g_j of a (real or complex) vector.

    ``v`` may also be a stack (..., n) of vectors; the result is then the
    stack (..., N, N) of their actions, from one matrix product.  Each
    entry of the generators is one of 0, +-1, +-i, so every real and every
    imaginary part of the result sums at most one nonzero product: the
    product is exact, whatever order BLAS sums in.
    """
    v = np.asarray(v)
    n = len(gens)
    if v.shape[-1:] != (n,):
        raise ValueError(f"vector has shape {v.shape}, expected (..., {n})")
    dim = gens[0].shape[0]
    flat = v.reshape(-1, n) @ np.reshape(gens, (n, dim * dim))
    return flat.reshape(*v.shape[:-1], dim, dim)


def two_form_action(omega: np.ndarray, gens: tuple[np.ndarray, ...]) -> np.ndarray:
    """Clifford action sum_{i<j} omega_ij g_i g_j of an antisymmetric matrix.

    ``omega`` holds the exterior components of the two-form (antisymmetric,
    real or complex); each unordered pair is summed once, matching the
    convention in which d(eta) with eta = f dx^k acts as
    sum_{i<k} (d_i f) g_i g_k.
    """
    omega = np.asarray(omega, dtype=np.complex128)
    n = len(gens)
    if omega.shape != (n, n):
        raise ValueError(f"two-form has shape {omega.shape}, expected ({n}, {n})")
    if not np.allclose(omega, -omega.T, rtol=0, atol=1e-12):
        raise ValueError("two-form coefficient matrix is not antisymmetric")
    dim = gens[0].shape[0]
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(n):
        for j in range(i + 1, n):
            if omega[i, j] != 0.0:
                out += omega[i, j] * (gens[i] @ gens[j])
    return out
