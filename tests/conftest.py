"""Fixtures shared by several test modules."""

import numpy as np
import pytest


def _ill_conditioned_half_design(n, p, l, svals, seed):
    """Half-spectrum slice stack with known SVDs U diag(svals) V^H, plus U and V.

    Self-conjugate slices are real so the stack is the spectrum of a real design.
    """
    rng = np.random.default_rng(seed)
    h = l // 2 + 1
    u = np.empty((h, n, p), dtype=complex)
    v = np.empty((h, p, p), dtype=complex)
    for k in range(h):
        imag = 0.0 if k == 0 or 2 * k == l else 1.0
        for out, rows in ((u, n), (v, p)):
            z = rng.standard_normal((rows, p)) + imag * 1j * rng.standard_normal((rows, p))
            out[k] = np.linalg.qr(z)[0]
    return (u * svals) @ v.conj().mT, u, v


@pytest.fixture(scope="session")
def ill_conditioned_half_design():
    """Builder of ill-conditioned half stacks: (n, p, l, svals, seed) -> (half, U, V)."""
    return _ill_conditioned_half_design


def _identity(n, l):
    """Identity tubal matrix (n, n, l): unit first frontal slice, zeros elsewhere."""
    if n < 1 or l < 1:
        raise ValueError("identity needs n >= 1 and l >= 1")
    out = np.zeros((n, n, l))
    out[:, :, 0] = np.eye(n)
    return out


@pytest.fixture(scope="session")
def identity():
    """Builder of identity tubal matrices: (n, l) -> (n, n, l)."""
    return _identity
