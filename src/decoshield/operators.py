"""Finite-dimensional operator and superoperator algebra.

Dense complex matrices carry the system operators; superoperators act on
d x d matrices and are stored both as callables and as d^2 x d^2 matrices
in the Hilbert-Schmidt (row-major vectorization) basis, so that they can
be composed, compared and eigen-analyzed like ordinary matrices.

Conventions: hbar = 1, row-major vec, so vec(A X B) = kron(A, B.T) vec(X).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ArgumentError

__all__ = [
    "hs_inner",
    "SuperOperator",
    "left_mult",
    "right_mult",
    "commutator_superop",
    "build_superop",
    "matrix_exp",
    "ordered_propagator",
    "partial_trace",
    "SpectralDecomposition",
    "spectral_decomposition",
    "operator_norm",
]


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ArgumentError("matrix has non-finite entries")
    return a


def operator_norm(a) -> float:
    """Spectral (operator) norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt scalar product Tr(A* B)."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise ArgumentError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.trace(a.conj().T @ b))


@dataclass(frozen=True)
class SuperOperator:
    """Linear map on d x d matrices with a dense d^2 x d^2 representation."""

    dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim**2, self.dim**2):
            raise ArgumentError(
                f"superoperator matrix shape {m.shape} inconsistent with dim {self.dim}"
            )
        object.__setattr__(self, "matrix", m)

    def __call__(self, x) -> np.ndarray:
        x = _as_square(x)
        if x.shape[0] != self.dim:
            raise ArgumentError(f"operand dim {x.shape[0]} != {self.dim}")
        return (self.matrix @ x.reshape(-1)).reshape(self.dim, self.dim)

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        """self after other."""
        if other.dim != self.dim:
            raise ArgumentError("dimension mismatch in composition")
        return SuperOperator(self.dim, self.matrix @ other.matrix)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        if other.dim != self.dim:
            raise ArgumentError("dimension mismatch in sum")
        return SuperOperator(self.dim, self.matrix + other.matrix)

    def __sub__(self, other: "SuperOperator") -> "SuperOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "SuperOperator":
        return SuperOperator(self.dim, complex(scalar) * self.matrix)

    def norm(self) -> float:
        return operator_norm(self.matrix)

    @staticmethod
    def zero(dim: int) -> "SuperOperator":
        return SuperOperator(dim, np.zeros((dim**2, dim**2), dtype=complex))

    @staticmethod
    def identity(dim: int) -> "SuperOperator":
        return SuperOperator(dim, np.eye(dim**2, dtype=complex))


def left_mult(a) -> SuperOperator:
    """B -> A B."""
    a = _as_square(a)
    d = a.shape[0]
    return SuperOperator(d, np.kron(a, np.eye(d)))


def right_mult(a) -> SuperOperator:
    """B -> B A."""
    a = _as_square(a)
    d = a.shape[0]
    return SuperOperator(d, np.kron(np.eye(d), a.T))


def commutator_superop(a) -> SuperOperator:
    """B -> [A, B]."""
    a = _as_square(a)
    d = a.shape[0]
    return SuperOperator(d, np.kron(a, np.eye(d)) - np.kron(np.eye(d), a.T))


def build_superop(kind: str, a) -> SuperOperator:
    """Build a left/right/commutator multiplication superoperator."""
    builders = {
        "left": left_mult,
        "right": right_mult,
        "commutator": commutator_superop,
    }
    if kind not in builders:
        raise ArgumentError(f"unknown superoperator kind {kind!r}")
    return builders[kind](a)


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential.

    Anti-Hermitian input (the propagators exp(-i t H)) goes through
    ``eigh`` of i a, so the result is unitary to rounding; everything else
    through scipy's scaling-and-squaring Pade.
    """
    a = _as_square(a)
    if np.abs(a + a.conj().T).max() <= 1e-14 * max(1.0, np.abs(a).max()):
        w, v = np.linalg.eigh(1j * a)
        return (v * np.exp(-1j * w)) @ v.conj().T
    return scipy.linalg.expm(a)


def _polar_unitary(u: np.ndarray) -> np.ndarray:
    """Closest unitary to u (polar factor)."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def ordered_propagator(h, t0: float, t1: float, step: float) -> np.ndarray:
    """Time-ordered propagator U with U' = -i H(t) U, U(t0) = 1.

    Fourth-order commutator-free Magnus integrator with fixed step and
    polar re-unitarization after each step. ``h`` maps a time to a
    Hermitian matrix.
    """
    if t1 < t0:
        raise ArgumentError("t1 must be >= t0")
    if not step > 0:
        raise ArgumentError("step must be positive")
    h0 = _as_square(h(t0))
    if operator_norm(h0 - h0.conj().T) > 1e-10 * max(1.0, operator_norm(h0)):
        raise ArgumentError("H(t) must be Hermitian at each sample")
    d = h0.shape[0]
    u = np.eye(d, dtype=complex)
    if t1 == t0:
        return u
    n = max(1, int(np.ceil((t1 - t0) / step)))
    dt = (t1 - t0) / n
    # Gauss nodes and CF4 weights
    c1, c2 = 0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6
    a1, a2 = 0.25 - np.sqrt(3) / 6, 0.25 + np.sqrt(3) / 6
    for i in range(n):
        t = t0 + i * dt
        h1 = _as_square(h(t + c1 * dt))
        h2 = _as_square(h(t + c2 * dt))
        for m in (h1, h2):
            if operator_norm(m - m.conj().T) > 1e-9 * max(1.0, operator_norm(m)):
                raise ArgumentError("H(t) must be Hermitian at each sample")
        u = matrix_exp(-1j * dt * (a1 * h1 + a2 * h2)) @ matrix_exp(
            -1j * dt * (a2 * h1 + a1 * h2)
        ) @ u
        u = _polar_unitary(u)
    return u


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` is the list of factor dimensions; ``keep`` an iterable of
    factor indices to retain (order preserved as given by sorted index).
    """
    rho = _as_square(rho)
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ArgumentError("factor dimensions must be positive")
    if int(np.prod(dims)) != rho.shape[0]:
        raise ArgumentError(
            f"product of dims {dims} != matrix dimension {rho.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ArgumentError("keep indices out of range")
    n = len(dims)
    resh = rho.reshape(dims + dims)
    # trace over discarded factors, highest axis first to keep indices valid
    discard = [i for i in range(n) if i not in keep]
    for i in reversed(discard):
        resh = np.trace(resh, axis1=i, axis2=i + resh.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return resh.reshape(d_keep, d_keep)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and spectral projectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    projectors: list
    degenerate: np.ndarray

    @property
    def simple(self) -> bool:
        return not bool(np.any(self.degenerate))


def spectral_decomposition(h, degeneracy_tol: float = 1e-10) -> SpectralDecomposition:
    """Group eigenvalues of a Hermitian matrix into spectral projectors."""
    h = _as_square(h)
    if operator_norm(h - h.conj().T) > 1e-10 * max(1.0, operator_norm(h)):
        raise ArgumentError("spectral_decomposition requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[start] > degeneracy_tol:
            groups.append((start, i))
            start = i
    eigenvalues = np.array([w[a:b].mean() for a, b in groups])
    projectors = [v[:, a:b] @ v[:, a:b].conj().T for a, b in groups]
    degenerate = np.array([(b - a) > 1 for a, b in groups])
    return SpectralDecomposition(eigenvalues, projectors, degenerate)
