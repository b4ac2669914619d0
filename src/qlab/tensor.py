"""Sparse linear-algebra substrate for small spin chains.

Operators on ``(C^n)^{tensor L}`` are stored as dictionaries mapping
``(row, col)`` index pairs to complex amplitudes.  Chain dimensions at desk
scale stay below a few hundred, so the emphasis is on exactness and
deterministic iteration order rather than speed.  Basis states of the chain
are enumerated in base ``n`` with site 1 as the most significant digit.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: entries with modulus below this are dropped on construction
DROP_TOL = 1e-14


class QuantumOperator:
    """A complex matrix stored as a sparse ``(row, col) -> value`` map."""

    __slots__ = ("dim", "data")

    def __init__(self, dim: int, data: Dict[Tuple[int, int], complex] | None = None):
        self.dim = int(dim)
        cleaned: Dict[Tuple[int, int], complex] = {}
        if data:
            for (r, c), v in data.items():
                v = complex(v)
                if abs(v) > DROP_TOL:
                    if not (0 <= r < self.dim and 0 <= c < self.dim):
                        raise IndexError(f"entry {(r, c)} outside dimension {self.dim}")
                    cleaned[(r, c)] = v
        self.data = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "QuantumOperator":
        return cls(dim, {(i, i): 1.0 for i in range(dim)})

    @classmethod
    def zero(cls, dim: int) -> "QuantumOperator":
        return cls(dim, {})

    @classmethod
    def matrix_unit(cls, dim: int, row: int, col: int) -> "QuantumOperator":
        """The matrix ``e_{row,col}`` with a single unit entry."""
        return cls(dim, {(row, col): 1.0})

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "QuantumOperator":
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("expected a square matrix")
        data = {}
        for r, c in zip(*np.nonzero(np.abs(mat) > DROP_TOL)):
            data[(int(r), int(c))] = complex(mat[r, c])
        return cls(mat.shape[0], data)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QuantumOperator") -> "QuantumOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0.0) + v
        return QuantumOperator(self.dim, data)

    def __sub__(self, other: "QuantumOperator") -> "QuantumOperator":
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "QuantumOperator":
        return QuantumOperator(self.dim, {k: v * scalar for k, v in self.data.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "QuantumOperator") -> "QuantumOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        # group right factor by row for the contraction
        by_row: Dict[int, list] = {}
        for (r, c), v in other.data.items():
            by_row.setdefault(r, []).append((c, v))
        data: Dict[Tuple[int, int], complex] = {}
        for (r, k), a in self.data.items():
            for c, b in by_row.get(k, ()):
                key = (r, c)
                data[key] = data.get(key, 0.0) + a * b
        return QuantumOperator(self.dim, data)

    def dagger(self) -> "QuantumOperator":
        return QuantumOperator(self.dim, {(c, r): np.conj(v) for (r, c), v in self.data.items()})

    # -- queries -----------------------------------------------------------

    def entries(self) -> Iterator[Tuple[Tuple[int, int], complex]]:
        """Deterministic (sorted) iteration over the stored entries."""
        for key in sorted(self.data):
            yield key, self.data[key]

    def norm(self) -> float:
        """Largest entry modulus (max norm)."""
        if not self.data:
            return 0.0
        return max(abs(v) for v in self.data.values())

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (r, c), v in self.data.items():
            out[r, c] = v
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumOperator):
            return NotImplemented
        return self.dim == other.dim and (self - other).norm() <= DROP_TOL

    def __repr__(self) -> str:
        return f"QuantumOperator(dim={self.dim}, nnz={len(self.data)})"


# -- tensor products and chain embeddings ----------------------------------


def kron(a: QuantumOperator, b: QuantumOperator) -> QuantumOperator:
    """Kronecker product; the left factor carries the most significant index."""
    data: Dict[Tuple[int, int], complex] = {}
    for (ra, ca), va in a.data.items():
        for (rb, cb), vb in b.data.items():
            data[(ra * b.dim + rb, ca * b.dim + cb)] = va * vb
    return QuantumOperator(a.dim * b.dim, data)


def kron_all(factors: Sequence[QuantumOperator]) -> QuantumOperator:
    out = factors[0]
    for f in factors[1:]:
        out = kron(out, f)
    return out


def site_operator(local: QuantumOperator, site: int, length: int) -> QuantumOperator:
    """Embed a single-site operator at ``site`` (1-based) into an ``length``-site chain."""
    if not 1 <= site <= length:
        raise ValueError("site index out of range")
    n = local.dim
    eye = QuantumOperator.identity(n)
    return kron_all([local if s == site else eye for s in range(1, length + 1)])


def permutation_op(n: int) -> QuantumOperator:
    """The exchange operator ``P`` on ``C^n (x) C^n``: ``P (x (x) y) = y (x) x``."""
    data = {}
    for i in range(n):
        for j in range(n):
            data[(i * n + j, j * n + i)] = 1.0
    return QuantumOperator(n * n, data)


def basis_states(n: int, length: int) -> Iterator[Tuple[int, ...]]:
    """All chain configurations as tuples of letters ``0..n-1``, site 1 first."""
    return itertools.product(range(n), repeat=length)


def state_index(state: Sequence[int], n: int) -> int:
    """Base-``n`` index of a configuration, site 1 most significant."""
    idx = 0
    for letter in state:
        idx = idx * n + letter
    return idx


def occupation(state: Sequence[int], n: int) -> Tuple[int, ...]:
    """Letter-count vector ``(m_1, ..., m_n)`` of a configuration."""
    counts = [0] * n
    for letter in state:
        counts[letter] += 1
    return tuple(counts)


def sector_states(n: int, length: int) -> Dict[Tuple[int, ...], List[Tuple[int, ...]]]:
    """Configurations grouped by letter-count vector, in basis order per group."""
    out: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for s in basis_states(n, length):
        out.setdefault(occupation(s, n), []).append(s)
    return out


def comm_norm(a: QuantumOperator, b: QuantumOperator) -> float:
    """Max-norm of the commutator ``[a, b]``."""
    return ((a @ b) - (b @ a)).norm()
