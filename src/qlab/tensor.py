"""Sparse linear-algebra substrate for small spin chains.

An operator on ``(C^n)^{tensor L}`` is stored as two flat arrays in insertion
order: int64 keys ``row * dim + col`` and complex128 amplitudes.  Each
operation is a numpy pass that makes the floating-point operations of a loop
over a ``(row, col) -> value`` dict, in the same order: ``a @ b`` walks the
entries ``(r, k)`` of ``a`` in stored order and, for each, row ``k`` of ``b``
in stored order; ``a + b`` adds ``b``'s entries, in its order, to ``a``'s in
place (``a - b`` is ``a + b * (-1.0)``); ``OperatorPolynomial.poly_at`` adds
``c_k z^k`` coefficient after coefficient.  Terms on one key are added in that
sequence starting from ``0.0``, and a new key is stored where first touched.
Products round as CPython 3.11's complex product (``re = ar*br - ai*bi``,
``im = ar*bi + ai*br``, no fused multiply-add; a real scalar has imaginary
part ``0.0``).  Entries of modulus at most ``DROP_TOL`` are dropped.  So two
equal operators stored in a different order give results that differ at
rounding level.  Basis states of the chain are enumerated in base ``n`` with
site 1 as the most significant digit.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: entries with modulus below this are dropped on construction
DROP_TOL = 1e-14


class QuantumOperator:
    """A complex ``dim x dim`` matrix: entry keys ``row * dim + col`` (int64)
    and amplitudes ``vals`` (complex128) in insertion order, which is the order
    in which products and sums add terms (module docstring)."""

    __slots__ = ("dim", "keys", "vals")

    def __init__(self, dim: int, data: Dict[Tuple[int, int], complex] | None = None):
        self.dim = int(dim)
        keys: List[int] = []
        vals: List[complex] = []
        for (r, c), v in (data or {}).items():
            v = complex(v)
            if abs(v) > DROP_TOL:
                if not (0 <= r < self.dim and 0 <= c < self.dim):
                    raise IndexError(f"entry {(r, c)} outside dimension {self.dim}")
                keys.append(r * self.dim + c)
                vals.append(v)
        self.keys = np.array(keys, dtype=np.int64)
        self.vals = np.array(vals, dtype=complex)

    @classmethod
    def _from_arrays(cls, dim: int, keys: np.ndarray, vals: np.ndarray
                     ) -> "QuantumOperator":
        """The entries ``keys``, ``vals`` whose modulus exceeds ``DROP_TOL``."""
        keep = np.hypot(vals.real, vals.imag) > DROP_TOL
        op = cls.__new__(cls)
        op.dim, op.keys, op.vals = dim, keys[keep], vals[keep]
        return op

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "QuantumOperator":
        return cls._from_arrays(dim, np.arange(dim, dtype=np.int64) * (dim + 1),
                                np.ones(dim, dtype=complex))

    @classmethod
    def zero(cls, dim: int) -> "QuantumOperator":
        return cls(dim)

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "QuantumOperator":
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("expected a square matrix")
        keys = np.flatnonzero(np.abs(mat) > DROP_TOL)
        return cls._from_arrays(mat.shape[0], keys,
                                mat.reshape(-1)[keys].astype(complex))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QuantumOperator") -> "QuantumOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return _accumulate(self.dim, np.concatenate((self.keys, other.keys)),
                           np.concatenate((self.vals, other.vals)),
                           assigned=len(self.keys))

    def __sub__(self, other: "QuantumOperator") -> "QuantumOperator":
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "QuantumOperator":
        return QuantumOperator._from_arrays(self.dim, self.keys,
                                            _product(self.vals, complex(scalar)))

    __rmul__ = __mul__

    def __matmul__(self, other: "QuantumOperator") -> "QuantumOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        dim = self.dim
        # the right factor's entries grouped by row, stored order within a row
        rows, cols = np.divmod(other.keys, dim)
        by_row = np.argsort(rows, kind="stable")
        counts = np.bincount(rows, minlength=dim)
        row_start = np.cumsum(counts) - counts
        # one term per (left entry, entry of the right factor's row k)
        left_rows, k = np.divmod(self.keys, dim)
        width = counts[k]
        left = np.repeat(np.arange(len(self.keys)), width)
        offset = np.repeat(row_start[k] - (np.cumsum(width) - width), width)
        right = by_row[offset + np.arange(len(left))]
        return _accumulate(dim, left_rows[left] * dim + cols[right],
                           _product(self.vals[left], other.vals[right]))

    # -- queries -----------------------------------------------------------

    def norm(self) -> float:
        """Largest entry modulus (max norm)."""
        if not len(self.vals):
            return 0.0
        return float(np.hypot(self.vals.real, self.vals.imag).max())

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim * self.dim, dtype=complex)
        out[self.keys] = self.vals
        return out.reshape(self.dim, self.dim)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumOperator):
            return NotImplemented
        return self.dim == other.dim and (self - other).norm() <= DROP_TOL

    def __repr__(self) -> str:
        return f"QuantumOperator(dim={self.dim}, nnz={len(self.keys)})"


def _product(a: np.ndarray, b) -> np.ndarray:
    """``a * b`` elementwise, rounded as CPython rounds a complex product."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _accumulate(dim: int, keys: np.ndarray, terms: np.ndarray,
                assigned: int = 0) -> QuantumOperator:
    """The operator whose entry at each key is the sum of the ``terms`` there.

    Terms are added in array order, and each key is stored where it is first
    touched.  A sum starts from ``0.0`` (``d.get(key, 0.0) + v``), or from
    ``-0.0`` where the key's first term is among the first ``assigned``: that
    takes the term unchanged, signed zeros included (``d[key] = v``).
    """
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    out = np.zeros(len(order), dtype=complex)
    out[first[order] < assigned] = complex(-0.0, -0.0)
    np.add.at(out, slot[inverse], terms)
    return QuantumOperator._from_arrays(dim, uniq[order], out)


# -- chain embeddings -----------------------------------------------------


def permutation_op(n: int) -> QuantumOperator:
    """The exchange operator ``P`` on ``C^n (x) C^n``: ``P (x (x) y) = y (x) x``."""
    idx = np.arange(n * n, dtype=np.int64)
    return QuantumOperator._from_arrays(
        n * n, idx * (n * n) + (idx % n) * n + idx // n, np.ones(n * n, dtype=complex))


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
