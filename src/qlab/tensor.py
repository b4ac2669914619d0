"""Linear-algebra substrate for small spin chains: sparse operators and dense
letter-count sector blocks.

A :class:`QuantumOperator` on ``(C^n)^{tensor L}`` is stored as two flat
arrays in insertion order: int64 keys ``row * dim + col`` and complex128
amplitudes.  Each operation is a numpy pass that makes the floating-point
operations of a loop over a ``(row, col) -> value`` dict, in the same order:
``a + b`` adds ``b``'s entries, in its order, to ``a``'s in place (``a - b``
is ``a + b * (-1.0)``); ``OperatorPolynomial.poly_at`` adds ``c_k z^k``
coefficient after coefficient.  Terms on one key are added in that sequence
starting from ``0.0``, and a new key is stored where first touched.
Scalings and the terms ``c_k z^k`` round as CPython 3.11's complex product
(``re = ar*br - ai*bi``, ``im = ar*bi + ai*br``, no fused multiply-add; a
real scalar has imaginary part ``0.0``).  Entries of modulus at most ``DROP_TOL`` are dropped; a NaN
entry is kept.  So two equal operators stored in a different order give
results that differ at rounding level.  Basis states of the chain are
enumerated in base ``n`` with site 1 as the most significant digit.

Sums of terms are formed by a scatter that costs O(terms) and sorts nothing
(:func:`_accumulate`): ``np.minimum.at`` records the position of each key's
first term and ``np.add.at`` adds the terms in array order, both into a
module workspace of ``dim**2`` slots, which each call resets only at the keys
it stored.  The workspace takes 24 bytes per slot (an int64 position and a
complex128 sum), 25 MB at ``dim = 1024`` (``n = 4, L = 5``); it is sized for
the largest dimension used so far and kept.

Every operator the package forms on a chain conserves the letter counts, so
the relation checks multiply dense sector blocks instead.
:func:`sector_layout` gives, once per chain, the letter-count sectors in
sorted order and the sectors grouped by size.  :meth:`SectorLayout.blocks`
reads a run of operators into :class:`Blocks`: for each size group, one
``(count, S, s, s)`` array holding the ``s x s`` blocks of the group's ``S``
sectors for each of the ``count`` operators.  An entry that couples two
sectors raises ``ValueError``, so no entry is silently lost.  A family
member's coefficients read this way give its values at a run of points
(:meth:`Blocks.polynomial_at`), and every product is one numpy ``@`` per
group: each ``s x s`` product is one BLAS call, whose sums run in an order of
BLAS's choosing, so block results differ from sparse ones at rounding level.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: entries with modulus below this are dropped on construction
DROP_TOL = 1e-14
#: a largest component at most this far down drops its entry without ``hypot``
_SURE_DROP = 0.7 * DROP_TOL


class QuantumOperator:
    """A complex ``dim x dim`` matrix: entry keys ``row * dim + col`` (int64)
    and amplitudes ``vals`` (complex128) in insertion order, which is the
    order in which sums add terms (module docstring)."""

    __slots__ = ("dim", "keys", "vals")

    def __init__(self, dim: int, data: Dict[Tuple[int, int], complex] | None = None):
        self.dim = int(dim)
        keys: List[int] = []
        vals: List[complex] = []
        for (r, c), v in (data or {}).items():
            v = complex(v)
            if not abs(v) <= DROP_TOL:
                if not (0 <= r < self.dim and 0 <= c < self.dim):
                    raise IndexError(f"entry {(r, c)} outside dimension {self.dim}")
                keys.append(r * self.dim + c)
                vals.append(v)
        self.keys = np.array(keys, dtype=np.int64)
        self.vals = np.array(vals, dtype=complex)

    @classmethod
    def _from_arrays(cls, dim: int, keys: np.ndarray, vals: np.ndarray
                     ) -> "QuantumOperator":
        """The entries ``keys``, ``vals`` whose modulus is not at most ``DROP_TOL``.

        The test reads ``m = max(|re|, |im|)`` first.  The modulus lies in
        ``[m, sqrt(2) m]``, and a faithfully rounded ``hypot`` stays in that
        bracket, because both ends are at most one rounding from a float on
        the correct side.  So ``m > DROP_TOL`` keeps an entry and
        ``m <= 0.7 DROP_TOL`` drops it (``0.7 sqrt(2) < 1``), exactly as
        ``hypot(re, im) <= DROP_TOL`` decides.  ``hypot`` is evaluated only
        for the entries in between.  A NaN entry is kept, so that it reaches
        every residual formed from it.  When every entry is kept the arrays
        are stored as given; no operator writes to its arrays.
        """
        m = np.maximum(np.abs(vals.real), np.abs(vals.imag))
        drop = m <= DROP_TOL
        if drop.any():
            unsure = np.flatnonzero(drop & (m > _SURE_DROP))
            if len(unsure):
                v = vals[unsure]
                drop[unsure] = np.hypot(v.real, v.imag) <= DROP_TOL
            keep = ~drop
            keys, vals = keys[keep], vals[keep]
        op = cls.__new__(cls)
        op.dim, op.keys, op.vals = dim, keys, vals
        return op

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "QuantumOperator":
        return cls._from_arrays(dim, np.arange(dim, dtype=np.int64) * (dim + 1),
                                np.ones(dim, dtype=complex))

    @classmethod
    def zero(cls, dim: int) -> "QuantumOperator":
        return cls._from_arrays(dim, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QuantumOperator") -> "QuantumOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return _accumulate(self.dim, np.concatenate((self.keys, other.keys)),
                           np.concatenate((self.vals, other.vals)),
                           assigned=len(self.keys))

    def __sub__(self, other: "QuantumOperator") -> "QuantumOperator":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "QuantumOperator":
        return QuantumOperator._from_arrays(self.dim, self.keys,
                                            _product(self.vals, complex(scalar)))

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------

    def norm(self) -> float:
        """Largest entry modulus (max norm); a NaN entry makes it NaN."""
        return float(np.hypot(self.vals.real, self.vals.imag).max(initial=0.0))

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


#: the scatter workspace, indexed by key: the position of the key's first
#: term, and its running sum; at rest (``_UNSET`` and ``0.0``) between calls
_UNSET = np.iinfo(np.int64).max
_first = np.empty(0, dtype=np.int64)
_sums = np.empty(0, dtype=complex)


def _accumulate(dim: int, keys: np.ndarray, terms: np.ndarray,
                assigned: int = 0) -> QuantumOperator:
    """The operator whose entry at each key is the sum of the ``terms`` there.

    Terms are added in array order, and each key is stored where it is first
    touched.  A sum starts from ``0.0`` (``d.get(key, 0.0) + v``), or from
    ``-0.0`` where the key's first term is among the first ``assigned``: that
    takes the term unchanged, signed zeros included (``d[key] = v``).  It runs
    in O(terms) through the module workspace (module docstring), which is
    shared, so calls must not overlap (the package is single-threaded).
    """
    global _first, _sums
    if len(_first) < dim * dim:
        _first = np.full(dim * dim, _UNSET, dtype=np.int64)
        _sums = np.zeros(dim * dim, dtype=complex)
    first, sums = _first, _sums
    try:
        pos = np.arange(len(keys))
        np.minimum.at(first, keys, pos)
        new = np.flatnonzero(first[keys] == pos)
        fresh = keys[new]
        sums[fresh[:np.searchsorted(new, assigned)]] = complex(-0.0, -0.0)
        np.add.at(sums, keys, terms)
    except BaseException:
        # the touched slots are unknown: start the next call from a new workspace
        _first = _sums = np.empty(0)
        raise
    vals = sums[fresh]
    first[fresh] = _UNSET
    sums[fresh] = 0.0
    return QuantumOperator._from_arrays(dim, fresh, vals)


# -- dense letter-count sector blocks --------------------------------------


class SectorLayout:
    """The letter-count sectors of one chain.

    ``labels`` are the letter-count vectors in sorted order and ``sectors``
    the basis indices of each, in basis order.  ``sector`` and ``position``
    give each basis index's sector and its place there.  ``groups`` holds,
    for each sector size in increasing order, the ``(S, s)`` array of the
    basis indices of its ``S`` sectors, in label order.
    """

    def __init__(self, n: int, length: int):
        grouped = sector_states(n, length)
        self.dim = n ** length
        self.labels = sorted(grouped)
        self.sectors = [np.array([state_index(s, n) for s in grouped[m]], dtype=np.int64)
                        for m in self.labels]
        self.sector = np.empty(self.dim, dtype=np.int64)
        self.position = np.empty(self.dim, dtype=np.int64)
        for k, idx in enumerate(self.sectors):
            self.sector[idx] = k
            self.position[idx] = np.arange(len(idx))
        sizes = sorted({len(idx) for idx in self.sectors})
        self.groups = [np.array([idx for idx in self.sectors if len(idx) == s])
                       for s in sizes]
        # each basis index's group, and the flat offset of its block row
        # within the group's (S, s, s) array
        self.group = np.empty(self.dim, dtype=np.int64)
        self.row_start = np.empty(self.dim, dtype=np.int64)
        for g, idx in enumerate(self.groups):
            self.group[idx] = g
            self.row_start[idx] = np.arange(idx.size).reshape(idx.shape) * idx.shape[1]

    def entries(self, op: QuantumOperator) -> Tuple[np.ndarray, np.ndarray]:
        """The row and the column of each stored entry of ``op``;
        ``ValueError`` if an entry couples two sectors."""
        rows, cols = np.divmod(op.keys, self.dim)
        if (self.sector[rows] != self.sector[cols]).any():
            raise ValueError("an operator entry lies outside the letter-count blocks")
        return rows, cols

    def blocks(self, ops: Sequence[QuantumOperator]) -> "Blocks":
        """The operators ``ops`` as one run of sector blocks."""
        arrays = [np.zeros((len(ops), *idx.shape, idx.shape[1]), dtype=complex)
                  for idx in self.groups]
        flat = [a.reshape(len(ops), -1) for a in arrays]
        for k, op in enumerate(ops):
            rows, cols = self.entries(op)
            group, at = self.group[rows], self.row_start[rows] + self.position[cols]
            for g, f in enumerate(flat):
                mine = group == g
                f[k, at[mine]] = op.vals[mine]
        return Blocks(self, arrays)


@functools.lru_cache(maxsize=4)
def sector_layout(n: int, length: int) -> SectorLayout:
    """The sector layout of the chain, kept for the last four chains."""
    return SectorLayout(n, length)


class Blocks:
    """A run of ``count`` operators that conserve the letter counts, as one
    ``(count, S, s, s)`` array per size group of ``layout`` (module docstring).

    Products, sums and differences pair operator ``b`` of one run with
    operator ``b`` of the other; operands must share the layout and the
    count."""

    __slots__ = ("layout", "arrays")

    def __init__(self, layout: SectorLayout, arrays: List[np.ndarray]):
        self.layout, self.arrays = layout, arrays

    @property
    def count(self) -> int:
        return self.arrays[0].shape[0]

    @classmethod
    def join(cls, runs: Sequence["Blocks"]) -> "Blocks":
        """The operators of ``runs``, in order, as one run."""
        return cls(runs[0].layout, [np.concatenate(parts)
                                    for parts in zip(*(r.arrays for r in runs))])

    def __getitem__(self, index) -> "Blocks":
        """The run of the operators ``index`` picks (a slice or an index list)."""
        return Blocks(self.layout, [a[index] for a in self.arrays])

    def _pair(self, other: "Blocks", op: Callable) -> "Blocks":
        if self.layout is not other.layout or self.count != other.count:
            raise ValueError("layout or operator count mismatch")
        return Blocks(self.layout, [op(a, b) for a, b in zip(self.arrays, other.arrays)])

    def __matmul__(self, other: "Blocks") -> "Blocks":
        return self._pair(other, np.matmul)

    def __add__(self, other: "Blocks") -> "Blocks":
        return self._pair(other, np.add)

    def __sub__(self, other: "Blocks") -> "Blocks":
        return self._pair(other, np.subtract)

    def __mul__(self, scalar: complex) -> "Blocks":
        return Blocks(self.layout, [a * scalar for a in self.arrays])

    def polynomial_at(self, sigma: complex, points: Sequence[complex]) -> "Blocks":
        """Reading the run as the coefficients ``c_0, c_1, ...`` of
        ``exp(i z sigma) sum_k c_k z^k``, its values at each of ``points``.

        The sum runs coefficient after coefficient and is then scaled by the
        exponential, as :meth:`qlab.transfer.OperatorPolynomial.at` forms
        it; the powers of ``z`` and the exponentials are formed in Python
        complex arithmetic.  All of it is elementwise, so no value depends
        on BLAS or its threads."""
        powers = []
        for z in points:
            zk, row = 1.0 + 0.0j, []
            for _ in range(self.count):
                row.append(zk)
                zk *= z
            powers.append(row)
        powers = np.array(powers, dtype=complex)[:, :, None, None, None]
        factor = np.array([cmath.exp(1j * z * sigma) for z in points],
                          dtype=complex)[:, None, None, None]
        out = []
        for a in self.arrays:
            acc = a[0] * powers[:, 0]
            for k in range(1, self.count):
                acc += a[k] * powers[:, k]
            acc *= factor
            out.append(acc)
        return Blocks(self.layout, out)

    def norms(self) -> np.ndarray:
        """Largest entry modulus (max norm) of each operator; a NaN entry
        makes its operator's norm NaN."""
        return np.max([np.abs(a).max(axis=(1, 2, 3)) for a in self.arrays], axis=0)


# -- chain basis ---------------------------------------------------------


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
