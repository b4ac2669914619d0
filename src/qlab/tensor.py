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
part ``0.0``).  Entries of modulus at most ``DROP_TOL`` are dropped; a NaN
entry is kept.  So two equal operators stored in a different order give
results that differ at rounding level.  Basis states of the chain are
enumerated in base ``n`` with site 1 as the most significant digit.

One ``QuantumOperator`` may hold a stack of ``count`` operators of one
dimension, such as a family member at several spectral points: the
``(count * dim) x dim`` matrix whose rows ``b * dim .. b * dim + dim - 1``
hold operator ``b``, with keys ``(b * dim + row) * dim + col``.  A single
operator (``count = 1``) is stored exactly as above.  Every operation acts on
each operator of a stack on its own: ``a @ b`` pairs the entry ``(b, r, k)``
of ``a`` with row ``b * dim + k`` of ``b``, a scalar multiple takes one scalar
or one per operator, and :meth:`QuantumOperator.norms` gives one norm per
operator.  Keys of different operators never meet, so each operator of a
result is stored, and rounded, exactly as the operation on that operator
alone would store it; the stack only forms one numpy pass where there were
``count``.

Sums of terms are formed by a scatter that costs O(terms) and sorts nothing
(:func:`_scatter`): ``np.minimum.at`` records the position of each key's first
term and ``np.add.at`` adds the terms in array order, both into a module
workspace of ``count * dim**2`` slots, which each call resets only at the keys
it stored.  The workspace takes 24 bytes per slot (an int64 position and a
complex128 sum); it is sized for the largest stack used so far and kept.
Callers cut stacks into runs of at most :func:`stack_size` operators
(:func:`stack_chunks`), so the workspace never passes
``max(dim**2, STACK_SLOTS)`` slots: about 0.8 MB while ``dim**2`` is at most
``STACK_SLOTS``, and 25 MB at ``dim = 1024`` (``n = 4, L = 5``), where every
stack holds one operator.  So stacks hold more than one operator while
``dim <= 128``: every chain with ``n = 2``, and ``n = 3`` to ``L = 4`` and
``n = 4`` to ``L = 3``; at ``(3, 5)``, ``(4, 4)`` and ``(4, 5)`` every pass
forms one operator.  A product forms its terms in chunks of left
entries of about ``MATMUL_CHUNK`` terms each and scatters every chunk into the
same workspace, which bounds its transient arrays without changing any sum.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: entries with modulus below this are dropped on construction
DROP_TOL = 1e-14
#: a largest component at most this far down drops its entry without ``hypot``
_SURE_DROP = 0.7 * DROP_TOL
#: products form their terms in chunks of left entries of about this many terms
MATMUL_CHUNK = 1 << 18
#: a stack of operators spans at most this many slots ``count * dim**2``,
#: unless a single operator spans more
STACK_SLOTS = 1 << 15


def stack_size(dim: int) -> int:
    """The most operators of dimension ``dim`` that one stack holds."""
    return max(1, STACK_SLOTS // (dim * dim))


def stack_chunks(items: Sequence, dim: int) -> List[Sequence]:
    """``items`` cut into consecutive runs of at most ``stack_size(dim)``."""
    size = stack_size(dim)
    return [items[lo:lo + size] for lo in range(0, len(items), size)]


class QuantumOperator:
    """A stack of ``count`` complex ``dim x dim`` matrices: entry keys
    ``(b * dim + row) * dim + col`` (int64) of operator ``b`` and amplitudes
    ``vals`` (complex128) in insertion order, which is the order in which
    products and sums add terms (module docstring)."""

    __slots__ = ("dim", "count", "keys", "vals")

    def __init__(self, dim: int, data: Dict[Tuple[int, int], complex] | None = None):
        self.dim = int(dim)
        self.count = 1
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
    def _from_arrays(cls, dim: int, keys: np.ndarray, vals: np.ndarray,
                     count: int = 1) -> "QuantumOperator":
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
        return cls._stored(dim, count, keys, vals)

    @classmethod
    def _stored(cls, dim: int, count: int, keys: np.ndarray, vals: np.ndarray
                ) -> "QuantumOperator":
        """The stack of the given entries, every one of which is kept."""
        op = cls.__new__(cls)
        op.dim, op.count, op.keys, op.vals = dim, count, keys, vals
        return op

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, dim: int, count: int = 1) -> "QuantumOperator":
        diag = np.arange(count * dim, dtype=np.int64) * dim
        return cls._from_arrays(dim, diag + np.tile(np.arange(dim, dtype=np.int64), count),
                                np.ones(count * dim, dtype=complex), count)

    @classmethod
    def zero(cls, dim: int, count: int = 1) -> "QuantumOperator":
        return cls._stored(dim, count, np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=complex))

    @classmethod
    def stack(cls, ops: Sequence["QuantumOperator"]) -> "QuantumOperator":
        """The operators of the stacks ``ops``, in order, as one stack."""
        if len(ops) == 1:
            return ops[0]
        dim = ops[0].dim
        if any(op.dim != dim for op in ops):
            raise ValueError("dimension mismatch")
        first = np.cumsum([0] + [op.count for op in ops])
        return cls._stored(dim, int(first[-1]),
                           np.concatenate([op.keys + int(b) * dim * dim
                                           for op, b in zip(ops, first)]),
                           np.concatenate([op.vals for op in ops]))

    def take(self, blocks: Sequence[int]) -> "QuantumOperator":
        """The stack of operators ``blocks`` of this stack, in that order;
        an operator may be taken more than once."""
        blocks = list(blocks)
        if blocks == list(range(self.count)):
            return self
        size = self.dim * self.dim
        owner = self.keys // size
        # each operator's entries, in stored order
        order = np.argsort(owner, kind="stable")
        sizes = np.bincount(owner, minlength=self.count)
        start = np.cumsum(sizes) - sizes
        picked = np.concatenate([order[start[b]:start[b] + sizes[b]] for b in blocks])
        shift = np.repeat((np.arange(len(blocks)) - blocks) * size, sizes[blocks])
        return QuantumOperator._stored(self.dim, len(blocks),
                                       self.keys[picked] + shift, self.vals[picked])

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "QuantumOperator") -> None:
        if self.dim != other.dim or self.count != other.count:
            raise ValueError("dimension or stack size mismatch")

    def __add__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        return _accumulate(self.dim, np.concatenate((self.keys, other.keys)),
                           np.concatenate((self.vals, other.vals)),
                           assigned=len(self.keys), count=self.count)

    def __sub__(self, other: "QuantumOperator") -> "QuantumOperator":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "QuantumOperator":
        """The stack times one scalar, or operator ``b`` times ``scalar[b]``."""
        if isinstance(scalar, (list, tuple, np.ndarray)):
            if len(scalar) != self.count:
                raise ValueError("need one scalar per operator")
            # one operator's factor is broadcast, not copied to every entry
            factor = complex(scalar[0]) if self.count == 1 else \
                np.array(scalar, dtype=complex)[self.keys // (self.dim * self.dim)]
        else:
            factor = complex(scalar)
        return QuantumOperator._from_arrays(self.dim, self.keys,
                                            _product(self.vals, factor), self.count)

    __rmul__ = __mul__

    def __matmul__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        dim = self.dim
        # the right factor's entries grouped by stacked row, stored order
        # within a row
        rows, cols = np.divmod(other.keys, dim)
        by_row = np.argsort(rows, kind="stable")
        counts = np.bincount(rows, minlength=self.count * dim)
        row_start = np.cumsum(counts) - counts
        # left entry (b, r, k) meets the right row b * dim + k; one term per
        # (left entry, entry of that row); term t of left entry i reads the
        # right entry by_row[shift[i] + t]
        left_rows, k = np.divmod(self.keys, dim)
        k += left_rows - left_rows % dim
        width = counts[k]
        end = np.cumsum(width)
        shift = row_start[k] - (end - width)
        # chunks of whole left entries, cut where the term count passes a
        # multiple of MATMUL_CHUNK; they hold the terms in their full order
        total = int(end[-1]) if len(end) else 0
        cuts = [0, *np.searchsorted(end, np.arange(MATMUL_CHUNK, total, MATMUL_CHUNK),
                                    side="right").tolist(), len(end)]

        def chunks():
            for lo, hi in zip(cuts, cuts[1:]):
                base = int(end[lo - 1]) if lo else 0
                left = np.repeat(np.arange(lo, hi), width[lo:hi])
                right = by_row[np.repeat(shift[lo:hi], width[lo:hi])
                               + np.arange(base, base + len(left))]
                yield (left_rows[left] * dim + cols[right],
                       _product(self.vals[left], other.vals[right]))

        return _scatter(dim, chunks(), count=self.count)

    # -- queries -----------------------------------------------------------

    def norms(self) -> np.ndarray:
        """Largest entry modulus (max norm) of each operator of the stack."""
        out = np.zeros(self.count)
        np.maximum.at(out, self.keys // (self.dim * self.dim),
                      np.hypot(self.vals.real, self.vals.imag))
        return out

    def norm(self) -> float:
        """Largest entry modulus over the stack (max norm)."""
        return float(self.norms().max())

    def to_dense(self) -> np.ndarray:
        """The ``(count * dim) x dim`` matrix of the stack."""
        out = np.zeros(self.count * self.dim * self.dim, dtype=complex)
        out[self.keys] = self.vals
        return out.reshape(self.count * self.dim, self.dim)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumOperator):
            return NotImplemented
        return (self.dim, self.count) == (other.dim, other.count) \
            and (self - other).norm() <= DROP_TOL

    def __repr__(self) -> str:
        stacked = f", count={self.count}" if self.count > 1 else ""
        return f"QuantumOperator(dim={self.dim}{stacked}, nnz={len(self.keys)})"


def _product(a: np.ndarray, b) -> np.ndarray:
    """``a * b`` elementwise, rounded as CPython rounds a complex product."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _accumulate(dim: int, keys: np.ndarray, terms: np.ndarray,
                assigned: int = 0, count: int = 1) -> QuantumOperator:
    """The stack whose entry at each key is the sum of the ``terms`` there.

    Terms are added in array order, and each key is stored where it is first
    touched.  A sum starts from ``0.0`` (``d.get(key, 0.0) + v``), or from
    ``-0.0`` where the key's first term is among the first ``assigned``: that
    takes the term unchanged, signed zeros included (``d[key] = v``).
    """
    return _scatter(dim, [(keys, terms)], assigned, count)


#: the scatter workspace, indexed by key: the position of the key's first
#: term, and its running sum; at rest (``_UNSET`` and ``0.0``) between calls
_UNSET = np.iinfo(np.int64).max
_first = np.empty(0, dtype=np.int64)
_sums = np.empty(0, dtype=complex)


def _scatter(dim: int, chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
             assigned: int = 0, count: int = 1) -> QuantumOperator:
    """:func:`_accumulate` of the concatenated ``(keys, terms)`` chunks, in
    O(terms) through the module workspace (module docstring).  The chunks are
    not joined, so one chunk's arrays are held at a time; the workspace is
    shared, so calls must not overlap (the package is single-threaded)."""
    global _first, _sums
    if len(_first) < count * dim * dim:
        _first = np.full(count * dim * dim, _UNSET, dtype=np.int64)
        _sums = np.zeros(count * dim * dim, dtype=complex)
    first, sums = _first, _sums
    stored = []
    offset = 0
    try:
        for keys, terms in chunks:
            pos = np.arange(offset, offset + len(keys))
            np.minimum.at(first, keys, pos)
            new = np.flatnonzero(first[keys] == pos)
            fresh = keys[new]
            if offset < assigned:
                sums[fresh[:np.searchsorted(new, assigned - offset)]] = complex(-0.0, -0.0)
            np.add.at(sums, keys, terms)
            stored.append(fresh)
            offset += len(keys)
    except BaseException:
        # the touched slots are unknown: start the next call from a new workspace
        _first = _sums = np.empty(0)
        raise
    keys = np.concatenate(stored) if len(stored) > 1 else stored[0]
    vals = sums[keys]
    first[keys] = _UNSET
    sums[keys] = 0.0
    return QuantumOperator._from_arrays(dim, keys, vals, count)


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
