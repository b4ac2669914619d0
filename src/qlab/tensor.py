"""Linear-algebra substrate for small spin chains: dense letter-count sector
blocks.

Basis states of the chain are enumerated in base ``n`` with site 1 as the
most significant digit.  Every operator the package forms on a chain
conserves the letter counts, so it is stored as its diagonal blocks on the
letter-count sectors.  :func:`sector_layout` gives, once per chain, the
sectors in sorted order and the sectors grouped by size.  A :class:`Blocks`
run holds ``count`` operators as one ``(count, S, s, s)`` array per size
group: the ``s x s`` blocks of the group's ``S`` sectors for each operator.
Operators are formed from their entries by one scatter
(:meth:`SectorLayout.scatter`); an entry that couples two sectors raises
``ValueError``, so no entry is silently lost, and no entry is dropped.

A family member's coefficients form one run, and its values at a run of
points are formed elementwise (:meth:`Blocks.polynomial_at`), every complex
product rounded as CPython 3.11 rounds it (:func:`_product`), so no value
depends on BLAS or its threads.  Every product of operators is one numpy
``@`` per group: each ``s x s`` product is one BLAS call, whose sums run in
an order of BLAS's choosing.

Scaling a run (:meth:`Blocks.__mul__`) is numpy's complex ``*``, which may
fuse a multiply and an add.  The scalars are real or purely imaginary (a
determinant's sign, the ``delta`` factors at a real twist), so each part of
each product is one rounded product plus an exact zero, and ``*`` gives the
bits of :func:`_product`, signed zeros, infinities and NaNs included; only a
product that underflows to zero may differ in that zero's sign.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import numbers
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np


def _product(a: np.ndarray, b) -> np.ndarray:
    """``a * b`` elementwise, rounded as CPython rounds a complex product
    (``re = ar*br - ai*bi``, ``im = ar*bi + ai*br``, no fused multiply-add),
    which numpy's complex ``*`` need not do."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    np.multiply(a.real, b.real, out=out.real)
    out.real -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=out.imag)
    out.imag += a.imag * b.real
    return out


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a / b`` elementwise, rounded as CPython rounds a complex quotient
    (Smith's method: the ratio of the smaller to the larger part of ``b``,
    no fused multiply-add), which numpy's complex ``/`` need not do."""
    big = np.abs(b.real) >= np.abs(b.imag)
    x, y = np.where(big, b.real, b.imag), np.where(big, b.imag, b.real)
    ratio = y / x
    denom = x + y * ratio
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = np.where(big, a.real + a.imag * ratio, a.real * ratio + a.imag) / denom
    out.imag = np.where(big, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom
    return out


class SectorLayout:
    """The letter-count sectors of one chain.

    ``labels`` are the letter-count vectors in sorted order and ``sectors``
    the basis indices of each, in basis order.  ``sector`` and ``position``
    give each basis index's sector and its place there.  ``groups`` holds,
    for each sector size in increasing order, the ``(S, s)`` array of the
    basis indices of its ``S`` sectors, in label order, and ``slot`` gives
    each label's group and its place among the group's sectors.
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
        self.slot: Dict[Tuple[int, ...], Tuple[int, int]] = {}
        for g, idx in enumerate(self.groups):
            self.group[idx] = g
            self.row_start[idx] = np.arange(idx.size).reshape(idx.shape) * idx.shape[1]
            for i, row in enumerate(idx):
                self.slot[self.labels[self.sector[row[0]]]] = (g, i)

    def scatter(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> "Blocks":
        """The run of operators whose entries at ``(rows[e], cols[e])`` are
        ``values[:, e]``, one row of ``values`` per operator.

        Each entry starts from ``0.0``, and entries on one place are added
        in array order.  An entry that couples two sectors raises
        ``ValueError``."""
        if (self.sector[rows] != self.sector[cols]).any():
            raise ValueError("an operator entry lies outside the letter-count blocks")
        count = len(values)
        group, at = self.group[rows], self.row_start[rows] + self.position[cols]
        arrays = []
        for g, idx in enumerate(self.groups):
            size, mine = idx.size * idx.shape[1], group == g
            flat = np.zeros(count * size, dtype=complex)
            np.add.at(flat, (np.arange(count)[:, None] * size + at[mine]).ravel(),
                      values[:, mine].ravel())
            arrays.append(flat.reshape(count, *idx.shape, idx.shape[1]))
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
        """The run of the operators ``index`` picks: an integer picks a run
        of one, a slice or an index list a run of those."""
        if isinstance(index, numbers.Integral):
            return Blocks(self.layout, [a[index][None] for a in self.arrays])
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

        The powers of ``z`` and the exponentials are formed in Python complex
        arithmetic.  Each entry's sum starts from ``0.0`` and adds the terms
        ``c_k z^k`` coefficient after coefficient; the sum is then scaled by
        the exponential.  Every product rounds as :func:`_product`: a term is
        formed on the entries' real and imaginary parts as ``c_k Re(z^k) +
        (i c_k) Im(z^k)``.  Where every ``Im(z^k)`` is zero, the second part
        adds only signed zeros, which the sum from ``0.0`` drops, so it is
        left out; no finite value changes.  The groups are evaluated
        together, as one row of entries per coefficient."""
        powers = []
        for z in points:
            zk, row = 1.0 + 0.0j, []
            for _ in range(self.count):
                row.append(zk)
                zk *= z
            powers.append(row)
        powers = np.array(powers, dtype=complex)[:, :, None]
        factor = np.array([cmath.exp(1j * z * sigma) for z in points],
                          dtype=complex)[:, None]
        coeffs = np.concatenate([a.reshape(self.count, -1) for a in self.arrays], axis=1)
        # the real and imaginary part of each entry, and those of i c_k
        parts, turned = coeffs.view(float), None
        acc = np.zeros((len(points), parts.shape[1]))
        term = np.empty_like(acc)
        for k in range(self.count):
            np.multiply(parts[k], powers[:, k].real, out=term)
            if powers[:, k].imag.any():
                if turned is None:
                    turned = np.empty_like(coeffs)
                    turned.real, turned.imag = -coeffs.imag, coeffs.real
                    turned = turned.view(float)
                term += turned[k] * powers[:, k].imag
            acc += term
        values = _product(acc.view(complex), factor)
        out, start = [], 0
        for a in self.arrays:
            end = start + a[0].size
            out.append(np.ascontiguousarray(values[:, start:end]).reshape(
                len(points), *a.shape[1:]))
            start = end
        return Blocks(self.layout, out)

    def norms(self) -> np.ndarray:
        """Largest entry modulus (max norm) of each operator; a NaN entry
        makes its operator's norm NaN."""
        return np.max([np.abs(a).max(axis=(1, 2, 3)) for a in self.arrays], axis=0)

    def group_stack(self, g: int) -> np.ndarray:
        """The ``(S, count, s, s)`` blocks of the sectors of size group
        ``g``: each sector's blocks as one contiguous stack."""
        return np.ascontiguousarray(self.arrays[g].swapaxes(0, 1))

    def to_dense(self) -> np.ndarray:
        """The ``(dim, dim)`` matrix of a run of one operator, zero off the
        sector blocks."""
        if self.count != 1:
            raise ValueError("a dense matrix is formed for a run of one operator")
        out = np.zeros((self.layout.dim, self.layout.dim), dtype=complex)
        for idx, a in zip(self.layout.groups, self.arrays):
            out[idx[:, :, None], idx[:, None, :]] = a[0]
        return out


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
