"""Functional relations between the commuting-family operators.

Everything here is checked at the operator level: members of the family
commute, so products of evaluated operators are unambiguous, and every
relation is verified as a matrix identity on the full chain Hilbert space.
Every member conserves the letter counts, so each identity is formed on the
dense letter-count sector blocks of :mod:`qlab.tensor`, at all of a check's
spectral points at once, and its residual is the largest entry modulus of
the difference of the two sides.

Every check takes the chain's :class:`QFamily` first and reads ``n``, the
length and the twist from it.  The family decides what it builds: the first
value asked of a set builds every set of that size it lacks, in one Wick
expansion, since each relation suite reads every set of each size it
touches.

Conventions (all pinned against explicit constructions):

- pair factor ``delta_pair(a, b) = 2i sin((phi_a - phi_b)/2)``; set factor
  ``delta_set(I)`` is the product over ordered pairs of ``I``.
- quadrilateral (bilinear) relation, for ``a < b`` not in ``I``::

      delta_pair(a,b) Q_{I+ab}(z) Q_I(z)
          = Q_{I+a}(z+1/2) Q_{I+b}(z-1/2) - Q_{I+b}(z+1/2) Q_{I+a}(z-1/2)

- determinant forms: ``delta_set(I) Q_I(z) = det | Q_{a_i}(z + (p+1)/2 - j) |``
  and, for the defining-carrier transfer operator,
  ``delta_set(full) T(z) = det | Q_i(z + lam'_j) |`` with
  ``lam'_j = lam_j + (n - 2j + 1)/2`` for the defining weight (1, 0, ..., 0).
- split/merge of highest-weight operators: with ``p1 = |I|``, ``p2 = |J|``::

      delta(I) X_I(z + s + p2/2, W1) . delta(J) X_J(z - p1/2, W2)
          = delta(I+J) X_{I+J}(z, (W1 + s, W2))

- product form: ``delta(I) X_I(z, W) = prod_i Q_{a_i}(z + w_i + (p-2i+1)/2)``.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from functools import reduce
from operator import matmul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .glrep import permutation_sign, shifted_weights
from .tensor import Blocks
from .transfer import (OperatorPolynomial, TwistConfig, build_Q, build_Qs,
                       build_T_box, build_X_plus)

IndexSet = Tuple[int, ...]


# -- scalar prefactors -----------------------------------------------------------


def delta_pair(twist: TwistConfig, a: int, b: int) -> complex:
    return 2j * cmath.sin((twist.phi(a) - twist.phi(b)) / 2)


def delta_set(twist: TwistConfig, index_set: Sequence[int]) -> complex:
    out: complex = 1.0
    I = tuple(index_set)
    for i in range(len(I)):
        for j in range(i + 1, len(I)):
            out *= delta_pair(twist, I[i], I[j])
    return out


# -- Hasse diagram of index subsets ----------------------------------------------


@dataclass(frozen=True)
class HasseDiagram:
    """Boolean lattice of index subsets ordered by inclusion."""
    n: int
    nodes: Tuple[IndexSet, ...]
    edges: Tuple[Tuple[IndexSet, IndexSet], ...]
    quadrilaterals: Tuple[Tuple[IndexSet, int, int], ...]
    chains: Tuple[Tuple[int, ...], ...]


def enumerate_hasse(n: int) -> HasseDiagram:
    """Nodes, covering edges, quadrilaterals (I, a, b), and maximal chains."""
    if not 1 <= n <= 6:
        raise ValueError("letter count out of supported range")
    letters = tuple(range(1, n + 1))
    nodes = tuple(sorted(
        (tuple(sorted(c)) for r in range(n + 1)
         for c in itertools.combinations(letters, r)),
        key=lambda s: (len(s), s)))
    edges = tuple((I, tuple(sorted(I + (a,))))
                  for I in nodes for a in letters if a not in I)
    quads = tuple((I, a, b)
                  for I in nodes
                  for a, b in itertools.combinations(
                      [x for x in letters if x not in I], 2))
    chains = tuple(itertools.permutations(letters))
    return HasseDiagram(n, nodes, edges, quads, chains)


# -- cached family ----------------------------------------------------------------


class QFamily:
    """Cache of the trivial-carrier family members and the defining-carrier
    transfer operator for one chain and twist; each is built on first use.

    :meth:`q_at`, which the relation checks read, builds on a miss every set
    of the set's size not held yet, in one :func:`qlab.transfer.build_Qs`
    call: each check reads every set of each size it touches.  :meth:`q`
    builds only its own set: the spectrum reads one set per size.  No member
    held is built again.

    A member's values at a tuple of points are cached too: the checks of one
    suite read the same members at the same points many times.  Callers drop
    them with :meth:`drop_values` when a suite ends, so that the values of
    one suite are held at a time."""

    def __init__(self, n: int, length: int, twist: TwistConfig):
        self.n, self.length, self.twist = n, length, twist
        self._cache: Dict[IndexSet, OperatorPolynomial] = {}
        self._t_box: Optional[OperatorPolynomial] = None
        self._values: Dict[Tuple[object, Tuple[float, ...]], Blocks] = {}

    def q(self, index_set: Sequence[int]) -> OperatorPolynomial:
        I = tuple(sorted(index_set))
        if I not in self._cache:
            self._cache[I] = build_Q(self.n, self.length, I, self.twist)
        return self._cache[I]

    def t_box(self) -> OperatorPolynomial:
        if self._t_box is None:
            self._t_box = build_T_box(self.n, self.length, self.twist)
        return self._t_box

    def q_at(self, index_set: Sequence[int], points: Sequence[float]) -> Blocks:
        """The run of ``Q_I`` at each of ``points``."""
        I = tuple(sorted(index_set))
        if I not in self._cache:
            self._cache.update(build_Qs(self.n, self.length, [
                J for J in itertools.combinations(range(1, self.n + 1), len(I))
                if J not in self._cache], self.twist))
        return self._at(I, self._cache[I], points)

    def t_at(self, points: Sequence[float]) -> Blocks:
        """The run of the defining-carrier transfer operator at each of ``points``."""
        return self._at("T", self.t_box(), points)

    def _at(self, key: object, member: OperatorPolynomial,
            points: Sequence[float]) -> Blocks:
        points = tuple(points)
        out = self._values.get((key, points))
        if out is None:
            out = self._values[key, points] = member.values(points)
        return out

    def drop_values(self) -> None:
        """Forget the cached values of :meth:`q_at` and :meth:`t_at`."""
        self._values.clear()


Sides = Callable[[List[float]], Tuple[Blocks, Blocks]]


def _residual(lhs: Blocks, rhs: Blocks) -> float:
    """Largest max-entry norm of ``lhs - rhs`` over the run; a NaN entry
    makes it NaN."""
    return float(np.max((lhs - rhs).norms()))


def _max_residual(sides: Sides, length: int) -> float:
    """:func:`_residual` of ``sides(points)``, the runs of both sides at
    ``length + 2`` deterministic generic points.  The points are kept inside
    the unit interval so that degree-L entries stay O(1) and residuals
    reflect precision."""
    count = length + 2
    return _residual(*sides([-0.83 + 1.67 * k / (count - 1) + 0.0137 * (k % 3)
                             for k in range(count)]))


# -- bilinear quadrilateral relation ----------------------------------------------


def hirota_residual(family: QFamily, index_set: Sequence[int], a: int, b: int) -> float:
    """Max-entry residual of the quadrilateral relation at several points.

    Antisymmetric under a <-> b; both orders are accepted.
    """
    I = tuple(sorted(index_set))
    if a in I or b in I or a == b:
        raise ValueError("indices must be distinct and outside the set")
    q_at = family.q_at

    def sides(zs: List[float]) -> Tuple[Blocks, Blocks]:
        up, down = [z + 0.5 for z in zs], [z - 0.5 for z in zs]
        return ((q_at(I + (a, b), zs) @ q_at(I, zs)) * delta_pair(family.twist, a, b),
                q_at(I + (a,), up) @ q_at(I + (b,), down)
                - q_at(I + (b,), up) @ q_at(I + (a,), down))

    return _max_residual(sides, family.length)


# -- determinant forms ------------------------------------------------------------


def _operator_det(entries: List[List[Blocks]]) -> Blocks:
    """Determinants of matrices of pairwise-commuting operators: the entries
    are runs, and operator ``b`` of the result is the determinant of the
    operators ``b`` of the entries.

    The signed products ``entries[0][s0] @ entries[1][s1] @ ...`` are added
    one at a time over permutations ``s`` in lexicographic order.  A
    depth-first walk forms each left-associated prefix product once and
    shares it among the permutations that extend it.
    """
    p = len(entries)
    out: Optional[Blocks] = None
    todo: List[Tuple[Tuple[int, ...], Optional[Blocks]]] = [((), None)]
    while todo:
        sig, prefix = todo.pop()
        row = len(sig)
        if row == p:
            term = prefix * float(permutation_sign(sig))
            out = term if out is None else out + term
            continue
        for col in reversed(range(p)):
            if col not in sig:
                entry = entries[row][col]
                todo.append((sig + (col,), entry if prefix is None else prefix @ entry))
    return out


def _q_det(family: QFamily, letters: Sequence[int],
           point_lists: Sequence[Sequence[float]]) -> Blocks:
    """The run of ``det | Q_{a_i}(z_j) |`` over the letters ``a_i``, one for
    each list of points ``z_j`` in ``point_lists``."""
    return _operator_det([[family.q_at((a,), [zs[j] for zs in point_lists])
                           for j in range(len(letters))] for a in letters])


def q_determinant_residual(family: QFamily, index_set: Sequence[int]) -> float:
    """Residual of delta_set(I) Q_I(z) = det | Q_{a_i}(z + (p+1)/2 - j) |."""
    I = tuple(sorted(index_set))
    p = len(I)
    if p == 0:
        raise ValueError("the empty set has no determinant form")
    shifts = [(p + 1) / 2 - j for j in range(1, p + 1)]
    return _max_residual(
        lambda zs: (family.q_at(I, zs) * delta_set(family.twist, I),
                    _q_det(family, I, [[z + s for s in shifts] for z in zs])),
        family.length)


def t_determinant_residual(family: QFamily) -> float:
    """Residual of the determinant form of the defining-carrier transfer op."""
    shifts = shifted_weights([1.0] + [0.0] * (family.n - 1))
    full = tuple(range(1, family.n + 1))
    return _max_residual(
        lambda zs: (family.t_at(zs) * delta_set(family.twist, full),
                    _q_det(family, full, [[z + s for s in shifts] for z in zs])),
        family.length)


# -- split/merge of highest-weight operators --------------------------------------


def x_merge_residual(family: QFamily, set_i: Sequence[int], set_j: Sequence[int],
                     weight_i: Sequence[float], weight_j: Sequence[float],
                     shift: float) -> float:
    """Residual of the split of a highest-weight operator into two blocks."""
    I, J = tuple(sorted(set_i)), tuple(sorted(set_j))
    if set(I) & set(J):
        raise ValueError("blocks must be disjoint")
    union = tuple(sorted(I + J))
    p1, p2 = len(I), len(J)
    n, length, twist = family.n, family.length, family.twist
    x_i = build_X_plus(n, length, I, tuple(weight_i), twist)
    x_j = build_X_plus(n, length, J, tuple(weight_j), twist)
    merged_weight = tuple(w + shift for w in weight_i) + tuple(weight_j)
    x_u = build_X_plus(n, length, union, merged_weight, twist)
    scale = delta_set(twist, I) * delta_set(twist, J)
    return _max_residual(
        lambda zs: ((x_i.values([z + shift + p2 / 2 for z in zs])
                     @ x_j.values([z - p1 / 2 for z in zs])) * scale,
                    x_u.values(zs) * delta_set(twist, union)),
        length)


def x_product_form_residual(family: QFamily, index_set: Sequence[int],
                            weight: Sequence[float]) -> float:
    """Residual of delta(I) X_I(z, W) = prod_i Q_{a_i}(z + w_i + (p-2i+1)/2)."""
    I = tuple(sorted(index_set))
    x = build_X_plus(family.n, family.length, I, tuple(weight), family.twist)
    shifts = shifted_weights(weight)
    return _max_residual(
        lambda zs: (x.values(zs) * delta_set(family.twist, I),
                    reduce(matmul, [family.q_at((a,), [z + s for z in zs])
                                    for a, s in zip(I, shifts)],
                           family.q_at((), zs))),
        family.length)


# -- exchange (three-term) relation of determinants --------------------------------


def plucker_residual(family: QFamily, chain: Sequence[int], k: int,
                     z_points: Sequence[float]) -> float:
    """Three-term exchange relation between determinants over shifted points.

    ``chain`` is an ordering of letters; the relation uses the nested sets
    ``I_k`` (first k letters, sorted) and ``I_{k-1}``.  ``z_points`` supplies
    the k+1 spectral points z_0 .. z_k.  With
    ``D_m(S) = det | Q_{c_i}(z_j) |`` over the first m chain letters and the
    point list S, the cleared-denominator relation is::

        D_k(z0, z2..zk) D_{k-1}(z1..z_{k-1})
            = D_k(z0..z_{k-1}) D_{k-1}(z2..zk)
            + D_{k-1}(z0, z2..z_{k-1}) D_k(z1..zk)

    The three determinants of each size are formed as one run.
    """
    if k < 2:
        raise ValueError("the relation needs at least two nested levels")
    if len(z_points) != k + 1:
        raise ValueError("need k+1 spectral points")
    z = list(z_points)
    d_k = _q_det(family, tuple(sorted(chain[:k])), [[z[0]] + z[2:], z[:k], z[1:]])
    d_km1 = _q_det(family, tuple(sorted(chain[:k - 1])), [z[1:k], z[2:], [z[0]] + z[2:k]])
    return _residual(d_k[0:1] @ d_km1[0:1],
                     d_k[1:2] @ d_km1[1:2] + d_km1[2:3] @ d_k[2:3])
