"""Functional relations between the commuting-family operators.

Everything here is checked at the operator level: members of the family
commute, so products of evaluated operators are unambiguous, and every
relation is verified as a matrix identity on the full chain Hilbert space.

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

from .glrep import permutation_sign, shifted_weights
from . import tensor
from .tensor import QuantumOperator, stack_chunks, stack_size
from .transfer import (OperatorPolynomial, TwistConfig, build_Q, build_T_box,
                       build_X_plus)

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

    Each member's values at a tuple of points, one stack, are cached too,
    where the stack spans at most ``STACK_SLOTS`` slots: the checks of one
    suite read the same members at the same points many times.  Callers drop
    them with :meth:`drop_values` when a suite ends, so that the values of one
    suite are held at a time."""

    def __init__(self, n: int, length: int, twist: TwistConfig):
        self.n, self.length, self.twist = n, length, twist
        self._cache: Dict[IndexSet, OperatorPolynomial] = {}
        self._t_box: Optional[OperatorPolynomial] = None
        self._stacks: Dict[Tuple[IndexSet, Tuple[float, ...]], QuantumOperator] = {}

    def q(self, index_set: Sequence[int]) -> OperatorPolynomial:
        I = tuple(sorted(index_set))
        if I not in self._cache:
            self._cache[I] = build_Q(self.n, self.length, I, self.twist)
        return self._cache[I]

    def q_at(self, index_set: Sequence[int], points: Sequence[float]
             ) -> QuantumOperator:
        """The stack of ``Q_I`` at each of ``points``."""
        key = (tuple(sorted(index_set)), tuple(points))
        out = self._stacks.get(key)
        if out is None:
            out = self.q(key[0]).at(key[1])
            if len(points) * out.dim ** 2 <= tensor.STACK_SLOTS:
                self._stacks[key] = out
        return out

    def drop_values(self) -> None:
        """Forget the cached values of :meth:`q_at`."""
        self._stacks.clear()

    def t_box(self) -> OperatorPolynomial:
        if self._t_box is None:
            self._t_box = build_T_box(self.n, self.length, self.twist)
        return self._t_box


Sides = Callable[[List[float]], Tuple[QuantumOperator, QuantumOperator]]


def _max_residual(sides: Sides, dim: int, length: int) -> float:
    """Largest ``(lhs - rhs).norm()`` over ``length + 2`` deterministic generic
    points, where ``lhs, rhs = sides(points)`` are the stacks of both sides at
    a run of points.  The points are kept inside the unit interval so that
    degree-L entries stay O(1) and residuals reflect precision; they go to
    ``sides`` in runs of at most ``stack_size(dim)``."""
    count = length + 2
    z_values = [-0.83 + 1.67 * k / (count - 1) + 0.0137 * (k % 3)
                for k in range(count)]
    worst = 0.0
    for points in stack_chunks(z_values, dim):
        lhs, rhs = sides(points)
        worst = (lhs - rhs).norms().max(initial=worst)  # keeps a NaN, unlike max()
    return float(worst)


# -- bilinear quadrilateral relation ----------------------------------------------


def hirota_residual(n: int, length: int, index_set: Sequence[int], a: int,
                    b: int, twist: TwistConfig, family: QFamily | None = None
                    ) -> float:
    """Max-entry residual of the quadrilateral relation at several points.

    Antisymmetric under a <-> b; both orders are accepted.
    """
    I = tuple(sorted(index_set))
    if a in I or b in I or a == b:
        raise ValueError("indices must be distinct and outside the set")
    qf = family or QFamily(n, length, twist)

    def sides(zs: List[float]) -> Tuple[QuantumOperator, QuantumOperator]:
        up, down = [z + 0.5 for z in zs], [z - 0.5 for z in zs]
        return ((qf.q_at(I + (a, b), zs) @ qf.q_at(I, zs)) * delta_pair(twist, a, b),
                qf.q_at(I + (a,), up) @ qf.q_at(I + (b,), down)
                - qf.q_at(I + (b,), up) @ qf.q_at(I + (a,), down))

    return _max_residual(sides, n ** length, length)


# -- determinant forms ------------------------------------------------------------


def _operator_det(entries: List[List[QuantumOperator]]) -> QuantumOperator:
    """Determinants of matrices of pairwise-commuting operators: the entries
    are stacks, and operator ``b`` of the result is the determinant of the
    operators ``b`` of the entries.

    The signed products ``entries[0][s0] @ entries[1][s1] @ ...`` are added
    one at a time over permutations ``s`` in lexicographic order.  A
    depth-first walk forms each left-associated prefix product once and shares
    it among the permutations that extend it.  It holds the prefixes in groups
    of consecutive permutations of one length, each group one stack of at most
    ``stack_size(dim)`` operators, and forms a group's children together, in
    groups of the same bound.  With one operator per group, it holds the
    prefixes a walk of single products holds.
    """
    p = len(entries)
    dim, count = entries[0][0].dim, entries[0][0].count
    per = max(1, stack_size(dim) // count)
    out = QuantumOperator.zero(dim, count)
    # (permutation prefixes, their products as one stack); the root is empty
    todo: List[Tuple[List[Tuple[int, ...]], Optional[QuantumOperator]]] = [([()], None)]
    while todo:
        sigs, prefixes = todo.pop()
        row = len(sigs[0])
        if row == p:
            signed = prefixes * [float(permutation_sign(s)) for s in sigs
                                 for _ in range(count)]
            for i in range(len(sigs)):
                out = out + signed.take(range(i * count, (i + 1) * count))
            continue
        children = [(i, col) for i, sig in enumerate(sigs)
                    for col in range(p) if col not in sig]
        for lo in reversed(range(0, len(children), per)):
            group = children[lo:lo + per]
            products = QuantumOperator.stack([entries[row][col] for _, col in group])
            if prefixes is not None:
                products = prefixes.take([i * count + b for i, _ in group
                                          for b in range(count)]) @ products
            todo.append(([sigs[i] + (col,) for i, col in group], products))
    return out


def _q_det(family: QFamily, letters: Sequence[int],
           point_lists: Sequence[Sequence[float]]) -> QuantumOperator:
    """The stack of ``det | Q_{a_i}(z_j) |`` over the letters ``a_i``, one for
    each list of points ``z_j`` in ``point_lists``."""
    return _operator_det([[family.q_at((a,), [zs[j] for zs in point_lists])
                           for j in range(len(letters))] for a in letters])


def q_determinant_residual(n: int, length: int, index_set: Sequence[int],
                           twist: TwistConfig, family: QFamily | None = None
                           ) -> float:
    """Residual of delta_set(I) Q_I(z) = det | Q_{a_i}(z + (p+1)/2 - j) |."""
    I = tuple(sorted(index_set))
    p = len(I)
    if p == 0:
        raise ValueError("the empty set has no determinant form")
    qf = family or QFamily(n, length, twist)
    shifts = [(p + 1) / 2 - j for j in range(1, p + 1)]
    return _max_residual(
        lambda zs: (qf.q_at(I, zs) * delta_set(twist, I),
                    _q_det(qf, I, [[z + s for s in shifts] for z in zs])),
        n ** length, length)


def t_determinant_residual(n: int, length: int, twist: TwistConfig,
                           family: QFamily | None = None) -> float:
    """Residual of the determinant form of the defining-carrier transfer op."""
    qf = family or QFamily(n, length, twist)
    tbox = qf.t_box()
    shifts = shifted_weights([1.0] + [0.0] * (n - 1))
    full = tuple(range(1, n + 1))
    return _max_residual(
        lambda zs: (tbox.at(zs) * delta_set(twist, full),
                    _q_det(qf, full, [[z + s for s in shifts] for z in zs])),
        n ** length, length)


# -- split/merge of highest-weight operators --------------------------------------


def x_merge_residual(n: int, length: int, set_i: Sequence[int],
                     set_j: Sequence[int], weight_i: Sequence[float],
                     weight_j: Sequence[float], shift: float,
                     twist: TwistConfig) -> float:
    """Residual of the split of a highest-weight operator into two blocks."""
    I, J = tuple(sorted(set_i)), tuple(sorted(set_j))
    if set(I) & set(J):
        raise ValueError("blocks must be disjoint")
    union = tuple(sorted(I + J))
    p1, p2 = len(I), len(J)
    x_i = build_X_plus(n, length, I, tuple(weight_i), twist)
    x_j = build_X_plus(n, length, J, tuple(weight_j), twist)
    merged_weight = tuple(w + shift for w in weight_i) + tuple(weight_j)
    x_u = build_X_plus(n, length, union, merged_weight, twist)
    scale = delta_set(twist, I) * delta_set(twist, J)
    return _max_residual(
        lambda zs: ((x_i.at([z + shift + p2 / 2 for z in zs])
                     @ x_j.at([z - p1 / 2 for z in zs])) * scale,
                    x_u.at(zs) * delta_set(twist, union)),
        n ** length, length)


def x_product_form_residual(n: int, length: int, index_set: Sequence[int],
                            weight: Sequence[float], twist: TwistConfig,
                            family: QFamily | None = None) -> float:
    """Residual of delta(I) X_I(z, W) = prod_i Q_{a_i}(z + w_i + (p-2i+1)/2)."""
    I = tuple(sorted(index_set))
    qf = family or QFamily(n, length, twist)
    x = build_X_plus(n, length, I, tuple(weight), twist)
    shifts = shifted_weights(weight)
    return _max_residual(
        lambda zs: (x.at(zs) * delta_set(twist, I),
                    reduce(matmul, [qf.q_at((a,), [z + s for z in zs])
                                    for a, s in zip(I, shifts)],
                           QuantumOperator.identity(n ** length, len(zs)))),
        n ** length, length)


# -- exchange (three-term) relation of determinants --------------------------------


def plucker_residual(n: int, length: int, chain: Sequence[int], k: int,
                     z_points: Sequence[float], twist: TwistConfig,
                     family: QFamily | None = None) -> float:
    """Three-term exchange relation between determinants over shifted points.

    ``chain`` is an ordering of letters; the relation uses the nested sets
    ``I_k`` (first k letters, sorted) and ``I_{k-1}``.  ``z_points`` supplies
    the k+1 spectral points z_0 .. z_k.  With
    ``D_m(S) = det | Q_{c_i}(z_j) |`` over the first m chain letters and the
    point list S, the cleared-denominator relation is::

        D_k(z0, z2..zk) D_{k-1}(z1..z_{k-1})
            = D_k(z0..z_{k-1}) D_{k-1}(z2..zk)
            + D_{k-1}(z0, z2..z_{k-1}) D_k(z1..zk)

    The three determinants of each size are formed as one stack.
    """
    if k < 2:
        raise ValueError("the relation needs at least two nested levels")
    if len(z_points) != k + 1:
        raise ValueError("need k+1 spectral points")
    qf = family or QFamily(n, length, twist)
    z = list(z_points)

    def dets(letters: Sequence[int], point_lists: List[List[float]]
             ) -> List[QuantumOperator]:
        out = []
        for lists in stack_chunks(point_lists, n ** length):
            stack = _q_det(qf, tuple(sorted(letters)), lists)
            out.extend(stack.take([b]) for b in range(stack.count))
        return out

    d_k = dets(chain[:k], [[z[0]] + z[2:], z[:k], z[1:]])
    d_km1 = dets(chain[:k - 1], [z[1:k], z[2:], [z[0]] + z[2:k]])
    lhs = d_k[0] @ d_km1[0]
    rhs = d_k[1] @ d_km1[1] + d_km1[2] @ d_k[2]
    return (lhs - rhs).norm()
