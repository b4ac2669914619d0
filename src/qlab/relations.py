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

from .glrep import permutation_sign
from .tensor import QuantumOperator
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
    transfer operator for one chain and twist; each is built on first use."""

    def __init__(self, n: int, length: int, twist: TwistConfig):
        self.n, self.length, self.twist = n, length, twist
        self._cache: Dict[IndexSet, OperatorPolynomial] = {}
        self._t_box: Optional[OperatorPolynomial] = None

    def q(self, index_set: Sequence[int]) -> OperatorPolynomial:
        I = tuple(sorted(index_set))
        if I not in self._cache:
            self._cache[I] = build_Q(self.n, self.length, I, self.twist)
        return self._cache[I]

    def t_box(self) -> OperatorPolynomial:
        if self._t_box is None:
            self._t_box = build_T_box(self.n, self.length, self.twist)
        return self._t_box


def _max_residual(sides: Callable[[float], Tuple[QuantumOperator, QuantumOperator]],
                  length: int, z_values: Sequence[float] | None) -> float:
    """Largest ``(lhs - rhs).norm()`` of ``lhs, rhs = sides(z)`` over ``z_values``,
    by default ``length + 2`` deterministic generic points, kept inside the unit
    interval so that degree-L entries stay O(1) and residuals reflect precision."""
    if z_values is None:
        count = length + 2
        z_values = [-0.83 + 1.67 * k / (count - 1) + 0.0137 * (k % 3)
                    for k in range(count)]
    worst = 0.0
    for z in z_values:
        lhs, rhs = sides(z)
        worst = max(worst, (lhs - rhs).norm())
    return worst


# -- bilinear quadrilateral relation ----------------------------------------------


def hirota_residual(n: int, length: int, index_set: Sequence[int], a: int,
                    b: int, twist: TwistConfig, family: QFamily | None = None,
                    z_values: Sequence[float] | None = None) -> float:
    """Max-entry residual of the quadrilateral relation at several points.

    Antisymmetric under a <-> b; both orders are accepted.
    """
    I = tuple(sorted(index_set))
    if a in I or b in I or a == b:
        raise ValueError("indices must be distinct and outside the set")
    qf = family or QFamily(n, length, twist)
    q_i = qf.q(I)
    q_ia = qf.q(I + (a,))
    q_ib = qf.q(I + (b,))
    q_iab = qf.q(I + (a, b))
    return _max_residual(
        lambda z: ((q_iab.at(z) @ q_i.at(z)) * delta_pair(twist, a, b),
                   q_ia.at(z + 0.5) @ q_ib.at(z - 0.5)
                   - q_ib.at(z + 0.5) @ q_ia.at(z - 0.5)),
        length, z_values)


# -- determinant forms ------------------------------------------------------------


def _operator_det(entries: List[List[QuantumOperator]]) -> QuantumOperator:
    """Determinant of a matrix of pairwise-commuting operators.

    The signed products ``entries[0][s0] @ entries[1][s1] @ ...`` are summed
    over permutations ``s`` in lexicographic order.  A depth-first walk forms
    each left-associated prefix product once and shares it among the
    permutations that extend it.
    """
    p = len(entries)
    out = QuantumOperator.zero(entries[0][0].dim)
    stack = [((col,), entries[0][col]) for col in reversed(range(p))]
    while stack:
        sig, prefix = stack.pop()
        row = len(sig)
        if row == p:
            out = out + prefix * permutation_sign(sig)
            continue
        stack.extend((sig + (col,), prefix @ entries[row][col])
                     for col in reversed(range(p)) if col not in sig)
    return out


def _q_det(family: QFamily, letters: Sequence[int],
           points: Sequence[float]) -> QuantumOperator:
    """``det | Q_{a_i}(z_j) |`` over the letters ``a_i`` and the points ``z_j``."""
    return _operator_det([[family.q((a,)).at(z) for z in points] for a in letters])


def q_determinant_residual(n: int, length: int, index_set: Sequence[int],
                           twist: TwistConfig, family: QFamily | None = None,
                           z_values: Sequence[float] | None = None) -> float:
    """Residual of delta_set(I) Q_I(z) = det | Q_{a_i}(z + (p+1)/2 - j) |."""
    I = tuple(sorted(index_set))
    p = len(I)
    if p == 0:
        raise ValueError("the empty set has no determinant form")
    qf = family or QFamily(n, length, twist)
    shifts = [(p + 1) / 2 - j for j in range(1, p + 1)]
    return _max_residual(
        lambda z: (qf.q(I).at(z) * delta_set(twist, I),
                   _q_det(qf, I, [z + s for s in shifts])),
        length, z_values)


def t_determinant_residual(n: int, length: int, twist: TwistConfig,
                           family: QFamily | None = None,
                           z_values: Sequence[float] | None = None) -> float:
    """Residual of the determinant form of the defining-carrier transfer op."""
    qf = family or QFamily(n, length, twist)
    tbox = qf.t_box()
    weight = [1.0] + [0.0] * (n - 1)
    shifts = [weight[j - 1] + (n - 2 * j + 1) / 2 for j in range(1, n + 1)]
    full = tuple(range(1, n + 1))
    return _max_residual(
        lambda z: (tbox.at(z) * delta_set(twist, full),
                   _q_det(qf, full, [z + s for s in shifts])),
        length, z_values)


# -- split/merge of highest-weight operators --------------------------------------


def x_merge_residual(n: int, length: int, set_i: Sequence[int],
                     set_j: Sequence[int], weight_i: Sequence[float],
                     weight_j: Sequence[float], shift: float,
                     twist: TwistConfig,
                     z_values: Sequence[float] | None = None) -> float:
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
        lambda z: ((x_i.at(z + shift + p2 / 2) @ x_j.at(z - p1 / 2)) * scale,
                   x_u.at(z) * delta_set(twist, union)),
        length, z_values)


def x_product_form_residual(n: int, length: int, index_set: Sequence[int],
                            weight: Sequence[float], twist: TwistConfig,
                            family: QFamily | None = None,
                            z_values: Sequence[float] | None = None) -> float:
    """Residual of delta(I) X_I(z, W) = prod_i Q_{a_i}(z + w_i + (p-2i+1)/2)."""
    I = tuple(sorted(index_set))
    p = len(I)
    qf = family or QFamily(n, length, twist)
    x = build_X_plus(n, length, I, tuple(weight), twist)
    shifts = [weight[i - 1] + (p - 2 * i + 1) / 2 for i in range(1, p + 1)]
    return _max_residual(
        lambda z: (x.at(z) * delta_set(twist, I),
                   reduce(matmul, [qf.q((a,)).at(z + s) for a, s in zip(I, shifts)],
                          QuantumOperator.identity(n ** length))),
        length, z_values)


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
    """
    if k < 2:
        raise ValueError("the relation needs at least two nested levels")
    if len(z_points) != k + 1:
        raise ValueError("need k+1 spectral points")
    qf = family or QFamily(n, length, twist)
    letters_k = tuple(sorted(chain[:k]))
    letters_km1 = tuple(sorted(chain[:k - 1]))
    z = list(z_points)
    lhs = _q_det(qf, letters_k, [z[0]] + z[2:]) @ _q_det(qf, letters_km1, z[1:k])
    rhs = _q_det(qf, letters_k, z[:k]) @ _q_det(qf, letters_km1, z[2:]) \
        + _q_det(qf, letters_km1, [z[0]] + z[2:k]) @ _q_det(qf, letters_k, z[1:])
    return (lhs - rhs).norm()
