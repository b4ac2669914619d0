"""First-order Lax matrices for the rational gl(n) chain.

A Lax matrix here is an ``n x n`` matrix, linear in the spectral parameter
``z``, whose entries act on (finite carrier) ⊗ (Fock space).  Three families
are provided:

* :func:`eval_lax` — entries ``z δ_ij + J_ji`` for any gl(n) realization;
* :func:`partonic_lax` — the one-oscillator-row building block (index set of
  size one, trivial gl(1) carrier);
* :func:`canonical_lax` — the general degenerate family for an arbitrary
  index set ``I`` carrying a gl(|I|) realization plus ``|I|(n-|I|)``
  oscillator pairs.

:func:`rll_residual` checks the defining exchange relation against the
rational R-matrix ``R(z) = z + P`` for every pair of spectral parameters at
once.  ``L(z) = z c0 + c1`` is linear, so the relation is a polynomial
identity in the two parameters, and it holds exactly when a set of
commutator identities among the coefficients ``c0``, ``c1`` does; these are
decided in the oscillator algebra, with no Fock space and no truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from .glrep import GlRep, trivial_rep
from .oscillator import (CarrierOp, Mode, NormalOrderedOp, _carrier_add,
                         _carrier_commutator, _carrier_max_coeff, _carrier_mul,
                         _carrier_neg, _worst)

ModeFn = Callable[[int, int], Mode]


def _default_mode_fn(a: int, x: int) -> Mode:
    return ("o", a, x)


@dataclass
class LaxMatrix:
    """``L(z) = z * c0 + c1`` with CarrierOp-valued coefficient matrices.

    ``c0`` is diagonal, with identities exactly at the positions of the
    carrier's labels.
    """
    n: int
    rep: GlRep
    c0: List[List[CarrierOp]]
    c1: List[List[CarrierOp]]

    @property
    def d(self) -> int:
        return self.rep.d

    def at(self, z: complex) -> List[List[CarrierOp]]:
        return [[self.c0[i][j].scale(z) + self.c1[i][j] for j in range(self.n)]
                for i in range(self.n)]


# -- constructors ---------------------------------------------------------------


def canonical_lax(n: int, index_set: Sequence[int], rep: GlRep,
                  mode_fn: ModeFn | None = None) -> LaxMatrix:
    """Degenerate first-order Lax matrix for index set ``I`` and a gl(|I|) carrier.

    Rows/columns in ``I`` carry ``z δ_ab + J_ba - Σ_{x∉I}(b†_{a,x} b_{x,b} + ½ δ_ab)``,
    the off-blocks carry raising operators ``b†_{a,x}`` (row in I) and
    ``-b_{x,a}`` (column in I), and the complement block is the identity.  The
    oscillator pair coupling ``a ∈ I`` to ``x ∉ I`` is the single ladder mode
    ``mode_fn(a, x)``.
    """
    I = tuple(sorted(index_set))
    if len(set(I)) != len(I):
        raise ValueError("index set entries must be distinct")
    if any(not 1 <= a <= n for a in I):
        raise ValueError("index set out of range")
    if tuple(sorted(rep.labels)) != I:
        raise ValueError("carrier labels must match the index set")
    if mode_fn is None:
        mode_fn = _default_mode_fn
    d = rep.d
    outside = [x for x in range(1, n + 1) if x not in I]
    zero = CarrierOp(d)
    ident = CarrierOp.identity(d)

    c0 = [[zero for _ in range(n)] for _ in range(n)]
    c1 = [[zero for _ in range(n)] for _ in range(n)]
    for i, a in enumerate(range(1, n + 1)):
        for j, b in enumerate(range(1, n + 1)):
            if a in I and b in I:
                if a == b:
                    c0[i][j] = ident
                g = rep.gen(b, a)  # transposed generator block
                for x in outside:
                    bilin = NormalOrderedOp.creator(mode_fn(a, x)) * \
                        NormalOrderedOp.annihilator(mode_fn(b, x))
                    if a == b:
                        bilin = bilin + 0.5
                    g = g - CarrierOp.from_scalar_op(bilin, d)
                c1[i][j] = g
            elif a in I:
                c1[i][j] = CarrierOp.from_scalar_op(
                    NormalOrderedOp.creator(mode_fn(a, b)), d)
            elif b in I:
                c1[i][j] = CarrierOp.from_scalar_op(
                    -NormalOrderedOp.annihilator(mode_fn(b, a)), d)
            elif a == b:
                c1[i][j] = ident
    return LaxMatrix(n, rep, c0, c1)


def eval_lax(rep: GlRep) -> LaxMatrix:
    """Evaluation Lax matrix ``z δ_ij + J_ji`` for a gl(n) realization."""
    n = rep.p
    if tuple(sorted(rep.labels)) != tuple(range(1, n + 1)):
        raise ValueError("evaluation form needs labels 1..n")
    return canonical_lax(n, range(1, n + 1), rep)


def partonic_lax(n: int, a: int) -> LaxMatrix:
    """Single-index Lax matrix: diagonal ``z - Σ_{x≠a}(N_{(a,x)} + ½)`` at ``a``,
    creators along row ``a``, minus-annihilators down column ``a``; the pair
    coupling ``a`` to ``x`` is the mode ``("p", a, x)``."""
    if not 1 <= a <= n:
        raise ValueError("index out of range")
    return canonical_lax(n, (a,), trivial_rep((a,)),
                         mode_fn=lambda c, x: ("p", c, x))


# -- the exchange-relation checker ------------------------------------------------


def rll_residual(L: LaxMatrix) -> float:
    """Largest coefficient of the exchange relation
    ``R(u-v) L¹(u) L²(v) = L²(v) L¹(u) R(u-v)`` in its point-free form.

    Superscripts mark which ℂⁿ factor the matrix acts on, and
    ``R(w) = w + P``.  Write ``A = c0`` and ``B = c1``, so ``L(z) = z A + B``.
    The entry ``(ik, jl)`` of the relation reads

        (u-v) [L_ij(u), L_kl(v)] = L_kj(v) L_il(u) - L_kj(u) L_il(v)
                                 = (u-v) (B_kj A_il - A_kj B_il),

    and after dividing by ``u - v`` the left side is ``uv [A_ij, A_kl] +
    u [A_ij, B_kl] + v [B_ij, A_kl] + [B_ij, B_kl]``.  A polynomial in
    ``u, v`` vanishes everywhere exactly when each coefficient does, so the
    relation holds for every ``u, v`` exactly when

        [A_ij, A_kl] = [A_ij, B_kl] = [B_ij, A_kl] = 0,
        r(ij, kl) = [B_ij, B_kl] - B_kj A_il + A_kj B_il = 0.

    One unordered pair ``(i,j) <= (k,l)`` of each kind is formed.  The first
    three are antisymmetric under the swap ``(ij) <-> (kl)``, or swap into
    each other.  For the last, ``r(kl, ij) = -r(ij, kl) + [A_il, B_kj] +
    [A_kj, B_il]``: once every ``A``-``B`` commutator is zero, which is
    checked, the reverse pair's residual is ``-r``, and nothing is lost.

    Every commutator and product is formed exactly in the oscillator algebra
    (:func:`~qlab.oscillator._carrier_commutator`), so the residual is exact
    but for the coefficients of modulus at most ``COEFF_TOL`` that each
    product and sum drops.  No Fock space is built and nothing is truncated.
    A commutator with a central operand is empty without expansion: an entry
    that is exactly zero or the carrier identity, as every entry of ``A``
    is, and at ``d = 1`` an entry without a ladder monomial.  The identity
    against a NaN or infinite coefficient is still expanded, so the NaN
    reaches the residual, and so is an entry with a NaN on its diagonal,
    which is no identity.
    """
    n = L.n
    c0 = [[e._terms() for e in row] for row in L.c0]
    c1 = [[e._terms() for e in row] for row in L.c1]

    def residual(i: int, j: int, k: int, l: int) -> float:
        r = _carrier_add(_carrier_commutator(c1[i][j], c1[k][l]),
                         _carrier_neg(_carrier_mul(c1[k][j], c0[i][l])))
        r = _carrier_add(r, _carrier_mul(c0[k][j], c1[i][l]))
        return _worst(map(_carrier_max_coeff, (
            _carrier_commutator(c0[i][j], c0[k][l]),
            _carrier_commutator(c0[i][j], c1[k][l]),
            _carrier_commutator(c1[i][j], c0[k][l]), r)))

    pairs = [(i, j) for i in range(n) for j in range(n)]
    return _worst(residual(i, j, k, l)
                  for x, (i, j) in enumerate(pairs) for k, l in pairs[x:])
