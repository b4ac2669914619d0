"""Representations of gl(p) used as auxiliary-space carriers.

Two kinds of carrier appear:

* finite-dimensional matrix representations (trivial, fundamental), stored as
  ``d x d`` matrix units inside :class:`~qlab.oscillator.CarrierOp`;
* oscillator realizations of highest-weight modules with arbitrary complex
  weight, stored as :class:`~qlab.oscillator.NormalOrderedOp` generators over
  ``p(p-1)/2`` ladder modes.

The oscillator realizations are produced by iterating a rank-raising map that
merges a gl(p) realization with a gl(1) scalar, adding one ladder pair per
merged index pair.  The same map (with its shift parameter ``lam``) is what
the fusion module uses to combine two auxiliary spaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .oscillator import CarrierOp, Mode, NormalOrderedOp


@dataclass
class GlRep:
    """A realization of gl(p) generators over a labelled index set.

    ``gens[(a, b)]`` is the generator ``J_ab`` for labels ``a, b`` in
    ``labels``;  ``weight[a]`` is the eigenvalue of ``J_aa`` on the highest
    weight vector (for finite matrix reps, the weight of the defining module).
    ``d`` is the finite carrier dimension (1 for pure oscillator
    realizations); ``modes`` lists the internal ladder modes.
    """
    labels: Tuple[int, ...]
    d: int
    gens: Dict[Tuple[int, int], CarrierOp]
    weight: Dict[int, complex]
    modes: Tuple[Mode, ...] = ()
    kind: str = "generic"

    @property
    def p(self) -> int:
        return len(self.labels)

    def gen(self, a: int, b: int) -> CarrierOp:
        return self.gens[(a, b)]


# -- weight bookkeeping -------------------------------------------------------


def shifted_weights(weight: Sequence[complex]) -> Tuple[complex, ...]:
    """Staggered weights ``w_j + (p - 2j + 1)/2`` (1-based ``j``)."""
    p = len(weight)
    return tuple(weight[j - 1] + (p - 2 * j + 1) / 2.0 for j in range(1, p + 1))


def rho_weight(n: int) -> Tuple[float, ...]:
    """The staggered half-sum vector ``((n-1)/2, (n-3)/2, ..., (1-n)/2)``."""
    return tuple((n - 2 * j + 1) / 2.0 for j in range(1, n + 1))


def dot_action_orbit(weight: Sequence[complex]) -> List[Tuple[int, Tuple[complex, ...]]]:
    """All ``(sign, sigma(weight + rho) - rho)`` over permutations ``sigma``.

    ``sigma`` permutes the entries of the shifted vector; the sign is the
    permutation parity.  This is the index set of the alternating
    highest-weight resolution of a finite-dimensional module.
    """
    n = len(weight)
    rho = rho_weight(n)
    v = [weight[i] + rho[i] for i in range(n)]
    out = []
    for perm in itertools.permutations(range(n)):
        sign = permutation_sign(perm)
        w = tuple(v[perm[i]] - rho[i] for i in range(n))
        out.append((sign, w))
    return out


def permutation_sign(perm: Sequence[int]) -> int:
    """Parity ``+1`` or ``-1`` of a permutation of ``0 .. len(perm)-1``."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


# -- finite matrix representations --------------------------------------------


def trivial_rep(labels: Sequence[int]) -> GlRep:
    """All generators zero on a one-dimensional carrier."""
    labels = tuple(labels)
    zero = CarrierOp(1)
    gens = {(a, b): zero for a in labels for b in labels}
    return GlRep(labels, 1, gens, {a: 0.0 for a in labels}, (), "trivial")


def scalar_rep(label: int, value: complex) -> GlRep:
    """gl(1) acting by the scalar ``value``."""
    gens = {(label, label): CarrierOp.from_scalar_op(NormalOrderedOp.scalar(value))}
    return GlRep((label,), 1, gens, {label: complex(value)}, (), "scalar")


def fundamental_rep(labels: Sequence[int]) -> GlRep:
    """Defining representation: ``J_ab = e_ab`` on a p-dimensional carrier."""
    labels = tuple(labels)
    p = len(labels)
    pos = {a: i for i, a in enumerate(labels)}
    gens = {(a, b): CarrierOp.matrix_unit(p, pos[a], pos[b]) for a in labels for b in labels}
    weight = {a: (1.0 if a == labels[0] else 0.0) for a in labels}
    return GlRep(labels, p, gens, weight, (), "fundamental")


# -- the rank-raising generator map -------------------------------------------


def fuse_generators(rep1: GlRep, rep2: GlRep, lam: complex,
                    pair_modes: Mapping[Tuple[int, int], Mode]) -> GlRep:
    """Merge realizations on disjoint label sets I, J into one on I ∪ J.

    ``pair_modes[(c, cdot)]`` supplies the ladder mode coupling ``c in I`` to
    ``cdot in J`` (one fresh pair per cross pair).  The merged weight is
    ``weight1 + lam`` on I and ``weight2`` on J.  Only one-dimensional
    carriers can be merged.
    """
    if rep1.d != 1 or rep2.d != 1:
        raise ValueError("only oscillator-realized (d=1) carriers can be merged")
    I, J = rep1.labels, rep2.labels
    if set(I) & set(J):
        raise ValueError("label sets must be disjoint")
    for c in I:
        for cd in J:
            if (c, cd) not in pair_modes:
                raise ValueError(f"missing ladder mode for pair {(c, cd)}")

    def cr(c, cd):
        return NormalOrderedOp.creator(pair_modes[(c, cd)])

    def an(c, cd):
        return NormalOrderedOp.annihilator(pair_modes[(c, cd)])

    def j1(a, b):
        return rep1.gens[(a, b)].mat[0][0]

    def j2(a, b):
        return rep2.gens[(a, b)].mat[0][0]

    gens: Dict[Tuple[int, int], NormalOrderedOp] = {}
    for a in I:
        for b in I:
            g = j1(a, b) + (lam if a == b else 0.0)
            for cd in J:
                g = g - cr(b, cd) * an(a, cd)
            gens[(a, b)] = g
    for a in J:
        for b in J:
            g = j2(a, b)
            for c in I:
                g = g + cr(c, a) * an(c, b)
            gens[(a, b)] = g
    for a in I:
        for b in J:
            gens[(a, b)] = -an(a, b)
    for a in J:  # row in J, column in I: the weight-lowering block
        for b in I:
            g = NormalOrderedOp.zero()
            for c in I:
                for cd in J:
                    g = g + cr(c, a) * cr(b, cd) * an(c, cd)
            g = g - lam * cr(b, a)
            for cd in J:
                g = g + j2(a, cd) * cr(b, cd)
            for c in I:
                g = g - cr(c, a) * j1(c, b)
            gens[(a, b)] = g

    labels = tuple(sorted(I + J))
    weight = {a: rep1.weight[a] + lam for a in I}
    weight.update({a: rep2.weight[a] for a in J})
    modes = tuple(sorted(set(rep1.modes) | set(rep2.modes) | set(pair_modes.values())))
    return GlRep(labels, 1,
                 {k: CarrierOp.from_scalar_op(v) for k, v in gens.items()},
                 weight, modes, "oscillator")


def verma_rep(weight: Sequence[complex], labels: Sequence[int] | None = None,
              tag: str = "v") -> GlRep:
    """Oscillator realization of the highest-weight module with given weight.

    Built by appending one gl(1) factor at a time with shift ``lam = 0``; the
    ladder modes are labelled ``(tag, a, b)`` for label pairs ``a < b``.
    """
    weight = list(weight)
    if labels is None:
        labels = tuple(range(1, len(weight) + 1))
    labels = tuple(labels)
    if len(labels) != len(weight):
        raise ValueError("labels/weight length mismatch")
    rep = scalar_rep(labels[0], weight[0])
    for k in range(1, len(labels)):
        new = scalar_rep(labels[k], weight[k])
        pair_modes = {(labels[i], labels[k]): (tag, labels[i], labels[k]) for i in range(k)}
        rep = fuse_generators(rep, new, 0.0, pair_modes)
    rep.kind = "verma"
    return rep


# -- diagnostics ---------------------------------------------------------------


def gl_relation_residual(rep: GlRep) -> float:
    """Max coefficient norm of ``[J_ab, J_cd] - delta_bc J_ad + delta_ad J_cb``."""
    worst = 0.0
    L = rep.labels
    for a in L:
        for b in L:
            for c in L:
                for d in L:
                    r = rep.gen(a, b) * rep.gen(c, d) - rep.gen(c, d) * rep.gen(a, b)
                    if b == c:
                        r = r - rep.gen(a, d)
                    if a == d:
                        r = r + rep.gen(c, b)
                    worst = max(worst, r.max_coeff())
    return worst


def highest_weight_residual(rep: GlRep) -> float:
    """Check the vacuum is a highest-weight vector of the stated weight.

    In normal-ordered form a monomial kills the vacuum iff it contains an
    annihilator, so the raising generators must consist purely of such terms
    and ``J_aa`` must reduce to ``weight[a]`` plus annihilator-carrying terms.
    """
    if rep.d != 1:
        raise ValueError("only oscillator realizations have a Fock vacuum")
    worst = 0.0
    L = rep.labels
    for i, a in enumerate(L):
        for b in L[i + 1:]:
            for key, coeff in rep.gen(a, b).mat[0][0].terms.items():
                if all(k == 0 for _, _, k in key):
                    worst = max(worst, abs(coeff))
        diag = rep.gen(a, a).mat[0][0]
        for key, coeff in diag.terms.items():
            if key == ():
                worst = max(worst, abs(coeff - rep.weight[a]))
            elif all(k == 0 for _, _, k in key):
                worst = max(worst, abs(coeff))
    return worst


def diagonal_weight_data(rep: GlRep, phis: Mapping[int, complex]
                         ) -> Tuple[complex, Dict[Mode, complex]]:
    """Decompose ``sum_a phi_a J_aa`` as ``const + sum_m c_m N_m``.

    Returns ``(const, {mode: c_m})`` and raises if the diagonal generators are
    not of pure number-operator form — the structure that lets the
    twist-weighted carrier trace factorize mode by mode.
    """
    if rep.d != 1:
        raise ValueError("diagonal weight data applies to oscillator realizations")
    w = NormalOrderedOp.zero()
    for a in rep.labels:
        w = w + phis[a] * rep.gen(a, a).mat[0][0]
    const = 0.0 + 0.0j
    coeffs: Dict[Mode, complex] = {}
    for key, c in w.terms.items():
        if key == ():
            const = c
        elif len(key) == 1 and key[0][1] == 1 and key[0][2] == 1:
            coeffs[key[0][0]] = c
        else:
            raise ValueError("diagonal generators are not of number-operator form")
    return const, coeffs
