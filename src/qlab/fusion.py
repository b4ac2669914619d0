"""Fusion and factorization of first-order Lax matrices.

The product of two canonical Lax matrices on disjoint index sets ``I`` and
``J`` is again of canonical type on ``I ∪ J`` after a similarity transform:

    L¹_I(z + λ + p₂/2) · L²_J(z − p₁/2) = S · (L_{I∪J}(z) · G) · S⁻¹,

where ``S = S₁S₂`` rearranges the oscillator content, ``G`` is z-independent
with entries commuting with all entries of ``L_{I∪J}``, and the carrier of
``L_{I∪J}`` is the merged gl(p₁+p₂) realization produced by
:func:`qlab.glrep.fuse_generators` (its weight gains ``λ`` on the ``I``
block).

Iterating with single-index factors factorizes the evaluation Lax matrix for
any highest-weight carrier into a z-shifted product of partonic matrices.  An
independent route to the same factorization goes through a triangular
decomposition of each partonic factor (:class:`PartonFactorization`).

Every n×n matrix over the oscillator algebra (Lax values, ``G``, the
triangular frames) is a :class:`qlab.oscillator.CarrierOp` of size n.  The
three identities share the form ``Π (left factors at z) = S · core(z) · S⁻¹``
with ``S = exp(e₁) ⋯ exp(e_m)``: each of :class:`FusionResult`,
:class:`IteratedFusion` and :class:`PartonFactorization` supplies its ordered
``S`` exponents, its left factors and its core, and one function decides the
identity exactly in the oscillator algebra.  It forms ``S · core · S⁻¹`` as
the adjoint series ``Σ_k ad_e^k core / k!`` of each exponent in turn, which
ends because every ``ad_e`` is nilpotent on these entries, and reads the
largest coefficient of the difference of the two sides.  No Fock space is
built, so nothing is truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .glrep import GlRep, fuse_generators, scalar_rep, shifted_weights
from .lax import LaxMatrix, ModeFn, canonical_lax, partonic_lax
from .oscillator import CarrierOp, Mode, NormalOrderedOp, _adjoint_terms


# -- n×n matrices over the oscillator algebra and the identity check -------------


def inv_unipotent(a: CarrierOp) -> CarrierOp:
    """Inverse of ``I + N`` with nilpotent ``N`` (as an n×n matrix): Σ (−N)^k."""
    eye = CarrierOp.identity(a.d)
    nil = a - eye
    out = eye
    power = eye
    for _ in range(a.d):
        power = (power * nil).scale(-1.0)
        if power.max_coeff() < 1e-15:
            break
        out = out + power
    else:
        if (power * nil).max_coeff() > 1e-15:
            raise ValueError("matrix is not unipotent")
    return out


def lax_at(L: LaxMatrix, z: complex) -> CarrierOp:
    """``L(z)`` as an n×n matrix over the oscillator algebra (carrier of dimension 1)."""
    if L.d != 1:
        raise ValueError("only one-dimensional carriers convert to a plain matrix")
    return CarrierOp(L.n, [[e.mat[0][0] for e in row] for row in L.at(z)])


#: one side ``S · F₁ ⋯ F_k · S⁻¹`` of an identity: its factors ``F`` and the
#: ordered exponents ``e₁, …, e_m`` of ``S = exp(e₁) ⋯ exp(e_m)``
Side = Tuple[Sequence[CarrierOp], Sequence[NormalOrderedOp]]


def _residual(lhs: Side, rhs: Side) -> float:
    """Largest coefficient of the difference of two :data:`Side` s, exactly.

    Each side is the product of its factors, left to right, conjugated by
    ``S`` in the oscillator algebra: ``S X S⁻¹`` is the adjoint series of
    ``e_m`` applied to every entry of ``X`` first and that of ``e₁`` last
    (:func:`qlab.oscillator._adjoint_terms`).  A side without exponents has
    ``S = 1``.
    """
    def form(side: Side) -> CarrierOp:
        factors, exponents = side
        out = reduce(mul, factors)._terms()
        for e in reversed(exponents):
            out = [{j: _adjoint_terms(e.terms, t) for j, t in row.items()} for row in out]
        return CarrierOp._of(out)

    return (form(lhs) - form(rhs)).max_coeff()


def _identity_residual(self, z: complex) -> float:
    """``Π lhs_factors(z) − S·core(z)·S⁻¹``, bound as ``residual`` by each class below."""
    return _residual((self.lhs_factors(z), ()), ([self.core(z)], self.s_exponents()))


# -- similarity transforms ---------------------------------------------------------


def build_S1(I: Sequence[int], J: Sequence[int],
             mode1_fn: ModeFn, mode2_fn: ModeFn) -> NormalOrderedOp:
    """Exponent of the cross-pairing transform: Σ b†¹_{c,ċ} b†²_{ċ,c}."""
    if set(I) & set(J):
        raise ValueError("index sets must be disjoint")
    out = NormalOrderedOp.zero()
    for c in I:
        for cd in J:
            out = out + NormalOrderedOp.creator(mode1_fn(c, cd)) * \
                NormalOrderedOp.creator(mode2_fn(cd, c))
    return out


def build_S2(n: int, I: Sequence[int], J: Sequence[int],
             mode1_fn: ModeFn, mode2_fn: ModeFn) -> NormalOrderedOp:
    """Exponent of the outside-coupling transform: Σ b†¹_{c,ċ} b†²_{ċ,ẍ} b¹_{ẍ,c}."""
    if set(I) & set(J):
        raise ValueError("index sets must be disjoint")
    outside = [x for x in range(1, n + 1) if x not in I and x not in J]
    out = NormalOrderedOp.zero()
    for c in I:
        for cd in J:
            for x in outside:
                out = out + (NormalOrderedOp.creator(mode1_fn(c, cd)) *
                             NormalOrderedOp.creator(mode2_fn(cd, x)) *
                             NormalOrderedOp.annihilator(mode1_fn(c, x)))
    return out


def _mode1_default(a: int, x: int) -> Mode:
    return ("1", a, x)


def _mode2_default(a: int, x: int) -> Mode:
    return ("2", a, x)


# -- pairwise fusion ---------------------------------------------------------------


@dataclass
class FusionResult:
    """Everything produced by fusing L_I (shift z1) with L_J (shift z2)."""
    z1: complex
    z2: complex
    L1: LaxMatrix
    L2: LaxMatrix
    L_fused: LaxMatrix
    fused_rep: GlRep
    G: CarrierOp
    s1_exp: NormalOrderedOp
    s2_exp: NormalOrderedOp

    def s_exponents(self) -> List[NormalOrderedOp]:
        return [self.s1_exp, self.s2_exp]

    def lhs_factors(self, z: complex) -> List[CarrierOp]:
        # multiplied in the algebra, so no truncation sits between the factors
        return [lax_at(self.L1, z + self.z1) * lax_at(self.L2, z + self.z2)]

    def core(self, z: complex) -> CarrierOp:
        return lax_at(self.L_fused, z) * self.G

    residual = _identity_residual


def fuse(n: int, I: Sequence[int], J: Sequence[int], rep1: GlRep, rep2: GlRep,
         lam: complex, mode1_fn: ModeFn | None = None,
         mode2_fn: ModeFn | None = None) -> FusionResult:
    """Fuse canonical Lax matrices on disjoint ``I`` and ``J`` into one on ``I ∪ J``.

    Returns the symbolic pieces of the identity
    ``L¹_I(z + λ + p₂/2) L²_J(z − p₁/2) = S (L_{I∪J}(z) G) S⁻¹``; use
    :meth:`FusionResult.residual` to verify it in the oscillator algebra.
    """
    I, J = tuple(sorted(I)), tuple(sorted(J))
    if set(I) & set(J):
        raise ValueError("index sets must be disjoint")
    if rep1.d != 1 or rep2.d != 1:
        raise ValueError("fusion needs oscillator-realized (d=1) carriers")
    mode1_fn = mode1_fn or _mode1_default
    mode2_fn = mode2_fn or _mode2_default
    p1, p2 = len(I), len(J)
    L1 = canonical_lax(n, I, rep1, mode1_fn)
    L2 = canonical_lax(n, J, rep2, mode2_fn)
    pair_modes = {(c, cd): mode1_fn(c, cd) for c in I for cd in J}
    fused_rep = fuse_generators(rep1, rep2, lam, pair_modes)

    def fused_mode_fn(a: int, x: int) -> Mode:
        return mode1_fn(a, x) if a in I else mode2_fn(a, x)

    L_fused = canonical_lax(n, I + J, fused_rep, fused_mode_fn)
    G = CarrierOp.identity(n)
    for a in I:
        for bd in J:
            G.mat[a - 1][bd - 1] = -NormalOrderedOp.annihilator(mode2_fn(bd, a))
    s1 = build_S1(I, J, mode1_fn, mode2_fn)
    s2 = build_S2(n, I, J, mode1_fn, mode2_fn)
    return FusionResult(lam + p2 / 2.0, -p1 / 2.0, L1, L2, L_fused, fused_rep, G, s1, s2)


# -- iterated fusion of single-index factors ---------------------------------------


def parton_mode(a: int, x: int) -> Mode:
    return ("p", a, x)


@dataclass
class IteratedFusion:
    """Right-to-left accumulation of single-index fusions over an index set.

    Encodes ``Π_i L_{a_i}(z + λ′_i) = S · (L_I(z + λ_p) · Γ) · S⁻¹`` where the
    fused carrier has weight ``Λ − λ_p`` (the trailing weight is absorbed as a
    central shift into the spectral argument).
    """
    n: int
    index_set: Tuple[int, ...]
    weight: Tuple[complex, ...]
    steps: List[FusionResult]
    fused_rep: GlRep
    L_fused: LaxMatrix
    gamma: CarrierOp
    offset: complex   # spectral offset λ_p of the fused matrix

    def s_exponents(self) -> List[NormalOrderedOp]:
        # innermost (last fused) step first
        return [e for st in self.steps for e in st.s_exponents()]

    def lhs_factors(self, z: complex) -> List[CarrierOp]:
        return [lax_at(partonic_lax(self.n, a), z + s)
                for a, s in zip(self.index_set, shifted_weights(self.weight))]

    def core(self, z: complex) -> CarrierOp:
        return lax_at(self.L_fused, z + self.offset) * self.gamma

    residual = _identity_residual


def iterated_parton_fusion(n: int, index_set: Sequence[int],
                           weight: Sequence[complex]) -> IteratedFusion:
    """Fuse single-index factors L_{a_1}, …, L_{a_p} right to left.

    The factor for ``a_i`` enters at spectral shift ``λ′_i`` (the staggered
    weight); the accumulated transform is the product of the per-step ``S``
    factors and the per-step ``G`` matrices.
    """
    I = tuple(sorted(index_set))
    if len(I) != len(weight):
        raise ValueError("index set and weight length mismatch")
    p = len(I)
    lam_last = weight[p - 1]
    rep = scalar_rep(I[p - 1], 0.0)
    cur = I[p - 1:]
    gamma = CarrierOp.identity(n)
    steps: List[FusionResult] = []
    for k in range(p - 2, -1, -1):
        fr = fuse(n, (I[k],), cur, scalar_rep(I[k], 0.0), rep,
                  weight[k] - lam_last, mode1_fn=parton_mode, mode2_fn=parton_mode)
        gamma = fr.G * gamma
        steps.append(fr)
        rep = fr.fused_rep
        cur = (I[k],) + cur
    L_fused = canonical_lax(n, I, rep, parton_mode) if p > 1 else \
        partonic_lax(n, I[0])
    return IteratedFusion(n, I, tuple(weight), steps, rep, L_fused, gamma, lam_last)


# -- triangular-decomposition factorization route -----------------------------------


def _cr(a: int, b: int) -> NormalOrderedOp:
    return NormalOrderedOp.creator(parton_mode(a, b))


def _an(a: int, b: int) -> NormalOrderedOp:
    """Annihilator written with appendix-style double indices: partner of b†_{b,a}."""
    return NormalOrderedOp.annihilator(parton_mode(b, a))


def _u_matrix(n: int, k: int) -> CarrierOp:
    f1, f2, f3 = (CarrierOp.identity(n) for _ in range(3))
    for b in range(1, k):
        for c in range(b + 1, k):
            f1.mat[b - 1][c - 1] = f1.mat[b - 1][c - 1] + _an(b, c)
    for b in range(1, k):
        for c in range(k, n + 1):
            f2.mat[c - 1][b - 1] = f2.mat[c - 1][b - 1] - _cr(c, b)
    for b in range(k, n + 1):
        for c in range(b + 1, n + 1):
            f3.mat[b - 1][c - 1] = f3.mat[b - 1][c - 1] - _cr(b, c)
    return inv_unipotent(f1) * (f2 * f3)


def _coupling(n: int, a: int, b: int, dressed: bool) -> NormalOrderedOp:
    """Sub-diagonal entry (a, b), a > b, of the triangular core matrix.

    The dressed form (before absorbing half the ladder content into the
    similarity transform) carries an extra creator plus the below-diagonal
    bilinears; the sign of that creator term is fixed by requiring the
    per-index decomposition identity to hold (verified symbolically).
    """
    out = -_an(a, b)
    if dressed:
        out = out + _cr(a, b)
        for c in range(1, b):
            out = out + _cr(a, c) * _an(c, b)
    for c in range(a + 1, n + 1):
        out = out + _cr(a, c) * _an(c, b)
    return out


@dataclass
class PartonFactorization:
    """Factorized form of the ordered product of all n single-index factors.

    ``Π_a L_a(z + λ′_a) = S · (L⁺(z) · U_{n+1}) · S⁻¹`` with
    ``L⁺(z) = U₁⁻¹ · (lower-triangular coupling matrix) · U₁``; ``S`` is the
    ordered product of the per-index exponentials ``S_n ⋯ S_1``.
    """
    n: int
    weight: Tuple[complex, ...]

    def __post_init__(self):
        self.shifts = shifted_weights(self.weight)
        self.u1 = _u_matrix(self.n, 1)
        self.u1_inv = inv_unipotent(self.u1)
        self.u_last = _u_matrix(self.n, self.n + 1)

    def mid_matrix(self, z: complex, dressed: bool) -> CarrierOp:
        n = self.n
        m = CarrierOp.identity(n)
        for a in range(1, n + 1):
            m.mat[a - 1][a - 1] = NormalOrderedOp.scalar(z + self.shifts[a - 1]
                                                         - (n - 1) / 2.0)
            for b in range(1, a):
                m.mat[a - 1][b - 1] = _coupling(n, a, b, dressed)
        return m

    def lplus(self, z: complex) -> CarrierOp:
        return self.u1_inv * (self.mid_matrix(z, dressed=False) * self.u1)

    def s_exponent(self, a: int) -> NormalOrderedOp:
        out = NormalOrderedOp.zero()
        for b in range(1, a):
            inner = _cr(b, a)
            for c in range(b + 1, a):
                inner = inner + _cr(c, a) * _an(b, c)
            out = out + inner * _cr(a, b)
        return out

    def s_exponents(self) -> List[NormalOrderedOp]:
        return [self.s_exponent(a) for a in range(self.n, 0, -1)]

    def lhs_factors(self, z: complex) -> List[CarrierOp]:
        return [lax_at(partonic_lax(self.n, a), z + self.shifts[a - 1])
                for a in range(1, self.n + 1)]

    def core(self, z: complex) -> CarrierOp:
        return self.lplus(z) * self.u_last

    residual = _identity_residual

    def generator_rep(self) -> GlRep:
        """Extract the gl(n) realization carried by L⁺ (entries z δ + J_ji):
        ``J_ji`` is ``L⁺(0)``, and ``L⁺(1) − L⁺(0)`` must be the identity."""
        n = self.n
        m0 = self.lplus(0.0)
        m1 = self.lplus(1.0)
        gens: Dict[Tuple[int, int], CarrierOp] = {}
        for i in range(n):
            for j in range(n):
                lin = m1.mat[i][j] - m0.mat[i][j]
                want = NormalOrderedOp.scalar(1.0) if i == j else NormalOrderedOp.zero()
                if not (lin - want).is_zero(1e-10):
                    raise ValueError("z-coefficient is not the identity")
                gens[(j + 1, i + 1)] = CarrierOp.from_scalar_op(m0.mat[i][j])
        return GlRep(tuple(range(1, n + 1)), 1, gens,
                     {a: self.weight[a - 1] for a in range(1, n + 1)}, "triangular")


def factorize_partons(n: int, weight: Sequence[complex]) -> PartonFactorization:
    """Factorization data for the full product of all n single-index factors."""
    if len(weight) != n:
        raise ValueError("weight must have length n")
    return PartonFactorization(n, tuple(weight))
