"""Twisted transfer operators on a finite chain.

The commuting families built here are auxiliary-space traces of twisted
monodromy matrices: a boundary-twist operator (diagonal in the occupation
basis of the auxiliary carrier) times the site-ordered product of one Lax
matrix per site.  The gl-carrier trace runs over a finite-dimensional or
highest-weight (oscillator-realized) module; the oscillator traces use the
exact per-mode closed form, under which only number-balanced monomials
survive.

Each family member is built exactly, in one z-graded pass: the spectral
parameter is carried as a formal variable through the Lax product, every
power of ``z`` keeps its own carrier-operator coefficient, and each
coefficient is traced in closed form.  Only pairs of configurations inside
one letter-count sector are expanded; the others vanish because every
surviving monomial must balance creators and annihilators per mode.  The
result is a polynomial in the spectral parameter with sparse quantum-space
coefficients, together with a symbolic exponential prefactor
``exp(i z sigma)``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .glrep import GlRep, diagonal_weight_data, dot_action_orbit, \
    fundamental_rep, trivial_rep, verma_rep
from .lax import LaxMatrix, ModeFn, canonical_lax
from .oscillator import CarrierOp, FockSpace, Mode, NormalOrderedOp
from .tensor import QuantumOperator, basis_states, occupation, sector_states, \
    state_index

#: relative tolerance below which a twist-weight is considered degenerate
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class TwistConfig:
    """Boundary phases, one per letter, summing to zero."""
    phis: Tuple[complex, ...]

    def __post_init__(self):
        if abs(sum(self.phis)) > 1e-9:
            raise ValueError("twist phases must sum to zero")

    @property
    def n(self) -> int:
        return len(self.phis)

    def phi(self, a: int) -> complex:
        return self.phis[a - 1]

    def as_dict(self) -> Dict[int, complex]:
        return {a: self.phis[a - 1] for a in range(1, self.n + 1)}

    def damped(self, eta: float) -> "TwistConfig":
        """Add a zero-sum imaginary gradient that orders the carrier traces."""
        n = self.n
        return TwistConfig(tuple(self.phis[a - 1] + 1j * eta * (a - (n + 1) / 2.0)
                                 for a in range(1, n + 1)))


def _check_weight(q: complex, pair: Tuple[int, int]) -> complex:
    if abs(1.0 - q) < DEGENERACY_TOL:
        raise ValueError(f"degenerate twist: phases of letters {pair} coincide")
    return q


@dataclass
class TwistOperatorD:
    """Boundary-twist data for one index set and one auxiliary carrier.

    Diagonal in the carrier ⊗ occupation basis: stored as carrier weights
    plus per-mode geometric weights, split into plain-trace modes (internal
    to a highest-weight carrier) and ratio-rule modes (the outer oscillator
    pairs of the Lax matrix).
    """
    n: int
    index_set: Tuple[int, ...]
    rep: GlRep
    carrier_weights: Tuple[complex, ...]
    q: Dict[Mode, complex]
    plain_modes: Tuple[Mode, ...]

    def weighted_trace(self, op: CarrierOp) -> complex:
        return op.weighted_trace(list(self.carrier_weights), self.q, self.plain_modes)

    def matrix(self, space: FockSpace) -> sp.csr_matrix:
        """Explicit diagonal matrix on carrier ⊗ truncated Fock basis."""
        fock_diag = space.occupation_weights(self.q)
        diag = np.concatenate([w * fock_diag for w in self.carrier_weights])
        return sp.diags(diag).tocsr()

    def conjugation_residual(self, L: LaxMatrix, twist: TwistConfig, z: complex,
                             n_max: int = 6) -> float:
        """Max deviation of D L_ab D^-1 - e^{i(phi_b - phi_a)} L_ab."""
        space = FockSpace(sorted(set(L.modes()) | set(self.q)), n_max)
        d = self.matrix(space)
        dinv = sp.diags(1.0 / d.diagonal()).tocsr()
        worst = 0.0
        blocks = L.at(z)
        for a in range(1, self.n + 1):
            for b in range(1, self.n + 1):
                m = blocks[a - 1][b - 1].to_matrix(space)
                phase = cmath.exp(1j * (twist.phi(b) - twist.phi(a)))
                diff = d @ m @ dinv - phase * m
                if diff.nnz:
                    worst = max(worst, float(np.max(np.abs(diff.toarray()))))
        return worst


def build_twist_D(n: int, index_set: Sequence[int], rep: GlRep,
                  twist: TwistConfig, mode_fn: ModeFn | None = None
                  ) -> TwistOperatorD:
    """Twist data solving the conjugation condition for the canonical Lax matrix.

    For each outer oscillator pair (a in I, x outside) the mode is weighted by
    ``e^{-i(phi_a - phi_x)}``; the carrier part weighs the diagonal generators
    by the phases, which for an oscillator-realized carrier decomposes into a
    constant prefactor plus plain-trace weights on the internal modes.
    """
    I = tuple(sorted(index_set))
    if twist.n != n:
        raise ValueError("twist length does not match n")
    if mode_fn is None:
        mode_fn = lambda a, x: ("o", a, x)
    phis = twist.as_dict()
    outside = [x for x in range(1, n + 1) if x not in I]
    q: Dict[Mode, complex] = {}
    for a in I:
        for x in outside:
            q[mode_fn(a, x)] = _check_weight(
                cmath.exp(-1j * (phis[a] - phis[x])), (a, x))
    if rep.d == 1:
        const, coeffs = diagonal_weight_data(rep, phis)
        carrier = (cmath.exp(1j * const),)
        plain = tuple(sorted(coeffs))
        for m, c in coeffs.items():
            pair = (m[1], m[2]) if len(m) == 3 else m
            q[m] = _check_weight(cmath.exp(1j * c), pair)
    else:
        # finite-dimensional carrier: the diagonal generators must be scalar
        # diagonal matrices (true for the defining representation)
        diag = [NormalOrderedOp.zero() for _ in range(rep.d)]
        for a in rep.labels:
            g = rep.gen(a, a)
            for i in range(rep.d):
                for j in range(rep.d):
                    if i == j:
                        diag[i] = diag[i] + phis[a] * g.mat[i][i]
                    elif not g.mat[i][j].is_zero():
                        raise ValueError("carrier diagonal generators are not diagonal")
        carrier = tuple(cmath.exp(1j * d.scalar_part()) for d in diag)
        for d in diag:
            if not (d - NormalOrderedOp.scalar(d.scalar_part())).is_zero():
                raise ValueError("carrier diagonal generators are not scalar")
        plain = ()
    return TwistOperatorD(n, I, rep, carrier, q, plain)


# -- operator-valued polynomials ----------------------------------------------


@dataclass
class OperatorPolynomial:
    """``exp(i z sigma)`` times a polynomial with quantum-operator coefficients."""
    dim: int
    sigma: complex
    coeffs: List[QuantumOperator]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def poly_at(self, z: complex) -> QuantumOperator:
        data: Dict[Tuple[int, int], complex] = {}
        zk = 1.0 + 0.0j
        for c in self.coeffs:
            for key, v in c.data.items():
                data[key] = data.get(key, 0.0) + v * zk
            zk *= z
        return QuantumOperator(self.dim, data)

    def at(self, z: complex) -> QuantumOperator:
        return self.poly_at(z) * cmath.exp(1j * z * self.sigma)

    def derivative(self) -> "OperatorPolynomial":
        """d/dz of the polynomial part only (prefactor handled by callers)."""
        if self.degree == 0:
            return OperatorPolynomial(self.dim, self.sigma,
                                      [QuantumOperator.zero(self.dim)])
        return OperatorPolynomial(
            self.dim, self.sigma,
            [self.coeffs[k] * float(k) for k in range(1, len(self.coeffs))])


# -- the Q / T / X families ----------------------------------------------------


def _graded_entries(lax: LaxMatrix
                    ) -> List[List[List[Tuple[int, Optional[CarrierOp]]]]]:
    """Each Lax entry ``z c0 + c1`` as its non-zero ``(power of z, coefficient)``
    parts; a coefficient equal to the carrier identity is given as ``None``."""
    return [[[(k, None if c.is_identity() else c)
              for k, c in ((0, lax.c1[i][j]), (1, lax.c0[i][j])) if not c.is_zero()]
             for j in range(lax.n)] for i in range(lax.n)]


def _traced_monodromy(n: int, length: int, lax: LaxMatrix,
                      D: TwistOperatorD) -> List[QuantumOperator]:
    """Exact ``z^k`` coefficients of the twisted monodromy trace, k = 0..length.

    The quantum-space entry for configurations (i_1..i_L), (j_1..j_L) is the
    twisted trace of the site-ordered product of the entries ``L_{i_s j_s}``.
    The product is kept as a list of carrier-operator coefficients indexed by
    the power of ``z``; a site multiplies each by ``c1`` (same power) and
    ``c0`` (next power), skipping parts that are zero and products with the
    identity.  Only pairs inside one letter-count sector are expanded.
    """
    entries = _graded_entries(lax)
    ident = CarrierOp.identity(lax.d)
    data: List[Dict[Tuple[int, int], complex]] = [{} for _ in range(length + 1)]
    for states in sector_states(n, length).values():
        for istr in states:
            row = state_index(istr, n)
            for jstr in states:
                first = entries[istr[0]][jstr[0]] if length else [(0, None)]
                graded = {k: ident if c is None else c for k, c in first}
                for i, j in zip(istr[1:], jstr[1:]):
                    if not graded:
                        break
                    nxt: Dict[int, CarrierOp] = {}
                    for k, p in graded.items():
                        for shift, c in entries[i][j]:
                            term = p if c is None else p * c
                            key = k + shift
                            nxt[key] = term if key not in nxt else nxt[key] + term
                    graded = nxt
                col = state_index(jstr, n)
                for k, p in graded.items():
                    val = D.weighted_trace(p)
                    if val != 0.0:
                        data[k][(row, col)] = val
    return [QuantumOperator(n ** length, d) for d in data]


def build_X(n: int, length: int, index_set: Sequence[int], rep: GlRep,
            twist: TwistConfig) -> OperatorPolynomial:
    """General hybrid transfer operator for a carrier on an index set."""
    I = tuple(sorted(index_set))
    if not I:
        return OperatorPolynomial(n ** length, 0.0,
                                  [QuantumOperator.identity(n ** length)])
    lax = canonical_lax(n, I, rep)
    D = build_twist_D(n, I, rep, twist)
    sigma = sum(twist.phi(a) for a in I)
    return OperatorPolynomial(n ** length, sigma,
                              _traced_monodromy(n, length, lax, D))


def build_Q(n: int, length: int, index_set: Sequence[int],
            twist: TwistConfig) -> OperatorPolynomial:
    """Trace over pure oscillator auxiliary content (trivial gl-carrier)."""
    I = tuple(sorted(index_set))
    if not I:
        return build_X(n, length, I, trivial_rep(()), twist)
    return build_X(n, length, I, trivial_rep(I), twist)


def build_X_plus(n: int, length: int, index_set: Sequence[int],
                 weight: Sequence[complex], twist: TwistConfig
                 ) -> OperatorPolynomial:
    """Hybrid transfer operator with a highest-weight (infinite) gl-carrier."""
    I = tuple(sorted(index_set))
    rep = verma_rep(tuple(weight), labels=I, tag="v")
    return build_X(n, length, I, rep, twist)


def build_T_box(n: int, length: int, twist: TwistConfig) -> OperatorPolynomial:
    """Transfer operator of the defining representation on the full index set."""
    full = tuple(range(1, n + 1))
    return build_X(n, length, full, fundamental_rep(full), twist)


def build_T_plus(n: int, length: int, weight: Sequence[complex],
                 twist: TwistConfig) -> OperatorPolynomial:
    return build_X_plus(n, length, tuple(range(1, n + 1)), weight, twist)


# -- alternating highest-weight resolution of the finite-carrier transfer op ---


def _signed_members(n: int, length: int, weight: Sequence[complex],
                    twist: TwistConfig) -> List[Tuple[int, OperatorPolynomial]]:
    """The highest-weight transfer operators of the alternating sum, with signs."""
    return [(sign, build_T_plus(n, length, w, twist))
            for sign, w in dot_action_orbit(weight)]


def _alternating_sum_at(members: Sequence[Tuple[int, OperatorPolynomial]],
                        dim: int, z: complex) -> QuantumOperator:
    out = QuantumOperator.zero(dim)
    for sign, t in members:
        out = out + t.at(z) * float(sign)
    return out


def alternating_sum_T(n: int, length: int, weight: Sequence[complex],
                      twist: TwistConfig, z: complex) -> QuantumOperator:
    """Signed sum of highest-weight transfer operators at one spectral point."""
    return _alternating_sum_at(_signed_members(n, length, weight, twist),
                               n ** length, z)


def bgg_eigen_check(n: int, length: int, weight: Sequence[complex],
                    twist: TwistConfig, z_samples: Sequence[complex] = (0.3, -0.6),
                    etas: Sequence[float] | None = None) -> float:
    """Residual of the finite-carrier transfer operator against the alternating
    highest-weight sum, computed at damped twists and extrapolated to zero
    damping (Neville scheme).

    The default geometric schedule keeps the interpolation error of the
    damping-analytic entries far below the 1e-6 target; a short 3-point
    schedule leaves a residual around 3e-5.  Every member is built once and
    evaluated at each of the ``z_samples``.
    """
    if etas is None:
        etas = [0.2 / 2 ** j for j in range(6)]
    t_box = build_T_box(n, length, twist)
    damped = [_signed_members(n, length, weight, twist.damped(eta))
              for eta in etas]
    worst = 0.0
    for z in z_samples:
        t_ref = t_box.at(z).to_dense()
        vals = [_alternating_sum_at(members, n ** length, z).to_dense()
                for members in damped]
        xs = sorted(etas, reverse=True)
        t = list(vals)
        for level in range(1, len(t)):
            for i in range(len(t) - level):
                t[i] = ((0.0 - xs[i + level]) * t[i] + xs[i] * t[i + 1]) \
                    / (xs[i] - xs[i + level])
        diff = np.max(np.abs(t[0] - t_ref)) if t_ref.size else 0.0
        worst = max(worst, float(diff))
    return worst


# -- conserved occupation numbers ----------------------------------------------


def number_operator(n: int, length: int, a: int) -> QuantumOperator:
    """Total count of letter ``a`` across the chain."""
    dim = n ** length
    data = {}
    for s in basis_states(n, length):
        data[(state_index(s, n), state_index(s, n))] = float(occupation(s, n)[a - 1])
    return QuantumOperator(dim, data)
