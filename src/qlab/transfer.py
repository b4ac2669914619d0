"""Twisted transfer operators on a finite chain.

The commuting families built here are auxiliary-space traces of twisted
monodromy matrices: a boundary-twist operator (diagonal in the occupation
basis of the auxiliary carrier) times the site-ordered product of one Lax
matrix per site.  The gl-carrier trace runs over a finite-dimensional or
highest-weight (oscillator-realized) module; the oscillator traces use the
exact per-mode closed form, under which only number-balanced monomials
survive.

Each family member is built exactly, in one z-graded pass: the spectral
parameter is carried as a formal variable through the Lax product, every power
of ``z`` keeps its own carrier-operator coefficient, and each coefficient is
traced in closed form.  Only pairs of configurations inside one letter-count
sector are expanded; the others vanish because every surviving monomial must
balance creators and annihilators per mode.  Every member commutes with the
twisted cyclic shift, so only one pair per orbit of simultaneous rotation is
expanded: entry ``(rot s, rot t)``, with ``rot`` moving site L to site 1, is
entry ``(s, t)`` times ``e^{i(phi_{t_L} - phi_{s_L})}``.  The orbits, their
representatives, the phases and the order in which entries are stored depend
only on the chain and the twist: they form one plan per chain
(:func:`_orbit_plan`, which keeps the plans of the last four chains), and
every member reuses it.  The expansion itself runs on plain term dicts
(:data:`qlab.oscillator.CarrierTerms`), through the products, sums and traces
that the operator classes of :mod:`qlab.oscillator` also call.  The result is
a polynomial in the spectral parameter whose coefficients are one run of
letter-count sector blocks (:class:`qlab.tensor.Blocks`), together with a
symbolic exponential prefactor ``exp(i z sigma)``.  Nothing here builds a
Fock matrix.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .glrep import GlRep, diagonal_weight_data, dot_action_orbit, \
    fundamental_rep, trivial_rep, verma_rep
from .lax import LaxMatrix, canonical_lax
from .oscillator import CarrierOp, CarrierTerms, Mode, NormalOrderedOp, \
    _carrier_add, _carrier_mul, _carrier_trace, _worst
from .tensor import Blocks, _product, sector_layout, sector_states, state_index

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


def build_twist_D(n: int, index_set: Sequence[int], rep: GlRep,
                  twist: TwistConfig) -> TwistOperatorD:
    """Twist data solving the conjugation condition for the canonical Lax matrix.

    For each outer oscillator pair (a in I, x outside) the mode ``("o", a, x)``
    is weighted by ``e^{-i(phi_a - phi_x)}``; the carrier part weighs the diagonal generators
    by the phases, which for an oscillator-realized carrier decomposes into a
    constant prefactor plus plain-trace weights on the internal modes.
    """
    I = tuple(sorted(index_set))
    if twist.n != n:
        raise ValueError("twist length does not match n")
    phis = twist.as_dict()
    outside = [x for x in range(1, n + 1) if x not in I]
    q: Dict[Mode, complex] = {}
    for a in I:
        for x in outside:
            q[("o", a, x)] = _check_weight(
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
    """``exp(i z sigma)`` times the polynomial whose coefficients ``c_0, c_1,
    ...`` are the run ``coeffs``."""
    sigma: complex
    coeffs: Blocks

    @property
    def degree(self) -> int:
        return self.coeffs.count - 1

    def values(self, points: Sequence[complex]) -> Blocks:
        """The run of the member at each of ``points``."""
        return self.coeffs.polynomial_at(self.sigma, points)

    def at(self, z: complex) -> Blocks:
        """The member at ``z``, as a run of one."""
        return self.values([z])


# -- the Q / T / X families ----------------------------------------------------


@functools.lru_cache(maxsize=4)
def _orbit_plan(n: int, length: int, phis: Tuple[complex, ...]) -> Tuple:
    """The orbits of simultaneous cyclic rotation among the balanced pairs.

    Pairs are met sector by sector, row-major within a sector.  The first
    pair of each orbit is its representative; each later member, reached by
    moving site L (letters s, t) to site 1 step by step, carries the product
    of the steps' phases ``e^{i(phi_t - phi_s)}``, multiplied from 1.0 in
    walk order.  An orbit closes early for periodic pairs.  Returns the rows
    and the columns of the pairs in that order, the letter strings ``(s, t)``
    of each orbit's representative, the orbit of each pair, and the
    positions and phases of the pairs that are not representatives.
    """
    step = [[cmath.exp(1j * (t - s)) for t in phis] for s in phis]
    top = n ** max(length - 1, 0)
    rows, cols, reps, orbit, moved, phase = [], [], [], [], [], []
    # orbit and phase of the members met later
    pending: Dict[Tuple[int, int], Tuple[int, complex]] = {}
    for states in sector_states(n, length).values():
        for istr in states:
            row = state_index(istr, n)
            for jstr in states:
                col = state_index(jstr, n)
                found = pending.pop((row, col), None)
                if found is None:
                    o = len(reps)
                    reps.append((istr, jstr))
                    r, c, p = row, col, 1.0
                    while True:
                        p *= step[r % n][c % n]
                        r, c = (r % n) * top + r // n, (c % n) * top + c // n
                        if (r, c) == (row, col):
                            break
                        pending[(r, c)] = (o, p)
                else:
                    o, p = found
                    moved.append(len(rows))
                    phase.append(p)
                orbit.append(o)
                rows.append(row)
                cols.append(col)
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), reps,
            np.array(orbit, dtype=np.int64), np.array(moved, dtype=np.int64),
            np.array(phase, dtype=complex))


def _traced_monodromy(n: int, length: int, lax: LaxMatrix, D: TwistOperatorD,
                      twist: TwistConfig) -> Blocks:
    """Exact ``z^k`` coefficients of the twisted monodromy trace, k = 0..length,
    as one run of sector blocks.

    The quantum-space entry for configurations (i_1..i_L), (j_1..j_L) is the
    twisted trace of the site-ordered product of the entries ``L_{i_s j_s}``.
    The product is kept as carrier-operator terms (:data:`CarrierTerms`)
    indexed by the power of ``z``; a site multiplies each by ``c1`` (same
    power) and ``c0`` (next power), skipping parts that are zero and products
    with the identity.  Only one pair per orbit of :func:`_orbit_plan` is
    expanded: the trace is cyclic and ``D L_{st} = e^{i(phi_t - phi_s)} L_{st}
    D``, so every other member is the representative's value times its phase.
    """
    rows, cols, reps, orbit, moved, phase = _orbit_plan(n, length, tuple(twist.phis))
    # each Lax entry ``z c0 + c1`` as its non-zero (power of z, terms) parts;
    # a part equal to the carrier identity is given as None
    entries = [[[(k, None if c.is_identity() else c._terms())
                 for k, c in ((0, lax.c1[i][j]), (1, lax.c0[i][j])) if not c.is_zero()]
                for j in range(lax.n)] for i in range(lax.n)]
    ident = CarrierOp.identity(lax.d)._terms()
    weights, q, plain = D.carrier_weights, D.q, D.plain_modes
    factors: Dict = {}
    traced = np.zeros((length + 1, len(reps)), dtype=complex)
    for o, (istr, jstr) in enumerate(reps):
        first = entries[istr[0]][jstr[0]] if length else [(0, None)]
        graded = {k: ident if c is None else c for k, c in first}
        for i, j in zip(istr[1:], jstr[1:]):
            if not graded:
                break
            nxt: Dict[int, CarrierTerms] = {}
            for k, p in graded.items():
                for shift, c in entries[i][j]:
                    term = p if c is None else _carrier_mul(p, c)
                    key = k + shift
                    nxt[key] = term if key not in nxt else _carrier_add(nxt[key], term)
            graded = nxt
        for k, p in graded.items():
            traced[k, o] = _carrier_trace(p, weights, q, plain, factors)
    vals = traced[:, orbit]
    vals[:, moved] = _product(vals[:, moved], phase)
    return sector_layout(n, length).scatter(rows, cols, vals)


def build_X(n: int, length: int, index_set: Sequence[int], rep: GlRep,
            twist: TwistConfig) -> OperatorPolynomial:
    """General hybrid transfer operator for a carrier on an index set."""
    I = tuple(sorted(index_set))
    if not I:
        diag = np.arange(n ** length)
        return OperatorPolynomial(0.0, sector_layout(n, length).scatter(
            diag, diag, np.ones((1, diag.size), dtype=complex)))
    lax = canonical_lax(n, I, rep)
    D = build_twist_D(n, I, rep, twist)
    sigma = sum(twist.phi(a) for a in I)
    return OperatorPolynomial(sigma, _traced_monodromy(n, length, lax, D, twist))


def build_Q(n: int, length: int, index_set: Sequence[int],
            twist: TwistConfig) -> OperatorPolynomial:
    """Trace over pure oscillator auxiliary content (trivial gl-carrier)."""
    I = tuple(sorted(index_set))
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


# -- alternating highest-weight resolution of the finite-carrier transfer op ---


def _signed_members(n: int, length: int, weight: Sequence[complex],
                    twist: TwistConfig) -> List[Tuple[int, OperatorPolynomial]]:
    """The highest-weight transfer operators of the alternating sum, with signs."""
    return [(sign, build_X_plus(n, length, range(1, n + 1), w, twist))
            for sign, w in dot_action_orbit(weight)]


def _alternating_sum_at(members: Sequence[Tuple[int, OperatorPolynomial]],
                        z: complex) -> Blocks:
    """The signed sum of the ``members`` at one spectral point."""
    out = None
    for sign, t in members:
        term = t.at(z) * float(sign)
        out = term if out is None else out + term
    return out


def bgg_eigen_check(n: int, length: int, weight: Sequence[complex],
                    twist: TwistConfig) -> float:
    """Largest entry of the finite-carrier transfer operator minus the
    alternating highest-weight sum, at ``z = 0.3`` and ``z = -0.6``.

    Every member is built once, at the given twist: the closed-form traces
    are exact at unit-modulus weights, so no damping is needed.
    """
    t_box = build_T_box(n, length, twist)
    members = _signed_members(n, length, weight, twist)
    return _worst(float((_alternating_sum_at(members, z) - t_box.at(z)).norms()[0])
                  for z in (0.3, -0.6))
