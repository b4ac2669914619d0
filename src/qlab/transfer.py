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

The trivial-carrier members ``Q_I`` of one size ``p`` share one Wick
expansion (:func:`build_Qs`).  Sets of one size differ by a relabelling of
letters: with ``sigma`` sending ``1..p`` to ``I`` in order and the rest to
the complement in order, ``Q_I``'s entry ``(sigma r, sigma c)`` is the trace
of the pair ``(r, c)`` of the Lax product of ``1..p`` against ``I``'s twist
data.  So each orbit representative of the plan is expanded once per size
and traced once for every set of that size, and each trace lands on the
orbit of its relabelled pair, divided by that pair's phase.  The set
``1..p`` keeps the bits of its own expansion; the other sets agree with
theirs to rounding.  :func:`build_Q` is the one-set case.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .glrep import GlRep, diagonal_weight_data, dot_action_orbit, \
    fundamental_rep, trivial_rep, verma_rep
from .lax import LaxMatrix, canonical_lax
from .oscillator import CarrierOp, CarrierTerms, Mode, NormalOrderedOp, \
    _add_terms, _carrier_add, _carrier_mul, _carrier_trace, _mul_terms, _worst
from .tensor import Blocks, SectorLayout, _product, _quotient, basis_states, sector_layout

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


class TraceWeights(NamedTuple):
    """The boundary twist of one index set and one auxiliary carrier, as the
    weights a twisted trace reads (:func:`qlab.oscillator._carrier_trace`).

    The twist is diagonal in the carrier ⊗ occupation basis: one weight per
    carrier state, and per-mode geometric weights, split into plain-trace
    modes (internal to a highest-weight carrier) and ratio-rule modes (the
    outer oscillator pairs of the Lax matrix).
    """
    carrier_weights: Tuple[complex, ...]
    q: Dict[Mode, complex]
    plain_modes: Tuple[Mode, ...]


def build_twist_D(n: int, index_set: Sequence[int], rep: GlRep,
                  twist: TwistConfig) -> TraceWeights:
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
    return TraceWeights(carrier, q, plain)


# -- operator-valued polynomials ----------------------------------------------


@dataclass
class OperatorPolynomial:
    """``exp(i z sigma)`` times the polynomial whose coefficients ``c_0, c_1,
    ...`` are the run ``coeffs``."""
    sigma: complex
    coeffs: Blocks

    def values(self, points: Sequence[complex]) -> Blocks:
        """The run of the member at each of ``points``."""
        return self.coeffs.polynomial_at(self.sigma, points)

    def at(self, z: complex) -> Blocks:
        """The member at ``z``, as a run of one."""
        return self.values([z])


# -- the Q / T / X families ----------------------------------------------------


class _OrbitPlan(NamedTuple):
    """The balanced pairs of one chain and twist, and their rotation orbits
    (:func:`_orbit_plan`)."""
    #: the rows and the columns of the pairs, sector by sector in the order
    #: of the chain's sector layout, row-major within a sector
    rows: np.ndarray
    cols: np.ndarray
    #: the letter strings ``(s, t)`` of each orbit's representative
    reps: List[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    #: the position of each orbit's representative among the pairs
    first: np.ndarray
    #: the orbit of each pair
    orbit: np.ndarray
    #: the positions of the pairs that are not representatives, and each
    #: pair's phase (1.0 on the representatives)
    moved: np.ndarray
    phase: np.ndarray
    #: where each sector's pairs begin
    start: np.ndarray

    def position(self, layout: SectorLayout, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
        """The positions of the pairs ``(rows[e], cols[e])``, each inside one
        sector of ``layout``."""
        sector = layout.sector[rows]
        size = np.array([idx.size for idx in layout.sectors])[sector]
        return self.start[sector] + layout.position[rows] * size + layout.position[cols]


@functools.lru_cache(maxsize=4)
def _orbit_plan(n: int, length: int, phis: Tuple[complex, ...]) -> _OrbitPlan:
    """The orbits of simultaneous cyclic rotation among the balanced pairs.

    The first pair met of each orbit is its representative; each later
    member, reached by moving site L (letters s, t) to site 1 step by step,
    carries the product of the steps' phases ``e^{i(phi_t - phi_s)}``,
    multiplied from 1.0 in walk order.  An orbit closes early for periodic
    pairs.  Every orbit lies inside one sector, so the order in which the
    sectors are met changes the orbits' numbering only.
    """
    layout = sector_layout(n, length)
    states = list(basis_states(n, length))
    step = [[cmath.exp(1j * (t - s)) for t in phis] for s in phis]
    top = n ** max(length - 1, 0)
    rows, cols, reps, first, orbit, phase = [], [], [], [], [], []
    # orbit and phase of the members met later
    pending: Dict[Tuple[int, int], Tuple[int, complex]] = {}
    for sector in layout.sectors:
        sector = sector.tolist()
        for row in sector:
            for col in sector:
                found = pending.pop((row, col), None)
                if found is None:
                    o, p = len(reps), 1.0
                    reps.append((states[row], states[col]))
                    first.append(len(rows))
                    r, c, q = row, col, 1.0
                    while True:
                        q *= step[r % n][c % n]
                        r, c = (r % n) * top + r // n, (c % n) * top + c // n
                        if (r, c) == (row, col):
                            break
                        pending[(r, c)] = (o, q)
                else:
                    o, p = found
                orbit.append(o)
                phase.append(p)
                rows.append(row)
                cols.append(col)
    first_arr = np.array(first, dtype=np.int64)
    moved = np.setdiff1d(np.arange(len(rows)), first_arr)
    start = np.cumsum([0] + [idx.size ** 2 for idx in layout.sectors[:-1]])
    return _OrbitPlan(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                      reps, first_arr, np.array(orbit, dtype=np.int64), moved,
                      np.array(phase, dtype=complex), start)


def _relabelled(indices: np.ndarray, sigma: Sequence[int], n: int,
                length: int) -> np.ndarray:
    """The basis indices with every letter ``a`` (from 0) replaced by ``sigma[a]``."""
    weights = n ** np.arange(length - 1, -1, -1)
    return np.asarray(sigma, dtype=np.int64)[indices[:, None] // weights % n] @ weights


#: one member of a shared trace: its trace weights, with the modes named as
#: those of the Lax matrix, and the relabelling of letters (from 0) that
#: carries the Lax matrix's index set to the member's, or None where they
#: coincide
Member = Tuple[TraceWeights, Optional[Tuple[int, ...]]]


def _traced_monodromy(n: int, length: int, lax: LaxMatrix, members: Sequence[Member],
                      twist: TwistConfig) -> List[Blocks]:
    """Exact ``z^k`` coefficients, k = 0..length, of the twisted monodromy
    trace of each of ``members``, each as one run of sector blocks.

    The quantum-space entry for configurations (i_1..i_L), (j_1..j_L) is the
    twisted trace of the site-ordered product of the entries ``L_{i_s j_s}``.
    Only one pair per orbit of :func:`_orbit_plan` is formed: the trace is
    cyclic and ``D L_{st} = e^{i(phi_t - phi_s)} L_{st} D``, so every other
    member is the representative's value times its phase.  A Lax matrix
    without a ladder monomial has its pairs traced as stacked matrix products
    (:func:`_mode_free_traces`); any other has them expanded in the
    oscillator algebra (:func:`_expanded_traces`).

    A member with relabelling ``sigma`` reads the trace of the pair ``(r,
    c)`` as its entry ``(sigma r, sigma c)``: the representative of that
    pair's orbit gets the trace divided by the pair's phase.  A division by
    1.0 keeps every bit but the sign of a zero, which the scatter's sum from
    0.0 drops, and a member without relabelling divides nothing.
    """
    plan = _orbit_plan(n, length, tuple(twist.phis))
    layout = sector_layout(n, length)
    dense = _mode_free_entries(lax)
    traced = (_expanded_traces(length, lax, members, plan) if dense is None
              else _mode_free_traces(length, dense, members, plan))
    runs = []
    for (_, sigma), vals in zip(members, traced):
        if sigma is not None:
            at = plan.position(layout,
                               _relabelled(plan.rows[plan.first], sigma, n, length),
                               _relabelled(plan.cols[plan.first], sigma, n, length))
            vals[:, plan.orbit[at]] = _quotient(vals, plan.phase[at])
        vals = vals[:, plan.orbit]
        vals[:, plan.moved] = _product(vals[:, plan.moved], plan.phase[plan.moved])
        runs.append(layout.scatter(plan.rows, plan.cols, vals))
    return runs


def _expanded_traces(length: int, lax: LaxMatrix, members: Sequence[Member],
                     plan: _OrbitPlan) -> np.ndarray:
    """Each member's trace of the ``z^k`` coefficient of each orbit
    representative, at ``[member, k, orbit]``, by expansion in the
    oscillator algebra.

    The product is kept as carrier-operator terms (:data:`CarrierTerms`), or
    as the bare terms of the one entry of a one-dimensional carrier, indexed
    by the power of ``z``; a site multiplies each by ``c1`` (same power) and
    ``c0`` (next power), skipping parts that are zero and products with the
    identity.  Each pair is expanded once and traced against every member's
    weights, each member with its own cache of key factors.
    """
    bare = lax.d == 1
    mul, add = (_mul_terms, _add_terms) if bare else (_carrier_mul, _carrier_add)
    terms = (lambda c: c.mat[0][0].terms) if bare else CarrierOp._terms
    # each Lax entry ``z c0 + c1`` as its non-zero (power of z, terms) parts;
    # a part equal to the carrier identity is given as None
    entries = [[[(k, None if c.is_identity() else terms(c))
                 for k, c in ((0, lax.c1[i][j]), (1, lax.c0[i][j])) if not c.is_zero()]
                for j in range(lax.n)] for i in range(lax.n)]
    ident = terms(CarrierOp.identity(lax.d))
    factors: List[Dict] = [{} for _ in members]
    traced = [[[0j] * len(plan.reps) for _ in range(length + 1)] for _ in members]
    for o, (istr, jstr) in enumerate(plan.reps):
        first = entries[istr[0]][jstr[0]] if length else [(0, None)]
        graded = {k: ident if c is None else c for k, c in first}
        for i, j in zip(istr[1:], jstr[1:]):
            if not graded:
                break
            nxt: Dict[int, CarrierTerms] = {}
            for k, p in graded.items():
                for shift, c in entries[i][j]:
                    term = p if c is None else mul(p, c)
                    key = k + shift
                    nxt[key] = term if key not in nxt else add(nxt[key], term)
            graded = nxt
        for k, p in graded.items():
            p = [{0: p}] if bare else p
            for (weights, _), cache, vals in zip(members, factors, traced):
                vals[k][o] = _carrier_trace(p, *weights, cache)
    return np.array(traced, dtype=complex)


def _mode_free_entries(lax: LaxMatrix) -> Optional[np.ndarray]:
    """The Lax matrix as a real ``(2, n, n, d, d)`` array, the ``c1`` parts
    (power 0 of ``z``) first, where no entry holds a ladder monomial; None
    where one does.

    Every coefficient must be an integer: the products of such matrices are
    exact in any order of summation.  Any other raises ``ValueError``, as a
    rounded coefficient would make the members depend on that order."""
    d = lax.d
    terms = [((k, i, j, a, b), key, complex(coeff))
             for k, part in enumerate((lax.c1, lax.c0)) for i, row in enumerate(part)
             for j, c in enumerate(row) for a, b in itertools.product(range(d), repeat=2)
             for key, coeff in c.mat[a][b].terms.items()]
    if any(key for _, key, _ in terms):
        return None
    out = np.zeros((2, lax.n, lax.n, d, d))
    for at, _, coeff in terms:
        if coeff.imag or not coeff.real.is_integer():
            raise ValueError("mode-free Lax coefficient %r is not an integer" % (coeff,))
        out[at] = coeff.real
    return out


def _mode_free_traces(length: int, dense: np.ndarray, members: Sequence[Member],
                      plan: _OrbitPlan) -> np.ndarray:
    """:func:`_expanded_traces` for a Lax matrix without ladder monomials,
    given by :func:`_mode_free_entries`.

    The ``z``-graded product of every orbit representative is one
    ``(R, L + 1, d, d)`` stack, multiplied site by site by the stacked
    entries of that site, the ``c0`` part one power of ``z`` up.  Every
    entry is an integer, and so is every product: each path count is exact
    whatever order BLAS sums in.  A member's trace adds the diagonal counts
    times its carrier weights, each rounded as CPython rounds the complex
    product, in carrier order; the members of such a Lax matrix have no
    plain-trace modes, which live in the carrier's generators.
    """
    d = dense.shape[-1]
    count = len(plan.reps)
    strings = np.array([s + t for s, t in plan.reps], dtype=np.int64).reshape(
        count, 2, length)
    acc = np.zeros((count, length + 1, d, d))
    acc[:, 0] = np.eye(d)
    for site in range(length):
        sites = dense[:, strings[:, 0, site], strings[:, 1, site]]
        flat = acc.reshape(count, (length + 1) * d, d)
        nxt = (flat @ sites[0]).reshape(acc.shape)
        nxt[:, 1:] += (flat @ sites[1]).reshape(acc.shape)[:, :-1]
        acc = nxt
    diag = acc[:, :, np.arange(d), np.arange(d)].transpose(1, 0, 2).astype(complex)
    traced = np.zeros((len(members), length + 1, count), dtype=complex)
    for vals, (weights, _) in zip(traced, members):
        for i, w in enumerate(weights.carrier_weights):
            vals += _product(diag[..., i], w)
    return traced


def build_X(n: int, length: int, index_set: Sequence[int], rep: GlRep,
            twist: TwistConfig) -> OperatorPolynomial:
    """General hybrid transfer operator for a carrier on an index set."""
    I = tuple(sorted(index_set))
    if not I:
        return _identity_member(n, length)
    lax = canonical_lax(n, I, rep)
    weights = build_twist_D(n, I, rep, twist)
    sigma = sum(twist.phi(a) for a in I)
    return OperatorPolynomial(sigma, _traced_monodromy(
        n, length, lax, [(weights, None)], twist)[0])


def _identity_member(n: int, length: int) -> OperatorPolynomial:
    diag = np.arange(n ** length)
    return OperatorPolynomial(0.0, sector_layout(n, length).scatter(
        diag, diag, np.ones((1, diag.size), dtype=complex)))


def build_Qs(n: int, length: int, index_sets: Sequence[Sequence[int]],
             twist: TwistConfig) -> Dict[Tuple[int, ...], OperatorPolynomial]:
    """The trivial-carrier member of each of ``index_sets``, one Wick
    expansion per size.

    Let ``sigma`` send the letters ``1..p`` to a set ``I`` of size ``p`` in
    order, and the other letters to the complement of ``I`` in order.  The
    Lax matrix of ``I`` is that of ``1..p`` with every letter relabelled by
    ``sigma``, and so is its twist data at the twist: so ``Q_I``'s entry
    ``(sigma r, sigma c)`` is the trace of the pair ``(r, c)`` of the Lax
    matrix of ``1..p`` against the twist data of ``I`` with its modes named
    as those of ``1..p``.  Each size's pairs are expanded once and traced
    for every set of the size (:func:`_traced_monodromy`); the set ``1..p``
    itself is built as :func:`build_X` builds it, bit for bit.
    """
    sets = sorted({tuple(sorted(I)) for I in index_sets}, key=lambda I: (len(I), I))
    out = {}
    for p, group in itertools.groupby(sets, len):
        group = list(group)
        if not p:
            out[()] = _identity_member(n, length)
            continue
        first = tuple(range(1, p + 1))
        members = [_relabelled_weights(n, I, twist) for I in group]
        runs = _traced_monodromy(n, length, canonical_lax(n, first, trivial_rep(first)),
                                 members, twist)
        for I, run in zip(group, runs):
            out[I] = OperatorPolynomial(sum(twist.phi(a) for a in I), run)
    return out


def _relabelled_weights(n: int, index_set: Tuple[int, ...], twist: TwistConfig) -> Member:
    """The trace weights of ``index_set``'s trivial-carrier twist data with
    its modes named as those of ``1..p``, and the relabelling ``sigma``
    (letters from 0), or None for ``1..p`` itself.  A degenerate weight is
    reported with the letters of ``index_set``, as :func:`build_twist_D`
    reports it."""
    weights = build_twist_D(n, index_set, trivial_rep(index_set), twist)
    sigma = tuple(a - 1 for a in index_set) \
        + tuple(x - 1 for x in range(1, n + 1) if x not in index_set)
    if sigma == tuple(range(n)):
        return weights, None
    letter = {a + 1: b + 1 for b, a in enumerate(sigma)}
    # a trivial carrier has no plain-trace modes; its modes are ("o", a, x)
    return weights._replace(q={(tag, letter[a], letter[x]): w
                               for (tag, a, x), w in weights.q.items()}), sigma


def build_Q(n: int, length: int, index_set: Sequence[int],
            twist: TwistConfig) -> OperatorPolynomial:
    """Trace over pure oscillator auxiliary content (trivial gl-carrier)."""
    I = tuple(sorted(index_set))
    return build_Qs(n, length, [I], twist)[I]


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
