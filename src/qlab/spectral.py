"""Spectral endpoint: twisted Hamiltonian, sector decomposition, eigenvalue
polynomials of the commuting family, Bethe-root systems, and energies.

The chain Hamiltonian is the nearest-neighbour exchange model with twisted
periodic wrap.  Joint eigenstates of the commuting family are found per
letter-count sector by diagonalizing a random linear combination of family
members; each member's eigenvalue polynomial is then read off in that basis,
its roots feed the nested root equations, and three independent energies are
compared: direct diagonalization, the root sum, and the log-derivative of the
defining-representation transfer operator.

The sectors are processed one size group at a time, as the sector layout
stores them (:class:`qlab.tensor.SectorLayout`).  All states of a sector
share each level's degree, so every step works on stacks, one row per state:
the operators' blocks of the group's sectors are taken into one contiguous
``(S, count, s, s)`` stack; one stacked ``vinv @ probes @ v`` validates
every sector's joint eigenbasis and gives the energies, each sector taking
the random draws it would take alone; one stacked matmul per member gives
its eigenvalue polynomials; the rows of the group's sectors are grouped by
degree, and one ``eigvals`` per degree and level finds their roots from
companion matrices built as ``np.roots`` builds them.  The root equations
and the root energy are evaluated per sector.

Every result is bit for bit what the one-sector-at-a-time and the
one-state-at-a-time computations give.
Stacked ``matmul`` and ``eigvals`` round each slice as they round it alone,
and ``np.prod`` over the last axis rounds as the Python product from 1.  But
numpy's elementwise complex ``*``, ``/``, ``abs`` and ``exp`` round unlike
CPython's complex operations and ``cmath.exp``.  So the root products are
vectorized and the exponent ``(1j * z) * sigma`` is formed as an array, which
is exact (it multiplies by ``i`` and by a real); ``cmath.exp``, the quotients
and ``abs`` then run on Python scalars.  Newton refinement stays per state on
the scalar kernel :func:`_root_ratio`, which the tests also take as the
reference for the batched one.  numpy's complex ``*`` and ``abs`` also round
by the SIMD loop it dispatches, so the random combination of the probes and
the squares of the roots are formed by :func:`qlab.tensor._product`, and
Newton reduces its residual with CPython's ``abs``, as :func:`bethe_residuals`
does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .oscillator import _worst
from .relations import QFamily
from .tensor import Blocks, _product, basis_states, sector_layout
from .transfer import TwistConfig

ROOT_COLLISION_TOL = 1e-9
#: random combinations tried before a joint eigenbasis is given up
EIGENBASIS_ATTEMPTS = 8
#: the max |residual| at which Newton refinement of a root system stops
NEWTON_TARGET = 1e-12


# -- Hamiltonian and sectors ----------------------------------------------------


def build_hamiltonian(n: int, length: int, twist: TwistConfig) -> Blocks:
    """Exchange Hamiltonian ``2 sum_l (1 - P_{l,l+1})`` with twisted wrap.

    With ``e_ab = |a><b|``, the wrap bond uses
    ``e_ab^{(L+1)} = e^{i(phi_b - phi_a)} e_ab^{(1)}``.  The diagonal ``2L``
    comes first; then, per state in basis order and per bond, the exchange
    term ``-2 phase`` lands on (exchanged state, state).  Terms on one entry
    are added in that order, as a run of one.
    """
    dim = n ** length
    states = np.array(list(basis_states(n, length)), dtype=np.int64).reshape(dim, length)
    place = n ** np.arange(length - 1, -1, -1, dtype=np.int64)
    index = states @ place
    # exchanging the letters at sites l, l+1 (0-based, l+1 mod L) of a state
    exchanged = index[:, None] + ((np.roll(states, -1, axis=1) - states)
                                  * (place - np.roll(place, -1)))
    # the wrap bond multiplies by the phase of the moved letters
    terms = np.full((dim, length), -(2.0 * (1.0 + 0.0j)))
    wrap = np.array([[-(2.0 * cmath.exp(1j * (twist.phi(b + 1) - twist.phi(a + 1))))
                      for b in range(n)] for a in range(n)])
    if length:
        terms[:, -1] = wrap[states[:, -1], states[:, 0]]
    rows = np.concatenate((index, exchanged.ravel()))
    cols = np.concatenate((index, np.repeat(index, length)))
    terms = np.concatenate((np.full(dim, 2.0 * length + 0.0j), terms.ravel()))
    return sector_layout(n, length).scatter(rows, cols, terms[None])


# -- simultaneous diagonalization ------------------------------------------------


def simultaneous_eigenbasis(blocks: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenbasis ``v`` of a random combination of each sector's stacked
    blocks, from ``blocks`` ``(S, p, d, d)``, validated against every block
    of the sector; returns ``v`` and its inverse ``vinv``, each ``(S, d,
    d)``, and the ``(S, p, d)`` eigenvalues of the blocks in that basis, the
    diagonals of the stacked ``vinv @ blocks @ v`` that validated it.

    At most ``EIGENBASIS_ATTEMPTS`` combinations are drawn, from a generator
    seeded with 5; a sector's basis is accepted when every off-diagonal entry
    is at most ``1e-8`` times the block's scale.  Every sector takes the
    first draw, and the sectors it fails take the next one together: each
    sees the draws it would see alone."""
    sectors, count, dim = blocks.shape[:3]
    v = np.empty((sectors, dim, dim), dtype=complex)
    vinv = np.empty_like(v)
    eigs = np.empty((sectors, count, dim), dtype=complex)
    rng = np.random.default_rng(5)
    diag = np.arange(dim)
    pending = np.arange(sectors)
    for _ in range(EIGENBASIS_ATTEMPTS):
        coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
        part = blocks[pending]
        comb = _product(part, coeffs[:, None, None]).sum(axis=1)
        _, basis = np.linalg.eig(comb)
        inverse = np.linalg.inv(basis)
        m = inverse[:, None] @ part @ basis[:, None]
        size = np.abs(m)
        scale = np.fmax(1.0, size.max(axis=(2, 3)))
        size[:, :, diag, diag] = 0.0
        ok = ~(size.max(axis=(2, 3)) > 1e-8 * scale).any(axis=1)
        done = pending[ok]
        v[done], vinv[done], eigs[done] = basis[ok], inverse[ok], m[ok][:, :, diag, diag]
        pending = pending[~ok]
        if not pending.size:
            return v, vinv, eigs
    raise RuntimeError("no common eigenbasis found; twist may be degenerate")


# -- eigenvalue polynomials and roots --------------------------------------------


def extract_q_polynomials_loose(blocks: np.ndarray, v: np.ndarray,
                                vinv: np.ndarray) -> np.ndarray:
    """Eigenvalue polynomials of an operator polynomial, ``(S, d, c)``: one
    row per joint eigenstate of each sector, lowest power first, from the
    ``(S, c, d, d)`` sector blocks of its ``c`` coefficients and each
    sector's joint eigenbasis ``v`` with inverse ``vinv``
    (:func:`simultaneous_eigenbasis`); no degree or monic constraint."""
    return np.diagonal(vinv[:, None] @ blocks @ v[:, None], axis1=2, axis2=3).transpose(0, 2, 1)


def extract_q_polynomials(blocks: np.ndarray, v: np.ndarray, vinv: np.ndarray,
                          degrees: Sequence[int]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Monic eigenvalue polynomials of a family member, grouped by degree.

    Takes the arguments of :func:`extract_q_polynomials_loose` and each
    sector's expected degree.  Returns, for each degree in increasing order,
    the indices of its sectors and their ``(t, d, degree + 1)`` coefficient
    rows ``[c_0, ..., c_deg]`` after stripping the exponential prefactor;
    checks, to within ``1e-8``, that coefficients above the expected degree
    vanish and that the leading coefficient is 1, which it then sets exactly.
    """
    polys = extract_q_polynomials_loose(blocks, v, vinv)
    degrees = np.asarray(degrees)
    out = []
    for degree in sorted(set(degrees.tolist())):
        take = np.flatnonzero(degrees == degree)
        rows = polys[take]
        if (np.abs(rows[..., degree + 1:]).max(axis=-1, initial=0.0) > 1e-8).any():
            raise ValueError("eigenvalue polynomial exceeds the sector degree")
        rows = rows[..., :degree + 1].copy()
        if (np.abs(rows[..., -1] - 1.0) > 1e-8).any():
            raise ValueError("eigenvalue polynomial is not monic")
        rows[..., -1] = 1.0
        out.append((take, rows))
    return out


def poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of ``sum_k c_k z^k`` for each row of ``coeffs`` (ascending
    powers, nonzero leading coefficient), one row of roots per row, each as
    ``np.roots`` finds it.

    As in ``np.roots``, the exact-zero low-order coefficients of a row give
    zero roots, placed last, and the rest are the eigenvalues of the companion
    matrix of the stripped polynomial; rows that strip alike share one stacked
    ``eigvals``.  When every root of every row is zero the result is float,
    as ``np.roots`` gives for ``z^k``.
    """
    rows, degree = coeffs.shape[0], coeffs.shape[1] - 1
    # the number of exact-zero coefficients below the lowest nonzero one
    stripped = (coeffs != 0).argmax(axis=1)
    counts = set(stripped.tolist())
    if degree > 0 and counts == {degree}:
        return np.zeros((rows, degree))
    out = np.zeros((rows, degree), dtype=complex)
    for t in counts:
        k = degree - t
        if k == 0:
            continue
        take = stripped == t
        desc = coeffs[take, t:][:, ::-1]
        companion = np.zeros((len(desc), k, k), dtype=complex)
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
        out[take, :k] = np.linalg.eigvals(companion)
    return out


# -- nested root equations --------------------------------------------------------


def _q_value(sigma: complex, roots: np.ndarray, z: complex) -> complex:
    """``e^{i z sigma} prod_r (z - r)``, the product formed in Python complex
    arithmetic from 1, left to right, which rounds as ``np.prod(z - roots)``
    does."""
    return cmath.exp(1j * z * sigma) * math.prod([complex(z) - r for r in roots.tolist()])


def _root_ratio(level_roots: Sequence[np.ndarray],
                level_sigmas: Sequence[complex], i: int, z: complex) -> complex:
    """Nested root-equation ratio at level ``i`` and ``z``, -1 at a root; the
    same-level ratio uses the FULL function, so a root contributes (+1)/(-1)."""
    below = _q_value(level_sigmas[i - 1], level_roots[i - 1], z - 0.5) \
        / _q_value(level_sigmas[i - 1], level_roots[i - 1], z + 0.5)
    same = _q_value(level_sigmas[i], level_roots[i], z + 1.0) \
        / _q_value(level_sigmas[i], level_roots[i], z - 1.0)
    above = _q_value(level_sigmas[i + 1], level_roots[i + 1], z - 0.5) \
        / _q_value(level_sigmas[i + 1], level_roots[i + 1], z + 0.5)
    return below * same * above


def _q_values(sigma: complex, roots: np.ndarray, z: np.ndarray) -> List[complex]:
    """:func:`_q_value` at every point of ``z`` (``(..., rows, points)``)
    against the roots in the same row of ``roots``, flattened, bit for bit.

    The root products are one ``np.prod``, which rounds as the Python product
    from 1 does; the exponent ``(1j * z) * sigma`` is exact as an array.  The
    exponential and the product of the two stay in Python arithmetic, because
    numpy's elementwise complex ``exp`` and ``*`` round differently."""
    prods = np.prod(z[..., None] - roots[:, None, :], axis=-1).ravel().tolist()
    return [cmath.exp(x) * p
            for x, p in zip(((1j * z) * sigma).ravel().tolist(), prods)]


def _root_ratios(level_roots: Sequence[np.ndarray],
                 level_sigmas: Sequence[complex], z: np.ndarray) -> List[complex]:
    """:func:`_root_ratio` at the middle one of three consecutive levels,
    given as row-per-state root stacks, at every point of ``z`` (one row per
    state), flattened row by row, bit for bit."""
    (below, same, above), (s_below, s_same, s_above) = level_roots, level_sigmas
    # each level is evaluated at both of its shifts at once
    half, whole = np.stack((z - 0.5, z + 0.5)), np.stack((z + 1.0, z - 1.0))
    q_below = _q_values(s_below, below, half)
    q_same = _q_values(s_same, same, whole)
    q_above = _q_values(s_above, above, half)
    n = z.size
    return [(b1 / b2) * (s1 / s2) * (a1 / a2) for b1, b2, s1, s2, a1, a2 in zip(
        q_below[:n], q_below[n:], q_same[:n], q_same[n:], q_above[:n], q_above[n:])]


def bethe_residuals(level_roots: Sequence[np.ndarray],
                    level_sigmas: Sequence[complex]) -> List[np.ndarray]:
    """Per-level, per-root residual |ratio + 1| of the nested root equations,
    one row per state.

    ``level_roots[i]`` stacks, one row per state, the roots for the i-th
    member of an ascending chain of index sets, i = 0..n, with the empty set
    first (no roots, sigma 0) and the full set last (roots all zero,
    eigenvalue z^L).
    """
    out = []
    for i in range(1, len(level_roots) - 1):
        cur = level_roots[i]
        if cur.shape[1] > 1:
            dists = np.abs(cur[:, :, None] - cur[:, None, :]) + np.eye(cur.shape[1])
            if (dists.min(axis=(1, 2)) < ROOT_COLLISION_TOL).any():
                raise ValueError("coinciding roots within one level")
        ratios = _root_ratios(level_roots[i - 1:i + 2], level_sigmas[i - 1:i + 2], cur)
        out.append(np.array([abs(r + 1.0) for r in ratios], dtype=float).reshape(cur.shape))
    return out


def energy_from_roots(top_roots: np.ndarray) -> List[complex]:
    """Energy as the standard sum over the last-level roots, one per row."""
    if np.any(np.minimum(np.abs(top_roots - 0.5), np.abs(top_roots + 0.5)) < 1e-12):
        raise ValueError("root at +-1/2 makes the energy singular")
    return [2.0 * complex(e)
            for e in np.sum(1.0 / (0.25 - _product(top_roots, top_roots)), axis=-1).tolist()]


def _polyval_rows(coeffs: np.ndarray, z: float) -> np.ndarray:
    """``np.polyval`` of each row of ascending ``coeffs`` at ``z``, in its
    Horner order, so each value rounds as ``np.polyval`` rounds it."""
    y = np.zeros(len(coeffs))
    for k in range(coeffs.shape[1] - 1, -1, -1):
        y = y * z + coeffs[:, k]
    return y


def energy_from_tbox_poly(coeffs: np.ndarray, length: int) -> List[complex]:
    """Energy from the defining-carrier transfer eigenvalue polynomial, one
    per row of ascending ``coeffs``.

    With this package's argument convention the log-derivative is taken at
    z = 0 (the carrier-size shift is already absorbed into the argument of
    the construction); verified against direct diagonalization.
    """
    z0 = 0.0
    vals = _polyval_rows(coeffs, z0).tolist()
    dvals = _polyval_rows(np.arange(1, coeffs.shape[1]) * coeffs[:, 1:], z0).tolist()
    if any(abs(val) < 1e-12 for val in vals):
        raise ValueError("transfer eigenvalue vanishes at the evaluation point")
    return [2.0 * length - 2.0 * dval / val for dval, val in zip(dvals, vals)]


# -- chain-level orchestration -----------------------------------------------------


@dataclass
class EigenstateRecord:
    sector: Tuple[int, ...]
    state: int
    energy_direct: complex
    level_roots: List[np.ndarray]
    bethe: List[np.ndarray]
    energy_roots: complex
    energy_tbox: complex

    @property
    def max_bethe_residual(self) -> float:
        return _worst(float(np.max(r)) for r in self.bethe if len(r))


class SpectralAnalysis:
    """Joint diagnosis of ``family``'s chain along the ascending chain of
    index sets ``(), (1,), (1, 2), ...``.  The chain that adds the letters in
    another order ``sigma`` is this one at the relabelled twist
    ``(phi_sigma(1), ..., phi_sigma(n))``."""

    def __init__(self, family: QFamily):
        n, length, twist = family.n, family.length, family.twist
        # a one-site chain has no bond: its Hamiltonian is zero, while T_box's
        # log-derivative reads a literal wrap bond, so the energies cannot agree
        if length < 2:
            raise ValueError("spectral analysis needs length >= 2")
        self.length = length
        self.sets = [tuple(range(1, i + 1)) for i in range(n + 1)]
        self.q_polys = {I: family.q(I) for I in self.sets}
        self.tbox = family.t_box()
        self.labels = sector_layout(n, length).labels
        # every operator in one run: the probes diagonalized together, then
        # each member's coefficients
        probes = [build_hamiltonian(n, length, twist)] \
            + [self.q_polys[I].values((0.37, -0.81)) for I in self.sets[1:-1]] \
            + [self.tbox.at(0.29)]
        members = [self.q_polys[I].coeffs for I in self.sets] \
            + [self.tbox.coeffs[:length + 1]]
        bounds = np.cumsum([sum(p.count for p in probes)]
                           + [c.count for c in members]).tolist()
        self._probes = slice(0, bounds[0])
        # the members' coefficient slices: one per index set, then T_box
        self._members = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self._run = Blocks.join(probes + members)

    def all_records(self) -> List[EigenstateRecord]:
        """The records of every joint eigenstate, sector by sector in label
        order."""
        layout = self._run.layout
        found = {}
        for g in range(len(layout.groups)):
            found.update(self._group_records(g))
        return [r for m in self.labels for r in found[m]]

    def _group_records(self, g: int) -> Dict[Tuple[int, ...], List[EigenstateRecord]]:
        """The records of every joint eigenstate of the sectors of size group
        ``g``, by sector label, each step but the root equations and the root
        energy taken once for the whole group on stacked arrays."""
        layout = self._run.layout
        labels = [layout.labels[layout.sector[idx[0]]] for idx in layout.groups[g]]
        stack = self._run.group_stack(g)
        v, vinv, eigs = simultaneous_eigenbasis(stack[:, self._probes])
        # roots[level][sector]
        roots = []
        for I, part in zip(self.sets, self._members):
            level = [None] * len(labels)
            for take, polys in extract_q_polynomials(
                    stack[:, part], v, vinv, [sum(m[a - 1] for a in I) for m in labels]):
                found = poly_roots(polys.reshape(-1, polys.shape[-1]))
                for i, rows, r in zip(take, polys, found.reshape(*polys.shape[:2], -1)):
                    # a sector whose every root is zero gets them as floats,
                    # as poly_roots gives them for the sector alone
                    level[i] = r if rows[:, :-1].any() or not r.shape[1] else np.zeros(r.shape)
            roots.append(level)
        e_tbox = energy_from_tbox_poly(extract_q_polynomials_loose(
            stack[:, self._members[-1]], v, vinv).reshape(-1, self.length + 1), self.length)
        sigmas = [self.q_polys[I].sigma for I in self.sets]
        size, out = stack.shape[2], {}
        for i, m in enumerate(labels):
            levels = [level[i] for level in roots]
            bethe = bethe_residuals(levels, sigmas)
            out[m] = [EigenstateRecord(m, s, e, [r[s] for r in levels], [b[s] for b in bethe],
                                       e_roots, e_t)
                      for s, (e, e_roots, e_t) in enumerate(
                          zip(eigs[i, 0].tolist(), energy_from_roots(levels[-2]),
                              e_tbox[i * size:(i + 1) * size]))]
        return out


# -- iterative refinement of root systems -------------------------------------------


def _residual_vector(level_roots: List[np.ndarray],
                     level_sigmas: Sequence[complex]) -> np.ndarray:
    """Signed residuals (ratio + 1) flattened over interior levels and roots."""
    vals = [_root_ratio(level_roots, level_sigmas, i, z) + 1.0
            for i in range(1, len(level_roots) - 1) for z in level_roots[i]]
    return np.array(vals, dtype=complex)


def solve_bethe_newton(level_roots: List[np.ndarray], level_sigmas: Sequence[complex]
                       ) -> Tuple[List[np.ndarray], float, int]:
    """Newton refinement of the interior-level roots (outer levels held fixed).

    Returns (refined roots, their max |residual|, iterations used).  At most
    40 steps are taken, and none once the max |residual| is below
    ``NEWTON_TARGET``, so a start already below it is returned with 1
    iteration.  The roots are the iterate with the smallest max |residual|,
    the start included: near a singular Jacobian the steps can carry a
    converged start far away.  An iterate whose residual is not finite, or
    overflows the exponential factor, ends the refinement; a start that is
    not finite is returned with its residual.  The Jacobian is a forward
    difference of step 1e-7; a singular Jacobian raises.
    """
    interior = [np.array(r, dtype=complex) for r in level_roots[1:-1]]
    shapes = [len(r) for r in interior]

    def pack(rs):
        return np.concatenate(rs) if rs else np.zeros(0, dtype=complex)

    def unpack(x):
        out, pos = [], 0
        for k in shapes:
            out.append(x[pos:pos + k])
            pos += k
        return out

    def full(rs):
        return [level_roots[0]] + list(rs) + [level_roots[-1]]

    def residual(x):
        try:
            f = _residual_vector(full(unpack(x)), level_sigmas)
        except OverflowError:
            return None, math.inf
        return f, _worst(abs(v) for v in f.tolist())

    def jacobian(x, f):
        J = np.zeros((len(f), len(x)), dtype=complex)
        for j in range(len(x)):
            xp = x.copy()
            xp[j] += 1e-7
            fp, _ = residual(xp)
            if fp is None:
                return None
            J[:, j] = (fp - f) / 1e-7
        return J

    x = pack(interior)
    f, res = residual(x)
    best_x, best_res = x, res
    it = 0
    for it in range(1, 41):
        if res < NEWTON_TARGET or not math.isfinite(res):
            break
        J = jacobian(x, f)
        if J is None:
            break
        try:
            dx = np.linalg.solve(J, f)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("singular Jacobian in root refinement") from exc
        x = x - dx
        f, res = residual(x)
        if res <= best_res:
            best_x, best_res = x, res
    return full(unpack(best_x)), best_res, it
