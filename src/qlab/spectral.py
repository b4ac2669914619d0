"""Spectral endpoint: twisted Hamiltonian, sector decomposition, eigenvalue
polynomials of the commuting family, Bethe-root systems, and energies.

The chain Hamiltonian is the nearest-neighbour exchange model with twisted
periodic wrap.  Joint eigenstates of the commuting family are found per
letter-count sector by diagonalizing a random linear combination of family
members; each member's eigenvalue polynomial is then read off in that basis,
its roots feed the nested root equations, and three independent energies are
compared: direct diagonalization, the root sum, and the log-derivative of the
defining-representation transfer operator.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tensor import QuantumOperator, basis_states, sector_states, state_index
from .transfer import TwistConfig, build_Q, build_T_box

ROOT_COLLISION_TOL = 1e-9


# -- Hamiltonian and sectors ----------------------------------------------------


def build_hamiltonian(n: int, length: int, twist: TwistConfig) -> QuantumOperator:
    """Exchange Hamiltonian ``2 sum_l (1 - P_{l,l+1})`` with twisted wrap.

    With ``e_ab = |a><b|``, the wrap bond uses
    ``e_ab^{(L+1)} = e^{i(phi_b - phi_a)} e_ab^{(1)}``.
    """
    dim = n ** length
    data: Dict[Tuple[int, int], complex] = {}
    for i in range(dim):
        data[(i, i)] = 2.0 * length
    for s in basis_states(n, length):
        si = state_index(s, n)
        for l in range(length):
            lp = (l + 1) % length
            # exchange letters at sites l, l+1 (0-based); the twisted wrap
            # multiplies by the phase of the moved letters
            t = list(s)
            t[l], t[lp] = t[lp], t[l]
            ti = state_index(t, n)
            phase = 1.0 + 0.0j
            if lp == 0:
                a, b = s[l] + 1, s[lp] + 1
                phase = cmath.exp(1j * (twist.phi(b) - twist.phi(a)))
            key = (ti, si)
            data[key] = data.get(key, 0.0) - 2.0 * phase
    return QuantumOperator(dim, data)


def sector_labels(n: int, length: int) -> List[Tuple[int, ...]]:
    """All letter-count vectors with total ``length``."""
    return sorted(sector_states(n, length))


def sector_indices(n: int, length: int, m: Sequence[int]) -> List[int]:
    return [state_index(s, n) for s in sector_states(n, length).get(tuple(m), ())]


def sector_blocks(op: QuantumOperator, sectors: Sequence[Sequence[int]]
                  ) -> List[np.ndarray]:
    """The diagonal blocks ``op[idx, idx]``, one per index list in ``sectors``.

    The blocks are read from the operator's stored entries in one pass, with
    no dense copy of the whole operator; entries outside the blocks are
    ignored.  The index lists must be disjoint.
    """
    sizes = np.array([len(idx) for idx in sectors], dtype=np.int64)
    label = np.full(op.dim, -1, dtype=np.int64)
    pos = np.zeros(op.dim, dtype=np.int64)
    for s, idx in enumerate(sectors):
        label[idx] = s
        pos[idx] = np.arange(len(idx))
    # the blocks are row-major views into one buffer, block s at offset[s]
    offset = np.concatenate(([0], np.cumsum(sizes ** 2)))
    flat = np.zeros(offset[-1], dtype=complex)
    if op.data:
        rows, cols = np.array(list(op.data), dtype=np.int64).T
        vals = np.fromiter(op.data.values(), dtype=complex, count=len(op.data))
        keep = (label[rows] >= 0) & (label[rows] == label[cols])
        rows, cols, s = rows[keep], cols[keep], label[rows[keep]]
        flat[offset[s] + pos[rows] * sizes[s] + pos[cols]] = vals[keep]
    return [flat[offset[s]:offset[s + 1]].reshape(size, size)
            for s, size in enumerate(sizes)]


def sector_block(op: QuantumOperator, idx: Sequence[int]) -> np.ndarray:
    return sector_blocks(op, [idx])[0]


def sector_project(op: QuantumOperator, n: int, length: int,
                   m: Sequence[int], check: bool = True) -> np.ndarray:
    """Restriction of a letter-count-conserving operator to one sector."""
    idx = sector_indices(n, length, m)
    if check:
        dense = op.to_dense()
        comp = [i for i in range(op.dim) if i not in idx]
        if comp and idx:
            leak = max(np.max(np.abs(dense[np.ix_(idx, comp)])),
                       np.max(np.abs(dense[np.ix_(comp, idx)])))
            if leak > 1e-10:
                raise ValueError("operator does not preserve the sector")
    return sector_block(op, idx)


# -- simultaneous diagonalization ------------------------------------------------


def simultaneous_eigenbasis(blocks: Sequence[np.ndarray], seed: int = 5,
                            tol: float = 1e-8, attempts: int = 8) -> np.ndarray:
    """Eigenbasis of a random combination, validated against every block."""
    dim = blocks[0].shape[0]
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        coeffs = rng.normal(size=len(blocks)) + 1j * rng.normal(size=len(blocks))
        comb = sum(c * b for c, b in zip(coeffs, blocks))
        _, v = np.linalg.eig(comb)
        vinv = np.linalg.inv(v)
        ok = True
        for b in blocks:
            m = vinv @ b @ v
            off = m - np.diag(np.diag(m))
            if off.size and np.max(np.abs(off)) > tol * max(1.0, np.max(np.abs(m))):
                ok = False
                break
        if ok:
            return v
    raise RuntimeError("no common eigenbasis found; twist may be degenerate")


def eigenvalues_in_basis(block: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.diag(np.linalg.inv(v) @ block @ v)


# -- eigenvalue polynomials and roots --------------------------------------------


def extract_q_polynomials_loose(blocks: Sequence[np.ndarray], v: np.ndarray
                                ) -> List[np.ndarray]:
    """Eigenvalue polynomials (one per joint eigenstate) of an operator
    polynomial, from the sector blocks of its coefficients, lowest power first,
    and the sector's joint eigenbasis ``v``; no degree or monic constraint."""
    vinv = np.linalg.inv(v)
    coeff_eigs = [np.diag(vinv @ block @ v) for block in blocks]
    return [np.array([ce[s] for ce in coeff_eigs]) for s in range(v.shape[0])]


def extract_q_polynomials(blocks: Sequence[np.ndarray], v: np.ndarray,
                          expected_degree: int,
                          fit_tol: float = 1e-8) -> List[np.ndarray]:
    """Monic eigenvalue polynomials (one per joint eigenstate) of a family member.

    Takes the arguments of :func:`extract_q_polynomials_loose`.  Returns
    coefficient arrays ``[c_0, ..., c_deg]`` after stripping the exponential
    prefactor; checks that coefficients above the expected degree vanish and
    that the leading coefficient is 1.
    """
    per_state = []
    for cs in extract_q_polynomials_loose(blocks, v):
        if np.max(np.abs(cs[expected_degree + 1:]), initial=0.0) > fit_tol:
            raise ValueError("eigenvalue polynomial exceeds the sector degree")
        cs = cs[:expected_degree + 1]
        if abs(cs[-1] - 1.0) > fit_tol:
            raise ValueError("eigenvalue polynomial is not monic")
        cs[-1] = 1.0
        per_state.append(cs)
    return per_state


def poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of ``sum_k c_k z^k`` (ascending coefficients)."""
    if len(coeffs) <= 1:
        return np.zeros(0, dtype=complex)
    return np.roots(coeffs[::-1])


# -- nested root equations --------------------------------------------------------


def _q_value(sigma: complex, roots: np.ndarray, z: complex) -> complex:
    return cmath.exp(1j * z * sigma) * complex(np.prod(z - roots))


def bethe_residuals(level_roots: Sequence[np.ndarray],
                    level_sigmas: Sequence[complex], length: int
                    ) -> List[np.ndarray]:
    """Per-level, per-root residual |ratio + 1| of the nested root equations.

    ``level_roots[i]`` holds the roots for the i-th member of an ascending
    chain of index sets, i = 0..n, with the empty set first (no roots, sigma
    0) and the full set last (roots all zero, eigenvalue z^L).
    """
    n_levels = len(level_roots)
    out = []
    for i in range(1, n_levels - 1):
        cur = level_roots[i]
        if len(cur) > 1:
            dists = np.abs(cur[:, None] - cur[None, :]) + np.eye(len(cur))
            if np.min(dists) < ROOT_COLLISION_TOL:
                raise ValueError("coinciding roots within one level")
        res = np.zeros(len(cur))
        for l, z in enumerate(cur):
            # the same-level ratio uses the FULL function: the root itself
            # contributes the factor (+1)/(-1) at the shifted arguments
            below = _q_value(level_sigmas[i - 1], level_roots[i - 1], z - 0.5) \
                / _q_value(level_sigmas[i - 1], level_roots[i - 1], z + 0.5)
            same = _q_value(level_sigmas[i], cur, z + 1.0) \
                / _q_value(level_sigmas[i], cur, z - 1.0)
            above = _q_value(level_sigmas[i + 1], level_roots[i + 1], z - 0.5) \
                / _q_value(level_sigmas[i + 1], level_roots[i + 1], z + 0.5)
            res[l] = abs(below * same * above + 1.0)
        out.append(res)
    return out


def energy_from_roots(top_roots: np.ndarray) -> complex:
    """Energy as the standard sum over the last-level roots."""
    for z in top_roots:
        if min(abs(z - 0.5), abs(z + 0.5)) < 1e-12:
            raise ValueError("root at +-1/2 makes the energy singular")
    return 2.0 * complex(np.sum(1.0 / (0.25 - top_roots ** 2)))


def energy_from_tbox_poly(coeffs: np.ndarray, length: int) -> complex:
    """Energy from the defining-carrier transfer eigenvalue polynomial.

    With this package's argument convention the log-derivative is taken at
    z = 0 (the carrier-size shift is already absorbed into the argument of
    the construction); verified against direct diagonalization.
    """
    z0 = 0.0
    val = complex(np.polyval(coeffs[::-1], z0))
    dcoeffs = np.array([k * coeffs[k] for k in range(1, len(coeffs))])
    dval = complex(np.polyval(dcoeffs[::-1], z0)) if len(dcoeffs) else 0.0
    if abs(val) < 1e-12:
        raise ValueError("transfer eigenvalue vanishes at the evaluation point")
    return 2.0 * length - 2.0 * dval / val


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
        return max((float(np.max(r)) for r in self.bethe if len(r)), default=0.0)


class SpectralAnalysis:
    """Joint diagnosis of one chain along one ascending chain of index sets."""

    def __init__(self, n: int, length: int, twist: TwistConfig,
                 path: Sequence[int] | None = None):
        self.n, self.length, self.twist = n, length, twist
        self.path = tuple(path) if path is not None else tuple(range(1, n + 1))
        if sorted(self.path) != list(range(1, n + 1)):
            raise ValueError("path must order all letters")
        self.sets = [tuple(sorted(self.path[:i])) for i in range(n + 1)]
        self.q_polys = {I: build_Q(n, length, I, twist) for I in self.sets}
        self.tbox = build_T_box(n, length, twist)
        self.H = build_hamiltonian(n, length, twist)
        # every operator is read once, into its blocks on all sectors; the
        # probes are the operators diagonalized together
        labels = sector_labels(n, length)
        sectors = [sector_indices(n, length, m) for m in labels]

        def blocks(op: QuantumOperator) -> Dict[Tuple[int, ...], np.ndarray]:
            return dict(zip(labels, sector_blocks(op, sectors)))

        probes = [self.H] + [self.q_polys[I].at(z) for I in self.sets[1:-1]
                             for z in (0.37, -0.81)] + [self.tbox.at(0.29)]
        self._probe_blocks = [blocks(op) for op in probes]
        self._q_blocks = {I: [blocks(c) for c in self.q_polys[I].coeffs]
                          for I in self.sets}
        self._tbox_blocks = [blocks(c) for c in self.tbox.coeffs[:length + 1]]

    def sector_records(self, m: Sequence[int], seed: int = 5
                       ) -> List[EigenstateRecord]:
        m = tuple(m)
        blocks = [b[m] for b in self._probe_blocks]
        v = simultaneous_eigenbasis(blocks, seed=seed)
        energies = eigenvalues_in_basis(blocks[0], v)
        level_polys = []
        for i, I in enumerate(self.sets):
            deg = sum(m[a - 1] for a in I)
            level_polys.append(extract_q_polynomials(
                [b[m] for b in self._q_blocks[I]], v, deg))
        tbox_polys = extract_q_polynomials_loose(
            [b[m] for b in self._tbox_blocks], v)
        sigmas = [self.q_polys[I].sigma for I in self.sets]
        out = []
        for s in range(len(blocks[0])):
            roots = [poly_roots(level_polys[i][s]) for i in range(len(self.sets))]
            bres = bethe_residuals(roots, sigmas, self.length)
            out.append(EigenstateRecord(
                m, s, complex(energies[s]), roots, bres,
                energy_from_roots(roots[-2]),
                energy_from_tbox_poly(tbox_polys[s], self.length)))
        return out

    def all_records(self, seed: int = 5) -> List[EigenstateRecord]:
        out = []
        for m in sector_labels(self.n, self.length):
            out.extend(self.sector_records(m, seed=seed))
        return out

    def spectrum(self) -> np.ndarray:
        return np.sort_complex(np.array(
            [r.energy_direct for r in self.all_records()]))


# -- iterative refinement of root systems -------------------------------------------


def _residual_vector(level_roots: List[np.ndarray],
                     level_sigmas: Sequence[complex]) -> np.ndarray:
    """Signed residuals (ratio + 1) flattened over interior levels and roots."""
    vals = []
    n_levels = len(level_roots)
    for i in range(1, n_levels - 1):
        cur = level_roots[i]
        for l, z in enumerate(cur):
            below = _q_value(level_sigmas[i - 1], level_roots[i - 1], z - 0.5) \
                / _q_value(level_sigmas[i - 1], level_roots[i - 1], z + 0.5)
            same = _q_value(level_sigmas[i], cur, z + 1.0) \
                / _q_value(level_sigmas[i], cur, z - 1.0)
            above = _q_value(level_sigmas[i + 1], level_roots[i + 1], z - 0.5) \
                / _q_value(level_sigmas[i + 1], level_roots[i + 1], z + 0.5)
            vals.append(below * same * above + 1.0)
    return np.array(vals, dtype=complex)


def solve_bethe_newton(level_roots: List[np.ndarray],
                       level_sigmas: Sequence[complex],
                       max_iter: int = 40, tol: float = 1e-12
                       ) -> Tuple[List[np.ndarray], float, int]:
    """Newton refinement of the interior-level roots (outer levels held fixed).

    Returns (refined roots, final max |residual|, iterations used).  The
    Jacobian is numerical; a singular Jacobian raises.
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

    x = pack(interior)
    it = 0
    for it in range(1, max_iter + 1):
        f = _residual_vector(full(unpack(x)), level_sigmas)
        if f.size == 0 or np.max(np.abs(f)) < tol:
            break
        h = 1e-7
        J = np.zeros((len(f), len(x)), dtype=complex)
        for j in range(len(x)):
            xp = x.copy()
            xp[j] += h
            J[:, j] = (_residual_vector(full(unpack(xp)), level_sigmas) - f) / h
        try:
            dx = np.linalg.solve(J, f)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("singular Jacobian in root refinement") from exc
        x = x - dx
    f = _residual_vector(full(unpack(x)), level_sigmas)
    res = float(np.max(np.abs(f))) if f.size else 0.0
    return full(unpack(x)), res, it
