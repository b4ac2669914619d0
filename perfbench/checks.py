"""Output checks computed apart from the program under test.

Each function returns a list of problems; an empty list means the output
passed.  Nothing here calls into ``qlab`` to compute an expected value: the
Hamiltonian, the subset-lattice record counts and the Fock-space ladder
matrices are written out from the conventions stated in the package
docstrings.  The members and Fock matrices that are checked come in as
arguments, so a test can hand in perturbed ones.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Sequence

import numpy as np
import scipy.sparse as sp

#: energies from two routes, or from the program and from numpy, must agree
#: to this relative tolerance (float64 eigensolvers at dimension <= 243 agree
#: to about 1e-13; the program's own cross-check gate is 1e-10)
ENERGY_RTOL = 1e-9

#: the Newton-refined root equations must close to this absolute residual
#: (the program refines to 1e-12)
BETHE_TOL = 1e-8

#: relative commutator bound ``||[Q, H]||_F / (||Q||_F ||H||_F)``.  Each
#: entry of a product of dim x dim matrices carries a rounding error of about
#: ``dim * eps`` of the operand norms; the members themselves are fitted from
#: ``L + 1`` samples, which costs a few more digits.  A wrong member gives a
#: ratio of order one.
COMMUTATOR_RTOL = 1e-10


def _complex(x) -> complex:
    if isinstance(x, dict):
        return complex(x["re"], x["im"])
    return complex(x)


def hamiltonian(n: int, length: int, phis: Sequence[float]) -> np.ndarray:
    """Dense ``2 sum_l (1 - P_{l,l+1})`` on ``(C^n)^L``, site 1 most significant.

    With ``e_ab = |a><b|`` the wrap bond is taken as
    ``e_ab^{(L+1)} = e^{i(phi_b - phi_a)} e_ab^{(1)}``, so
    ``P_{L,L+1} = sum_ab e^{i(phi_a - phi_b)} e_ab^{(L)} e_ba^{(1)}``.  This is
    the sign under which the family commutes with the Hamiltonian; the opposite
    sign gives the transpose, which has the same spectrum.
    """
    if length < 2:
        raise ValueError("the exchange Hamiltonian needs at least two sites")
    dim = n ** length
    eye = np.eye(n)

    def unit(a: int, b: int) -> np.ndarray:
        m = np.zeros((n, n))
        m[a, b] = 1.0
        return m

    def at_sites(ops: Dict[int, np.ndarray]) -> np.ndarray:
        out = np.ones((1, 1))
        for site in range(length):
            out = np.kron(out, ops.get(site, eye))
        return out

    h = 2.0 * length * np.eye(dim, dtype=complex)
    for l in range(length):
        lp = (l + 1) % length
        for a in range(n):
            for b in range(n):
                phase = 1.0
                if lp == 0:
                    phase = np.exp(1j * (phis[a] - phis[b]))
                h -= 2.0 * phase * at_sites({l: unit(a, b), lp: unit(b, a)})
    return h


def spectrum_problems(doc: dict, n: int, length: int,
                      phis: Sequence[float]) -> List[str]:
    """The three energies per state against numpy's spectrum of the Hamiltonian."""
    rows = doc.get("rows", [])
    out = []
    if len(rows) != n ** length:
        out.append("spectrum has %d rows, expected %d" % (len(rows), n ** length))
        return out
    reference = np.sort(np.linalg.eigvalsh(hamiltonian(n, length, phis)))
    direct = np.array([_complex(r["E_direct"]) for r in rows])
    scale = max(1.0, float(np.max(np.abs(reference))))
    if np.max(np.abs(direct.imag)) > ENERGY_RTOL * scale:
        out.append("E_direct has an imaginary part")
    gap = np.max(np.abs(np.sort(direct.real) - reference))
    if gap > ENERGY_RTOL * scale:
        out.append("E_direct differs from numpy's spectrum by %.3g" % gap)
    for r, e in zip(rows, direct):
        for key in ("E_roots", "E_TBox"):
            if abs(_complex(r[key]) - e) > ENERGY_RTOL * scale:
                out.append("%s differs from E_direct in sector %s state %d"
                           % (key, r["sector"], r["state_index"]))
    return out


def bethe_problems(doc: dict, n: int, length: int) -> List[str]:
    """One root system per state, each closing its equations after refinement."""
    states = doc.get("states", [])
    out = []
    if len(states) != n ** length:
        out.append("bethe has %d states, expected %d" % (len(states), n ** length))
    for s in states:
        if not s["refined_max_residual"] < BETHE_TOL:
            out.append("sector %s state %d: refined residual %.3g"
                       % (s["sector"], s["state_index"], s["refined_max_residual"]))
    return out


def expected_record_counts(n: int) -> Dict[str, int]:
    """Records per suite from the subset lattice of ``{1..n}``."""
    pairs = math.comb(n, 2)
    return {"anchors": 2, "hirota": pairs * 2 ** (n - 2),
            "determinant": pairs + 1, "plucker": n - 1, "commuting": 1,
            "bgg": 1, "trace": 1}


def record_count_problems(doc: dict, n: int, suites: Sequence[str]) -> List[str]:
    want = expected_record_counts(n)
    got: Dict[str, int] = {}
    for r in doc.get("records", []):
        got[r["suite"]] = got.get(r["suite"], 0) + 1
    return ["%s: %d records, expected %d" % (s, got.get(s, 0), want[s])
            for s in suites if got.get(s, 0) != want[s]]


def commutator_problems(members: Dict[tuple, Callable[[float], np.ndarray]],
                        n: int, length: int, phis: Sequence[float],
                        z_values: Sequence[float] = (0.37, -0.81)) -> List[str]:
    """Each member, as a dense matrix at a few points, commutes with the Hamiltonian."""
    h = hamiltonian(n, length, phis)
    hnorm = np.linalg.norm(h)
    out = []
    for I, member_at in members.items():
        for z in z_values:
            q = member_at(z)
            ratio = np.linalg.norm(q @ h - h @ q) / (np.linalg.norm(q) * hnorm)
            if not ratio <= COMMUTATOR_RTOL:
                out.append("member %s at z=%g: relative commutator %.3g"
                           % (I, z, ratio))
    return out


def nontrivial_subsets(n: int) -> List[tuple]:
    letters = range(1, n + 1)
    return [I for k in range(1, n) for I in itertools.combinations(letters, k)]


def _ladder_reference(states: np.ndarray, n_max: int, p: int, kind: str
                      ) -> sp.csr_matrix:
    """``B``, ``B†`` or ``B†B`` on mode position ``p`` in the ``|k+1> = B†|k>``
    convention: ``B†`` has entry ``(k+1, k) = 1``, ``B`` has ``(k-1, k) = k``;
    amplitudes that leave the total-excitation cap are dropped."""
    dim, k = states.shape
    radix = (n_max + 1) ** np.arange(k, dtype=np.int64)
    codes = states.astype(np.int64) @ radix
    order = np.argsort(codes)
    occ = states[:, p]
    if kind == "number":
        cols = np.arange(dim)
        rows, vals = cols, occ.astype(float)
    else:
        step = 1 if kind == "creator" else -1
        keep = states.sum(axis=1) < n_max if step == 1 else occ > 0
        cols = np.nonzero(keep)[0]
        target = codes[cols] + step * radix[p]
        rows = order[np.searchsorted(codes, target, sorter=order)]
        vals = np.ones(len(cols)) if step == 1 else occ[cols].astype(float)
    return sp.csr_matrix((vals.astype(complex), (rows, cols)), shape=(dim, dim))


def fock_problems(modes: Sequence, states: Sequence[Sequence[int]], n_max: int,
                  matrix_of: Callable[[object, str], sp.spmatrix]) -> List[str]:
    """The truncated basis and the ladder matrices on every mode.

    ``matrix_of(mode, kind)`` returns the program's matrix of ``B`` ("annihilator"),
    ``B†`` ("creator") or ``B†B`` ("number") on ``mode``.
    """
    k = len(modes)
    arr = np.array(states, dtype=np.int64).reshape(len(states), k)
    want_dim = math.comb(k + n_max, k)
    out = []
    if (len(arr) != want_dim or len({tuple(s) for s in arr.tolist()}) != len(arr)
            or (arr < 0).any() or (arr.sum(axis=1) > n_max).any()):
        out.append("basis over %d modes, cap %d: %d states, expected %d distinct"
                   % (k, n_max, len(arr), want_dim))
        return out
    for p, mode in enumerate(modes):
        for kind in ("annihilator", "creator", "number"):
            got = sp.csr_matrix(matrix_of(mode, kind))
            want = _ladder_reference(arr, n_max, p, kind)
            if got.shape != want.shape or abs(got - want).max() != 0:
                out.append("%s on mode %s (dim %d) differs" % (kind, mode, len(arr)))
    return out
