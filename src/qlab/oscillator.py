"""Exact multi-mode oscillator algebra with normal-ordered storage.

Every operator is a finite sum of normal-ordered monomials

    c * prod_m (B†_m)^{j_m} (B_m)^{k_m},

one ladder pair per *mode*.  Modes are arbitrary hashable, sortable labels
(tuples of strings/ints throughout this package); ladder pairs on distinct
modes commute, and ``[B_m, B†_m] = 1``.

Two trace rules are provided in closed form, both obtained by summing the
geometric series over occupation numbers and analytically continuing to any
weight ``q != 1``:

* ``normalized``:  <q^N (B†)^k B^k> / <q^N>  =  k! (q/(1-q))^k
* ``plain``:       Tr q^N (B†)^k B^k         =  k! q^k / (1-q)^{k+1}

The number-basis convention is non-unitary: ``|k+1> = B†|k>``, so ``B†`` has
matrix entry ``(k+1, k) = 1`` and ``B`` has entry ``(k-1, k) = k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

Mode = Tuple  # hashable, mutually sortable labels
# a term key: ((mode, n_create, n_annihilate), ...) sorted by mode
TermKey = Tuple[Tuple[Mode, int, int], ...]

COEFF_TOL = 1e-14


class NormalOrderedOp:
    """A finite sum of normal-ordered ladder monomials with complex coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[TermKey, complex] | None = None):
        self.terms: Dict[TermKey, complex] = {}
        if terms:
            for key, c in terms.items():
                c = complex(c)
                if abs(c) > COEFF_TOL:
                    self.terms[key] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, c: complex) -> "NormalOrderedOp":
        return cls({(): complex(c)})

    @classmethod
    def creator(cls, mode: Mode) -> "NormalOrderedOp":
        return cls({((mode, 1, 0),): 1.0})

    @classmethod
    def annihilator(cls, mode: Mode) -> "NormalOrderedOp":
        return cls({((mode, 0, 1),): 1.0})

    @classmethod
    def number(cls, mode: Mode) -> "NormalOrderedOp":
        """The number operator ``B† B`` on one mode."""
        return cls({((mode, 1, 1),): 1.0})

    @classmethod
    def zero(cls) -> "NormalOrderedOp":
        return cls({})

    # -- structure queries --------------------------------------------------

    def is_zero(self, tol: float = COEFF_TOL) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def modes(self) -> FrozenSet[Mode]:
        out = set()
        for key in self.terms:
            for mode, _, _ in key:
                out.add(mode)
        return frozenset(out)

    def creation_degree(self) -> int:
        """Largest total number of creators in any single term."""
        return max((sum(j for _, j, _ in key) for key in self.terms), default=0)

    def degree(self) -> int:
        """Largest total ladder-operator count in any single term."""
        return max((sum(j + k for _, j, k in key) for key in self.terms), default=0)

    def scalar_part(self) -> complex:
        return self.terms.get((), 0.0)

    def min_excitation_shift(self) -> int:
        """Smallest net excitation change ``sum(j - k)`` over the stored terms."""
        return min((sum(j - k for _, j, k in key) for key in self.terms), default=0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0.0) + c
        return NormalOrderedOp(terms)

    __radd__ = __add__

    def __neg__(self):
        return NormalOrderedOp({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NormalOrderedOp({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, NormalOrderedOp):
            return NotImplemented
        out: Dict[TermKey, complex] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _accumulate_product(k1, k2, c1 * c2, out)
        return NormalOrderedOp(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = NormalOrderedOp.scalar(1.0)
        for _ in range(k):
            out = out * self
        return out

    def commutator(self, other: "NormalOrderedOp") -> "NormalOrderedOp":
        return self * other - other * self

    def __repr__(self) -> str:
        return f"NormalOrderedOp({len(self.terms)} terms)"


def _coerce(x) -> NormalOrderedOp:
    if isinstance(x, NormalOrderedOp):
        return x
    if isinstance(x, (int, float, complex)):
        return NormalOrderedOp.scalar(x)
    raise TypeError(f"cannot coerce {type(x)!r} to NormalOrderedOp")


def _accumulate_product(k1: TermKey, k2: TermKey, coeff: complex,
                        out: Dict[TermKey, complex]) -> None:
    """Normal-order the product of two monomials and accumulate into ``out``.

    Per shared mode, ``B^{k} B†^{j} = sum_i i! C(k,i) C(j,i) B†^{j-i} B^{k-i}``.
    The resulting monomials are expanded mode by mode in ascending mode order;
    a mode with nothing to contract has the single alternative of weight 1.
    """
    if not k1 or not k2:
        key = k1 or k2
        out[key] = out.get(key, 0.0) + coeff
        return
    d1 = {m: (j, k) for m, j, k in k1}
    d2 = {m: (j, k) for m, j, k in k2}
    partial: List[Tuple[TermKey, float]] = [((), 1.0)]
    for m in sorted(set(d1) | set(d2)):
        j1, a1 = d1.get(m, (0, 0))
        j2, a2 = d2.get(m, (0, 0))
        contract = min(a1, j2)
        if not contract:
            part = ((m, j1 + j2, a1 + a2),)
            partial = [(key + part, w) for key, w in partial]
            continue
        alts = []
        for i in range(contract + 1):
            j, k = j1 + j2 - i, a1 + a2 - i
            wi = float(math.comb(a1, i) * math.comb(j2, i) * math.factorial(i))
            alts.append((((m, j, k),) if j or k else (), wi))
        partial = [(key + part, w * wi) for key, w in partial for part, wi in alts]
    for key, w in partial:
        out[key] = out.get(key, 0.0) + coeff * w


# -- closed-form weighted traces ---------------------------------------------


def _mode_factor(j: int, k: int, q: complex, plain: bool) -> complex:
    """Closed-form single-mode trace of ``q^N (B†)^j B^k`` (ratio rule if not plain)."""
    if j != k:
        return 0.0
    g = q / (1.0 - q)
    val = math.factorial(k) * g ** k
    if plain:
        val /= (1.0 - q)
    return val


def weighted_trace(x: NormalOrderedOp, q: Mapping[Mode, complex],
                   plain_modes: Sequence[Mode] = ()) -> complex:
    """Exact trace of ``x`` against per-mode weights ``q_m^{N_m}``.

    Modes in ``plain_modes`` use the plain (un-normalized) geometric trace and
    contribute their partition factor ``1/(1-q)`` even when absent from a
    monomial; all other weighted modes use the normalized ratio rule, under
    which an absent mode contributes 1.  The partition factors are multiplied
    in the order of ``plain_modes``, so pass an ordered sequence for a result
    that does not depend on the hash seed.  A mode appearing in ``x`` without
    a weight would be an untwisted (divergent) trace and raises ``ValueError``.
    """
    for m in plain_modes:
        if m not in q:
            raise ValueError(f"plain-trace mode {m!r} has no weight")
    total = 0.0 + 0.0j
    for key, c in x.terms.items():
        seen = set()
        f = c
        for mode, j, k in key:
            if mode not in q:
                raise ValueError(f"mode {mode!r} carries no twist weight; trace diverges")
            f *= _mode_factor(j, k, q[mode], mode in plain_modes)
            if f == 0.0:
                break
            seen.add(mode)
        else:
            for mode in plain_modes:
                if mode not in seen:
                    f *= 1.0 / (1.0 - q[mode])
            total += f
            continue
    return total


def normalized_trace(x: NormalOrderedOp, q: Mapping[Mode, complex]) -> complex:
    """Normalized trace with every mode weighted by the ratio rule."""
    return weighted_trace(x, q)


# -- truncated, damped numeric traces (independent cross-check path) ---------


def damped_numeric_trace(x: NormalOrderedOp, q: Mapping[Mode, complex],
                         n_max: int, eta: float = 0.0) -> complex:
    """Normalized trace by direct truncated summation with weights ``q e^{-eta}``.

    This is the convergent-series route: for ``|q e^{-eta}| < 1`` it tends to
    the closed-form :func:`normalized_trace` as ``eta -> 0+`` and
    ``n_max -> infinity``.  It shares no code with the closed form.

    Each mode's weights ``(q e^{-eta})^m``, ``m = 0 .. n_max``, are formed as
    ``exp(m log(q e^{-eta}))`` with the complex log of the one scalar weight
    taken once; numpy's complex power would take it again for every ``m``.
    A zero weight gives weight 1 at ``m = 0`` and 0 elsewhere.
    """
    damped = {m: qm * math.exp(-eta) for m, qm in q.items()}
    for m, qm in damped.items():
        if abs(qm) >= 1.0:
            raise ValueError(f"non-convergent weight {qm!r} for mode {m!r}")
    occ = np.arange(n_max + 1, dtype=float)
    total = 0.0 + 0.0j
    for key, c in x.terms.items():
        f = complex(c)
        for mode, j, k in key:
            if j != k:
                f = 0.0
                break
            w = _geometric_weights(damped[mode], occ)
            # <m| (B†)^k B^k |m> = m (m-1) ... (m-k+1)
            diag = np.ones_like(occ)
            for i in range(k):
                diag *= np.maximum(occ - i, 0.0)
            f *= np.sum(w * diag) / np.sum(w)
        total += f
    return total


def _geometric_weights(qm: complex, occ: np.ndarray) -> np.ndarray:
    """``qm ** occ`` for occupations ``occ``, from one complex log of ``qm``."""
    if qm == 0:
        return (occ == 0).astype(float)
    w = occ * np.log(complex(qm))
    return np.exp(w, out=w)


def _rational_extrapolate(xs: Sequence[float], ys: Sequence[complex],
                          x0: float = 0.0) -> complex:
    """Bulirsch-Stoer rational extrapolation of samples to ``x0``."""
    n = len(xs)
    prev: List[complex] = [0.0] * n
    cur: List[complex] = list(ys)
    for k in range(1, n):
        nxt: List[complex] = []
        for i in range(n - k):
            diff = cur[i + 1] - cur[i]
            inner = cur[i + 1] - prev[i + 1]
            factor = (xs[i] - x0) / (xs[i + k] - x0)
            if inner == 0:
                nxt.append(cur[i + 1])
                continue
            den = factor * (1 - diff / inner) - 1
            nxt.append(cur[i + 1] + (diff / den if den != 0 else 0.0))
        prev, cur = cur, nxt
    return cur[0]


def extrapolated_trace(x: NormalOrderedOp, q: Mapping[Mode, complex],
                       etas: Sequence[float] | None = None,
                       n_max: int | None = None) -> complex:
    """Rational extrapolation of the damped numeric trace to eta = 0.

    The default schedule is geometric, ``0.2 * 2^{-j}``; the truncation depth
    is chosen so the discarded geometric tail is negligible at the smallest
    damping used.  Each per-mode factor of the damped trace is a rational
    function of ``e^{-eta}``, so Bulirsch-Stoer rational extrapolation
    converges much faster here than polynomial (Neville) extrapolation.
    """
    if etas is None:
        etas = [0.2 / 2 ** j for j in range(6)]
    etas = sorted(etas, reverse=True)
    deg = max(x.degree(), 2)
    vals = []
    for eta in etas:
        n = n_max if n_max is not None else int((40 + 14 * deg) / eta)
        vals.append(damped_numeric_trace(x, q, n, eta))
    return _rational_extrapolate(list(etas), vals, 0.0)


# -- automorphism between the two number-basis representations ----------------


def automorphism_image(x: NormalOrderedOp) -> NormalOrderedOp:
    """Apply the algebra automorphism ``B -> -B†, B† -> B`` and re-normal-order.

    It exchanges the two inequivalent number-basis representations of the
    ladder pair and flips the sign of ``B†B + 1/2``.
    """
    out = NormalOrderedOp.zero()
    for key, c in x.terms.items():
        term = NormalOrderedOp.scalar(c)
        for mode, j, k in key:
            b = NormalOrderedOp.annihilator(mode)
            bd = NormalOrderedOp.creator(mode)
            term = term * (b ** j) * ((-bd) ** k)
        out = out + term
    return out


# -- truncated Fock spaces and matrices ---------------------------------------


@dataclass(frozen=True)
class FockTruncation:
    """Total-excitation cutoff with a boundary guard.

    States with total occupation ``<= n_max`` span the truncated space; matrix
    identities built from operators of total ladder degree ``<= buffer`` are
    exact on the sub-basis with occupation ``<= n_max - buffer``.
    """
    n_max: int
    buffer: int = 0

    def __post_init__(self):
        if not 0 <= self.buffer < self.n_max:
            raise ValueError("require 0 <= buffer < n_max")


class FockSpace:
    """Occupation-number basis over a fixed mode list, capped in total excitation.

    States are enumerated lexicographically with the first mode slowest.  Each
    state is also a row of the ``(dim, k)`` array ``occ`` and a mixed-radix
    code ``occ @ radix`` in base ``n_max + 1`` with the first mode most
    significant; the enumeration order makes ``codes`` ascend, so the index of
    a state is ``searchsorted(codes, code)``.
    """

    def __init__(self, modes: Sequence[Mode], n_max: int):
        self.modes: Tuple[Mode, ...] = tuple(sorted(set(modes)))
        if len(self.modes) != len(modes):
            raise ValueError("duplicate modes in Fock space")
        self.n_max = int(n_max)
        k = len(self.modes)
        if (self.n_max + 1) ** k > np.iinfo(np.int64).max:
            raise ValueError("Fock space too wide for int64 state codes")
        # grow the basis one mode at a time: each state is followed by its
        # extensions with 0, 1, ... quanta in the new mode, which keeps the
        # lexicographic order
        occ = np.zeros((1, 0), dtype=np.int64)
        total = np.zeros(1, dtype=np.int64)
        for _ in range(k):
            counts = np.maximum(self.n_max - total + 1, 0)
            parent = np.repeat(np.arange(total.size), counts)
            digit = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
            occ = np.column_stack([occ[parent], digit])
            total = total[parent] + digit
        self.occ, self.total = occ, total
        self.dim = total.size
        self._mode_pos = {m: i for i, m in enumerate(self.modes)}
        self.radix = (self.n_max + 1) ** np.arange(k - 1, -1, -1, dtype=np.int64)
        self.codes = occ @ self.radix

    @property
    def states(self) -> List[Tuple[int, ...]]:
        """The basis as occupation tuples, in index order (built on each access)."""
        return list(map(tuple, self.occ.tolist()))

    def buffered_indices(self, buffer: int) -> np.ndarray:
        """Indices of states guaranteed exact under products of degree <= buffer.

        Raises ``ValueError`` unless ``0 <= buffer < n_max``: a larger buffer
        leaves at most the vacuum, over which a residual checks next to
        nothing, and a negative one guarantees nothing.
        """
        FockTruncation(self.n_max, buffer)
        return np.flatnonzero(self.total <= self.n_max - buffer)

    def occupation_weights(self, q: Mapping[Mode, complex]) -> np.ndarray:
        """Diagonal of ``prod_m q_m^{N_m}`` over the basis (weight 1 for missing modes)."""
        w = np.array([q.get(m, 1.0) for m in self.modes], dtype=complex)
        return np.prod(w ** self.occ, axis=1)


def fock_matrix(x: NormalOrderedOp, space: FockSpace, rep: str = "+") -> sp.csr_matrix:
    """Matrix of ``x`` on the truncated basis; amplitudes leaving the cap are dropped.

    ``rep="-"`` materializes the second representation via the algebra
    automorphism.  Each term acts on every state at once: the columns it
    keeps are those with enough quanta to annihilate and room under the cap
    for the net excitation it adds, and its rows are found from the shifted
    state codes.
    """
    if rep == "-":
        x = automorphism_image(x)
    elif rep != "+":
        raise ValueError("rep must be '+' or '-'")
    rows = [np.zeros(0, dtype=np.int64)]
    cols = [np.zeros(0, dtype=np.int64)]
    vals = [np.zeros(0, dtype=complex)]
    pos = space._mode_pos
    for key, c in x.terms.items():
        missing = [m for m, _, _ in key if m not in pos]
        if missing:
            raise ValueError(f"operator acts on modes outside the space: {missing}")
        keep = space.total + sum(j - k for _, j, k in key) <= space.n_max
        for m, _, k in key:
            keep &= space.occ[:, pos[m]] >= k
        col = np.flatnonzero(keep)
        code = space.codes[col]
        amp = np.full(col.size, c, dtype=complex)
        for m, j, k in key:
            occ = space.occ[col, pos[m]]
            # B^k then B†^j in the |k+1> = B†|k> convention; one factor at a
            # time, so the rounding matches the per-state reference loop
            for i in range(k):
                amp *= occ - i
            code = code + (j - k) * space.radix[pos[m]]
        rows.append(np.searchsorted(space.codes, code))
        cols.append(col)
        vals.append(amp)
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(space.dim, space.dim), dtype=complex)


def nilpotent_exp(x: NormalOrderedOp, space: FockSpace) -> sp.csr_matrix:
    """Exact matrix exponential of an excitation-raising operator on the cap.

    Every term of ``x`` must strictly raise total excitation, which makes the
    truncated matrix nilpotent and the series finite.
    """
    if x.min_excitation_shift() < 1:
        raise ValueError("exponent must strictly raise total excitation")
    a = fock_matrix(x, space)
    out = sp.identity(space.dim, dtype=complex, format="csr")
    power = sp.identity(space.dim, dtype=complex, format="csr")
    k = 1
    while True:
        power = (power @ a) / k
        if power.count_nonzero() == 0:
            break
        out = out + power
        k += 1
        if k > space.n_max + 2:
            raise RuntimeError("exponential series failed to terminate")
    return sp.csr_matrix(out)


# -- small matrices over the oscillator algebra -------------------------------


class CarrierOp:
    """A ``d x d`` matrix with :class:`NormalOrderedOp` entries.

    Models operators on (finite carrier) ⊗ (Fock space); ``d = 1`` recovers a
    bare algebra element.
    """

    __slots__ = ("d", "mat")

    def __init__(self, d: int, mat: Sequence[Sequence[NormalOrderedOp]] | None = None):
        self.d = int(d)
        if mat is None:
            z = NormalOrderedOp.zero()
            self.mat = [[z for _ in range(d)] for _ in range(d)]
        else:
            self.mat = [[_coerce(mat[i][j]) for j in range(d)] for i in range(d)]

    @classmethod
    def identity(cls, d: int) -> "CarrierOp":
        out = cls(d)
        for i in range(d):
            out.mat[i][i] = NormalOrderedOp.scalar(1.0)
        return out

    @classmethod
    def from_scalar_op(cls, x: NormalOrderedOp | complex, d: int = 1) -> "CarrierOp":
        """``x`` times the identity on the finite carrier."""
        x = _coerce(x)
        out = cls(d)
        for i in range(d):
            out.mat[i][i] = x
        return out

    @classmethod
    def matrix_unit(cls, d: int, i: int, j: int,
                    x: NormalOrderedOp | complex = 1.0) -> "CarrierOp":
        out = cls(d)
        out.mat[i][j] = _coerce(x)
        return out

    def __add__(self, other: "CarrierOp") -> "CarrierOp":
        if self.d != other.d:
            raise ValueError("carrier dimension mismatch")
        return CarrierOp(self.d, [[self.mat[i][j] + other.mat[i][j]
                                   for j in range(self.d)] for i in range(self.d)])

    def __sub__(self, other: "CarrierOp") -> "CarrierOp":
        return self + other.scale(-1.0)

    def scale(self, c) -> "CarrierOp":
        return CarrierOp(self.d, [[self.mat[i][j] * c for j in range(self.d)]
                                  for i in range(self.d)])

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, NormalOrderedOp)):
            return self.scale(other)
        if not isinstance(other, CarrierOp):
            return NotImplemented
        if self.d != other.d:
            raise ValueError("carrier dimension mismatch")
        # only products of two non-empty entries are formed; an entry with no
        # contributing product keeps the shared zero of the fresh result
        out = CarrierOp(self.d)
        for i in range(self.d):
            row = [(k, a) for k, a in enumerate(self.mat[i]) if a.terms]
            for j in range(self.d):
                acc = None
                for k, a in row:
                    b = other.mat[k][j]
                    if b.terms:
                        p = a * b
                        acc = p if acc is None else acc + p
                if acc is not None:
                    out.mat[i][j] = acc
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def is_zero(self, tol: float = COEFF_TOL) -> bool:
        return all(self.mat[i][j].is_zero(tol) for i in range(self.d) for j in range(self.d))

    def is_identity(self) -> bool:
        """Exactly the identity: unit scalars on the diagonal, nothing else."""
        return all(self.mat[i][j].terms == ({(): 1.0} if i == j else {})
                   for i in range(self.d) for j in range(self.d))

    def max_coeff(self) -> float:
        return max(self.mat[i][j].max_coeff() for i in range(self.d) for j in range(self.d))

    def modes(self) -> FrozenSet[Mode]:
        out = set()
        for row in self.mat:
            for e in row:
                out |= e.modes()
        return frozenset(out)

    def weighted_trace(self, carrier_weights: Sequence[complex],
                       q: Mapping[Mode, complex],
                       plain_modes: Sequence[Mode] = ()) -> complex:
        """Trace against diag(carrier_weights) ⊗ per-mode occupation weights."""
        if len(carrier_weights) != self.d:
            raise ValueError("carrier weight length mismatch")
        return sum(carrier_weights[i] * weighted_trace(self.mat[i][i], q, plain_modes)
                   for i in range(self.d))

    def to_matrix(self, space: FockSpace) -> sp.csr_matrix:
        """Dense carrier index (slow-running) ⊗ Fock basis (fast-running)."""
        if self.d == 1:
            return fock_matrix(self.mat[0][0], space)
        blocks = [[fock_matrix(self.mat[i][j], space) for j in range(self.d)]
                  for i in range(self.d)]
        return sp.csr_matrix(sp.bmat(blocks, format="csr"))

    def __repr__(self) -> str:
        return f"CarrierOp(d={self.d})"
