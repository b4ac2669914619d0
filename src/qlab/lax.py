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
rational R-matrix ``R(z) = z + P`` on a truncated Fock space, at a list of
spectral pairs ``(z1, z2)``.  Since ``L(z) = z c0 + c1``, the Fock matrices
of ``c0`` and ``c1`` are built once per Lax matrix and combined linearly at
each point, as is ``R ⊗ 1``, from R's nonzero entries; the residual is formed
only on the buffered columns, on which truncation is exact.  Only it and its
helpers need scipy, and they import ``scipy.sparse`` themselves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .glrep import GlRep, trivial_rep
from .oscillator import CarrierOp, FockSpace, Mode, NormalOrderedOp
from .tensor import QuantumOperator, permutation_op

if TYPE_CHECKING:
    import scipy.sparse as sp

ModeFn = Callable[[int, int], Mode]


def _default_mode_fn(a: int, x: int) -> Mode:
    return ("o", a, x)


@dataclass
class LaxMatrix:
    """``L(z) = z * c0 + c1`` with CarrierOp-valued coefficient matrices.

    ``index_set`` lists the diagonal positions carrying ``z`` (for matrices in
    normal form); ``canonical`` records whether the block normal form holds,
    in which case ``c0`` is diagonal with identities exactly at ``index_set``.
    """
    n: int
    index_set: Tuple[int, ...]
    rep: GlRep
    c0: List[List[CarrierOp]]
    c1: List[List[CarrierOp]]
    mode_fn: Optional[ModeFn] = None
    canonical: bool = True

    @property
    def d(self) -> int:
        return self.rep.d

    def at(self, z: complex) -> List[List[CarrierOp]]:
        return [[self.c0[i][j].scale(z) + self.c1[i][j] for j in range(self.n)]
                for i in range(self.n)]

    def modes(self) -> Tuple[Mode, ...]:
        out = set()
        for row in self.c0 + self.c1:
            for e in row:
                out |= e.modes()
        return tuple(sorted(out))

    def max_creation_degree(self) -> int:
        out = 0
        for row in self.c0 + self.c1:
            for e in row:
                for op_row in e.mat:
                    for op in op_row:
                        out = max(out, op.creation_degree())
        return out

    def copy(self) -> "LaxMatrix":
        return LaxMatrix(self.n, self.index_set, self.rep,
                         copy.deepcopy(self.c0), copy.deepcopy(self.c1),
                         self.mode_fn, self.canonical)


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
    return LaxMatrix(n, I, rep, c0, c1, mode_fn, True)


def eval_lax(rep: GlRep) -> LaxMatrix:
    """Evaluation Lax matrix ``z δ_ij + J_ji`` for a gl(n) realization."""
    n = rep.p
    if tuple(sorted(rep.labels)) != tuple(range(1, n + 1)):
        raise ValueError("evaluation form needs labels 1..n")
    return canonical_lax(n, range(1, n + 1), rep)


def partonic_lax(n: int, a: int, tag: str = "p") -> LaxMatrix:
    """Single-index Lax matrix: diagonal ``z - Σ_{x≠a}(N_{(a,x)} + ½)`` at ``a``,
    creators along row ``a``, minus-annihilators down column ``a``."""
    if not 1 <= a <= n:
        raise ValueError("index out of range")
    return canonical_lax(n, (a,), trivial_rep((a,)),
                         mode_fn=lambda c, x: (tag, c, x))


# -- the rational R-matrix and the exchange-relation checker ---------------------


def rmatrix(n: int, z: complex) -> QuantumOperator:
    """``R(z) = z + P`` on ℂⁿ ⊗ ℂⁿ."""
    return QuantumOperator.identity(n * n) * z + permutation_op(n)


def _fock_space_for(L: LaxMatrix, n_max: int,
                    extra_modes: Sequence[Mode] = ()) -> FockSpace:
    modes = set(L.modes()) | set(L.rep.modes) | set(extra_modes)
    return FockSpace(sorted(modes), n_max)


def _buffered_cols(space: FockSpace, d: int, n_quantum: int, buffer: int) -> np.ndarray:
    block = (np.arange(d)[:, None] * space.dim + space.buffered_indices(buffer)).ravel()
    return (np.arange(n_quantum)[:, None] * (d * space.dim) + block).ravel()


def rll_residual(L: LaxMatrix, pairs: Sequence[Tuple[complex, complex]],
                 n_max: int = 8, buffer: int | None = None) -> float:
    """Largest max-entry magnitude of ``R(z1-z2) L¹(z1) L²(z2) - L²(z2) L¹(z1) R(z1-z2)``
    over the spectral pairs ``(z1, z2)`` in ``pairs``.

    Superscripts mark which ℂⁿ factor the matrix acts on; the residual is
    evaluated on the truncated Fock carrier and only on the columns whose
    total excitation leaves room for the expression's creation degree, where
    truncation is exact.  ``L(z) = z c0 + c1`` is linear, so each coefficient
    is put on the Fock space and into both layouts ``L¹``, ``L²`` once, and
    each point costs one scaled sum ``z A + B``.
    """
    import scipy.sparse as sp
    n = L.n
    if buffer is None:
        buffer = min(2 * max(1, L.max_creation_degree()) + 1, n_max - 1)
    space = _fock_space_for(L, n_max)
    d = L.d
    wdim = d * space.dim
    size = n * n * wdim
    shift = np.arange(n)[:, None]

    def layouts(coeff: List[List[CarrierOp]]) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
        """``L¹ = coeff ⊗ 1`` and ``L² = 1 ⊗ coeff`` on ℂⁿ ⊗ ℂⁿ ⊗ carrier ⊗ Fock."""
        w = CarrierOp(n * d, [[coeff[i][j].mat[x][y] for j in range(n) for y in range(d)]
                              for i in range(n) for x in range(d)]).to_matrix(space).tocoo()
        (a, f), (b, g) = divmod(w.row, wdim), divmod(w.col, wdim)
        data = np.tile(w.data, n)
        m1 = sp.csr_matrix((data, (((a * n + shift) * wdim + f).ravel(),
                                   ((b * n + shift) * wdim + g).ravel())), shape=(size, size))
        m2 = sp.csr_matrix((data, ((w.row + shift * n * wdim).ravel(),
                                   (w.col + shift * n * wdim).ravel())), shape=(size, size))
        return m1, m2

    a1, a2 = layouts(L.c0)
    b1, b2 = layouts(L.c1)
    cols = _buffered_cols(space, L.d, n * n, buffer)
    worst = 0.0
    for z1, z2 in pairs:
        m1 = z1 * a1 + b1
        m2 = z2 * a2 + b2
        rbig = _kron_identity(rmatrix(n, z1 - z2).to_dense(), wdim)
        res = rbig @ (m1 @ m2[:, cols]) - m2 @ (m1 @ rbig[:, cols])
        worst = np.abs(res.data).max(initial=worst)  # keeps a NaN, unlike max()
    return float(worst)


def _kron_identity(r: np.ndarray, wdim: int) -> sp.csr_matrix:
    """``r ⊗ 1_wdim`` stored as ``sp.kron`` stores it: row ``a·wdim + f`` holds
    the nonzero entries ``r[a, b]`` only, at columns ``b·wdim + f``."""
    import scipy.sparse as sp
    nonzero = [np.flatnonzero(row) for row in r]
    f, size = np.arange(wdim)[:, None], r.shape[0] * wdim
    return sp.csr_matrix(
        (np.concatenate([np.tile(row[b], wdim) for row, b in zip(r, nonzero)]),
         np.concatenate([(b * wdim + f).ravel() for b in nonzero]),
         np.concatenate([[0], np.cumsum(np.repeat([b.size for b in nonzero], wdim))])),
        shape=(size, size))


# -- GL(n) frame transformations --------------------------------------------------


def gl_transform(L: LaxMatrix, F, G) -> LaxMatrix:
    """Return ``F · L(z) · G`` for frame matrices with commuting entries.

    ``F`` and ``G`` are ``n x n`` arrays of numbers or oscillator-algebra
    elements; every entry must commute with every entry of ``L`` and with each
    other (checked exhaustively as operator identities).  The result generally
    leaves the block normal form, so ``canonical`` is cleared.
    """
    n = L.n
    Fm, Gm = CarrierOp(n, F).mat, CarrierOp(n, G).mat
    frame = [e for mat in (Fm, Gm) for row in mat for e in row]
    lax_entries = [op for cmat in (L.c0, L.c1) for row in cmat
                   for e in row for op_row in e.mat for op in op_row]
    for f in frame:
        for g in frame:
            if not f.commutator(g).is_zero(1e-12):
                raise ValueError("frame entries do not commute among themselves")
        for x in lax_entries:
            if not f.commutator(x).is_zero(1e-12):
                raise ValueError("frame entries do not commute with the Lax entries")

    def sandwich(cm: List[List[CarrierOp]]) -> List[List[CarrierOp]]:
        d = L.d
        fl = [[CarrierOp(d) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = CarrierOp(d)
                for k in range(n):
                    acc = acc + cm[i][k] * CarrierOp.from_scalar_op(Gm[k][j], d)
                fl[i][j] = acc
        out = [[CarrierOp(d) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = CarrierOp(d)
                for k in range(n):
                    acc = acc + CarrierOp.from_scalar_op(Fm[i][k], d) * fl[k][j]
                out[i][j] = acc
        return out

    return LaxMatrix(L.n, L.index_set, L.rep, sandwich(L.c0), sandwich(L.c1),
                     L.mode_fn, canonical=False)


def leading_coeff_rank(c0: List[List[CarrierOp]], tol: float = 1e-9) -> int:
    """Numeric rank of a z-coefficient matrix, viewed as an n×n scalar matrix.

    The z-coefficient is central, so each entry is a number times the carrier
    identity; the rank classification refers to that ``n x n`` matrix.
    """
    n = len(c0)
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[i, j] = c0[i][j].mat[0][0].scalar_part()
    return int(np.linalg.matrix_rank(m, tol=tol))
