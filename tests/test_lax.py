import copy
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from qlab.cli import RunConfig, _suite_rll
from qlab.glrep import fundamental_rep, trivial_rep, verma_rep
from qlab.lax import canonical_lax, eval_lax, partonic_lax, rll_residual
from qlab.oscillator import CarrierOp, FockSpace, NormalOrderedOp as Op, _worst, fock_matrix


def entry(L, a, b, coeff="c1"):
    m = getattr(L, coeff)
    return m[a - 1][b - 1]


def _permutation(n):
    """The exchange ``P (x ⊗ y) = y ⊗ x`` on ℂⁿ ⊗ ℂⁿ, dense."""
    p = np.zeros((n * n, n * n))
    for a, b in itertools.product(range(n), repeat=2):
        p[a * n + b, b * n + a] = 1.0
    return p


def _comm(x, y):
    """``xy - yx``, as a difference of products."""
    return x * y - y * x


# -- evaluation form -----------------------------------------------------------

def test_eval_fundamental_is_shift_plus_permutation():
    n = 3
    L = eval_lax(fundamental_rep(range(1, n + 1)))
    space = FockSpace([], 4)
    z = 0.37 - 0.2j
    blocks = [[fock_matrix(e, space) for e in row] for row in L.at(z)]
    dense = sp.bmat(blocks, format="csr").toarray()
    expect = z * np.eye(n * n) + _permutation(n)
    assert np.allclose(dense, expect)


def test_eval_rank2_verma_matches_spin_form():
    j = 1.3
    rep = verma_rep((j, -j), tag="w")
    L = eval_lax(rep)
    mode = ("w", 1, 2)
    b, bd, num = Op.annihilator(mode), Op.creator(mode), Op.number(mode)
    # diagonal: z ± (j - N); off-diagonal: lowering / raising generators
    assert (entry(L, 1, 1).mat[0][0] - (Op.scalar(j) - num)).is_zero()
    assert (entry(L, 2, 2).mat[0][0] - (Op.scalar(-j) + num)).is_zero()
    assert (entry(L, 1, 2).mat[0][0] - (bd * bd * b - 2 * j * bd)).is_zero()
    assert (entry(L, 2, 1).mat[0][0] + b).is_zero()
    assert entry(L, 1, 1, "c0").mat[0][0].scalar_part() == 1.0
    assert entry(L, 1, 2, "c0").is_zero()


def test_eval_fundamental_rll_exact():
    L = eval_lax(fundamental_rep((1, 2, 3)))
    assert rll_residual(L) < 1e-12


def test_eval_verma_rll():
    L = eval_lax(verma_rep((0.8 + 0.3j, -0.4)))
    assert rll_residual(L) < 1e-12


def test_eval_central_shift_equals_spectral_shift():
    w = (0.7, -0.2, 0.4)
    c = 0.31
    L = eval_lax(verma_rep(w))
    Lc = eval_lax(verma_rep(tuple(x + c for x in w)))
    z = 0.6
    a, b = L.at(z + c), Lc.at(z)
    for i in range(3):
        for j in range(3):
            assert (a[i][j] - b[i][j]).max_coeff() <= 1e-12


# -- partonic form ---------------------------------------------------------------

def test_partonic_layout_n2():
    L1 = partonic_lax(2, 1)
    m11, m12 = ("p", 1, 2), ("p", 1, 2)
    h1 = Op.number(m11) + 0.5
    assert (entry(L1, 1, 1).mat[0][0] + h1).is_zero()
    assert entry(L1, 1, 1, "c0").mat[0][0].scalar_part() == 1.0
    assert (entry(L1, 1, 2).mat[0][0] - Op.creator(m12)).is_zero()
    assert (entry(L1, 2, 1).mat[0][0] + Op.annihilator(m11)).is_zero()
    assert (entry(L1, 2, 2).mat[0][0] - Op.scalar(1.0)).is_zero()

    L2 = partonic_lax(2, 2)
    m2 = ("p", 2, 1)
    assert (entry(L2, 1, 1).mat[0][0] - Op.scalar(1.0)).is_zero()
    assert (entry(L2, 1, 2).mat[0][0] + Op.annihilator(m2)).is_zero()
    assert (entry(L2, 2, 1).mat[0][0] - Op.creator(m2)).is_zero()
    assert (entry(L2, 2, 2).mat[0][0] + Op.number(m2) + 0.5).is_zero()


def test_partonic_layout_n3_middle_index():
    L = partonic_lax(3, 2)
    up, down = ("p", 2, 1), ("p", 2, 3)
    # column 2 above/below the diagonal: annihilators with a minus sign
    assert (entry(L, 1, 2).mat[0][0] + Op.annihilator(up)).is_zero()
    assert (entry(L, 3, 2).mat[0][0] + Op.annihilator(down)).is_zero()
    # row 2: creators
    assert (entry(L, 2, 1).mat[0][0] - Op.creator(up)).is_zero()
    assert (entry(L, 2, 3).mat[0][0] - Op.creator(down)).is_zero()
    # diagonal entry collects both number operators
    h = Op.number(up) + Op.number(down) + 1.0
    assert (entry(L, 2, 2).mat[0][0] + h).is_zero()
    for a, b in [(1, 1), (3, 3)]:
        assert (entry(L, a, b).mat[0][0] - Op.scalar(1.0)).is_zero()
    assert entry(L, 1, 3).is_zero() and entry(L, 3, 1).is_zero()


def test_partonic_rll():
    L = partonic_lax(2, 1)
    assert rll_residual(L) < 1e-12


def test_partonic_rll_n3():
    L = partonic_lax(3, 2)
    assert rll_residual(L) < 1e-12


# -- canonical form for general index sets ----------------------------------------

def test_canonical_reduces_to_eval_and_partonic():
    rep = verma_rep((0.3, -0.8, 0.5))
    L_full = canonical_lax(3, (1, 2, 3), rep)
    L_eval = eval_lax(rep)
    for i in range(3):
        for j in range(3):
            assert (L_full.c1[i][j] - L_eval.c1[i][j]).is_zero()
    Lp = canonical_lax(3, (2,), trivial_rep((2,)), mode_fn=lambda c, x: ("p", c, x))
    Lb = partonic_lax(3, 2)
    for i in range(3):
        for j in range(3):
            assert (Lp.c1[i][j] - Lb.c1[i][j]).is_zero()
            assert (Lp.c0[i][j] - Lb.c0[i][j]).is_zero()


def test_canonical_rll_two_index_verma():
    rep = verma_rep((0.9, -0.35), labels=(1, 2), tag="v")
    L = canonical_lax(3, (1, 2), rep)
    assert rll_residual(L) < 1e-12


def test_canonical_rll_fundamental_carrier():
    rep = fundamental_rep((1, 3))
    L = canonical_lax(3, (1, 3), rep)
    assert rll_residual(L) < 1e-12


def test_rll_negative_control():
    L = copy.deepcopy(partonic_lax(2, 1))
    L.c1[0][1] = L.c1[0][1].scale(-1.0)  # flip the creator's sign
    assert rll_residual(L) > 0.1


# -- the point-free check against its references -------------------------------------

def _suite_cases(n):
    """The ``rll`` suite's Lax matrices at ``n``, by record name."""
    return {name: check.args[0] for name, check in _suite_rll(RunConfig(n=n), None)}


def _nudged(L, delta):
    """A copy of ``L`` with ``delta`` added to its first ``c1`` coefficient:
    the first term of the first non-empty entry, in row-major order over the
    Lax matrix and then over the carrier.  Entries are shared inside a Lax
    matrix, so the one entry is replaced, not changed in place."""
    out = copy.deepcopy(L)
    for row in out.c1:
        for j, e in enumerate(row):
            for x, y in itertools.product(range(e.d), repeat=2):
                terms = e.mat[x][y].terms
                if terms:
                    key = next(iter(terms))
                    mat = [list(r) for r in e.mat]
                    mat[x][y] = Op._of({**terms, key: terms[key] + delta})
                    row[j] = CarrierOp(e.d, mat)
                    return out
    raise ValueError("no c1 coefficient")


def _rll_reference(L):
    """The four coefficient identities of ``rll_residual`` at every ordered
    quadruple ``(i, j, k, l)``, each commutator as a difference of carrier
    products."""
    A, B = L.c0, L.c1
    return _worst(r.max_coeff() for i, j, k, l in itertools.product(range(L.n), repeat=4)
                  for r in (_comm(A[i][j], A[k][l]), _comm(A[i][j], B[k][l]),
                            _comm(B[i][j], A[k][l]),
                            _comm(B[i][j], B[k][l]) - B[k][j] * A[i][l]
                            + A[k][j] * B[i][l]))


def _truncated_rll(L, room, points):
    """``R(u-v) L¹(u) L²(v) - L²(v) L¹(u) R(u-v)`` on a truncated Fock space,
    with dense numpy, at each spectral pair ``(u, v)`` in ``points``.

    The residual is formed on the columns of total excitation at most
    ``room``, and the cap leaves room above them for the creators of both
    factors, so truncation is exact on them.  ``L`` is laid out
    as blocks ``L_ij`` over carrier ⊗ Fock, and ``(L¹(u) L²(v))[ik, jl]`` is
    ``L_ij(u) L_kl(v)``.
    """
    n, d = L.n, L.d
    keys = [key for cm in (L.c0, L.c1) for row in cm for e in row
            for r in e.mat for op in r for key in op.terms]
    creators = max((sum(j for _, j, _ in key) for key in keys), default=0)
    space = FockSpace(sorted({m for key in keys for m, _, _ in key}), 2 * creators + room)
    w = d * space.dim
    cols = (np.arange(d)[:, None] * space.dim + space.up_to(room)).ravel()

    def blocks(coeff):
        big = CarrierOp(n * d, [[coeff[i][j].mat[x][y] for j in range(n) for y in range(d)]
                                for i in range(n) for x in range(d)])
        return fock_matrix(big, space).toarray().reshape(n, w, n, w).transpose(0, 2, 1, 3)

    a, b = blocks(L.c0), blocks(L.c1)
    worst = 0.0
    for u, v in points:
        lu, lv = u * a + b, v * a + b
        left = np.einsum("ijxy,klyc->ikjlxc", lu, lv[..., cols]).reshape(n * n, n * n, w, -1)
        right = np.einsum("klxy,ijyc->ikjlxc", lv, lu[..., cols]).reshape(n * n, n * n, w, -1)
        r = (u - v) * np.eye(n * n) + _permutation(n)
        res = np.einsum("pq,qrxc->prxc", r, left) - np.einsum("pqxc,qr->prxc", right, r)
        worst = _worst([worst, float(np.abs(res).max())])
    return worst


def _agree(a, b):
    """Both NaN, or equal to within a relative 1e-6 (exactly, where one is 0)."""
    return (a != a and b != b) or abs(a - b) <= 1e-6 * max(a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_suite_case_reads_zero_and_fails_its_negative_controls(n):
    gate = RunConfig().tolerance("rll")
    for name, L in _suite_cases(n).items():
        assert rll_residual(L) == 0.0, name
        nudged = rll_residual(_nudged(L, 1e-9))
        assert 5e-10 < nudged < 5e-9 and not nudged < gate, name
        nan = rll_residual(_nudged(L, float("nan")))
        assert nan != nan and not nan < gate, name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_nan_on_the_diagonal_of_an_identity_coefficient_reaches_the_residual(n):
    # c0's diagonal entries of a wider carrier are exactly the identity, whose
    # commutators are decided without expansion; with a NaN on its diagonal
    # an entry is no identity, and the NaN must reach the residual
    for name, L in _suite_cases(n).items():
        if L.d == 1:
            continue
        assert L.c0[0][0].is_identity(), name
        bad = copy.deepcopy(L)
        bad.c0[0][0] = CarrierOp.identity(L.d)
        bad.c0[0][0].mat[L.d - 1][L.d - 1] = Op.scalar(float("nan"))
        nan = rll_residual(bad)
        assert nan != nan, name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unordered_pairs_agree_with_every_ordered_quadruple(n):
    for name, L in _suite_cases(n).items():
        flipped = copy.deepcopy(L)
        flipped.c1[0][1] = flipped.c1[0][1].scale(-1.0)
        for M in (L, _nudged(L, 1e-9), _nudged(L, float("nan")), flipped):
            assert _agree(rll_residual(M), _rll_reference(M)), name


@pytest.mark.parametrize("name", ["defining evaluation", "highest-weight evaluation",
                                  "degenerate factor 2", "oscillator-traced block (1,2)"])
def test_truncated_fock_route_cross_checks_each_lax_class(name):
    L = _suite_cases(3)[name]
    points = [(0.37 - 0.21j, -0.58 + 0.44j), (1.3, 0.2 + 0.9j)]
    gate = RunConfig().tolerance("rll")
    assert rll_residual(L) == 0.0
    assert _truncated_rll(L, 2, points) < gate
    nudged = _nudged(L, 1e-9)
    assert 5e-10 < rll_residual(nudged) < 5e-9
    assert 5e-10 < _truncated_rll(nudged, 2, points) < 5e-8


def test_block_commutation_relations():
    # spot-check the exchange algebra of the constant-coefficient blocks
    rep = verma_rep((0.6, -0.9), labels=(1, 2), tag="v")
    L = canonical_lax(3, (1, 2), rep)
    B = {(a, 3): entry(L, a, 3).mat[0][0] for a in (1, 2)}
    C = {(3, b): entry(L, 3, b).mat[0][0] for b in (1, 2)}
    A = {(a, b): entry(L, a, b).mat[0][0] for a in (1, 2) for b in (1, 2)}
    for a in (1, 2):
        for b in (1, 2):
            # [B_a, C_b] = delta_ab * identity (the D block)
            want = Op.scalar(1.0) if a == b else Op.zero()
            assert (_comm(B[(a, 3)], C[(3, b)]) - want).is_zero(1e-12)
    # [A_ab, B_c3] = -delta_bc B_a3
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                want = -B[(a, 3)] if b == c else Op.zero()
                assert (_comm(A[(a, b)], B[(c, 3)]) - want).is_zero(1e-12)
    # [A_ab, C_3c] = +delta_ac C_3b
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                want = C[(3, b)] if a == c else Op.zero()
                assert (_comm(A[(a, b)], C[(3, c)]) - want).is_zero(1e-12)
