import numpy as np
import pytest
import scipy.sparse as sp

from qlab.glrep import fundamental_rep, trivial_rep, verma_rep
from qlab.lax import (
    LaxMatrix, canonical_lax, eval_lax, gl_transform, leading_coeff_rank,
    partonic_lax, rll_residual, rmatrix,
)
from qlab.oscillator import FockSpace, NormalOrderedOp as Op
from qlab.tensor import permutation_op


def entry(L, a, b, coeff="c1"):
    m = getattr(L, coeff)
    return m[a - 1][b - 1]


# -- evaluation form -----------------------------------------------------------

def test_eval_fundamental_is_shift_plus_permutation():
    n = 3
    L = eval_lax(fundamental_rep(range(1, n + 1)))
    space = FockSpace([], 4)
    z = 0.37 - 0.2j
    blocks = [[e.to_matrix(space) for e in row] for row in L.at(z)]
    dense = sp.bmat(blocks, format="csr").toarray()
    expect = z * np.eye(n * n) + permutation_op(n).to_dense()
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
    assert rll_residual(L, [(0.3, -0.7)], n_max=4) < 1e-12


def test_eval_verma_rll():
    L = eval_lax(verma_rep((0.8 + 0.3j, -0.4)))
    assert rll_residual(L, [(0.45, -0.8 + 0.25j)], n_max=8) < 1e-12


def test_eval_central_shift_equals_spectral_shift():
    w = (0.7, -0.2, 0.4)
    c = 0.31
    L = eval_lax(verma_rep(w))
    Lc = eval_lax(verma_rep(tuple(x + c for x in w)))
    z = 0.6
    a, b = L.at(z + c), Lc.at(z)
    for i in range(3):
        for j in range(3):
            assert (a[i][j] - b[i][j]).is_zero(1e-12)


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
    assert rll_residual(L, [(0.2, 1.1)], n_max=10, buffer=3) < 1e-12


def test_partonic_rll_n3():
    L = partonic_lax(3, 2)
    assert rll_residual(L, [(-0.3 + 0.2j, 0.9)], n_max=8, buffer=3) < 1e-12


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
    assert rll_residual(L, [(0.4, -0.55)], n_max=8) < 1e-12


def test_canonical_rll_fundamental_carrier():
    rep = fundamental_rep((1, 3))
    L = canonical_lax(3, (1, 3), rep)
    assert rll_residual(L, [(0.25, 0.8)], n_max=8) < 1e-12


def test_rll_negative_control():
    L = partonic_lax(2, 1).copy()
    L.c1[0][1] = L.c1[0][1].scale(-1.0)  # flip the creator's sign
    assert rll_residual(L, [(0.2, 1.1)], n_max=10, buffer=3) > 0.1


def test_leading_coeff_rank_counts_index_set():
    rep = verma_rep((0.4, -0.1), labels=(1, 3), tag="u")
    L = canonical_lax(4, (1, 3), rep)
    assert leading_coeff_rank(L.c0) == 2
    assert leading_coeff_rank(partonic_lax(3, 2).c0) == 1
    assert leading_coeff_rank(eval_lax(fundamental_rep((1, 2))).c0) == 2


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
            assert (B[(a, 3)].commutator(C[(3, b)]) - want).is_zero(1e-12)
    # [A_ab, B_c3] = -delta_bc B_a3
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                want = -B[(a, 3)] if b == c else Op.zero()
                assert (A[(a, b)].commutator(B[(c, 3)]) - want).is_zero(1e-12)
    # [A_ab, C_3c] = +delta_ac C_3b
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                want = C[(3, b)] if a == c else Op.zero()
                assert (A[(a, b)].commutator(C[(3, c)]) - want).is_zero(1e-12)


# -- frame transformations ---------------------------------------------------------

def test_gl_transform_identity_frame():
    L = partonic_lax(2, 1)
    eye = np.eye(2)
    T = gl_transform(L, eye, eye)
    for i in range(2):
        for j in range(2):
            assert (T.c0[i][j] - L.c0[i][j]).is_zero()
            assert (T.c1[i][j] - L.c1[i][j]).is_zero()
    assert not T.canonical


def test_gl_transform_block_conjugation_preserves_form():
    rep = verma_rep((0.5, -0.2), labels=(1, 2), tag="v")
    L = canonical_lax(3, (1, 2), rep)
    rng = np.random.default_rng(5)
    f2 = rng.normal(size=(2, 2))
    F = np.block([[f2, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]])
    T = gl_transform(L, F, np.linalg.inv(F))
    # z-coefficient commutes with the block frame, so it is unchanged
    for i in range(3):
        for j in range(3):
            assert (T.c0[i][j] - L.c0[i][j]).is_zero(1e-12)
    # complement block stays the identity
    assert (T.c1[2][2].mat[0][0] - Op.scalar(1.0)).is_zero(1e-12)
    # raising block stays purely creators, lowering block purely annihilators
    for a in range(2):
        for key in T.c1[a][2].mat[0][0].terms:
            assert len(key) == 1 and key[0][1] == 1 and key[0][2] == 0
        for key in T.c1[2][a].mat[0][0].terms:
            assert len(key) == 1 and key[0][1] == 0 and key[0][2] == 1
    # the transformed matrix still solves the exchange relation
    assert rll_residual(T, [(0.3, -0.4)], n_max=7) < 1e-12


def test_gl_transform_rank_invariance():
    L = eval_lax(fundamental_rep((1, 2)))
    rng = np.random.default_rng(11)
    F, G = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    T = gl_transform(L, F, G)
    assert leading_coeff_rank(T.c0) == 2


def test_gl_transform_rejects_clashing_operators():
    L = partonic_lax(2, 1)
    bad = [[Op.scalar(1.0), Op.annihilator(("p", 1, 2))],
           [Op.zero(), Op.scalar(1.0)]]
    with pytest.raises(ValueError):
        gl_transform(L, np.eye(2), bad)


def test_gl_transform_disjoint_operator_frame_allowed():
    L = partonic_lax(2, 1)
    g = [[Op.scalar(1.0), -Op.annihilator(("q", 2, 1))],
         [Op.zero(), Op.scalar(1.0)]]
    T = gl_transform(L, np.eye(2), g)
    assert rll_residual(T, [(0.15, -0.95)], n_max=8, buffer=3) < 1e-12
