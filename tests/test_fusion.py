import functools
import operator

import numpy as np
import pytest
import scipy.sparse as sp

import qlab.fusion as fu
from qlab.fusion import (
    build_S1, build_S2, factorize_partons, fuse, inv_unipotent,
    iterated_parton_fusion, lax_at, parton_mode,
)
from qlab.glrep import fundamental_rep, gl_relation_residual, scalar_rep, verma_rep
from qlab.lax import canonical_lax, partonic_lax
from qlab.oscillator import CarrierOp, FockSpace, NormalOrderedOp as Op, fock_matrix

M1 = lambda a, x: ("1", a, x)
M2 = lambda a, x: ("2", a, x)


# -- similarity transforms: conjugation rules ------------------------------------

def conj_residual(s_exp, x, y):
    """Largest coefficient of ``S x S⁻¹ - y``."""
    return fu._residual(([CarrierOp(1, [[x]])], [s_exp]), ([CarrierOp(1, [[y]])], ()))


def test_s1_conjugation_rules():
    n, I, J = 3, (1,), (2,)
    s1 = build_S1(I, J, M1, M2)
    # annihilator with outside row index, inside column: picks up a creator
    b1 = Op.annihilator(M1(1, 2))           # pairs with the cross creator
    shift = Op.creator(M2(2, 1))
    assert conj_residual(s1, b1, b1 - shift) < 1e-12
    b2 = Op.annihilator(M2(2, 1))
    shift2 = Op.creator(M1(1, 2))
    assert conj_residual(s1, b2, b2 - shift2) < 1e-12
    # oscillators pointing fully outside both sets are untouched
    b_out = Op.annihilator(M1(1, 3))
    assert conj_residual(s1, b_out, b_out) < 1e-12
    c_out = Op.creator(M2(2, 3))
    assert conj_residual(s1, c_out, c_out) < 1e-12


def test_s2_conjugation_rules():
    n, I, J = 3, (1,), (2,)
    s2 = build_S2(n, I, J, M1, M2)
    # b¹ with inside column index picks up the outside-coupled product
    b1 = Op.annihilator(M1(1, 2))
    y1 = b1 - Op.creator(M2(2, 3)) * Op.annihilator(M1(1, 3))
    assert conj_residual(s2, b1, y1) < 1e-12
    # b² with outside column index
    b2 = Op.annihilator(M2(2, 3))
    y2 = b2 - Op.creator(M1(1, 2)) * Op.annihilator(M1(1, 3))
    assert conj_residual(s2, b2, y2) < 1e-12
    # b†¹ pointing outside both sets
    c1 = Op.creator(M1(1, 3))
    y3 = c1 + Op.creator(M1(1, 2)) * Op.creator(M2(2, 3))
    assert conj_residual(s2, c1, y3) < 1e-12
    # untouched: the cross creator itself
    c0 = Op.creator(M1(1, 2))
    assert conj_residual(s2, c0, c0) < 1e-12


def test_s2_trivial_when_sets_cover_everything():
    assert build_S2(2, (1,), (2,), M1, M2).is_zero()
    assert build_S2(3, (1,), (2, 3), M1, M2).is_zero()


def test_build_s_overlap_rejected():
    with pytest.raises(ValueError):
        build_S1((1, 2), (2,), M1, M2)
    with pytest.raises(ValueError):
        build_S2(3, (1,), (1, 2), M1, M2)


# -- pairwise fusion ---------------------------------------------------------------

def test_fuse_rank1_rank1_reproduces_spin_factorization():
    j = 0.7
    fr = fuse(2, (1,), (2,), scalar_rep(1, 0.0), scalar_rep(2, 0.0), 2 * j)
    # the one-mode-per-factor transform is the closed-form pair exponential
    assert (fr.s1_exp - Op.creator(M1(1, 2)) * Op.creator(M2(2, 1))).is_zero()
    assert fr.s2_exp.is_zero()
    # G = [[1, -b2], [0, 1]]
    assert (fr.G.mat[0][1] + Op.annihilator(M2(2, 1))).is_zero()
    assert (fr.G.mat[1][0]).is_zero()
    # fused weight (2j, 0) = (j, -j) + central shift j
    assert fr.fused_rep.weight == {1: 2 * j, 2: 0.0}
    num = Op.number(M1(1, 2))
    b, bd = Op.annihilator(M1(1, 2)), Op.creator(M1(1, 2))
    assert (fr.fused_rep.gen(1, 1).mat[0][0] - (Op.scalar(2 * j) - num)).is_zero()
    assert (fr.fused_rep.gen(2, 2).mat[0][0] - num).is_zero()
    assert (fr.fused_rep.gen(1, 2).mat[0][0] + b).is_zero()
    assert (fr.fused_rep.gen(2, 1).mat[0][0] - (bd * bd * b - 2 * j * bd)).is_zero()
    for z in (0.3, -0.45, 1.2):
        assert fr.residual(z) < 1e-12


def test_fuse_with_bystander_index():
    fr = fuse(3, (1,), (2,), scalar_rep(1, 0.0), scalar_rep(2, 0.0), 0.45)
    assert not fr.s2_exp.is_zero()
    for z in (0.3, -0.2, 0.9):
        assert fr.residual(z) < 1e-12
    assert gl_relation_residual(fr.fused_rep) < 1e-12


def test_fuse_higher_rank_factor():
    rep1 = verma_rep((0.4, -0.2), labels=(1, 2), tag="v")
    fr = fuse(3, (1, 2), (3,), rep1, scalar_rep(3, 0.6), -0.35)
    assert fr.residual(0.22) < 1e-12
    assert fr.fused_rep.weight == pytest.approx({1: 0.4 - 0.35, 2: -0.2 - 0.35, 3: 0.6})
    assert gl_relation_residual(fr.fused_rep) < 1e-12


def test_fuse_rejects_bad_input():
    with pytest.raises(ValueError):
        fuse(3, (1, 2), (2,), verma_rep((0.1, 0.2), labels=(1, 2)),
             scalar_rep(2, 0.0), 0.0)
    with pytest.raises(ValueError):
        fuse(3, (1, 2), (3,), fundamental_rep((1, 2)), scalar_rep(3, 0.0), 0.0)


def test_fused_product_linear_coefficient_rank():
    fr = fuse(3, (1,), (2,), scalar_rep(1, 0.0), scalar_rep(2, 0.0), 0.3)
    z0, z1 = 0.0, 1.0
    m0 = lax_at(fr.L1, z0 + fr.z1) * lax_at(fr.L2, z0 + fr.z2)
    m1 = lax_at(fr.L1, z1 + fr.z1) * lax_at(fr.L2, z1 + fr.z2)
    lin = m1 - m0
    # degree check: the quadratic term must be absent
    mhalf = lax_at(fr.L1, 0.5 + fr.z1) * lax_at(fr.L2, 0.5 + fr.z2)
    interp = m0 + lin * 0.5
    assert (mhalf - interp).max_coeff() < 1e-12
    scal = np.array([[lin.mat[i][j].scalar_part() for j in range(3)] for i in range(3)])
    assert np.linalg.matrix_rank(scal, tol=1e-9) == 2


def test_fuse_associativity_three_factors():
    n = 3
    lam1, lam2 = 0.42, -0.19
    inner_a = fuse(n, (1,), (2,), scalar_rep(1, 0.0), scalar_rep(2, 0.0), lam1)
    mode12 = lambda a, x: M1(a, x) if a == 1 else M2(a, x)
    outer_a = fuse(n, (1, 2), (3,), inner_a.fused_rep, scalar_rep(3, 0.0), lam2,
                   mode1_fn=mode12, mode2_fn=lambda a, x: ("3", a, x))
    inner_b = fuse(n, (2,), (3,), scalar_rep(2, 0.0), scalar_rep(3, 0.0), lam2,
                   mode1_fn=M2, mode2_fn=lambda a, x: ("3", a, x))
    mode23 = lambda a, x: M2(a, x) if a == 2 else ("3", a, x)
    outer_b = fuse(n, (1,), (2, 3), scalar_rep(1, 0.0), inner_b.fused_rep,
                   lam1 + lam2, mode1_fn=M1, mode2_fn=mode23)
    # both groupings assign the same weight to the triple
    assert outer_a.fused_rep.weight == pytest.approx(outer_b.fused_rep.weight)

    w = 0.23
    # direct triple product at the shifts induced by nested fusion
    lax1 = canonical_lax(n, (1,), scalar_rep(1, 0.0), M1)
    lax2 = canonical_lax(n, (2,), scalar_rep(2, 0.0), M2)
    lax3 = canonical_lax(n, (3,), scalar_rep(3, 0.0), lambda a, x: ("3", a, x))
    A1 = lax_at(lax1, w + lam1 + lam2 + 1.0)
    A2 = lax_at(lax2, w + lam2)
    A3 = lax_at(lax3, w - 1.0)

    def sandwich(fr, core_z):
        return [fr.core(core_z)], fr.s_exponents()

    # left grouping: fuse (1,2) first; its G matrix stays between the factors,
    # so the chain is verified step by step
    L12 = lax_at(inner_a.L_fused, w + lam2 + 0.5)
    assert fu._residual(([A1, A2], ()), sandwich(inner_a, w + lam2 + 0.5)) < 1e-12
    assert fu._residual(([L12, A3], ()), sandwich(outer_a, w)) < 1e-12

    # right grouping: the nested transforms compose into a single sandwich
    core_b = lax_at(outer_b.L_fused, w) * (outer_b.G * inner_b.G)
    exps_b = inner_b.s_exponents() + outer_b.s_exponents()
    assert fu._residual(([A1, A2, A3], ()), ([core_b], exps_b)) < 1e-12


# -- iterated single-index fusion --------------------------------------------------

@pytest.mark.parametrize("n,I,wt", [
    (2, (1, 2), (0.8, -0.8)),
    (3, (1, 2, 3), (0.45 + 0.1j, -0.15, 0.7)),
    (3, (1, 3), (0.5, -0.3)),
])
def test_iterated_parton_fusion(n, I, wt):
    itf = iterated_parton_fusion(n, I, wt)
    for z in (0.31, -0.6):
        assert itf.residual(z) < 1e-12
    # fused weight is the target weight minus its trailing entry
    assert itf.fused_rep.weight == pytest.approx(
        {a: wt[k] - wt[-1] for k, a in enumerate(I)})
    assert itf.offset == wt[-1]


def test_verma_rep_default_labels_carry_weight():
    rep = verma_rep((0.3, -0.1, 0.8))
    assert gl_relation_residual(rep) < 1e-12
    assert rep.weight == {1: 0.3, 2: -0.1, 3: 0.8}


# -- triangular-decomposition factorization route ----------------------------------

@pytest.mark.parametrize("n,wt", [(2, (0.6, -0.6)), (3, (0.5, -0.2, 0.9))])
def test_single_factor_triangular_decomposition(n, wt):
    pf = factorize_partons(n, wt)
    for a in range(1, n + 1):
        ua, ua_next = fu._u_matrix(n, a), fu._u_matrix(n, a + 1)
        za = 0.37 + pf.shifts[a - 1]
        lhs = lax_at(partonic_lax(n, a), za)
        m = CarrierOp.identity(n)
        m.mat[a - 1][a - 1] = Op.scalar(za - (n - 1) / 2.0)
        for r in range(a + 1, n + 1):
            m.mat[r - 1][a - 1] = fu._coupling(n, r, a, dressed=True)
        rhs = inv_unipotent(ua) * (m * ua_next)
        assert (lhs - rhs).max_coeff() < 1e-13


@pytest.mark.parametrize("n,wt", [(2, (0.6, -0.6)), (3, (0.5, -0.2, 0.9))])
def test_full_product_triangular_core(n, wt):
    pf = factorize_partons(n, wt)
    z = 0.23
    lhs = None
    for a in range(1, n + 1):
        m = lax_at(partonic_lax(n, a), z + pf.shifts[a - 1])
        lhs = m if lhs is None else lhs * m
    rhs = inv_unipotent(pf.u1) * (pf.mid_matrix(z, dressed=True) * pf.u_last)
    assert (lhs - rhs).max_coeff() < 1e-13


def _bits(m):
    return [[[(key, c.real.hex(), c.imag.hex()) for key, c in e.terms.items()]
             for e in row] for row in m.mat]


@pytest.mark.parametrize("n,wt", [(3, (0.45 + 0.3j, -0.15, 0.7)),
                                  (4, (0.2 - 0.5j, 0.9, -0.35, 0.1 + 0.4j))])
def test_lplus_with_the_kept_u1_inverse_is_bitwise_unchanged(n, wt):
    pf = factorize_partons(n, wt)
    for z in (0.31, -0.74 + 0.2j):
        want = inv_unipotent(pf.u1) * (pf.mid_matrix(z, dressed=False) * pf.u1)
        assert _bits(pf.lplus(z)) == _bits(want)


def test_u1_inverse_is_exact():
    pf = factorize_partons(3, (0.1, 0.2, 0.3))
    prod = pf.u1 * inv_unipotent(pf.u1)
    assert (prod - CarrierOp.identity(3)).max_coeff() < 1e-14


@pytest.mark.parametrize("n,wt", [(2, (0.8, -0.8)), (3, (0.45, -0.15 + 0.2j, 0.7))])
def test_similarity_absorbs_half_the_ladder_content(n, wt):
    pf = factorize_partons(n, wt)
    exps = pf.s_exponents()
    u1i = inv_unipotent(pf.u1)
    assert fu._residual(([pf.u1], exps), ([pf.u1], ())) < 1e-12
    assert fu._residual(([pf.u_last], exps), ([u1i, pf.u_last], ())) < 1e-12


def test_n2_factorization_closed_form_transform():
    pf = factorize_partons(2, (0.8, -0.8))
    # the single nontrivial exponent is the cross pair product b†₁ b†₂
    assert pf.s_exponent(1).is_zero()
    expect = Op.creator(parton_mode(1, 2)) * Op.creator(parton_mode(2, 1))
    assert (pf.s_exponent(2) - expect).is_zero()
    assert pf.residual(0.3) < 1e-12


def test_n3_factorization_residual():
    pf = factorize_partons(3, (0.45 + 0.3j, -0.15, 0.7))
    assert pf.residual(0.27) < 1e-12


def test_factorized_core_carries_valid_generators():
    for n, wt in [(2, (0.6, -0.6)), (3, (0.5, -0.2, 0.9))]:
        rep = factorize_partons(n, wt).generator_rep()
        assert gl_relation_residual(rep) < 1e-12
        assert rep.weight == {a: wt[a - 1] for a in range(1, n + 1)}


def test_n2_factorized_core_matches_merged_realization():
    wt = (0.8, -0.8)
    rep = factorize_partons(2, wt).generator_rep()
    vr = verma_rep(wt, tag="p")
    for a in (1, 2):
        for b in (1, 2):
            assert (rep.gen(a, b).mat[0][0] - vr.gen(a, b).mat[0][0]).is_zero(1e-13)


def test_triangular_route_equals_iterated_route():
    n, wt = 3, (0.45, -0.15, 0.7)
    pf = factorize_partons(n, wt)
    itf = iterated_parton_fusion(n, (1, 2, 3), wt)
    z = 0.27
    assert fu._residual(([pf.core(z)], pf.s_exponents()),
                        ([itf.core(z)], itf.s_exponents())) < 1e-12
    assert fu._residual((pf.lhs_factors(z), ()),
                        (itf.lhs_factors(z), ())) < 1e-13


def test_nan_coefficient_in_a_fusion_factor_reaches_the_residual():
    res = fuse(2, (1,), (2,), scalar_rep(1, 0.23), scalar_rep(2, -0.41), 0.6)
    assert res.residual(0.37) < 1e-12
    key = ((M1(1, 2), 1, 0),)
    res.L1.c1[0][1] = CarrierOp(1, [[Op({key: complex(np.nan, 0.0)})]])
    assert np.isnan(res.residual(0.37))


# -- negative controls and the truncated Fock cross-check --------------------------

def _identities(n):
    """One identity of each class at ``n``: a pairwise fusion, an iterated
    fusion and a triangular factorization."""
    rng = np.random.default_rng(n)
    wt = tuple(complex(rng.normal(), rng.normal()) for _ in range(n))
    rest = tuple(range(2, n + 1))
    r2 = (scalar_rep(2, -0.41) if n == 2 else
          verma_rep(tuple(0.3 - 0.2 * a for a in range(n - 1)), labels=rest, tag="v"))
    return [fuse(n, (1,), rest, scalar_rep(1, 0.23), r2, 0.6),
            iterated_parton_fusion(n, tuple(range(1, n + 1)), wt),
            factorize_partons(n, wt)]


def _with_nan(m):
    """``m`` with the coefficient of one non-scalar monomial set to NaN."""
    out = CarrierOp(m.d, [row[:] for row in m.mat])
    i, j, key = next((i, j, key) for i, row in enumerate(m.mat) for j, e in enumerate(row)
                     for key in e.terms if key)
    out.mat[i][j] = out.mat[i][j] + Op({key: complex("nan")})
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_identity_class_fails_its_negative_controls(n):
    z = 0.37
    for obj in _identities(n):
        lhs, exps = (obj.lhs_factors(z), ()), obj.s_exponents()
        assert fu._residual(lhs, ([obj.core(z)], exps)) == 0.0
        # the core one step of 1e-9 away, as a shifted spectral parameter
        shifted = fu._residual(lhs, ([obj.core(z + 1e-9)], exps))
        assert 5e-10 < shifted < 2e-9
        # no similarity transform
        assert fu._residual(lhs, ([obj.core(z)], ())) > 0.5
        # a NaN in the core reaches the residual through the adjoint series
        assert np.isnan(fu._residual(lhs, ([_with_nan(obj.core(z))], exps)))


def _fock_residual(lhs, rhs, n_max, buffer):
    """The residual of two sides on the buffered block of a truncated Fock space.

    A second representation of the Wick product: each factor is a Fock matrix,
    the sides are matrix products, and ``S`` is the exponential series of the
    exponents' matrices, each series ending when the truncated matrix power
    vanishes.  Only the buffered rows of ``S`` and columns of ``S⁻¹`` are
    formed; ``S`` raises excitation, so those rows read no other rows.
    """
    sides = [lhs, rhs]
    entries = [e for factors, exps in sides
               for e in [x for f in factors for row in f.mat for x in row] + list(exps)]
    space = FockSpace(sorted({m for e in entries for key in e.terms for m, _, _ in key}),
                      n_max)
    d = lhs[0][0].d
    idx = space.up_to(n_max - buffer)

    def series(start, e, sign, rows):
        """``start · exp(±e)`` (rows) or ``exp(±e) · start`` (columns), densely."""
        a = sign * fock_matrix(e, space).toarray()
        out = power = start
        for k in range(1, n_max + 2):
            power = (power @ a if rows else a @ power) / k
            out = out + power
        assert not power.any()
        return out

    def form(side):
        factors, exps = side
        s_rows = np.eye(space.dim)[idx]
        s_inv_cols = np.eye(space.dim)[:, idx]
        for e in exps:
            s_rows = series(s_rows, e, 1.0, rows=True)
            s_inv_cols = series(s_inv_cols, e, -1.0, rows=False)
        m = functools.reduce(operator.matmul, [fock_matrix(f, space) for f in factors])
        eye = sp.identity(d, format="csr")
        return sp.kron(eye, s_rows) @ m @ sp.kron(eye, s_inv_cols)

    return float(np.max(np.abs(form(lhs) - form(rhs))))


def test_truncated_fock_route_cross_checks_each_identity_class():
    # the exact residual and the truncated one agree on every class at n=3,
    # on the exact identity and on one whose core is 1e-9 away
    z = 0.27
    for obj in _identities(3):
        lhs, exps = (obj.lhs_factors(z), ()), obj.s_exponents()
        exact = ([obj.core(z)], exps)
        shifted = ([obj.core(z + 1e-9)], exps)
        assert fu._residual(lhs, exact) < 1e-12
        assert _fock_residual(lhs, exact, 6, 4) < 1e-12
        assert 5e-10 < fu._residual(lhs, shifted) < 2e-9
        assert 5e-10 < _fock_residual(lhs, shifted, 6, 4) < 1e-8
