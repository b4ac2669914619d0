import numpy as np
import pytest

from qlab.glrep import (
    GlRep, shifted_weights, rho_weight, dot_action_orbit,
    trivial_rep, scalar_rep, fundamental_rep, fuse_generators, verma_rep,
    gl_relation_residual, diagonal_weight_data,
)
from qlab.oscillator import CarrierOp, NormalOrderedOp as Op, _worst


def highest_weight_residual(rep):
    """Largest deviation of the Fock vacuum from a highest-weight vector of
    ``rep.weight``: each ``J_ab`` with ``a`` before ``b`` must kill it, and
    ``J_aa`` must act on it by ``weight[a]``.  A normal-ordered monomial kills
    the vacuum iff it holds an annihilator, so only annihilator-free terms
    deviate, a scalar one of ``J_aa`` by its distance from ``weight[a]``."""
    assert rep.d == 1, "only oscillator realizations have a Fock vacuum"
    labels = rep.labels
    return _worst(abs(c - rep.weight[a]) if a == b and not key else abs(c)
                  for i, a in enumerate(labels) for b in labels[i:]
                  for key, c in rep.gen(a, b).mat[0][0].terms.items()
                  if all(k == 0 for _, _, k in key))


def test_shifted_weights():
    j = 0.8
    assert shifted_weights([j, -j]) == (j + 0.5, -j - 0.5)
    assert shifted_weights([0.0, 0.0, 0.0]) == (1.0, 0.0, -1.0)


def test_rho_weight():
    assert rho_weight(2) == (0.5, -0.5)
    assert rho_weight(3) == (1.0, 0.0, -1.0)


def test_dot_action_orbit_rank2():
    orbit = dict((w, s) for s, w in dot_action_orbit((1.0, 0.0)))
    assert orbit[(1.0, 0.0)] == 1
    assert orbit[(-1.0, 2.0)] == -1
    assert len(orbit) == 2


def test_dot_action_orbit_rank3_signs():
    orbit = dot_action_orbit((2.0, 1.0, 0.0))
    assert len(orbit) == 6
    assert sum(s for s, _ in orbit) == 0


def test_fundamental_rep_relations():
    rep = fundamental_rep((1, 2, 3))
    assert gl_relation_residual(rep) == 0.0
    assert rep.d == 3
    # J_12 is the matrix unit e_12
    m = rep.gen(1, 2)
    assert (m.mat[0][1] - Op.scalar(1.0)).is_zero()


def test_rank2_oscillator_realization_matches_closed_form():
    j = 0.9
    rep = verma_rep((j, -j), tag="w")
    mode = ("w", 1, 2)
    b = Op.annihilator(mode)
    bd = Op.creator(mode)
    n = Op.number(mode)
    assert (rep.gen(1, 1).mat[0][0] - (Op.scalar(j) - n)).is_zero()
    assert (rep.gen(2, 2).mat[0][0] - (Op.scalar(-j) + n)).is_zero()
    assert (rep.gen(1, 2).mat[0][0] + b).is_zero()
    lowering = bd * bd * b - 2.0 * j * bd
    assert (rep.gen(2, 1).mat[0][0] - lowering).is_zero()


@pytest.mark.parametrize("weight", [
    (0.7, -0.2), (1.3 + 0.4j, -0.9, 0.25), (0.3, 1.1, -2.0, 0.6),
])
def test_oscillator_realizations_satisfy_gl_relations(weight):
    rep = verma_rep(weight)
    assert gl_relation_residual(rep) < 1e-12
    assert highest_weight_residual(rep) < 1e-13


def test_merge_with_shift_satisfies_relations():
    left = verma_rep((0.4, -1.2), labels=(1, 2), tag="a")
    right = verma_rep((0.9,), labels=(3,), tag="b")
    pair_modes = {(1, 3): ("c", 1, 3), (2, 3): ("c", 2, 3)}
    lam = 0.65
    fused = fuse_generators(left, right, lam, pair_modes)
    assert fused.labels == (1, 2, 3)
    assert gl_relation_residual(fused) < 1e-12
    assert highest_weight_residual(fused) < 1e-13
    assert fused.weight == {1: 0.4 + lam, 2: -1.2 + lam, 3: 0.9}


def test_merge_rank1_with_rank2():
    left = scalar_rep(1, 0.35)
    right = verma_rep((0.8, -0.45), labels=(2, 3), tag="r")
    pair_modes = {(1, 2): ("c", 1, 2), (1, 3): ("c", 1, 3)}
    fused = fuse_generators(left, right, -0.4, pair_modes)
    assert gl_relation_residual(fused) < 1e-12
    assert highest_weight_residual(fused) < 1e-13


def test_merge_requires_disjoint_labels():
    with pytest.raises(ValueError):
        fuse_generators(scalar_rep(1, 0.0), scalar_rep(1, 1.0), 0.0, {})


def test_central_shift_moves_only_diagonal():
    w = (0.8, -0.3, 0.1)
    c = 0.77
    rep0 = verma_rep(w)
    rep1 = verma_rep(tuple(x + c for x in w))
    for a in rep0.labels:
        for b in rep0.labels:
            diff = rep1.gen(a, b).mat[0][0] - rep0.gen(a, b).mat[0][0]
            if a == b:
                assert (diff - Op.scalar(c)).is_zero(1e-13)
            else:
                assert diff.is_zero(1e-13)


def test_diagonal_weight_data():
    w = (0.5, -0.2, 0.9)
    phis = {1: 0.7, 2: -0.4, 3: -0.3}
    rep = verma_rep(w)
    const, coeffs = diagonal_weight_data(rep, phis)
    expect_const = sum(phis[a] * w[a - 1] for a in (1, 2, 3))
    assert abs(const - expect_const) < 1e-13
    for (tag, a, b), c in coeffs.items():
        assert abs(c - (phis[b] - phis[a])) < 1e-13
    assert len(coeffs) == 3


def test_trivial_rep_is_flat():
    rep = trivial_rep((1, 2))
    assert gl_relation_residual(rep) == 0.0
    assert all(g.is_zero() for g in rep.gens.values())


def _relation_residual_reference(rep):
    """Every product formed afresh, twice per pair of generators."""
    worst = 0.0
    L = rep.labels
    for a in L:
        for b in L:
            for c in L:
                for d in L:
                    r = rep.gen(a, b) * rep.gen(c, d) - rep.gen(c, d) * rep.gen(a, b)
                    if b == c:
                        r = r - rep.gen(a, d)
                    if a == d:
                        r = r + rep.gen(c, b)
                    worst = max(worst, r.max_coeff())
    return worst


def _perturbed(rep, ab, delta, key=None):
    """``rep`` with ``delta`` added to the coefficient of ``key`` in ``J_ab``,
    by default to its first non-scalar one."""
    gens = dict(rep.gens)
    terms = dict(gens[ab].mat[0][0].terms)
    if key is None:
        key = next(k for k in terms if k)
    terms[key] = terms.get(key, 0.0) + delta
    gens[ab] = CarrierOp.from_scalar_op(Op(terms))
    return GlRep(rep.labels, rep.d, gens, rep.weight)


def test_relation_residual_matches_the_full_product_reference_bitwise():
    from qlab.fusion import factorize_partons
    reps = [verma_rep((0.3, 1.1 - 0.2j, -2.0, 0.6)), fundamental_rep((1, 2, 3)),
            factorize_partons(3, (0.45 + 0.3j, -0.15, 0.7)).generator_rep(),
            factorize_partons(4, (0.2 - 0.5j, 0.9, -0.35, 0.1 + 0.4j)).generator_rep()]
    # a perturbed realization, so that the residuals are not all exact zeros
    rep = verma_rep((0.7, -0.35 + 0.1j, 1.2), tag="w")
    gens = dict(rep.gens)
    mode = ("w", 1, 2)  # the ladder mode of the label pair (1, 2)
    gens[(1, 2)] = gens[(1, 2)] + CarrierOp.from_scalar_op(
        (0.3141 - 0.271j) * Op.creator(mode) * Op.number(mode))
    gens[(3, 1)] = gens[(3, 1)] + CarrierOp.from_scalar_op(0.577j * Op.number(mode))
    reps.append(GlRep(rep.labels, rep.d, gens, rep.weight))
    got = [gl_relation_residual(rep) for rep in reps]
    assert got == [_relation_residual_reference(rep) for rep in reps]
    assert got[-1] > 0.0


@pytest.mark.parametrize("rep", [verma_rep((0.3, -0.2)), verma_rep((0.5, 0.1, -0.6)),
                                 verma_rep((0.3, 1.1 - 0.2j, -2.0, 0.6)),
                                 fundamental_rep((1, 2, 3))])
def test_relation_residual_forms_one_commutator_per_unordered_pair(rep, monkeypatch):
    import qlab.glrep as glrep
    calls = []
    commutator = glrep._carrier_commutator
    monkeypatch.setattr(glrep, "_carrier_commutator",
                        lambda x, y: calls.append(1) or commutator(x, y))
    assert gl_relation_residual(rep) < 1e-12
    p = rep.p
    assert len(calls) == p * p * (p * p - 1) // 2


@pytest.mark.parametrize("n,wt", [(3, (0.45 + 0.3j, -0.15, 0.7)),
                                  (4, (0.2 - 0.5j, 0.9, -0.35, 0.1 + 0.4j))])
@pytest.mark.parametrize("ab", [(1, 2), (2, 1), (3, 3)])
def test_relation_residual_sees_a_small_perturbation(n, wt, ab):
    from qlab.fusion import factorize_partons
    rep = factorize_partons(n, wt).generator_rep()
    assert gl_relation_residual(rep) < 1e-12
    assert gl_relation_residual(_perturbed(rep, ab, 1e-8)) > 1e-9


def test_a_nan_generator_coefficient_fails_the_fused_relations():
    from qlab.fusion import fuse
    res = fuse(3, (1,), (2, 3), scalar_rep(1, 0.23),
               verma_rep((0.4, -0.2), labels=(2, 3), tag="v"), 0.6)
    assert gl_relation_residual(res.fused_rep) == 0.0
    for ab in [(1, 1), (2, 3), (3, 1)]:
        assert np.isnan(gl_relation_residual(_perturbed(res.fused_rep, ab, float("nan"))))
    # the highest-weight check reads the constants of the diagonal generators
    assert highest_weight_residual(res.fused_rep) < 1e-13
    for a in (2, 3):
        bad = _perturbed(res.fused_rep, (a, a), float("nan"), key=())
        assert np.isnan(highest_weight_residual(bad))


@pytest.mark.parametrize("ab", [(1, 1), (2, 3)])
def test_a_nan_on_the_diagonal_of_an_identity_generator_fails_the_relations(ab):
    # an exactly-identity operand of a wider carrier is central and skips the
    # expansion; one with a NaN on its diagonal is not, and the NaN is kept
    rep = fundamental_rep((1, 2, 3))
    gens = dict(rep.gens)
    gens[ab] = CarrierOp.identity(3)
    gens[ab].mat[1][1] = Op.scalar(float("nan"))
    assert np.isnan(gl_relation_residual(GlRep(rep.labels, rep.d, gens, rep.weight)))


def test_fused_and_triangular_carriers_are_highest_weight():
    from qlab.fusion import factorize_partons, fuse
    fused = fuse(3, (1,), (2,), scalar_rep(1, 0.0), scalar_rep(2, 0.0), 0.45).fused_rep
    assert highest_weight_residual(fused) < 1e-13
    for n, wt in [(2, (0.6, -0.6)), (3, (0.5, -0.2, 0.9))]:
        assert highest_weight_residual(factorize_partons(n, wt).generator_rep()) < 1e-13
