import cmath
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlab import tensor
from qlab.tensor import DROP_TOL, QuantumOperator
from qlab.transfer import TwistConfig, build_Q
from qlab.relations import (
    QFamily, _operator_det, delta_pair, delta_set, enumerate_hasse, hirota_residual,
    plucker_residual, q_determinant_residual, t_determinant_residual,
    x_merge_residual, x_product_form_residual,
)

TW2 = TwistConfig((0.7, -0.7))
TW3 = TwistConfig((0.7, -0.4, -0.3))


# -- scalar prefactors ------------------------------------------------------------

def test_delta_pair_antisymmetric_and_value():
    assert delta_pair(TW2, 1, 2) == pytest.approx(2j * cmath.sin(0.7))
    assert delta_pair(TW3, 2, 3) == pytest.approx(-delta_pair(TW3, 3, 2))


def test_delta_set_trivial_cases():
    assert delta_set(TW3, ()) == 1.0
    assert delta_set(TW3, (2,)) == 1.0
    assert delta_set(TW3, (1, 2)) == pytest.approx(delta_pair(TW3, 1, 2))


# -- subset lattice ---------------------------------------------------------------

def test_hasse_counts_small():
    h2 = enumerate_hasse(2)
    assert len(h2.nodes) == 4 and len(h2.quadrilaterals) == 1
    assert len(h2.chains) == 2 and len(h2.edges) == 4
    h3 = enumerate_hasse(3)
    assert (len(h3.nodes), len(h3.quadrilaterals), len(h3.chains)) == (8, 6, 6)
    h4 = enumerate_hasse(4)
    assert len(h4.nodes) == 16 and len(h4.chains) == 24


def test_hasse_edges_are_coverings():
    for lo, hi in enumerate_hasse(3).edges:
        assert set(lo) < set(hi) and len(hi) == len(lo) + 1


def test_hasse_guards_size():
    with pytest.raises(ValueError):
        enumerate_hasse(7)


# -- quadrilateral relation -------------------------------------------------------

@pytest.mark.parametrize("n,tw", [(2, TW2), (3, TW3)])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_quadrilateral_relation_all_faces(n, tw, L):
    qf = QFamily(n, L, tw)
    for I, a, b in enumerate_hasse(n).quadrilaterals:
        assert hirota_residual(n, L, I, a, b, tw, family=qf) < 1e-10


def test_quadrilateral_relation_antisymmetric_in_ab():
    qf = QFamily(2, 2, TW2)
    assert hirota_residual(2, 2, (), 2, 1, TW2, family=qf) < 1e-10


def test_nan_entry_of_a_member_reaches_the_residual_and_fails_the_record():
    from qlab.cli import RunConfig, run_verify
    qf = QFamily(2, 2, TW2)
    q1 = qf.q((1,))
    c0 = q1.coeffs[0]
    entries = {divmod(k, c0.dim): v for k, v in zip(c0.keys.tolist(), c0.vals.tolist())}
    entries[2, 2] = complex(np.nan, 0.0)
    q1.coeffs[0] = QuantumOperator(c0.dim, entries)
    assert np.isnan(hirota_residual(2, 2, (), 1, 2, TW2, family=qf))
    qf.drop_values()
    doc = run_verify(RunConfig(n=2, length=2, suites=("hirota",)), family=qf)
    assert [r["passed"] for r in doc["records"]] == [False]
    assert np.isnan(doc["records"][0]["residual"])


def test_quadrilateral_rejects_bad_indices():
    with pytest.raises(ValueError):
        hirota_residual(3, 1, (1,), 1, 2, TW3)
    with pytest.raises(ValueError):
        hirota_residual(3, 1, (), 2, 2, TW3)


def test_zero_length_chain_collapses_exactly():
    qf = QFamily(2, 0, TW2)
    assert hirota_residual(2, 0, (), 1, 2, TW2, family=qf) == 0.0
    assert q_determinant_residual(2, 0, (1, 2), TW2, family=qf) < 1e-15


# -- determinant forms ------------------------------------------------------------

def from_dense(mat):
    """The operator of a square dense matrix, its entries in row-major order."""
    mat = np.asarray(mat)
    keys = np.flatnonzero(~(np.abs(mat) <= DROP_TOL))
    return QuantumOperator._from_arrays(len(mat), keys, mat.reshape(-1)[keys].astype(complex))


def _naive_det(entries):
    p = len(entries)
    dim = entries[0][0].dim
    out = QuantumOperator.zero(dim)
    for sig in itertools.permutations(range(p)):
        inv = sum(1 for i in range(p) for j in range(i + 1, p) if sig[i] > sig[j])
        term = QuantumOperator.identity(dim)
        for i in range(p):
            term = term @ entries[i][sig[i]]
        out = out + term * ((-1) ** inv)
    return out


@pytest.mark.parametrize("p", [2, 3, 4])
def test_operator_det_matches_naive_permutation_sum(p):
    rng = np.random.default_rng(p)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a[rng.random((6, 6)) < 0.5] = 0.0
    powers = [np.eye(6), a, a @ a]
    # polynomials in one matrix commute with each other
    entries = [[from_dense(sum(
        complex(*rng.normal(size=2)) * m for m in powers)) for _ in range(p)]
        for _ in range(p)]
    assert np.array_equal(_operator_det(entries).to_dense(), _naive_det(entries).to_dense())


def _random_op(rng, dim):
    """A sparse operator whose entries meet exact cancellations in sums."""
    dense = (rng.integers(-2, 3, (dim, dim)) + 1j * rng.integers(-2, 3, (dim, dim))) / 4
    dense[rng.random((dim, dim)) < 0.5] = 0.0
    return from_dense(dense)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 120), st.integers(0, 2 ** 32 - 1))
def test_stacked_operator_det_matches_each_determinant(p, dim, count, slots, seed):
    # a small stacking cap cuts the walk's groups and products anywhere,
    # down to one operator per product
    rng = np.random.default_rng(seed)
    single = [[[_random_op(rng, dim) for _ in range(p)] for _ in range(p)]
              for _ in range(count)]
    want = [_operator_det(entries) for entries in single]
    stacked = [[QuantumOperator.stack([single[b][i][j] for b in range(count)])
                for j in range(p)] for i in range(p)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "STACK_SLOTS", slots)
        got = _operator_det(stacked)
    assert got.count == count
    for b, det in enumerate(want):
        mine = got.keys // dim ** 2 == b
        assert (got.keys[mine] - b * dim ** 2).tolist() == det.keys.tolist()
        assert got.vals[mine].view(np.int64).tolist() == det.vals.view(np.int64).tolist()


@pytest.mark.parametrize("I", [(1, 2), (1, 3), (2, 3)])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_pair_determinant_form(I, L):
    assert q_determinant_residual(3, L, I, TW3) < 1e-10


def test_full_set_determinant_form():
    assert q_determinant_residual(3, 2, (1, 2, 3), TW3) < 1e-10


def test_determinant_form_rejects_empty_set():
    with pytest.raises(ValueError):
        q_determinant_residual(3, 1, (), TW3)


@pytest.mark.parametrize("n,tw,L", [(2, TW2, 1), (2, TW2, 3), (3, TW3, 2)])
def test_transfer_determinant_form(n, tw, L):
    assert t_determinant_residual(n, L, tw) < 1e-10


# -- split/merge and product form -------------------------------------------------

def test_merge_two_singletons():
    assert x_merge_residual(3, 1, (1,), (2,), (0.4,), (-0.3,), 0.9, TW3) < 1e-11


def test_merge_singleton_with_pair():
    r = x_merge_residual(3, 2, (1,), (2, 3), (0.4,), (-0.3, 0.2), 0.9, TW3)
    assert r < 1e-11


def test_merge_rejects_overlap():
    with pytest.raises(ValueError):
        x_merge_residual(3, 1, (1, 2), (2,), (0.1, 0.2), (0.3,), 0.5, TW3)


def test_merge_zero_shift_still_holds():
    assert x_merge_residual(2, 1, (1,), (2,), (0.25,), (-0.15,), 0.0, TW2) < 1e-11


@pytest.mark.parametrize("I,w", [((1, 2), (0.4, -0.3)),
                                 ((1, 2, 3), (0.4, -0.3, 0.6))])
@pytest.mark.parametrize("L", [1, 2])
def test_product_form(I, w, L):
    assert x_product_form_residual(3, L, I, w, TW3) < 1e-11


def test_product_form_trivial_weight_singleton_is_q():
    # a singleton highest-weight operator at weight 0 IS the elementary member
    from qlab.transfer import build_X_plus
    x = build_X_plus(3, 1, (2,), (0.0,), TW3)
    q = build_Q(3, 1, (2,), TW3)
    assert (x.at(0.3) - q.at(0.3)).norm() < 1e-13


# -- exchange relation of determinants --------------------------------------------

def test_exchange_relation_two_levels():
    r = plucker_residual(2, 2, (1, 2), 2, (0.2, 0.7, -0.4), TW2)
    assert r < 1e-10


def test_exchange_relation_three_levels():
    r = plucker_residual(3, 2, (1, 2, 3), 3, (0.2, 0.7, -0.4, 1.1), TW3)
    assert r < 1e-10


def test_exchange_relation_alternate_chain_order():
    r = plucker_residual(3, 1, (3, 1, 2), 2, (0.15, -0.55, 0.95), TW3)
    assert r < 1e-10


def test_exchange_relation_input_guards():
    with pytest.raises(ValueError):
        plucker_residual(3, 1, (1, 2, 3), 1, (0.1, 0.2), TW3)
    with pytest.raises(ValueError):
        plucker_residual(3, 1, (1, 2, 3), 2, (0.1, 0.2), TW3)


# -- cache behavior ---------------------------------------------------------------

def test_family_cache_returns_same_object():
    qf = QFamily(2, 2, TW2)
    assert qf.q((2, 1)) is qf.q((1, 2))


def test_family_caches_values_within_the_stacking_cap(monkeypatch):
    qf = QFamily(2, 2, TW2)
    points = (0.1, -0.3)
    stack = qf.q_at((2, 1), points)
    assert stack is qf.q_at((1, 2), [0.1, -0.3])
    assert stack.count == 2 and stack == QuantumOperator.stack(
        [qf.q((1, 2)).at(z) for z in points])
    qf.drop_values()
    assert qf.q_at((1, 2), points) is not stack
    # a stack past the cap is made anew on every call
    monkeypatch.setattr(tensor, "STACK_SLOTS", 2 * 4 ** 2 - 1)
    assert qf.q_at((1,), points) is not qf.q_at((1,), points)
