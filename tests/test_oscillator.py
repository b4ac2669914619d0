import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qlab.oscillator import (
    NormalOrderedOp as Op,
    CarrierOp, FockSpace, FockTruncation,
    weighted_trace, normalized_trace, damped_numeric_trace, extrapolated_trace,
    automorphism_image, fock_matrix, nilpotent_exp,
)

M1 = ("m", 0, 1)
M2 = ("m", 0, 2)


def b(m=M1):
    return Op.annihilator(m)


def bd(m=M1):
    return Op.creator(m)


# -- normal ordering ---------------------------------------------------------

def test_canonical_commutator():
    assert (b() * bd() - bd() * b() - Op.scalar(1.0)).is_zero()


def test_distinct_modes_commute():
    x = b(M1) * bd(M2)
    y = bd(M2) * b(M1)
    assert (x - y).is_zero()


def test_number_operator_reduction():
    # B B† B = (N + 1) B
    lhs = b() * bd() * b()
    rhs = (Op.number(M1) + 1.0) * b()
    assert (lhs - rhs).is_zero()


def test_b_bdag_squared():
    # B (B†)^2 = (B†)^2 B + 2 B†
    lhs = b() * bd() * bd()
    rhs = bd() * bd() * b() + 2.0 * bd()
    assert (lhs - rhs).is_zero()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["b1", "d1", "b2", "d2"]), min_size=0, max_size=7))
def test_ordering_is_confluent(word):
    """Left-fold and right-fold multiplication produce identical term maps."""
    table = {"b1": b(M1), "d1": bd(M1), "b2": b(M2), "d2": bd(M2)}
    ops = [table[w] for w in word]
    left = Op.scalar(1.0)
    for o in ops:
        left = left * o
    right = Op.scalar(1.0)
    for o in reversed(ops):
        right = o * right
    assert (left - right).is_zero(1e-10)


# -- closed-form traces --------------------------------------------------------

def test_trace_of_identity():
    assert normalized_trace(Op.scalar(1.0), {M1: 0.3}) == 1.0


def test_trace_number_operator():
    q = 0.37 + 0.2j
    val = normalized_trace(Op.number(M1), {M1: q})
    assert abs(val - q / (1 - q)) < 1e-14


def test_trace_monomial_rule():
    q = 0.5
    # (B†)^2 B^2 -> 2! (q/(1-q))^2
    x = bd() * bd() * b() * b()
    assert abs(normalized_trace(x, {M1: q}) - 2 * (q / (1 - q)) ** 2) < 1e-14


def test_trace_kills_unbalanced_monomials():
    assert normalized_trace(bd(), {M1: 0.4}) == 0.0
    assert normalized_trace(bd() * bd() * b(), {M1: 0.4}) == 0.0


def test_trace_multi_mode_factorizes():
    q1, q2 = 0.3, 0.6
    x = Op.number(M1) * Op.number(M2)
    expect = (q1 / (1 - q1)) * (q2 / (1 - q2))
    assert abs(normalized_trace(x, {M1: q1, M2: q2}) - expect) < 1e-14


def test_trace_unit_modulus_weight():
    phi = 1.1
    q = np.exp(-1j * phi)
    val = normalized_trace(Op.number(M1), {M1: q})
    assert abs(val - q / (1 - q)) < 1e-14


def test_missing_weight_raises():
    with pytest.raises(ValueError):
        normalized_trace(Op.number(M1), {})


def test_plain_trace_partition_factor():
    q = 0.25
    # Tr q^N = 1/(1-q); Tr q^N N = q/(1-q)^2
    assert abs(weighted_trace(Op.scalar(1.0), {M1: q}, frozenset([M1])) - 1 / (1 - q)) < 1e-14
    assert abs(weighted_trace(Op.number(M1), {M1: q}, frozenset([M1])) - q / (1 - q) ** 2) < 1e-14


def test_plain_trace_against_direct_sum():
    q = 0.4 * np.exp(0.7j)
    x = bd() * bd() * b() * b()
    direct = sum((q ** m) * m * (m - 1) for m in range(400))
    assert abs(weighted_trace(x, {M1: q}, frozenset([M1])) - direct) < 1e-12


def test_trace_cyclicity_twisted():
    # cycling B† through q^N costs a factor 1/q: ntr{q^N x B†} = (1/q) ntr{q^N B† x}
    q = np.exp(-0.9j)
    x = Op.number(M1) * b()
    lhs = normalized_trace(x * bd(), {M1: q})
    rhs = (1.0 / q) * normalized_trace(bd() * x, {M1: q})
    assert abs(lhs - rhs) < 1e-13
    # and the annihilator costs q
    y = Op.number(M1) * bd()
    assert abs(normalized_trace(y * b(), {M1: q})
               - q * normalized_trace(b() * y, {M1: q})) < 1e-13


# -- damped truncated trace ----------------------------------------------------

def test_damped_trace_identity():
    assert abs(damped_numeric_trace(Op.scalar(1.0), {M1: np.exp(1j)}, 50, 0.3) - 1.0) < 1e-14


def test_damped_trace_number_operator_interior_q():
    val = damped_numeric_trace(Op.number(M1), {M1: 0.5}, 200, 0.0)
    assert abs(val - 1.0) < 1e-12


def test_extrapolated_trace_matches_closed_form():
    q = 0.5
    x = Op.number(M1) * Op.number(M1)  # (B†B)^2
    exact = 2 * (q / (1 - q)) ** 2 + q / (1 - q)
    assert abs(normalized_trace(x, {M1: q}) - exact) < 1e-14
    assert abs(extrapolated_trace(x, {M1: q}) - exact) < 1e-6


def test_extrapolated_trace_unit_modulus():
    q = np.exp(-1.3j)
    x = bd() * bd() * b() * b()
    exact = normalized_trace(x, {M1: q})
    assert abs(extrapolated_trace(x, {M1: q}) - exact) < 1e-6


def _damped_trace_reference(x, q, n_max, eta):
    """The damped trace with weights from numpy's complex power ``q ** occ``."""
    damped = {m: qm * math.exp(-eta) for m, qm in q.items()}
    occ = np.arange(n_max + 1, dtype=float)
    total = 0.0 + 0.0j
    for key, c in x.terms.items():
        f = complex(c)
        for mode, j, k in key:
            if j != k:
                f = 0.0
                break
            w = damped[mode] ** occ
            diag = np.ones_like(occ)
            for i in range(k):
                diag *= np.maximum(occ - i, 0.0)
            f *= np.sum(w * diag) / np.sum(w)
        total += f
    return total


ETAS = [0.2 / 2 ** j for j in range(6)]  # extrapolated_trace's default schedule


def _depth(eta):
    return int((40 + 14 * 12) / eta)  # 33,280 at the smallest eta


@pytest.mark.parametrize("k", range(5))
def test_damped_trace_matches_power_reference(k):
    m3 = ("m", 1, 3)
    q = {M1: 0.6 - 0.3j, M2: 0.3 + 0.4j, m3: -0.5 + 0.2j}
    x = (Op.scalar(0.3 + 0.2j) + (0.7 - 0.1j) * bd(M1) ** k * b(M1) ** k
         + (-0.2 + 0.9j) * bd(M2) ** k * b(M2) ** k * bd(m3) ** (4 - k) * b(m3) ** (4 - k)
         + bd(m3) * b(M2))
    for eta in ETAS:
        ref = _damped_trace_reference(x, q, _depth(eta), eta)
        assert abs(damped_numeric_trace(x, q, _depth(eta), eta) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("phase", [0.9, -1.4, 0.55])
def test_damped_trace_unit_modulus_matches_power_reference(k, phase):
    # at |q| = 1 the summed terms m^k |q e^{-eta}|^m reach ~1e9 times the
    # trace (k = 4, eta = 0.00625), so the two weight formulas are compared
    # on that scale: sum |w_m| d_m / |sum w_m|
    q = {M1: np.exp(1j * phase)}
    x = bd() ** k * b() ** k
    for eta in ETAS:
        occ = np.arange(_depth(eta) + 1, dtype=float)
        w = np.abs(np.exp(1j * phase - eta) ** occ)
        d = np.prod([occ - i for i in range(k)], axis=0) if k else np.ones_like(occ)
        scale = np.sum(w * d) / abs(np.sum(np.exp(1j * phase - eta) ** occ))
        ref = _damped_trace_reference(x, q, _depth(eta), eta)
        assert abs(damped_numeric_trace(x, q, _depth(eta), eta) - ref) <= 1e-13 * scale


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zero", [0.0, 0j])
def test_damped_trace_zero_weight(zero):
    assert damped_numeric_trace(Op.number(M1), {M1: zero}, 50, 0.1) == 0.0
    assert damped_numeric_trace(Op.scalar(2.0), {M1: zero}, 50, 0.1) == 2.0


# -- Fock matrices ---------------------------------------------------------------

def test_creator_subdiagonal_unit_entries():
    space = FockSpace([M1], 3)
    m = fock_matrix(bd(), space).toarray()
    expect = np.zeros((4, 4))
    for k in range(3):
        expect[k + 1, k] = 1.0
    assert np.allclose(m, expect)


def test_annihilator_entries():
    space = FockSpace([M1], 3)
    m = fock_matrix(b(), space).toarray()
    expect = np.zeros((4, 4))
    for k in range(1, 4):
        expect[k - 1, k] = k
    assert np.allclose(m, expect)


def test_h_diagonal():
    space = FockSpace([M1], 3)
    h = Op.number(M1) + 0.5
    m = fock_matrix(h, space).toarray()
    assert np.allclose(m, np.diag([0.5, 1.5, 2.5, 3.5]))


def test_fock_matrix_is_multiplicative_on_buffer():
    rng = np.random.default_rng(7)
    space = FockSpace([M1, M2], 6)
    x = bd(M1) * b(M2) + 0.3 * Op.number(M1) + bd(M2)
    y = b(M1) * b(M2) + 2.0 * bd(M1) * bd(M2) + Op.scalar(0.5)
    mx, my, mxy = (fock_matrix(o, space) for o in (x, y, x * y))
    idx = space.buffered_indices(4)
    prod = (mx @ my).toarray()
    assert np.allclose(prod[:, idx], mxy.toarray()[:, idx], atol=1e-12)


def _capped_states(k, cap):
    """Recursive lexicographic enumeration, first mode slowest."""
    if k == 0:
        yield ()
        return
    for head in range(cap + 1):
        for tail in _capped_states(k - 1, cap - head):
            yield (head,) + tail


def test_total_excitation_basis_size():
    space = FockSpace([M1, M2], 4)
    assert space.dim == math.comb(4 + 2, 2)
    for k, cap in [(0, 3), (1, 0), (1, 4), (3, 0), (3, 5), (5, 3)]:
        space = FockSpace([("m", 0, a) for a in range(k)], cap)
        assert space.states == list(_capped_states(k, cap))
        assert space.dim == math.comb(k + cap, k)
        assert np.all(np.diff(space.codes) > 0)


def test_automorphism_on_h():
    # h = N + 1/2 maps to -h
    h = Op.number(M1) + 0.5
    img = automorphism_image(h)
    assert (img + h).is_zero()


def test_second_representation_matrices():
    space = FockSpace([M1], 4)
    h = Op.number(M1) + 0.5
    m = fock_matrix(h, space, rep="-").toarray()
    assert np.allclose(np.diag(m), [-0.5, -1.5, -2.5, -3.5, -4.5])
    # automorphism preserves the commutator: image of [B,B†]=1 is 1
    comm = b() * bd() - bd() * b()
    assert (automorphism_image(comm) - Op.scalar(1.0)).is_zero()


def test_nilpotent_exp_matches_series():
    space = FockSpace([M1, M2], 5)
    x = bd(M1) * bd(M2) + 0.5 * bd(M1) * bd(M1) * b(M2)
    e = nilpotent_exp(x, space).toarray()
    a = fock_matrix(x, space).toarray()
    expect = np.eye(space.dim, dtype=complex)
    p = np.eye(space.dim, dtype=complex)
    for k in range(1, 10):
        p = p @ a / k
        expect += p
    assert np.allclose(e, expect, atol=1e-12)
    # exp(x) exp(-x) = 1 exactly on the truncated space
    einv = nilpotent_exp(-1.0 * x + 2.0 * x - x + x, space)  # = exp(x) again
    eneg = nilpotent_exp(Op.zero() - x, space).toarray()
    assert np.allclose(e @ eneg, np.eye(space.dim), atol=1e-12)


def test_nilpotent_exp_rejects_lowering_terms():
    space = FockSpace([M1], 4)
    with pytest.raises(ValueError):
        nilpotent_exp(b(), space)


def test_fock_truncation_guard():
    with pytest.raises(ValueError):
        FockTruncation(4, 4)
    space = FockSpace([M1, M2], 3)
    for buffer in (-1, 3, 5):
        with pytest.raises(ValueError):
            space.buffered_indices(buffer)
    assert list(space.buffered_indices(2)) == [0, 1, 4]  # (0,0), (0,1), (1,0)


def _fock_matrix_reference(x, space, rep="+"):
    """Per-state loop: apply each term to each basis state in turn."""
    if rep == "-":
        x = automorphism_image(x)
    index = {s: i for i, s in enumerate(space.states)}
    pos = {m: p for p, m in enumerate(space.modes)}
    rows, cols, vals = [], [], []
    for key, c in x.terms.items():
        for col, state in enumerate(space.states):
            amp = c
            new = list(state)
            ok = True
            for m, j, k in key:
                occ = new[pos[m]]
                if occ < k:
                    ok = False
                    break
                for i in range(k):
                    amp *= (occ - i)
                new[pos[m]] = occ - k + j
            row = index.get(tuple(new)) if ok else None
            if row is not None:
                rows.append(row)
                cols.append(col)
                vals.append(amp)
    return sp.csr_matrix((vals, (rows, cols)), shape=(space.dim, space.dim), dtype=complex)


def _random_op(rng, modes, n_terms, max_power):
    terms = {}
    for _ in range(n_terms):
        size = int(rng.integers(1, min(3, len(modes)) + 1))
        chosen = sorted(rng.choice(len(modes), size=size, replace=False))
        key = tuple((modes[p], int(rng.integers(0, max_power + 1)),
                     int(rng.integers(0, max_power + 1))) for p in chosen)
        terms[key] = complex(rng.normal(), rng.normal())
    return Op(terms)


@pytest.mark.parametrize("n_modes,n_max", [(1, 3), (3, 6), (6, 8)])
@pytest.mark.parametrize("rep", ["+", "-"])
def test_fock_matrix_matches_per_state_reference(n_modes, n_max, rep):
    rng = np.random.default_rng(100 * n_modes + n_max)
    modes = [("m", 0, a) for a in range(n_modes)]
    space = FockSpace(modes, n_max)
    # powers up to n_max + 1 give terms that leave the cap and terms that
    # annihilate more quanta than a state holds
    ops = [_random_op(rng, modes, 8, min(n_max + 1, 4)) for _ in range(4)]
    ops += [Op.zero(), Op.scalar(0.7 - 0.2j),
            Op.scalar(0.3) + _random_op(rng, modes, 3, n_max + 1)]
    for x in ops:
        got, want = fock_matrix(x, space, rep), _fock_matrix_reference(x, space, rep)
        assert got.indptr.tobytes() == want.indptr.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.data.tobytes() == want.data.tobytes()


def test_fock_matrix_rejects_modes_outside_space():
    with pytest.raises(ValueError):
        fock_matrix(bd(M2) + b(M1), FockSpace([M1], 3))


# -- carrier-valued matrices ------------------------------------------------------

def test_carrier_matmul_and_trace():
    x = CarrierOp(2)
    x.mat[0][0] = Op.number(M1)
    x.mat[0][1] = bd()
    x.mat[1][0] = b()
    x.mat[1][1] = Op.scalar(1.0)
    sq = x * x
    # (x^2)[0][0] = N^2 + B†B = N^2 + N
    assert (sq.mat[0][0] - (Op.number(M1) * Op.number(M1) + Op.number(M1))).is_zero()
    q = 0.3
    tr = x.weighted_trace([2.0, 5.0], {M1: q})
    assert abs(tr - (2 * q / (1 - q) + 5.0)) < 1e-14


def test_carrier_to_matrix_blocks():
    space = FockSpace([M1], 2)
    x = CarrierOp.matrix_unit(2, 0, 1, bd())
    m = x.to_matrix(space).toarray()
    assert m.shape == (6, 6)
    assert np.allclose(m[:3, 3:], fock_matrix(bd(), space).toarray())
    assert np.allclose(m[:3, :3], 0) and np.allclose(m[3:, :], 0)
