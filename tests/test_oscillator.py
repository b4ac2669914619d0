import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qlab.oscillator import (
    NormalOrderedOp as Op,
    CarrierOp, FockSpace,
    weighted_trace, extrapolated_traces,
    automorphism_image, fock_matrix,
    _add_terms, _adjoint_terms, _carrier_add, _carrier_commutator, _carrier_max_coeff,
    _carrier_neg, _carrier_trace, _commutator_terms, _damped_traces, _degree,
    _geometric_weights, _mul_terms,
    _rational_extrapolate, _wick, _worst,
)
import qlab.oscillator as oscillator

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
    assert weighted_trace(Op.scalar(1.0), {M1: 0.3}) == 1.0


def test_trace_number_operator():
    q = 0.37 + 0.2j
    val = weighted_trace(Op.number(M1), {M1: q})
    assert abs(val - q / (1 - q)) < 1e-14


def test_trace_monomial_rule():
    q = 0.5
    # (B†)^2 B^2 -> 2! (q/(1-q))^2
    x = bd() * bd() * b() * b()
    assert abs(weighted_trace(x, {M1: q}) - 2 * (q / (1 - q)) ** 2) < 1e-14


def test_trace_kills_unbalanced_monomials():
    assert weighted_trace(bd(), {M1: 0.4}) == 0.0
    assert weighted_trace(bd() * bd() * b(), {M1: 0.4}) == 0.0


def test_trace_multi_mode_factorizes():
    q1, q2 = 0.3, 0.6
    x = Op.number(M1) * Op.number(M2)
    expect = (q1 / (1 - q1)) * (q2 / (1 - q2))
    assert abs(weighted_trace(x, {M1: q1, M2: q2}) - expect) < 1e-14


def test_trace_unit_modulus_weight():
    phi = 1.1
    q = np.exp(-1j * phi)
    val = weighted_trace(Op.number(M1), {M1: q})
    assert abs(val - q / (1 - q)) < 1e-14


def test_missing_weight_raises():
    with pytest.raises(ValueError):
        weighted_trace(Op.number(M1), {})


def _plain_trace(x, q):
    """The trace of ``x`` with every mode of ``q`` by the plain rule."""
    return _carrier_trace([{0: x.terms}], (1.0,), q, tuple(q), {})


def test_plain_trace_partition_factor():
    q = 0.25
    # Tr q^N = 1/(1-q); Tr q^N N = q/(1-q)^2
    assert abs(_plain_trace(Op.scalar(1.0), {M1: q}) - 1 / (1 - q)) < 1e-14
    assert abs(_plain_trace(Op.number(M1), {M1: q}) - q / (1 - q) ** 2) < 1e-14


def test_plain_trace_against_direct_sum():
    q = 0.4 * np.exp(0.7j)
    x = bd() * bd() * b() * b()
    direct = sum((q ** m) * m * (m - 1) for m in range(400))
    assert abs(_plain_trace(x, {M1: q}) - direct) < 1e-12


def test_trace_cyclicity_twisted():
    # cycling B† through q^N costs a factor 1/q: ntr{q^N x B†} = (1/q) ntr{q^N B† x}
    q = np.exp(-0.9j)
    x = Op.number(M1) * b()
    lhs = weighted_trace(x * bd(), {M1: q})
    rhs = (1.0 / q) * weighted_trace(bd() * x, {M1: q})
    assert abs(lhs - rhs) < 1e-13
    # and the annihilator costs q
    y = Op.number(M1) * bd()
    assert abs(weighted_trace(y * b(), {M1: q})
               - q * weighted_trace(b() * y, {M1: q})) < 1e-13


# -- damped truncated trace ----------------------------------------------------

def test_damped_trace_identity():
    assert abs(_damped_traces([Op.scalar(1.0)], {M1: np.exp(1j)}, [50], 0.3)[0] - 1.0) < 1e-14


def test_damped_trace_number_operator_interior_q():
    val = _damped_traces([Op.number(M1)], {M1: 0.5}, [200], 0.0)[0]
    assert abs(val - 1.0) < 1e-12


def test_extrapolated_trace_matches_closed_form():
    q = 0.5
    x = Op.number(M1) * Op.number(M1)  # (B†B)^2
    exact = 2 * (q / (1 - q)) ** 2 + q / (1 - q)
    assert abs(weighted_trace(x, {M1: q}) - exact) < 1e-14
    assert abs(extrapolated_traces([x], {M1: q})[0] - exact) < 1e-6


def test_extrapolated_trace_unit_modulus():
    q = np.exp(-1.3j)
    x = bd() * bd() * b() * b()
    exact = weighted_trace(x, {M1: q})
    assert abs(extrapolated_traces([x], {M1: q})[0] - exact) < 1e-6


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


ETAS = [0.2 / 2 ** j for j in range(6)]  # the dampings of extrapolated_traces


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
        assert abs(_damped_traces([x], q, [_depth(eta)], eta)[0] - ref) <= 1e-13 * abs(ref)


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
        assert abs(_damped_traces([x], q, [_depth(eta)], eta)[0] - ref) <= 1e-13 * scale


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zero", [0.0, 0j])
def test_damped_trace_zero_weight(zero):
    assert _damped_traces([Op.number(M1)], {M1: zero}, [50], 0.1)[0] == 0.0
    assert _damped_traces([Op.scalar(2.0)], {M1: zero}, [50], 0.1)[0] == 2.0


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
    idx = space.up_to(2)
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


def test_adjoint_series_of_creators_shifts_the_annihilators():
    # exp(e) B exp(-e) = B + [e, B] + ..., with [B†, B] = -1 and [B†², B] = -2B†
    lam = 0.3 - 0.2j
    got = Op._of(_adjoint_terms((lam * bd()).terms, b().terms))
    assert (got - (b() - lam)).is_zero()
    got = Op._of(_adjoint_terms((lam * bd() * bd()).terms, b().terms))
    assert (got - (b() - 2 * lam * bd())).is_zero()
    # [B†², N] = -2B†² commutes with B†², so the series stops at its second power
    got = Op._of(_adjoint_terms((lam * bd() * bd()).terms, Op.number(M1).terms))
    assert (got - (Op.number(M1) - 2 * lam * bd() * bd())).is_zero()


def test_adjoint_series_raises_when_ad_e_is_not_nilpotent():
    # [B†B, B] = -B, so the series never ends
    with pytest.raises(RuntimeError):
        _adjoint_terms(Op.number(M1).terms, b().terms)


def _fock_matrix_reference(x, space, rep="+"):
    """Per-state loop: apply each term to each basis state in turn; terms that
    hit one position are added in term order, starting from the first."""
    if rep == "-":
        x = automorphism_image(x)
    index = {s: i for i, s in enumerate(space.states)}
    pos = {m: p for p, m in enumerate(space.modes)}
    acc = {}
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
                acc[row, col] = acc[row, col] + amp if (row, col) in acc else complex(amp)
    pairs = sorted(acc)
    return sp.csr_matrix(([acc[p] for p in pairs], ([r for r, _ in pairs], [c for _, c in pairs])),
                         shape=(space.dim, space.dim), dtype=complex)


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


# -- block assembly ----------------------------------------------------------------

HMODES = [("h", 0, a) for a in range(3)]
COEFFS = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False)


@st.composite
def _hyp_op(draw, modes, twins=1):
    """A random operator; each term may bring up to ``twins`` twins that hit
    its matrix entries.

    Twin ``t`` has ``t`` more creators and ``t`` more annihilators on one
    mode, so it moves every state it acts on to the same row as its partner.
    """
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = []
        for m in modes:
            j, k = draw(st.integers(0, 2)), draw(st.integers(0, 2))
            if j or k:
                key.append([m, j, k])
        keys = [key]
        for t in range(1, 1 + (draw(st.integers(0, twins)) if key else 0)):
            twin = [list(part) for part in key]
            twin[0][1] += t
            twin[0][2] += t
            keys.append(twin)
        for k in keys:
            k = tuple(tuple(part) for part in k)
            terms[k] = terms.get(k, 0.0) + draw(COEFFS)
    return Op(terms)


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def _bmat_to_matrix(x, space):
    """Block assembly through ``sp.bmat``, one matrix per entry, empty ones included."""
    if x.d == 1:
        return fock_matrix(x.mat[0][0], space)
    blocks = [[fock_matrix(e, space) for e in row] for row in x.mat]
    return sp.csr_matrix(sp.bmat(blocks, format="csr"))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(2, 3), st.integers(1, 4))
def test_carrier_to_matrix_equals_the_bmat_assembly(data, d, k, n_max):
    modes = HMODES[:k]
    space = FockSpace(modes, n_max)
    # up to four terms on one matrix entry
    entry = st.one_of(st.just(Op.zero()), _hyp_op(modes, twins=3))
    x = CarrierOp(d, [[data.draw(entry) for _ in range(d)] for _ in range(d)])
    _assert_bitwise(fock_matrix(x, space), _bmat_to_matrix(x, space))


def _wide_op(rng, modes):
    """Every monomial with at most two creators and two annihilators per mode:
    25 net shifts, so a row holds up to 25 entries of one block, and 81 terms,
    of which up to 9 (net shift 0) hit each diagonal entry."""
    terms = {}
    for powers in np.ndindex(*(3, 3) * len(modes)):
        key = tuple((m, powers[2 * p], powers[2 * p + 1]) for p, m in enumerate(modes)
                    if powers[2 * p] or powers[2 * p + 1])
        terms[key] = complex(rng.normal(), rng.normal())
    return Op(terms)


def test_carrier_to_matrix_on_wide_rows_equals_the_per_state_reference():
    # rows that more than 16 terms hit, where scipy's duplicate summation
    # does not keep their order, and rows of more than 16 stored entries
    rng = np.random.default_rng(11)
    modes = HMODES[:2]
    space = FockSpace(modes, 4)
    x = CarrierOp(2, [[_wide_op(rng, modes), Op.zero()],
                      [_wide_op(rng, modes), _wide_op(rng, modes)]])
    want = sp.csr_matrix(sp.bmat([[_fock_matrix_reference(e, space) for e in row]
                                  for row in x.mat], format="csr"))
    got = fock_matrix(x, space)
    assert np.diff(got.indptr).max() > 16
    _assert_bitwise(got, want)
    _assert_bitwise(got, _bmat_to_matrix(x, space))
    # a lone operator goes through the same assembly
    _assert_bitwise(fock_matrix(x.mat[1][0], space), _fock_matrix_reference(x.mat[1][0], space))


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
    tr = _carrier_trace(x._terms(), [2.0, 5.0], {M1: q}, (), {})
    assert abs(tr - (2 * q / (1 - q) + 5.0)) < 1e-14


def test_carrier_to_matrix_blocks():
    space = FockSpace([M1], 2)
    x = CarrierOp(2)
    x.mat[0][1] = bd()
    m = fock_matrix(x, space).toarray()
    assert m.shape == (6, 6)
    assert np.allclose(m[:3, 3:], fock_matrix(bd(), space).toarray())
    assert np.allclose(m[:3, :3], 0) and np.allclose(m[3:, :], 0)


# -- batched damped traces ---------------------------------------------------------

def _reference_extrapolated_trace(x, q):
    """The damped extrapolation of one operator on its own: each damping's
    weights formed at the operator's own depth (the unbatched implementation)."""
    etas = sorted(ETAS, reverse=True)
    n_max = [int((40 + 14 * max(x.degree(), 2)) / eta) for eta in etas]
    vals = []
    for eta, n in zip(etas, n_max):
        damped = {m: qm * math.exp(-eta) for m, qm in q.items()}
        occ = np.arange(n + 1, dtype=float)
        total = 0.0 + 0.0j
        for key, c in x.terms.items():
            f = complex(c)
            for mode, j, k in key:
                if j != k:
                    f = 0.0
                    break
                w = _geometric_weights(damped[mode], occ)
                diag = np.ones_like(occ)
                for i in range(k):
                    diag *= np.maximum(occ - i, 0.0)
                f *= np.sum(w * diag) / np.sum(w)
            total += f
        vals.append(total)
    return _rational_extrapolate(etas, vals)


def _hex(z):
    return (float(z.real).hex(), float(z.imag).hex())


def test_batched_traces_equal_each_operator_on_its_own():
    m3 = ("m", 1, 3)
    q = {M1: np.exp(0.9j), M2: np.exp(-1.4j), m3: np.exp(0.55j)}
    xs = [Op.scalar(0.4 - 0.3j),                                 # degree 0
          Op.scalar(0.0),                                        # no terms
          Op.number(M1) * (0.2 + 1.1j),                          # degree 2
          bd(M2) * bd(M2) * b(M2) * b(M2) + Op.scalar(0.5),      # degree 4
          bd(M1) * b(M2) + bd(m3) * b(m3),                       # unbalanced term
          (bd(M1) ** 2 * b(M1) ** 2) * (bd(M2) ** 2 * b(M2) ** 2)
          * (bd(m3) ** 2 * b(m3) ** 2) * (0.3 + 0.1j),           # degree 12
          Op.number(m3) * Op.number(M2) - Op.scalar(2.0)]
    ref = [_hex(_reference_extrapolated_trace(x, q)) for x in xs]
    assert [_hex(v) for v in extrapolated_traces(xs, q)] == ref
    assert [_hex(extrapolated_traces([x], q)[0]) for x in xs] == ref
    # and in another order: a batch's results do not depend on its other members
    assert [_hex(v) for v in extrapolated_traces(xs[::-1], q)] == ref[::-1]


def test_batched_traces_on_the_trace_suite_draws():
    from qlab.cli import TRACE_WEIGHTS, _trace_draws
    q = {m: np.exp(1j * angle) for m, angle in TRACE_WEIGHTS}
    xs = _trace_draws(0)
    assert len(xs) == 50 and {x.degree() for x in xs} >= {0, 12}
    assert ([_hex(v) for v in extrapolated_traces(xs, q)]
            == [_hex(_reference_extrapolated_trace(x, q)) for x in xs])


@pytest.mark.parametrize("phase", [0.9, -1.4, 0.55])
@pytest.mark.parametrize("eta", ETAS)
def test_weight_prefix_is_bitwise_the_short_array(phase, eta):
    qm = np.exp(1j * phase) * math.exp(-eta)
    longest = _geometric_weights(qm, np.arange(_depth(eta) + 1, dtype=float))
    for deg in range(2, 13):
        n = int((40 + 14 * deg) / eta)
        short = _geometric_weights(qm, np.arange(n + 1, dtype=float))
        assert longest[:n + 1].tobytes() == short.tobytes()


def test_damped_trace_rejects_non_convergent_weight():
    with pytest.raises(ValueError, match="non-convergent"):
        extrapolated_traces([Op.scalar(1.0)], {M1: 1.5})


# -- the commutator kernel ----------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_commutator_kernel_matches_the_two_products(data, k):
    x = data.draw(_hyp_op(HMODES[:k]))
    y = data.draw(_hyp_op(HMODES[:k]))
    xy, yx = _mul_terms(x.terms, y.terms), _mul_terms(y.terms, x.terms)
    want = _add_terms(xy, {key: -c for key, c in yx.items()})
    got = _commutator_terms(x.terms, y.terms)
    # the products round at the scale of their own coefficients, and a
    # coefficient at most COEFF_TOL is dropped on either side
    tol = 1e-13 * max([1.0] + [abs(c) for c in list(xy.values()) + list(yx.values())])
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= tol


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_commutator_kernel_of_disjoint_modes_is_empty(data):
    x = data.draw(_hyp_op(HMODES[:1]))
    y = data.draw(_hyp_op(HMODES[1:]))
    assert _commutator_terms(x.terms, y.terms) == {}
    assert _commutator_terms(y.terms, x.terms) == {}


def test_commutator_kernel_canonical_pair():
    assert _commutator_terms(b().terms, bd().terms) == {(): 1.0}
    assert _commutator_terms(bd().terms, b().terms) == {(): -1.0}
    # a scalar commutes with everything
    assert _commutator_terms({(): 2.5}, (b() * bd()).terms) == {}


# -- NaN-keeping reductions ---------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize("values", [[NAN, 1.0, 2.0], [1.0, NAN, 2.0], [1.0, 2.0, NAN]])
def test_worst_keeps_a_nan_in_any_place(values):
    assert math.isnan(_worst(values))


def test_worst_of_nothing_is_zero():
    assert _worst([]) == 0.0
    assert _worst([0.5, 3.0, 1.0]) == 3.0


def test_max_coeff_keeps_a_nan_that_is_not_the_first_term():
    x = Op({((M1, 1, 0),): 2.0, ((M1, 0, 1),): complex(NAN, 0.0), ((M2, 1, 1),): 1.0})
    assert list(x.terms)[0] == ((M1, 1, 0),)
    assert math.isnan(x.max_coeff())
    carrier = CarrierOp(2, [[bd(), Op.zero()], [Op.zero(), x]])
    assert math.isnan(carrier.max_coeff())


# -- the kernels against their expanding references -------------------------------
#
# The references expand every Wick monomial with comb/factorial and build the
# ladder-mode sets afresh per call; the kernels compose a miss from the
# per-mode table, keep each monomial's ladder sets and decide central carrier
# operands without expansion.  They must agree in key order and to the bit.

def _wick_reference(k1, k2):
    d1 = {m: (j, k) for m, j, k in k1}
    d2 = {m: (j, k) for m, j, k in k2}
    partial = [((), 1.0)]
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
    return partial


def _mul_terms_reference(t1, t2):
    out = {}
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            coeff = c1 * c2
            if not k1 or not k2:
                key = k1 or k2
                out[key] = out.get(key, 0.0) + coeff
                continue
            for key, w in _wick_reference(k1, k2):
                out[key] = out.get(key, 0.0) + coeff * w
    return {key: c for key, c in out.items() if not abs(c) <= oscillator.COEFF_TOL}


def _commutator_terms_reference(t1, t2):
    def ladder_modes(t):
        return [(key, c, frozenset(m for m, j, _ in key if j),
                 frozenset(m for m, _, k in key if k)) for key, c in t.items() if key]

    out = {}
    rows = ladder_modes(t2)
    for k1, c1, create1, annihilate1 in ladder_modes(t1):
        for k2, c2, create2, annihilate2 in rows:
            forward = not annihilate1.isdisjoint(create2)
            backward = not annihilate2.isdisjoint(create1)
            if not (forward or backward):
                continue
            coeff = c1 * c2
            if forward:
                for key, w in _wick_reference(k1, k2)[1:]:
                    out[key] = out.get(key, 0.0) + coeff * w
            if backward:
                for key, w in _wick_reference(k2, k1)[1:]:
                    out[key] = out.get(key, 0.0) - coeff * w
    return {key: c for key, c in out.items() if not abs(c) <= oscillator.COEFF_TOL}


def _adjoint_terms_reference(e, t):
    bound = _degree(t) + _degree(e) + 1
    out, power = t, t
    for k in range(1, bound + 1):
        power = {key: c / k for key, c in _commutator_terms_reference(e, power).items()}
        if not power:
            return out
        out = _add_terms(out, power)
    raise RuntimeError("adjoint series failed to terminate")


def _carrier_mul_reference(a, b):
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                p = _mul_terms_reference(x, y)
                acc[j] = p if j not in acc else _add_terms(acc[j], p)
        out.append({j: acc[j] for j in sorted(acc) if acc[j]})
    return out


def _carrier_commutator_reference(a, b):
    if len(a) == 1:
        t = _commutator_terms_reference(a[0].get(0, {}), b[0].get(0, {}))
        return [{0: t} if t else {}]
    return _carrier_add(_carrier_mul_reference(a, b),
                        _carrier_neg(_carrier_mul_reference(b, a)))


def _bits(t):
    """A term dict in key order, each coefficient as the hex of its parts."""
    return [(key,) + _hex(complex(c)) for key, c in t.items()]


def _carrier_bits(a):
    return [[(j, _bits(t)) for j, t in row.items()] for row in a]


WMODES = [("w", 0, a) for a in range(4)]


@st.composite
def _monomial(draw, modes):
    """A non-scalar key on some of ``modes``, exponents 0 to 4 (a part
    ``(m, 0, 0)`` included, which the kernels carry like any other)."""
    chosen = draw(st.lists(st.sampled_from(modes), min_size=1, max_size=len(modes),
                           unique=True))
    return tuple((m, draw(st.integers(0, 4)), draw(st.integers(0, 4))) for m in sorted(chosen))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 4), st.booleans())
def test_wick_expansion_matches_the_comb_factorial_reference(data, k, disjoint):
    modes = WMODES[:k]
    k1 = data.draw(_monomial(modes))
    k2 = data.draw(_monomial([m for m in modes if m not in {p[0] for p in k1}]
                             if disjoint and len(k1) < k else modes))
    want = _wick_reference(k1, k2)
    got = _wick(k1, k2)
    assert [(key, w.hex()) for key, w in got] == [(key, w.hex()) for key, w in want]
    # the contraction-free monomial comes first, with weight 1: the
    # commutator kernel leaves it out of both orders of a pair
    exps = {}
    for m, j, a in k1 + k2:
        jm, am = exps.get(m, (0, 0))
        exps[m] = (jm + j, am + a)
    assert got[0] == (tuple((m,) + exps[m] for m in sorted(exps)), 1.0)
    assert oscillator._WICK[k1, k2] is got


def _random_carrier(draw, d, modes):
    """A random ``d x d`` carrier: each entry empty, a random operator, a
    scalar, or (rarely) one with a NaN or an infinite coefficient; at
    ``d > 1`` also exactly the zero or the identity matrix."""
    kind = draw(st.sampled_from(["entries"] * 6 + ["zero", "identity"]))
    if kind == "zero":
        return [{} for _ in range(d)]
    if kind == "identity":
        return [{i: {(): 1.0}} for i in range(d)]
    entry = st.one_of(st.just(Op.zero()), _hyp_op(modes, twins=2),
                      st.builds(Op.scalar, COEFFS))
    mat = [[draw(entry) for _ in range(d)] for _ in range(d)]
    if draw(st.integers(0, 9)) == 0:
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        bad = draw(st.sampled_from([complex(NAN, 0.0), complex(math.inf, 1.0)]))
        mat[i][j] = Op._of({**mat[i][j].terms, (): bad})
    return CarrierOp(d, mat)._terms()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3))
def test_kernels_match_their_references_bitwise(data, k, d):
    modes = HMODES[:k]
    x = data.draw(_hyp_op(modes, twins=2)).terms
    y = data.draw(_hyp_op(modes, twins=2)).terms
    assert _bits(_mul_terms(x, y)) == _bits(_mul_terms_reference(x, y))
    assert _bits(_commutator_terms(x, y)) == _bits(_commutator_terms_reference(x, y))
    # creators only, as the fusion exponents, or annihilators only: ad_e ends
    side = data.draw(st.sampled_from([1, 2]))
    e = {key: c for key, c in data.draw(_hyp_op(modes)).terms.items()
         if all(part[side] == 0 for part in key)}
    assert _bits(_adjoint_terms(e, x)) == _bits(_adjoint_terms_reference(e, x))
    a = _random_carrier(data.draw, d, modes)
    b = _random_carrier(data.draw, d, modes)
    assert _carrier_bits(_carrier_commutator(a, b)) == \
        _carrier_bits(_carrier_commutator_reference(a, b))


# -- central carrier operands ---------------------------------------------------------

def _no_expansion(monkeypatch):
    def fail(*args):
        raise AssertionError("a central operand was expanded")
    monkeypatch.setattr(oscillator, "_commutator_terms", fail)
    monkeypatch.setattr(oscillator, "_carrier_mul", fail)


@pytest.mark.parametrize("d", [1, 3])
def test_zero_and_identity_operands_give_no_terms_without_expansion(d, monkeypatch):
    x = bd(M1) * b(M2) + 0.3 * Op.number(M1) + Op.scalar(0.5 - 0.2j)
    other = CarrierOp(d, [[x if (i + j) % 2 == 0 else b(M2) for j in range(d)]
                          for i in range(d)])._terms()
    central = [CarrierOp(d)._terms(), CarrierOp.identity(d)._terms()]
    want = [_carrier_commutator_reference(c, other) for c in central]
    assert all(not any(w) for w in want)
    _no_expansion(monkeypatch)
    for c in central:
        assert _carrier_commutator(c, other) == [{} for _ in range(d)]
        assert _carrier_commutator(other, c) == [{} for _ in range(d)]
        assert _carrier_commutator(c, c) == [{} for _ in range(d)]


def test_a_scalar_operand_of_a_one_dimensional_carrier_is_central(monkeypatch):
    s = CarrierOp.from_scalar_op(Op.scalar(complex(NAN, 0.0)))._terms()
    y = CarrierOp.from_scalar_op(b() * bd())._terms()
    _no_expansion(monkeypatch)
    assert _carrier_commutator(s, y) == [{}]
    assert _carrier_commutator(y, s) == [{}]


def test_matrix_units_do_not_commute():
    e12 = CarrierOp.matrix_unit(3, 0, 1)._terms()
    e21 = CarrierOp.matrix_unit(3, 1, 0)._terms()
    assert _carrier_commutator(e12, e21) == [{0: {(): 1.0}}, {1: {(): -1.0}}, {}]
    # scalar-valued, but not the identity
    diag = CarrierOp(3, [[Op.scalar(1.0 if i == j else 0.0) for j in range(3)]
                         for i in range(3)])
    diag.mat[1][1] = Op.scalar(2.0)
    assert _carrier_commutator(diag._terms(), e12) == [{1: {(): -1.0}}, {}, {}]


@pytest.mark.parametrize("bad", [complex(NAN, 0.0), complex(0.0, NAN), complex(math.inf, 0.0)])
def test_the_identity_against_a_non_finite_coefficient_is_expanded(bad):
    other = CarrierOp(3, [[bd(M1) if i == j else Op.zero() for j in range(3)]
                          for i in range(3)])
    other.mat[2][0] = Op({((M2, 0, 1),): bad})
    ident = CarrierOp.identity(3)._terms()
    for got, want in [(_carrier_commutator(ident, other._terms()),
                       _carrier_commutator_reference(ident, other._terms())),
                      (_carrier_commutator(other._terms(), ident),
                       _carrier_commutator_reference(other._terms(), ident))]:
        assert _carrier_bits(got) == _carrier_bits(want)
        assert math.isnan(_carrier_max_coeff(got))
    # a NaN on the identity's own diagonal makes it no identity
    nan_diag = CarrierOp.identity(3)
    nan_diag.mat[1][1] = Op.scalar(complex(NAN, 0.0))
    e12 = CarrierOp.matrix_unit(3, 1, 2)._terms()
    assert math.isnan(_carrier_max_coeff(_carrier_commutator(nan_diag._terms(), e12)))


# -- what COEFF_TOL drops in the exact carrier checks -----------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_carrier_checks_drop_only_rounding_dust(n, monkeypatch, capsys):
    """Every coefficient that a product, sum or commutator drops while the
    carrier suites run is at most 1e-15, three orders below their gate of
    1e-12, so the drop cannot decide a record.  A dropped coefficient is one
    that the kernel, run again with nothing dropped, gives and the kernel
    leaves out; exact zeros do not count.  At n = 2, 3, 4 and seeds 0, 1 the
    suites drop 217 coefficients, the largest 4.4e-16."""
    from qlab.cli import main
    drops = []

    def recording(kernel):
        def wrapped(*args):
            kept = kernel(*args)
            with monkeypatch.context() as m:
                m.setattr(oscillator, "COEFF_TOL", -1.0)
                full = kernel(*args)
            drops.extend(abs(c) for key, c in full.items() if key not in kept and c != 0)
            return kept
        return wrapped

    for name in ("_add_terms", "_mul_terms", "_commutator_terms"):
        monkeypatch.setattr(oscillator, name, recording(getattr(oscillator, name)))
    for seed in (0, 1):
        assert main(["verify", "--n", str(n), "--L", "1", "--seed", str(seed),
                     "--suite", "rll,fusion,factorization"]) == 0
    capsys.readouterr()
    assert drops  # the wrappers saw the kernels
    assert max(drops) <= 1e-15
