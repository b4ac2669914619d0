import cmath
import itertools
import math

import numpy as np
import pytest

from qlab import transfer
from qlab.glrep import GlRep, dot_action_orbit, fundamental_rep, trivial_rep, verma_rep
from qlab.lax import canonical_lax
from qlab.oscillator import COEFF_TOL, CarrierOp, FockSpace, NormalOrderedOp as Op, \
    _carrier_trace, _mode_factor, _worst, extrapolated_traces, fock_matrix, weighted_trace
from qlab.tensor import Blocks, sector_layout
from qlab.transfer import (
    TwistConfig, _alternating_sum_at, _signed_members,
    bgg_eigen_check, build_Q, build_Qs, build_T_box, build_X, build_X_plus, build_twist_D,
)

TW2 = TwistConfig((0.7, -0.7))
TW3 = TwistConfig((0.7, -0.4, -0.3))
TW4 = TwistConfig((0.9, 0.4, -0.5, -0.8))
TWISTS = {2: TW2, 3: TW3, 4: TW4}
# twists whose weights e^{-i(phi_a - phi_b)} are off the unit circle
TW2_COMPLEX = TwistConfig((0.7 - 0.075j, -0.7 + 0.075j))
TW3_COMPLEX = TwistConfig((0.7 - 0.15j, -0.4 + 0j, -0.3 + 0.15j))


def brute_force_member(n, length, index_set, rep, twist, z):
    """Dense family member at one point: every pair of configurations (no
    sector filter), the Lax entries evaluated at ``z`` and multiplied site by
    site, then traced against the twist."""
    dim = n ** length
    if not index_set:
        return np.eye(dim, dtype=complex)
    lax = canonical_lax(n, index_set, rep)
    D = build_twist_D(n, index_set, rep, twist)
    blocks = lax.at(z)
    states = list(itertools.product(range(n), repeat=length))
    out = np.zeros((dim, dim), dtype=complex)
    for row, istr in enumerate(states):
        for col, jstr in enumerate(states):
            op = CarrierOp.identity(lax.d)
            for i, j in zip(istr, jstr):
                op = op * blocks[i][j]
            out[row, col] = _carrier_trace(op._terms(), D.carrier_weights, D.q,
                                           D.plain_modes, {})
    sigma = sum(twist.phi(a) for a in index_set)
    return out * cmath.exp(1j * z * sigma)


def member_case(n, carrier):
    """Index set and carrier of one member kind at ``n`` letters."""
    full = tuple(range(1, n + 1))
    if carrier == "empty":
        return (), trivial_rep(())
    if carrier == "trivial":
        I = (1,) if n == 2 else (1, 2)
        return I, trivial_rep(I)
    if carrier == "defining":
        return full, fundamental_rep(full)
    return (1, 2), verma_rep((0.4, -0.1), labels=(1, 2), tag="v")


# -- twist configuration ---------------------------------------------------------

def test_twist_must_sum_to_zero():
    with pytest.raises(ValueError):
        TwistConfig((0.5, 0.1))


def test_degenerate_twist_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        build_Q(3, 1, (1,), TwistConfig((0.4, 0.4, -0.8)))


# -- boundary twist operator -----------------------------------------------------

def _conjugation_residual(D, L, twist, z):
    """Largest coefficient of ``D L_ab D⁻¹ − e^{i(φ_b − φ_a)} L_ab`` at ``z``, exactly.

    ``D x D⁻¹`` multiplies a monomial ``Π (B†)^j B^k`` of carrier entry
    ``(r, s)`` by ``w_r / w_s · Π q_m^{j−k}``, with weight 1 on a mode that
    has none, so no matrix is built.
    """
    w = D.carrier_weights

    def deviation(a, b, entries):
        phase = cmath.exp(1j * (twist.phi(b) - twist.phi(a)))
        return _worst(
            abs(c * (w[r] / w[s] * math.prod(D.q.get(m, 1.0) ** (j - k)
                                             for m, j, k in key) - phase))
            for r, row in enumerate(entries.mat) for s, e in enumerate(row)
            for key, c in e.terms.items())

    return _worst(deviation(a, b, entries) for a, row in enumerate(L.at(z), 1)
                  for b, entries in enumerate(row, 1))


def test_twist_full_set_is_diagonal_phase_matrix():
    rep = fundamental_rep((1, 2, 3))
    D = build_twist_D(3, (1, 2, 3), rep, TW3)
    assert D.carrier_weights == tuple(cmath.exp(1j * p) for p in TW3.phis)
    assert not D.q and not D.plain_modes


def test_twist_single_index_is_pure_oscillator():
    D = build_twist_D(3, (2,), trivial_rep((2,)), TW3)
    assert D.carrier_weights == (1.0,)
    assert set(D.q) == {("o", 2, 1), ("o", 2, 3)}
    assert D.q[("o", 2, 1)] == pytest.approx(cmath.exp(-1j * (TW3.phi(2) - TW3.phi(1))))
    assert not D.plain_modes


@pytest.mark.parametrize("rep_kind", ["verma", "fundamental"])
def test_twist_conjugation_property(rep_kind):
    if rep_kind == "verma":
        rep = verma_rep((0.4, -0.2), labels=(1, 2), tag="v")
    else:
        rep = fundamental_rep((1, 2))
    D = build_twist_D(3, (1, 2), rep, TW3)
    L = canonical_lax(3, (1, 2), rep)
    assert _conjugation_residual(D, L, TW3, 0.37) < 1e-12
    # one outer weight turned by 1e-9
    mode = ("o", 1, 3)
    D.q[mode] *= cmath.exp(1e-9j)
    assert 5e-10 < _conjugation_residual(D, L, TW3, 0.37) < 1e-8


def test_twist_conjugation_agrees_with_the_fock_route():
    # D as the diagonal matrix of its weights on a truncated Fock space, and
    # the largest entry of D L_ab D^-1 - e^{i(phi_b - phi_a)} L_ab
    rep = verma_rep((0.4, -0.2), labels=(1, 2), tag="v")
    L = canonical_lax(3, (1, 2), rep)

    def fock_route(D):
        lax_modes = {m for cm in (L.c0, L.c1) for row in cm for op in row
                     for r in op.mat for e in r for key in e.terms for m, _, _ in key}
        space = FockSpace(sorted(lax_modes | set(D.q)), 5)
        w = np.array([D.q.get(m, 1.0) for m in space.modes], dtype=complex)
        d = np.kron(D.carrier_weights, np.prod(w ** space.occ, axis=1))
        worst = 0.0
        for a, row in enumerate(L.at(0.37), 1):
            for b, entry in enumerate(row, 1):
                m = fock_matrix(entry, space).toarray()
                phase = cmath.exp(1j * (TW3.phi(b) - TW3.phi(a)))
                worst = max(worst, np.max(np.abs(d[:, None] * m / d[None, :] - phase * m)))
        return worst

    D = build_twist_D(3, (1, 2), rep, TW3)
    assert _conjugation_residual(D, L, TW3, 0.37) < 1e-12
    assert fock_route(D) < 1e-12
    D.q[("o", 2, 3)] *= cmath.exp(1e-9j)
    assert 5e-10 < _conjugation_residual(D, L, TW3, 0.37) < 1e-8
    assert 5e-10 < fock_route(D) < 1e-7


# -- trivial anchors -------------------------------------------------------------

@pytest.mark.parametrize("n,tw", [(2, TW2), (3, TW3)])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_trivial_q_anchors(n, tw, L):
    dim = n ** L
    q_empty = build_Q(n, L, (), tw)
    assert np.max(np.abs(q_empty.at(0.41).to_dense() - np.eye(dim))) < 1e-13
    q_full = build_Q(n, L, tuple(range(1, n + 1)), tw)
    assert abs(q_full.sigma) < 1e-13
    for z in (0.83, -0.27):
        diff = q_full.at(z).to_dense() - z ** L * np.eye(dim)
        assert np.max(np.abs(diff)) < 1e-13


# -- closed-form one-site oracles -----------------------------------------------

def test_one_site_single_index_q_closed_form():
    q1 = build_Q(2, 1, (1,), TW2)
    assert q1.sigma == pytest.approx(TW2.phi(1))
    g = cmath.exp(-1j * (TW2.phi(1) - TW2.phi(2)))
    pole = g / (1 - g)
    for z in (0.83, -0.4):
        expect = np.diag([z - 0.5 - pole, 1.0])
        expect = expect * cmath.exp(1j * z * q1.sigma)
        assert np.max(np.abs(q1.at(z).to_dense() - expect)) < 1e-13


def test_one_site_box_transfer_closed_form():
    tb = build_T_box(2, 1, TW2)
    w1, w2 = cmath.exp(1j * TW2.phi(1)), cmath.exp(1j * TW2.phi(2))
    for z in (0.83, -0.4):
        expect = np.diag([w1 * (z + 1) + w2 * z, w1 * z + w2 * (z + 1)])
        assert np.max(np.abs(tb.at(z).to_dense() - expect)) < 1e-13


def test_degree_equals_chain_length():
    tb = build_T_box(2, 3, TW2)
    assert tb.coeffs.count - 1 == 3
    assert tb.coeffs[3].norms()[0] > 0.1


# -- monodromy entry expansion ---------------------------------------------------

def test_sector_filter_matches_direct_expansion():
    # the build expands only pairs inside one letter-count sector; the
    # unfiltered expansion must vanish outside the sectors and agree inside
    rep = trivial_rep((1,))
    ref = brute_force_member(2, 2, (1,), rep, TW2, 0.41)
    sector = np.array([[sum(s) == sum(t) for t in itertools.product(range(2), repeat=2)]
                       for s in itertools.product(range(2), repeat=2)])
    assert np.max(np.abs(ref[~sector])) < 1e-14
    a = build_X(2, 2, (1,), rep, TW2).at(0.41).to_dense()
    assert np.max(np.abs(a - ref)) < 1e-14


@pytest.mark.parametrize("carrier", ["empty", "trivial", "defining", "highest-weight"])
@pytest.mark.parametrize("n,L", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
                                 (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_exact_build_matches_brute_force(n, L, carrier):
    I, rep = member_case(n, carrier)
    poly = build_X(n, L, I, rep, TWISTS[n])
    for z in (0.37, -0.81 + 0.2j):
        ref = brute_force_member(n, L, I, rep, TWISTS[n], z)
        diff = np.max(np.abs(poly.at(z).to_dense() - ref))
        assert diff <= 1e-13 * np.max(np.abs(ref))


def short_orbit_pairs(n, length):
    """Index pairs whose simultaneous cyclic rotation closes before ``length``
    steps, such as (1,2,1,2)/(2,1,2,1) or (a,a,a)/(a,a,a)."""
    states = list(itertools.product(range(n), repeat=length))
    return [(row, col) for row, s in enumerate(states) for col, t in enumerate(states)
            if any(s[k:] + s[:k] == s and t[k:] + t[:k] == t for k in range(1, length))]


@pytest.mark.parametrize("carrier", ["empty", "trivial", "defining", "highest-weight"])
@pytest.mark.parametrize("n,L,twist", [(2, 4, TW2), (3, 3, TW3), (2, 1, TW2), (3, 1, TW3),
                                       (2, 4, TW2_COMPLEX)])
def test_short_orbits_match_brute_force(n, L, twist, carrier):
    # the build expands one pair per rotation orbit; orbits of periodic pairs
    # close early and must still be written once, with the right phase
    I, rep = member_case(n, carrier)
    poly = build_X(n, L, I, rep, twist)
    short = tuple(np.array(short_orbit_pairs(n, L)).reshape(-1, 2).T)
    for z in (0.37, -0.81 + 0.2j):
        ref = brute_force_member(n, L, I, rep, twist, z)
        got = poly.at(z).to_dense()
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale
        if L > 1:
            assert np.max(np.abs(ref[short])) > 0.1
            assert np.max(np.abs(got[short] - ref[short])) <= 1e-13 * scale


# -- the build as it was written on operator objects, with their arithmetic -------

def reference_accumulate_product(k1, k2, coeff, out):
    """Normal-order a product of two monomials into ``out``, per shared mode
    ``B^k B†^j = sum_i i! C(k,i) C(j,i) B†^{j-i} B^{k-i}``."""
    if not k1 or not k2:
        key = k1 or k2
        out[key] = out.get(key, 0.0) + coeff
        return
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
    for key, w in partial:
        out[key] = out.get(key, 0.0) + coeff * w


def reference_kept(terms):
    return {key: complex(c) for key, c in terms.items() if abs(complex(c)) > COEFF_TOL}


def reference_sum(x, y):
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0.0) + c
    return reference_kept(out)


def reference_carrier_product(a, b):
    """Dense ``d x d`` matrices of term dicts; only products of two non-empty
    entries are formed."""
    d = len(a)
    out = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        row = [(k, x) for k, x in enumerate(a[i]) if x]
        for j in range(d):
            acc = None
            for k, x in row:
                if b[k][j]:
                    p = {}
                    for k1, c1 in x.items():
                        for k2, c2 in b[k][j].items():
                            reference_accumulate_product(k1, k2, c1 * c2, p)
                    p = reference_kept(p)
                    acc = p if acc is None else reference_sum(acc, p)
            if acc is not None:
                out[i][j] = acc
    return out


def reference_trace(x, q, plain_modes):
    total = 0.0 + 0.0j
    for key, c in x.items():
        seen = set()
        f = c
        for mode, j, k in key:
            f *= _mode_factor(j, k, q[mode], mode in plain_modes)
            if f == 0.0:
                break
            seen.add(mode)
        else:
            for mode in plain_modes:
                if mode not in seen:
                    f *= 1.0 / (1.0 - q[mode])
            total += f
    return total


def reference_monodromy(n, length, lax, D, twist):
    """The ``z^k`` coefficients of the twisted monodromy trace, expanded on
    dense carrier matrices, one orbit of simultaneous rotation walked per
    member: the build as it stood before it moved to a shared orbit plan and
    the dict-level helpers of ``qlab.oscillator``."""
    from qlab.tensor import sector_states, state_index
    entries = [[[(k, None if c.is_identity() else [[e.terms for e in r] for r in c.mat])
                 for k, c in ((0, lax.c1[i][j]), (1, lax.c0[i][j])) if not c.is_zero()]
                for j in range(lax.n)] for i in range(lax.n)]
    ident = [[{(): 1.0 + 0.0j} if i == j else {} for j in range(lax.d)]
             for i in range(lax.d)]
    step = [[cmath.exp(1j * (t - s)) for t in twist.phis] for s in twist.phis]
    dim, top = n ** length, n ** max(length - 1, 0)
    keys = [[] for _ in range(length + 1)]
    vals = [[] for _ in range(length + 1)]
    pending = {}
    for states in sector_states(n, length).values():
        for istr in states:
            row = state_index(istr, n)
            for jstr in states:
                col = state_index(jstr, n)
                traced = pending.pop((row, col), None)
                if traced is None:
                    first = entries[istr[0]][jstr[0]] if length else [(0, None)]
                    graded = {k: ident if c is None else c for k, c in first}
                    for i, j in zip(istr[1:], jstr[1:]):
                        if not graded:
                            break
                        nxt = {}
                        for k, p in graded.items():
                            for shift, c in entries[i][j]:
                                term = p if c is None else reference_carrier_product(p, c)
                                key = k + shift
                                nxt[key] = term if key not in nxt else [
                                    [reference_sum(x, y) for x, y in zip(rx, ry)]
                                    for rx, ry in zip(nxt[key], term)]
                        graded = nxt
                    traced = [(k, sum(D.carrier_weights[i]
                                      * reference_trace(p[i][i], D.q, D.plain_modes)
                                      for i in range(lax.d)))
                              for k, p in graded.items()]
                    r, c, phase = row, col, 1.0
                    while True:
                        phase *= step[r % n][c % n]
                        r, c = (r % n) * top + r // n, (c % n) * top + c // n
                        if (r, c) == (row, col):
                            break
                        pending[(r, c)] = [(k, phase * val) for k, val in traced]
                for k, val in traced:
                    keys[k].append(row * dim + col)
                    vals[k].append(val)
    out = np.zeros((length + 1, dim * dim), dtype=complex)
    for k, (kk, vv) in enumerate(zip(keys, vals)):
        # each entry starts from 0.0, as the scatter starts it
        out[k, kk] += vv
    return out.reshape(length + 1, dim, dim)


def family_cases(n):
    """Every trivial-carrier member, T_box, the dot-orbit highest-weight
    members and one two-index highest-weight member, as (index set, carrier)."""
    full = tuple(range(1, n + 1))
    cases = [(I, trivial_rep(I)) for r in range(1, n + 1)
             for I in itertools.combinations(full, r)]
    cases.append((full, fundamental_rep(full)))
    cases += [(full, verma_rep(tuple(w), labels=full, tag="v"))
              for _, w in dot_action_orbit((1.0,) + (0.0,) * (n - 1))]
    cases.append(((1, 2), verma_rep((0.4, -0.1), labels=(1, 2), tag="v")))
    return cases


@pytest.mark.parametrize("n,L,twist", [
    (2, 0, TW2), (3, 0, TW3), (2, 1, TW2), (3, 1, TW3), (4, 1, TW4),
    (3, 4, TW3), (4, 3, TW4), (2, 5, TW2),
    (2, 4, TW2), (3, 3, TW3), (2, 4, TW2_COMPLEX), (3, 3, TW3_COMPLEX)])
def test_build_matches_the_object_reference_bitwise(n, L, twist):
    # the same value bits, coefficient by coefficient, for every member
    # kind; (2,4) and (3,3) hold short orbits.  The trivial-carrier members
    # built all at once, one expansion per size, are each the one-set build
    # of the same function, and match their own expansion: bit for bit for
    # the first set of each size, and within 4 eps of each coefficient's
    # largest entry for the others, whose values are read off another pair
    # of their orbit and divided by its phase
    cases = family_cases(n)
    shared = build_Qs(n, L, [I for I, rep in cases if rep.kind == "trivial"], twist)
    for I, rep in cases:
        lax = canonical_lax(n, I, rep)
        D = build_twist_D(n, I, rep, twist)
        own = build_X(n, L, I, rep, twist)
        got = own.coeffs
        want = reference_monodromy(n, L, lax, D, twist)
        assert got.count == len(want) == L + 1
        for k, w in enumerate(want):
            assert got[k].to_dense().tobytes() == w.tobytes()
        if rep.kind != "trivial":
            continue
        member, alone = shared[I], build_Q(n, L, I, twist)
        assert member.sigma == alone.sigma == own.sigma
        for k, w in enumerate(want):
            dense = member.coeffs[k].to_dense()
            assert dense.tobytes() == alone.coeffs[k].to_dense().tobytes()
            if I == tuple(range(1, len(I) + 1)):
                assert dense.tobytes() == w.tobytes()
            else:
                assert np.max(np.abs(dense - w)) <= 4 * np.finfo(float).eps * np.max(np.abs(w))


def scalar_carrier(labels, value):
    """gl(p) acting by ``value`` on a one-dimensional carrier: on the full
    set its Lax matrix holds no ladder monomial."""
    gens = {(a, b): CarrierOp.from_scalar_op(Op.scalar(value) if a == b else Op.zero())
            for a in labels for b in labels}
    return GlRep(tuple(labels), 1, gens, {a: value for a in labels}, "scalar")


@pytest.mark.parametrize("n,L,twist", [(2, 4, TW2), (3, 3, TW3), (3, 2, TW3_COMPLEX)])
def test_mode_free_build_takes_integers_and_refuses_the_rest(n, L, twist):
    # the mode-free build is exact only because every coefficient is an
    # integer: integers of either sign build the reference's bits, and any
    # other coefficient is refused rather than rounded
    full = tuple(range(1, n + 1))
    for value in (2.0, -1.0):
        rep = scalar_carrier(full, value)
        want = reference_monodromy(n, L, canonical_lax(n, full, rep),
                                   build_twist_D(n, full, rep, twist), twist)
        got = build_X(n, L, full, rep, twist).coeffs
        assert all(got[k].to_dense().tobytes() == w.tobytes() for k, w in enumerate(want))
    for value in (0.5, 1.0 + 1e-15, 2.0 + 1.0j, math.nan):
        with pytest.raises(ValueError, match="not an integer"):
            build_X(n, L, full, scalar_carrier(full, value), twist)


def test_degenerate_twist_is_named_alike_by_the_shared_build():
    # letters 1 and 3 share a phase; the shared build names them as each
    # set's one-set build does, not by the letters of the set 1..p it expands
    tw = TwistConfig((0.5, -1.0, 0.5))
    sets = [I for r in (1, 2) for I in itertools.combinations((1, 2, 3), r)]
    with pytest.raises(ValueError, match=r"letters \(1, 3\) coincide"):
        build_Qs(3, 2, sets, tw)
    raised = []
    for I in sets:
        try:
            build_X(3, 2, I, trivial_rep(I), tw)
        except ValueError as exc:
            raised.append(I)
            with pytest.raises(ValueError) as shared:
                build_Qs(3, 2, [I], tw)
            assert str(shared.value) == str(exc)
        else:
            build_Qs(3, 2, [I], tw)
    assert raised == [(1,), (3,), (1, 2), (2, 3)]


@pytest.mark.parametrize("n,L", [(3, 3), (4, 3)])
def test_a_wrong_relabelling_fails_the_shared_build(n, L, monkeypatch):
    # negative control: the sets of one size read their entries through the
    # relabelling sigma; one that swaps its last two letters puts a
    # relabelled set's values on the wrong pairs, and every quadrilateral
    # relation reads such a set, since I+a and I+b are not both 1..p
    from qlab.relations import QFamily, enumerate_hasse, hirota_residual
    tw = TWISTS[n]
    hasse = enumerate_hasse(n)

    def residuals():
        qf = QFamily(n, L, tw)
        return [hirota_residual(qf, I, a, b)
                for I, a, b in hasse.quadrilaterals]

    assert max(residuals()) < 1e-10
    relabelled = transfer._relabelled
    monkeypatch.setattr(transfer, "_relabelled", lambda indices, sigma, n, length: relabelled(
        indices, sigma[:-2] + sigma[:-3:-1], n, length))
    assert min(residuals()) > 1e-6


def twisted_shift(n, length, twist):
    """``|s> -> e^{-i phi_{s_L}} |s_L s_1 .. s_{L-1}>``: site L moved to site 1."""
    states = list(itertools.product(range(n), repeat=length))
    index = {s: k for k, s in enumerate(states)}
    U = np.zeros((n ** length, n ** length), dtype=complex)
    for col, s in enumerate(states):
        U[index[s[-1:] + s[:-1]], col] = cmath.exp(-1j * twist.phi(s[-1] + 1))
    return U


@pytest.mark.parametrize("n,L", [(3, 3), (2, 4)])
def test_family_commutes_with_twisted_shift(n, L):
    tw = TWISTS[n]
    members = [build_Q(n, L, I, tw) for r in range(n + 1)
               for I in itertools.combinations(range(1, n + 1), r)]
    members += [build_T_box(n, L, tw),
                build_X_plus(n, L, (1, 2), (0.4, -0.1), tw),
                build_X_plus(n, L, range(1, n + 1), (1.0,) + (0.0,) * (n - 1), tw)]
    U = twisted_shift(n, L, tw)
    for member in members:
        for k in range(member.coeffs.count):
            m = member.coeffs[k].to_dense()
            assert np.max(np.abs(U @ m - m @ U)) <= 1e-13 * np.max(np.abs(m))


# -- commuting family and conservation -------------------------------------------

def test_family_members_commute_pairwise():
    ops = [build_Q(3, 2, I, TW3).at(0.3)
           for I in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]]
    ops.append(build_T_box(3, 2, TW3).at(-0.52))
    ops.append(build_Q(3, 2, (1, 2), TW3).at(-1.1))
    dense = [op.to_dense() for op in ops]
    worst = max(np.max(np.abs(x @ y - y @ x)) for i, x in enumerate(dense)
                for y in dense[i + 1:])
    assert worst < 1e-10


def test_a_member_reads_as_a_dense_matrix():
    # a member at one point is a (dim, dim) matrix, zero off the sector
    # blocks and equal to the matrix assembled from its blocks
    member = build_Q(3, 2, (1,), TW3).at(0.3)
    got = member.to_dense()
    assert got.shape == (9, 9) and got.dtype == complex
    layout = sector_layout(3, 2)
    want = np.zeros((9, 9), dtype=complex)
    for label, idx in zip(layout.labels, layout.sectors):
        g, i = layout.slot[label]
        want[np.ix_(idx, idx)] = member.group_stack(g)[i, 0]
    assert got.tobytes() == want.tobytes()
    same_sector = layout.sector[:, None] == layout.sector[None, :]
    assert not got[~same_sector].any() and np.abs(got[same_sector]).max() > 0.1


def test_family_conserves_letter_counts():
    q = build_Q(3, 2, (1, 3), TW3).at(0.3).to_dense()
    t = build_T_box(3, 2, TW3).at(0.3).to_dense()
    states = list(itertools.product(range(3), repeat=2))
    for a in (1, 2, 3):
        # total count of letter a across the chain, diagonal in the basis
        N = np.diag([float(s.count(a - 1)) for s in states])
        assert np.max(np.abs(q @ N - N @ q)) < 1e-12
        assert np.max(np.abs(t @ N - N @ t)) < 1e-12


def test_sector_eigenvalue_degree():
    # on the (m1, m2) sector the single-index polynomial has degree m1
    q1 = build_Q(2, 2, (1,), TW2)
    # state |22> (index 3) lies in sector (0,2): constant eigenvalue
    assert abs(q1.coeffs[1].to_dense()[3, 3]) < 1e-12
    assert abs(q1.coeffs[0].to_dense()[3, 3] - 1.0) < 1e-10
    # state |11> (index 0) lies in sector (2,0): monic degree-2 eigenvalue
    assert abs(q1.coeffs[2].to_dense()[0, 0] - 1.0) < 1e-10


# -- hybrid operators with highest-weight carriers --------------------------------

def test_x_plus_matches_x_for_dominant_weight_after_alternation():
    # one-site exactness of the alternating resolution without any damping
    z = 0.83
    alt = _alternating_sum_at(_signed_members(2, 1, (1.0, 0.0), TW2), z).to_dense()
    ref = build_T_box(2, 1, TW2).at(z).to_dense()
    assert np.max(np.abs(alt - ref)) < 1e-12


def test_trivial_weight_alternation_telescopes():
    # weight (0,0): the finite carrier is trivial, so the signed sum must
    # collapse onto the trivial-carrier transfer operator
    z = 0.4
    alt = _alternating_sum_at(_signed_members(2, 1, (0.0, 0.0), TW2), z).to_dense()
    ref = build_X(2, 1, (1, 2), trivial_rep((1, 2)), TW2).at(z).to_dense()
    assert np.max(np.abs(alt - ref)) < 1e-12


@pytest.mark.parametrize("L", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bgg_undamped_residual(n, L):
    # worst measured: 9.5e-13 at (3,2)
    assert bgg_eigen_check(n, L, (1.0,) + (0.0,) * (n - 1), TWISTS[n]) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bgg_detects_a_perturbed_member(n, monkeypatch):
    # one polynomial coefficient of one signed member, off by 1e-4 relative,
    # must take the residual over the suite's 1e-6 gate
    signed_members = transfer._signed_members

    def perturbed(*args):
        members = signed_members(*args)
        poly = members[0][1]
        poly.coeffs = Blocks.join([poly.coeffs[0] * (1 + 1e-4), poly.coeffs[1:]])
        return members

    monkeypatch.setattr(transfer, "_signed_members", perturbed)
    assert bgg_eigen_check(n, 2, (1.0,) + (0.0,) * (n - 1), TWISTS[n]) > 1e-6


def test_x_plus_commutes_with_q():
    xp = build_X_plus(3, 2, (1, 2), (0.4, -0.1), TW3_COMPLEX)
    q = build_Q(3, 2, (1, 2), TW3_COMPLEX)
    x, y = xp.at(0.3).to_dense(), q.at(-0.7).to_dense()
    assert np.max(np.abs(x @ y - y @ x)) < 1e-10


# -- polynomial plumbing ---------------------------------------------------------

def test_fit_recovers_known_polynomial():
    # the built coefficients are the exact polynomial: of degree L, and equal
    # to the direct expansion also far outside the unit interval
    rep = verma_rep((0.4, -0.1), labels=(1, 2), tag="v")
    poly = build_X(3, 2, (1, 2), rep, TW3)
    assert poly.coeffs.count - 1 == 2
    for z in (2.5, -3.0 + 1.0j, 0.63):
        ref = brute_force_member(3, 2, (1, 2), rep, TW3, z)
        assert np.max(np.abs(poly.at(z).to_dense() - ref)) <= 1e-13 * np.max(np.abs(ref))


# -- trace-method consistency ------------------------------------------------------

def test_closed_form_trace_agrees_with_extrapolated_numeric():
    rng = np.random.default_rng(7)
    modes = [("m", 1, 2), ("m", 2, 1)]
    qs = {modes[0]: cmath.exp(0.9j), modes[1]: cmath.exp(-1.4j)}
    for _ in range(10):
        x = Op.scalar(complex(rng.normal(), rng.normal()))
        for m in modes:
            k = int(rng.integers(0, 3))
            x = x * (Op.creator(m) ** k) * (Op.annihilator(m) ** k)
        exact = weighted_trace(x, qs)
        numeric = extrapolated_traces([x], qs)[0]
        assert abs(exact - numeric) < 1e-6
