import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlab.relations import QFamily
from qlab.tensor import Blocks, sector_layout, sector_states, state_index
from qlab.transfer import TwistConfig, build_Q, build_T_box
from qlab import spectral
from qlab.spectral import (
    EIGENBASIS_ATTEMPTS, EigenstateRecord, SpectralAnalysis, _q_value, _root_ratio,
    _root_ratios, bethe_residuals, build_hamiltonian, energy_from_roots,
    energy_from_tbox_poly, extract_q_polynomials, extract_q_polynomials_loose, poly_roots,
    simultaneous_eigenbasis, solve_bethe_newton,
)
from qlab.tensor import _product

TW2 = TwistConfig((0.7, -0.7))
TW3 = TwistConfig((0.7, -0.4, -0.3))


def bits(a):
    """The bit patterns of a complex scalar or array."""
    return np.ascontiguousarray(np.atleast_1d(a), dtype=complex).view(np.int64).tolist()


def sector_of(run, label):
    """The ``(count, s, s)`` blocks of one sector of a run."""
    g, i = run.layout.slot[label]
    return run.group_stack(g)[i]


# -- Hamiltonian ------------------------------------------------------------------

def test_zero_twist_two_site_spectrum():
    H = build_hamiltonian(2, 2, TwistConfig((0.0, 0.0)))
    assert np.allclose(np.sort(np.linalg.eigvalsh(H.to_dense()).real),
                       [0.0, 0.0, 0.0, 8.0], atol=1e-12)


def test_zero_twist_hamiltonian_hermitian():
    H = build_hamiltonian(3, 2, TwistConfig((0.0, 0.0, 0.0))).to_dense()
    assert np.max(np.abs(H - H.conj().T)) < 1e-13


def test_twisted_hamiltonian_hermitian_for_real_twist():
    H = build_hamiltonian(2, 3, TW2).to_dense()
    assert np.max(np.abs(H - H.conj().T)) < 1e-13


def test_hamiltonian_commutes_with_family():
    for H, op in [(build_hamiltonian(2, 2, TW2), build_Q(2, 2, (1,), TW2).at(0.3)),
                  (build_hamiltonian(2, 2, TW2), build_T_box(2, 2, TW2).at(0.5)),
                  (build_hamiltonian(3, 2, TW3), build_Q(3, 2, (1, 2), TW3).at(0.4)),
                  (build_hamiltonian(3, 2, TW3), build_T_box(3, 2, TW3).at(-0.6))]:
        H, op = H.to_dense(), op.to_dense()
        assert np.max(np.abs(H @ op - op @ H)) < 1e-12


def dict_hamiltonian(n, length, twist):
    """The exchange loop over a ``(row, col) -> value`` dict that
    ``build_hamiltonian`` replaced; its arithmetic must be reproduced exactly."""
    data = {(i, i): 2.0 * length + 0.0j for i in range(n ** length)}
    for s in itertools.product(range(n), repeat=length):
        si = state_index(s, n)
        for l in range(length):
            lp = (l + 1) % length
            t = list(s)
            t[l], t[lp] = t[lp], t[l]
            phase = 1.0 + 0.0j
            if lp == 0:
                phase = cmath.exp(1j * (twist.phi(s[lp] + 1) - twist.phi(s[l] + 1)))
            key = (state_index(t, n), si)
            data[key] = data.get(key, 0.0) - 2.0 * phase
    return data


@pytest.mark.parametrize("n,length,twist", [
    (2, 1, TW2), (2, 3, TW2), (3, 2, TW3), (3, 3, TwistConfig((0.5, 0.3, -0.8))),
    (4, 2, TwistConfig((0.9, 0.4, -0.5, -0.8)))])
def test_hamiltonian_matches_dict_loop_bitwise(n, length, twist):
    H = build_hamiltonian(n, length, twist)
    want = np.zeros((n ** length, n ** length), dtype=complex)
    for key, v in dict_hamiltonian(n, length, twist).items():
        want[key] = v
    assert H.count == 1 and bits(H.to_dense()) == bits(want)


def test_single_site_hamiltonian_vanishes():
    # the wrap bond coincides with the only local bond and cancels it
    assert build_hamiltonian(2, 1, TW2).norms().tolist() == [0.0]


# -- sectors ---------------------------------------------------------------------

def _sector_indices(n, length):
    """The basis indices of each letter-count sector, sectors in sorted order."""
    return [[state_index(s, n) for s in states]
            for _, states in sorted(sector_states(n, length).items())]


def test_sector_labels_and_dimensions():
    assert sorted(sector_states(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert _sector_indices(2, 2) == [[3], [1, 2], [0]]
    assert sorted(map(len, _sector_indices(3, 2))) == [1, 1, 1, 2, 2, 2]


def test_sector_blocks_reject_entries_between_sectors():
    layout = sector_layout(2, 2)
    assert [idx.tolist() for idx in layout.sectors] == _sector_indices(2, 2)
    # two operators through one scatter, each entry given for both
    rows, cols = np.array([1, 2, 3, 2, 0]), np.array([2, 1, 3, 2, 0])
    values = np.array([[2.0, 3.0j, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 5.0, 6.0]])
    run = layout.scatter(rows, cols, values)
    for label, idx in zip(layout.labels, layout.sectors):
        stack = sector_of(run, label)
        assert stack.shape == (2, len(idx), len(idx)) and stack.flags.c_contiguous
        for block, v in zip(stack, values):
            dense = np.zeros((4, 4), dtype=complex)
            dense[rows, cols] = v
            assert np.array_equal(block, dense[np.ix_(idx, idx)])
    assert np.array_equal(sector_of(run, (1, 1))[0], [[0.0, 2.0], [3.0j, 0.0]])
    assert np.array_equal(sector_of(run, (1, 1))[1], [[0.0, 0.0], [0.0, 5.0]])
    # (1, 0) couples sectors (2,0) and (1,1): no block holds it, so it is an error
    with pytest.raises(ValueError, match="outside the letter-count blocks"):
        layout.scatter(np.array([1, 1, 3]), np.array([2, 0, 3]), np.array([[2.0, 1e-3, 4.0]]))


# -- simultaneous diagonalization -------------------------------------------------

def reference_eigenbasis(blocks):
    """The per-sector eigenbasis that the group path replaced, on one
    sector's ``(p, d, d)`` blocks; the group path must give its bits."""
    count, dim = blocks.shape[:2]
    rng = np.random.default_rng(5)
    diag = np.arange(dim)
    for _ in range(EIGENBASIS_ATTEMPTS):
        coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
        comb = _product(blocks, coeffs[:, None, None]).sum(axis=0)
        _, v = np.linalg.eig(comb)
        vinv = np.linalg.inv(v)
        m = vinv @ blocks @ v
        eigs = m[:, diag, diag]
        size = np.abs(m)
        scale = np.fmax(1.0, size.max(axis=(1, 2)))
        size[:, diag, diag] = 0.0
        if not (size.max(axis=(1, 2)) > 1e-8 * scale).any():
            return v, vinv, eigs
    raise RuntimeError("no common eigenbasis found")


def reference_polys(blocks, v, vinv, degree=None):
    """One sector's eigenvalue polynomials as the per-sector path formed
    them, checked and made monic when ``degree`` is given."""
    polys = np.diagonal(vinv @ blocks @ v, axis1=1, axis2=2).T
    if degree is None:
        return polys
    if (np.abs(polys[:, degree + 1:]).max(axis=1, initial=0.0) > 1e-8).any():
        raise ValueError("eigenvalue polynomial exceeds the sector degree")
    polys = polys[:, :degree + 1].copy()
    if (np.abs(polys[:, -1] - 1.0) > 1e-8).any():
        raise ValueError("eigenvalue polynomial is not monic")
    polys[:, -1] = 1.0
    return polys


def reference_sector_records(sa, m):
    """The records of sector ``m`` as the per-sector pipeline made them."""
    stack = np.ascontiguousarray(sector_of(sa._run, m))
    v, vinv, eigs = reference_eigenbasis(stack[sa._probes])
    roots = [poly_roots(reference_polys(stack[part], v, vinv, sum(m[a - 1] for a in I)))
             for I, part in zip(sa.sets, sa._members)]
    bethe = bethe_residuals(roots, [sa.q_polys[I].sigma for I in sa.sets])
    e_tbox = energy_from_tbox_poly(reference_polys(stack[sa._members[-1]], v, vinv),
                                   sa.length)
    return [EigenstateRecord(m, s, e, [r[s] for r in roots], [b[s] for b in bethe],
                             e_roots, e_t)
            for s, (e, e_roots, e_t) in enumerate(
                zip(eigs[0].tolist(), energy_from_roots(roots[-2]), e_tbox))]


@pytest.mark.parametrize("n,length", [(n, length) for n in (2, 3, 4) for length in (2, 3, 4)])
def test_group_records_match_the_per_sector_pipeline_bitwise(n, length):
    sa = SpectralAnalysis(QFamily(n, length, TwistConfig(
        {2: (0.7, -0.7), 3: (0.7, -0.4, -0.3), 4: (0.9, 0.4, -0.5, -0.8)}[n])))
    got = sa.all_records()
    want = [r for m in sa.labels for r in reference_sector_records(sa, m)]
    assert len(got) == len(want) == n ** length
    for g, w in zip(got, want):
        assert (g.sector, g.state) == (w.sector, w.state)
        assert bits([g.energy_direct, g.energy_roots, g.energy_tbox]) == \
            bits([w.energy_direct, w.energy_roots, w.energy_tbox])
        assert [r.dtype for r in g.level_roots] == [r.dtype for r in w.level_roots]
        assert all(bits(a) == bits(b) for a, b in zip(g.level_roots, w.level_roots))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(g.bethe, w.bethe))


def test_simultaneous_eigenbasis_on_commuting_pair():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    d1 = np.diag(rng.normal(size=4))
    d2 = np.diag(rng.normal(size=4))
    a, b = g @ d1 @ np.linalg.inv(g), g @ d2 @ np.linalg.inv(g)
    v, vinv, eigs = simultaneous_eigenbasis(np.array([[a, b]]))
    assert np.array_equal(vinv, np.linalg.inv(v))
    for block, eig in zip((a, b), eigs[0]):
        m = vinv[0] @ block @ v[0]
        assert np.max(np.abs(m - np.diag(np.diag(m)))) < 1e-8
        # the eigenvalues are those of the one-block product, bit for bit
        assert bits(np.diag(m)) == bits(eig)


def test_simultaneous_eigenbasis_rejects_noncommuting():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RuntimeError):
        simultaneous_eigenbasis(np.array([[a, b]]))


def test_a_sector_whose_first_draw_fails_retries_alone(monkeypatch):
    # the second sector's pair is chosen so that the first random
    # combination c_a A + c_b B has one doubly degenerate eigenvalue: its
    # eigenvectors then need not diagonalize A and B, and the sector takes
    # the next draw, as it would alone; the first sector passes at once
    first = np.random.default_rng(5)
    c_a, c_b = first.normal(size=2) + 1j * first.normal(size=2)
    rng = np.random.default_rng(1)
    g1, g2 = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))

    def pair(g, da, db):
        return [g @ np.diag(d) @ np.linalg.inv(g) for d in (da, db)]

    blocks = np.array([pair(g1, [0.3, -1.2], [0.8, 0.1]),
                       pair(g2, [-c_b / c_a, 0.0], [1.0, 0.0])])
    got = simultaneous_eigenbasis(blocks)
    for k in range(2):
        want = reference_eigenbasis(blocks[k])
        assert all(bits(x[k]) == bits(y) for x, y in zip(got, want))
    # with one draw only, the first sector still passes and the second fails
    monkeypatch.setattr(spectral, "EIGENBASIS_ATTEMPTS", 1)
    simultaneous_eigenbasis(blocks[:1])
    with pytest.raises(RuntimeError):
        simultaneous_eigenbasis(blocks)


# -- eigenvalue polynomials -------------------------------------------------------

def test_extract_q_polynomials_enforces_degree_and_monicity():
    # the one-state sectors (0, 2) and (2, 0) form one size group, in which
    # Q_1 has degree 0 and 2
    q1 = build_Q(2, 2, (1,), TW2)
    layout = sector_layout(2, 2)
    g, i = layout.slot[(0, 2)]
    assert layout.slot[(2, 0)] == (g, i + 1)
    probes = Blocks.join([build_hamiltonian(2, 2, TW2), q1.at(0.37)]).group_stack(g)
    v, vinv, _ = simultaneous_eigenbasis(probes)
    blocks = q1.coeffs.group_stack(g)
    got = extract_q_polynomials(blocks, v, vinv, [0, 2])
    assert [take.tolist() for take, _ in got] == [[0], [1]]
    assert [polys.shape for _, polys in got] == [(1, 1, 1), (1, 1, 3)]
    for take, polys in got:
        assert np.all(polys[..., -1] == 1.0)
        # each row is the diagonal of the one-block products, bit for bit
        k = take[0]
        want = reference_polys(blocks[k], v[k], vinv[k], polys.shape[-1] - 1)
        assert bits(polys[0]) == bits(want)
    assert extract_q_polynomials_loose(blocks, v, vinv).shape == (2, 1, 3)
    # the group raises when one of its sectors fails
    with pytest.raises(ValueError, match="degree"):
        extract_q_polynomials(blocks, v, vinv, [0, 1])
    with pytest.raises(ValueError, match="monic"):
        extract_q_polynomials(2.0 * blocks, v, vinv, [0, 2])


def test_poly_roots_matches_numpy_factoring():
    roots = poly_roots(np.array([[6.0, -5.0, 1.0]]))  # z^2 - 5z + 6
    assert sorted(np.round(roots[0].real, 8)) == [2.0, 3.0]
    assert poly_roots(np.array([[3.0], [1.0]])).shape == (2, 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.lists(st.integers(0, 6), min_size=1, max_size=5),
       st.integers(0, 2 ** 32 - 1))
@example(0, [0], 0)
@example(1, [0, 1], 0)
@example(4, [4, 4], 0)
@example(5, [0, 2, 5, 1], 0)
def test_poly_roots_match_np_roots_row_by_row(degree, zeros, seed):
    # monic rows whose low-order coefficients are exact zeros in varying
    # numbers, z^degree itself included, which np.roots answers in floats
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(len(zeros), degree + 1)) \
        + 1j * rng.normal(size=(len(zeros), degree + 1))
    coeffs[:, -1] = 1.0
    for row, count in zip(coeffs, zeros):
        row[:min(count, degree)] = 0.0
    got = poly_roots(coeffs)
    assert got.shape == (len(zeros), degree)
    for row, c in zip(got, coeffs):
        assert bits(row) == bits(np.roots(c[::-1]) if degree else np.zeros(0))
    if degree and np.all(coeffs[:, :-1] == 0):
        assert got.dtype == np.float64


# -- root equations ---------------------------------------------------------------

def _one_site_levels():
    g = cmath.exp(-1j * (TW2.phi(1) - TW2.phi(2)))
    z1 = 0.5 + g / (1 - g)
    roots = [np.zeros((1, 0)), np.array([[z1]]), np.array([[0.0]])]
    sigmas = [0.0, TW2.phi(1), 0.0]
    return roots, sigmas


def test_one_site_closed_form_root_satisfies_equations():
    roots, sigmas = _one_site_levels()
    res = bethe_residuals(roots, sigmas)
    assert res[0][0, 0] < 1e-12


def test_perturbed_root_fails_equations():
    roots, sigmas = _one_site_levels()
    roots[1] = roots[1] + 0.01
    assert bethe_residuals(roots, sigmas)[0][0, 0] > 1e-3


def test_colliding_roots_rejected():
    # the second state's level collides; the first state's does not
    roots = [np.zeros((2, 0)), np.array([[0.3, 0.7], [0.3, 0.3 + 1e-12]]), np.zeros((2, 2))]
    with pytest.raises(ValueError, match="oinciding"):
        bethe_residuals(roots, [0.0, 0.1, 0.0])


def test_energy_from_roots_guards_singular_points():
    with pytest.raises(ValueError, match="singular"):
        energy_from_roots(np.array([[0.1], [0.5]]))
    assert abs(energy_from_roots(np.array([[0.0 + 0.0j]]))[0] - 8.0) < 1e-13


def test_energy_from_tbox_constant_polynomial():
    # T(z) = 2 + 3z on a length-2 chain: E = 4 - 2*(3/2) = 1
    assert abs(energy_from_tbox_poly(np.array([[2.0, 3.0]]), 2)[0] - 1.0) < 1e-13


def complexes(bound):
    return st.builds(complex, st.floats(-bound, bound), st.floats(-bound, bound))


@settings(max_examples=400, deadline=None)
@given(st.lists(complexes(100.0), max_size=8), complexes(30.0), complexes(10.0),
       st.booleans())
@example([1.0 + 0.0j], complex(1.0, -0.0), 0.5 + 0.0j, False)
@example([1.0 + 0.0j], complex(1.0, -0.0), 0.5 + 0.0j, True)
@example([complex(-0.0, 2.0), 1.0 + 0.0j], complex(0.0, 2.0), -1.5 + 0.0j, False)
def test_q_value_rounds_as_numpy_prod(roots, z, sigma, real_roots):
    # the root product runs in Python complex arithmetic; it must round as
    # the numpy product it replaced, signed zeros included: a product started
    # from its first factor instead of from 1 fails the first example (|z
    # sigma| stays below the overflow of the exponential factor)
    dtype = float if real_roots else complex
    roots = np.array([r.real if real_roots else r for r in roots], dtype=dtype)
    z = np.complex128(z)
    want = cmath.exp(1j * z * sigma) * complex(np.prod(z - roots))
    got = _q_value(sigma, roots, z)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@st.composite
def level_stacks(draw):
    """Three consecutive levels of root stacks on 1-3 states, the last one
    real in some draws, as the full-set level is; values from a small pool
    with signed zeros, or arbitrary."""
    rows = draw(st.integers(1, 3))
    values = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0, complex(-0.0, 1.0),
                                        complex(1.0, -0.0), 0.25 + 2.0j]),
                       complexes(3.0))

    def level(real):
        k = draw(st.integers(0, 4))
        stack = np.array(draw(st.lists(values, min_size=rows * k, max_size=rows * k)),
                         dtype=complex).reshape(rows, k)
        return stack.real.copy() if real else stack

    return [level(False), level(False), level(draw(st.booleans()))]


@settings(max_examples=300, deadline=None)
@given(level_stacks(), st.tuples(*[st.floats(-2.0, 2.0)] * 3))
def test_root_ratios_match_scalar_kernel_bitwise(levels, sigmas):
    z = levels[1]
    try:
        want = [_root_ratio([lv[s] for lv in levels], sigmas, 1, x)
                for s in range(len(z)) for x in z[s]]
    except ZeroDivisionError:
        # a point on a root of a denominator factor fails both ways alike
        with pytest.raises(ZeroDivisionError):
            _root_ratios(levels, sigmas, z)
        return
    got = _root_ratios(levels, sigmas, z)
    assert [(w.real.hex(), w.imag.hex()) for w in want] == \
        [(g.real.hex(), g.imag.hex()) for g in got]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 2 ** 32 - 1))
def test_batched_energies_match_per_state_formulas_bitwise(rows, k, seed):
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k))
    for row, got in zip(roots, energy_from_roots(roots)):
        # each square rounded as CPython rounds it
        squares = np.array([r * r for r in row.tolist()], dtype=complex)
        assert bits(got) == bits(2.0 * complex(np.sum(1.0 / (0.25 - squares))))
    coeffs = rng.normal(size=(rows, k + 1)) + 1j * rng.normal(size=(rows, k + 1))
    for c, got in zip(coeffs, energy_from_tbox_poly(coeffs, 3)):
        val = complex(np.polyval(c[::-1], 0.0))
        dcoeffs = np.array([j * c[j] for j in range(1, len(c))])
        dval = complex(np.polyval(dcoeffs[::-1], 0.0)) if len(dcoeffs) else 0.0
        assert bits(got) == bits(2.0 * 3 - 2.0 * dval / val)


# -- full pipeline ----------------------------------------------------------------

@pytest.mark.parametrize("n,L,tw", [
    (2, 2, TW2), (2, 3, TW2), (2, 4, TW2), (3, 2, TW3), (3, 3, TW3),
])
def test_three_energies_agree_and_equations_hold(n, L, tw):
    recs = SpectralAnalysis(QFamily(n, L, tw)).all_records()
    assert len(recs) == n ** L
    for r in recs:
        assert abs(r.energy_direct - r.energy_roots) < 1e-8
        assert abs(r.energy_direct - r.energy_tbox) < 1e-8
        assert r.max_bethe_residual < 1e-8


def _energies(length, twist):
    """The sorted direct and the sorted root energies of every joint eigenstate."""
    recs = SpectralAnalysis(QFamily(twist.n, length, twist)).all_records()
    return [np.sort_complex(np.array([r.energy_direct for r in recs])),
            np.sort_complex(np.array([r.energy_roots for r in recs]))]


def test_spectrum_multiset_is_path_independent():
    # the chain that adds the letters in the order 3, 1, 2 is the default
    # chain at the relabelled twist (phi_3, phi_1, phi_2)
    relabelled = TwistConfig(tuple(TW3.phi(a) for a in (3, 1, 2)))
    for s1, s2 in zip(_energies(2, TW3), _energies(2, relabelled)):
        assert np.max(np.abs(s1 - s2)) < 1e-10


@pytest.mark.parametrize("n,tw", [(2, TW2), (3, TW3)])
def test_one_site_chain_is_rejected(n, tw):
    # a one-site chain has no bond, and its three energies would disagree
    with pytest.raises(ValueError, match="length >= 2"):
        SpectralAnalysis(QFamily(n, 1, tw))


def test_newton_recovers_perturbed_roots():
    sa = SpectralAnalysis(QFamily(2, 3, TW2))
    recs = [r for r in sa.all_records() if r.sector == (2, 1)]
    sigmas = [sa.q_polys[I].sigma for I in sa.sets]
    r = recs[0]
    perturbed = [np.array(x, dtype=complex) for x in r.level_roots]
    perturbed[1] = perturbed[1] + 1e-3
    refined, res, _ = solve_bethe_newton(perturbed, sigmas)
    assert res < 1e-12
    assert np.max(np.abs(np.sort_complex(refined[1])
                         - np.sort_complex(r.level_roots[1]))) < 1e-9


def test_newton_keeps_best_iterate():
    """A converged start whose Newton steps diverge is returned as it was.

    The roots are those of state 56 of sector (1,1,2,1) in the default-twist
    n=4, L=5 chain: one level sits near +-1/2, the numerical Jacobian is
    nearly singular, and the steps grow the residual tenfold each from
    4.9e-12 after the first step to 0.41 after the fortieth.
    """
    levels = [
        np.zeros(0, dtype=complex),
        np.array([1.249000902703301e-16 - 0.44531845201327735j]),
        np.array([4.440892098500626e-16 - 1.9692648224868914j,
                  -2.0816681711721685e-17 + 0.33987578402552987j]),
        np.array([-8.881784197001252e-16 - 5.622685232064032j,
                  0.49990550779394743 + 0.1924296357545033j,
                  -0.49990550779394666 + 0.19242963575450206j,
                  -7.853203465634013e-16 + 0.035899218832280075j]),
        np.zeros(5, dtype=complex),
    ]
    sigmas = [0.0, 0.9, 1.3, 0.8, 0.0]
    start = max(np.max(r) for r in bethe_residuals([r[None] for r in levels], sigmas))
    assert 1e-12 < start < 1e-11
    refined, res, iterations = solve_bethe_newton(levels, sigmas)
    assert iterations == 40
    assert res <= start
    assert res == max(np.max(r) for r in bethe_residuals([r[None] for r in refined], sigmas))


def test_newton_stops_at_an_overflowing_iterate():
    """A start whose Newton steps overflow the exponential factor is returned
    as it was, with its residual.

    The roots are those of state 27 of sector (1,2,2) in the default-twist
    n=3, L=5 chain: a near-singular root pair at about +-1/2 + 0.0029i, with
    residual 0.26.  The steps diverge, and the eleventh iterate once ended
    ``qlab bethe --n 3 --L 5`` with an OverflowError from ``cmath.exp``.
    """
    levels = [
        np.zeros(0, dtype=complex),
        np.array([4.163336342344337e-17 + 0.2156867283950895j]),
        np.array([-0.49999999999993955 + 0.0029074488452218916j,
                  0.499999999999855 + 0.0029074488452217927j,
                  8.367466967289749e-14 + 0.038622825228777115j]),
        np.zeros(5),
    ]
    sigmas = [0.0, 0.7, 0.29999999999999993, -5.551115123125783e-17]
    # the start's residual as the record reports it, to the last bit
    start = max(np.max(r) for r in bethe_residuals([r[None] for r in levels], sigmas))
    assert 0.25 < start < 0.27
    refined, res, iterations = solve_bethe_newton(levels, sigmas)
    assert 1 < iterations < 40
    assert res == start
    assert all(bits(a) == bits(b) for a, b in zip(refined, levels))


def test_nan_residuals_stay_visible():
    # a NaN at a later level once vanished in the builtin max
    record = EigenstateRecord((1, 1), 0, 0j, [], [np.array([1e-13]), np.array([np.nan])],
                              0j, 0j)
    assert math.isnan(record.max_bethe_residual)
    # a start whose residual is NaN is reported with it, not with inf
    levels = [np.zeros(0, dtype=complex), np.array([complex(math.nan, 0.0)]), np.zeros(1)]
    refined, res, iterations = solve_bethe_newton(levels, [0.0, 0.3, 0.0])
    assert math.isnan(res) and iterations == 1
