import cmath
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlab.tensor import QuantumOperator, state_index
from qlab.transfer import TwistConfig, build_Q, build_T_box
from qlab.spectral import (
    SpectralAnalysis, _q_value, bethe_residuals, build_hamiltonian, energy_from_roots,
    energy_from_tbox_poly, extract_q_polynomials, poly_roots, sector_blocks,
    sector_indices, sector_labels, simultaneous_eigenbasis,
    solve_bethe_newton,
)

TW2 = TwistConfig((0.7, -0.7))
TW3 = TwistConfig((0.7, -0.4, -0.3))


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
        assert ((H @ op) - (op @ H)).norm() < 1e-12


def dict_hamiltonian(n, length, twist):
    """The exchange loop over a ``(row, col) -> value`` dict that
    ``build_hamiltonian`` replaced; its arithmetic must be reproduced exactly."""
    data = {(i, i): 2.0 * length for i in range(n ** length)}
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
    return {k: complex(v) for k, v in data.items() if abs(v) > 1e-14}


@pytest.mark.parametrize("n,length,twist", [
    (2, 1, TW2), (2, 3, TW2), (3, 2, TW3), (3, 3, TwistConfig((0.5, 0.3, -0.8))),
    (4, 2, TwistConfig((0.9, 0.4, -0.5, -0.8)))])
def test_hamiltonian_matches_dict_loop_bitwise(n, length, twist):
    H = build_hamiltonian(n, length, twist)
    ref = dict_hamiltonian(n, length, twist)
    assert [divmod(k, H.dim) for k in H.keys.tolist()] == list(ref)
    assert H.vals.view(np.int64).tolist() == \
        np.array(list(ref.values()), dtype=complex).view(np.int64).tolist()


def test_single_site_hamiltonian_vanishes():
    # the wrap bond coincides with the only local bond and cancels it
    assert build_hamiltonian(2, 1, TW2).norm() == 0.0


# -- sectors ---------------------------------------------------------------------

def test_sector_labels_and_dimensions():
    labels = sector_labels(2, 2)
    assert labels == [(0, 2), (1, 1), (2, 0)]
    dims = [len(sector_indices(2, 2, m)) for m in labels]
    assert dims == [1, 2, 1]
    assert sorted(len(sector_indices(3, 2, m)) for m in sector_labels(3, 2)) \
        == [1, 1, 1, 2, 2, 2]


def test_sector_blocks_ignore_entries_between_sectors():
    # (1, 0) couples sectors (2,0) and (1,1); only the diagonal blocks are read
    op = QuantumOperator(4, {(1, 0): 1.0, (1, 2): 2.0, (2, 1): 3.0j, (3, 3): 4.0})
    sectors = [sector_indices(2, 2, m) for m in sector_labels(2, 2)]
    blocks = sector_blocks(op, sectors)
    dense = op.to_dense()
    for idx, block in zip(sectors, blocks):
        assert np.array_equal(block, dense[np.ix_(idx, idx)])
    assert np.array_equal(blocks[1], [[0.0, 2.0], [3.0j, 0.0]])


# -- simultaneous diagonalization -------------------------------------------------

def test_simultaneous_eigenbasis_on_commuting_pair():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    d1 = np.diag(rng.normal(size=4))
    d2 = np.diag(rng.normal(size=4))
    a, b = g @ d1 @ np.linalg.inv(g), g @ d2 @ np.linalg.inv(g)
    v, vinv = simultaneous_eigenbasis([a, b])
    assert np.array_equal(vinv, np.linalg.inv(v))
    for block in (a, b):
        m = vinv @ block @ v
        assert np.max(np.abs(m - np.diag(np.diag(m)))) < 1e-8


def test_simultaneous_eigenbasis_rejects_noncommuting():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RuntimeError):
        simultaneous_eigenbasis([a, b], attempts=3)


# -- eigenvalue polynomials -------------------------------------------------------

def test_extract_q_polynomials_enforces_degree_and_monicity():
    q1 = build_Q(2, 2, (1,), TW2)
    idx = sector_indices(2, 2, (1, 1))
    hb = sector_blocks(build_hamiltonian(2, 2, TW2), [idx])[0]
    v, _ = simultaneous_eigenbasis([hb, sector_blocks(q1.at(0.37), [idx])[0]])
    blocks = [sector_blocks(c, [idx])[0] for c in q1.coeffs]
    polys = extract_q_polynomials(blocks, v, expected_degree=1)
    assert all(abs(p[-1] - 1.0) < 1e-10 for p in polys)
    with pytest.raises(ValueError, match="degree"):
        extract_q_polynomials(blocks, v, expected_degree=0)


def test_poly_roots_matches_numpy_factoring():
    roots = poly_roots(np.array([6.0, -5.0, 1.0]))  # z^2 - 5z + 6
    assert sorted(np.round(roots.real, 8)) == [2.0, 3.0]
    assert len(poly_roots(np.array([3.0]))) == 0


# -- root equations ---------------------------------------------------------------

def _one_site_levels():
    g = cmath.exp(-1j * (TW2.phi(1) - TW2.phi(2)))
    z1 = 0.5 + g / (1 - g)
    roots = [np.zeros(0), np.array([z1]), np.array([0.0])]
    sigmas = [0.0, TW2.phi(1), 0.0]
    return roots, sigmas


def test_one_site_closed_form_root_satisfies_equations():
    roots, sigmas = _one_site_levels()
    res = bethe_residuals(roots, sigmas, length=1)
    assert res[0][0] < 1e-12


def test_perturbed_root_fails_equations():
    roots, sigmas = _one_site_levels()
    roots[1] = roots[1] + 0.01
    assert bethe_residuals(roots, sigmas, length=1)[0][0] > 1e-3


def test_colliding_roots_rejected():
    roots = [np.zeros(0), np.array([0.3, 0.3 + 1e-12]), np.zeros(2)]
    with pytest.raises(ValueError, match="oinciding"):
        bethe_residuals(roots, [0.0, 0.1, 0.0], length=2)


def test_energy_from_roots_guards_singular_points():
    with pytest.raises(ValueError, match="singular"):
        energy_from_roots(np.array([0.5]))
    assert abs(energy_from_roots(np.array([0.0 + 0.0j])) - 8.0) < 1e-13


def test_energy_from_tbox_constant_polynomial():
    # T(z) = 2 + 3z on a length-2 chain: E = 4 - 2*(3/2) = 1
    assert abs(energy_from_tbox_poly(np.array([2.0, 3.0]), 2) - 1.0) < 1e-13


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


# -- full pipeline ----------------------------------------------------------------

@pytest.mark.parametrize("n,L,tw", [
    (2, 2, TW2), (2, 3, TW2), (2, 4, TW2), (3, 2, TW3), (3, 3, TW3),
])
def test_three_energies_agree_and_equations_hold(n, L, tw):
    recs = SpectralAnalysis(n, L, tw).all_records()
    assert len(recs) == n ** L
    for r in recs:
        assert abs(r.energy_direct - r.energy_roots) < 1e-8
        assert abs(r.energy_direct - r.energy_tbox) < 1e-8
        assert r.max_bethe_residual < 1e-8


def test_spectrum_multiset_is_path_independent():
    s1 = SpectralAnalysis(3, 2, TW3, path=(1, 2, 3)).spectrum()
    s2 = SpectralAnalysis(3, 2, TW3, path=(3, 1, 2)).spectrum()
    assert np.max(np.abs(s1 - s2)) < 1e-10


def test_path_changes_intermediate_index_sets():
    sa = SpectralAnalysis(3, 2, TW3, path=(2, 3, 1))
    assert sa.sets == [(), (2,), (2, 3), (1, 2, 3)]
    with pytest.raises(ValueError, match="path"):
        SpectralAnalysis(3, 2, TW3, path=(1, 2))


@pytest.mark.parametrize("n,tw", [(2, TW2), (3, TW3)])
def test_one_site_chain_is_rejected(n, tw):
    # a one-site chain has no bond, and its three energies would disagree
    with pytest.raises(ValueError, match="length >= 2"):
        SpectralAnalysis(n, 1, tw)


def test_newton_recovers_perturbed_roots():
    sa = SpectralAnalysis(2, 3, TW2)
    recs = sa.sector_records((2, 1))
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
    start = max(np.max(r) for r in bethe_residuals(levels, sigmas, 5))
    assert 1e-12 < start < 1e-11
    refined, res, iterations = solve_bethe_newton(levels, sigmas)
    assert iterations == 40
    assert res <= start
    assert res == max(np.max(r) for r in bethe_residuals(refined, sigmas, 5))
