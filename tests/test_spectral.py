import cmath

import numpy as np
import pytest

from qlab.tensor import QuantumOperator, comm_norm
from qlab.transfer import TwistConfig, build_Q, build_T_box
from qlab.spectral import (
    SpectralAnalysis, bethe_residuals, build_hamiltonian, energy_from_roots,
    energy_from_tbox_poly, extract_q_polynomials, poly_roots, sector_block,
    sector_indices, sector_labels, sector_project, simultaneous_eigenbasis,
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
    H2 = build_hamiltonian(2, 2, TW2)
    assert comm_norm(H2, build_Q(2, 2, (1,), TW2).at(0.3)) < 1e-12
    assert comm_norm(H2, build_T_box(2, 2, TW2).at(0.5)) < 1e-12
    H3 = build_hamiltonian(3, 2, TW3)
    assert comm_norm(H3, build_Q(3, 2, (1, 2), TW3).at(0.4)) < 1e-12
    assert comm_norm(H3, build_T_box(3, 2, TW3).at(-0.6)) < 1e-12


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


def test_sector_project_rejects_leaky_operator():
    flip = QuantumOperator(4, {(1, 0): 1.0})  # couples sectors (2,0) and (1,1)
    with pytest.raises(ValueError, match="sector"):
        sector_project(flip, 2, 2, (1, 1))


# -- simultaneous diagonalization -------------------------------------------------

def test_simultaneous_eigenbasis_on_commuting_pair():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    d1 = np.diag(rng.normal(size=4))
    d2 = np.diag(rng.normal(size=4))
    a, b = g @ d1 @ np.linalg.inv(g), g @ d2 @ np.linalg.inv(g)
    v = simultaneous_eigenbasis([a, b])
    for block in (a, b):
        m = np.linalg.inv(v) @ block @ v
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
    hb = sector_block(build_hamiltonian(2, 2, TW2), idx)
    v = simultaneous_eigenbasis([hb, sector_block(q1.at(0.37), idx)])
    blocks = [sector_block(c, idx) for c in q1.coeffs]
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
