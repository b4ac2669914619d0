"""Acceptance suite: twelve independent end-to-end checks, one test each.

Every test computes a worst-case residual for one headline property, prints a
single PASS/FAIL line with the residual and its tolerance, then asserts.
"""

import cmath
import itertools

import numpy as np

from qlab.glrep import (fundamental_rep, gl_relation_residual, scalar_rep,
                        trivial_rep, verma_rep)
from qlab.lax import canonical_lax, eval_lax, partonic_lax, rll_residual
from qlab.fusion import _residual, factorize_partons, fuse, iterated_parton_fusion
from qlab.oscillator import (NormalOrderedOp as Op, _worst, extrapolated_traces,
                             weighted_trace)
from qlab.relations import (QFamily, enumerate_hasse, hirota_residual,
                            q_determinant_residual, t_determinant_residual)
from qlab.spectral import SpectralAnalysis, build_hamiltonian
from qlab.tensor import Blocks
from qlab.transfer import TwistConfig, bgg_eigen_check, build_Q, build_T_box

TW = {2: TwistConfig((0.7, -0.7)), 3: TwistConfig((0.7, -0.4, -0.3))}


def _report(num: int, label: str, residual: float, tol: float) -> None:
    verdict = "PASS" if residual < tol else "FAIL"
    print("criterion %02d %-38s %s  (residual %.3e, tolerance %.0e)"
          % (num, label, verdict, residual, tol), flush=True)
    assert residual < tol


def test_criterion_01_trivial_anchors():
    worst = 0.0
    for n in (2, 3):
        for L in (1, 2, 3):
            dim = n ** L
            q0 = build_Q(n, L, (), TW[n])
            qn = build_Q(n, L, tuple(range(1, n + 1)), TW[n])
            for z in (0.83, -0.27):
                worst = max(worst, float(np.max(np.abs(
                    q0.at(z).to_dense() - np.eye(dim)))))
                worst = max(worst, float(np.max(np.abs(
                    qn.at(z).to_dense() - z ** L * np.eye(dim)))))
    _report(1, "trivial family anchors", worst, 1e-13)


def test_criterion_02_rll():
    # rll_residual decides the relation for every pair of spectral points
    worst = 0.0
    for n in (2, 3):
        labels = tuple(range(1, n + 1))
        wt = tuple(0.4 - 0.23 * a for a in range(n))
        cases = [eval_lax(fundamental_rep(labels)),
                 eval_lax(verma_rep(wt, labels=labels, tag="v"))]
        cases += [partonic_lax(n, a) for a in labels]
        for r in range(1, n):
            for I in itertools.combinations(labels, r):
                cases.append(canonical_lax(n, I, trivial_rep(I)))
        cases.append(canonical_lax(n, (1,), verma_rep((0.3,), labels=(1,),
                                                      tag="v")))
        for L in cases:
            worst = _worst([worst, rll_residual(L)])
    _report(2, "exchange relation (all factors)", worst, 1e-12)


def test_criterion_03_factorization():
    rng = np.random.default_rng(23)
    worst = 0.0
    for n in (2, 3):
        wt = tuple(complex(rng.normal(), rng.normal()) for _ in range(n))
        pf = factorize_partons(n, wt)
        for z in (0.31, -0.6 + 0.17j):
            worst = max(worst, pf.residual(z))
    # the triangular-decomposition route and the iterated pairwise-merge
    # route must produce identical matrices on the joint carrier
    n, wt = 3, (0.45, -0.15, 0.7)
    pf = factorize_partons(n, wt)
    itf = iterated_parton_fusion(n, (1, 2, 3), wt)
    z = 0.27
    worst = max(worst,
                _residual(([pf.core(z)], pf.s_exponents()),
                          ([itf.core(z)], itf.s_exponents())),
                _residual((pf.lhs_factors(z), ()), (itf.lhs_factors(z), ())))
    _report(3, "ordered-product factorization", worst, 1e-12)


def test_criterion_04_fusion():
    worst = 0.0
    specs = [((1,), (2,), scalar_rep(1, 0.23), scalar_rep(2, -0.41)),
             ((1,), (2, 3), scalar_rep(1, 0.23),
              verma_rep((0.4, -0.2), labels=(2, 3), tag="v"))]
    for I, J, r1, r2 in specs:
        res = fuse(3, I, J, r1, r2, 0.6)
        for z in (0.37, -0.58):
            worst = max(worst, res.residual(z))
        worst = max(worst, gl_relation_residual(res.fused_rep))
    _report(4, "pairwise merge of blocks", worst, 1e-12)


def test_criterion_05_hirota():
    worst = 0.0
    for n in (2, 3):
        quads = enumerate_hasse(n).quadrilaterals
        for L in (1, 2, 3):
            qf = QFamily(n, L, TW[n])
            for I, a, b in quads:
                worst = max(worst,
                            hirota_residual(qf, I, a, b))
    _report(5, "bilinear quadrilateral relation", worst, 1e-10)


def test_criterion_06_determinants():
    worst = 0.0
    for L in (1, 2, 3):
        qf = QFamily(3, L, TW[3])
        for I in itertools.combinations((1, 2, 3), 2):
            worst = max(worst,
                        q_determinant_residual(qf, I))
        worst = max(worst, t_determinant_residual(qf))
    _report(6, "determinant formulas", worst, 1e-10)


def test_criterion_07_commuting_family():
    worst = 0.0
    for n in (2, 3):
        for L in (1, 2, 3):
            qf = QFamily(n, L, TW[n])
            ops = [build_hamiltonian(n, L, TW[n]),
                   build_T_box(n, L, TW[n]).at(0.29)]
            for I in enumerate_hasse(n).nodes:
                if 0 < len(I) < n:
                    ops.append(qf.q(I).at(0.37))
                    ops.append(qf.q(I).at(-0.81))
            # every pair's commutator, on the sector blocks
            run = Blocks.join(ops)
            left, right = np.triu_indices(run.count, 1)
            x, y = run[left], run[right]
            worst = max(worst, float(np.max((x @ y - y @ x).norms())))
    _report(7, "commuting conserved family", worst, 1e-10)


def test_criterion_08_energy_triple_agreement():
    worst = 0.0
    for n, lengths in ((2, (2, 3, 4)), (3, (2, 3))):
        for L in lengths:
            for r in SpectralAnalysis(QFamily(n, L, TW[n])).all_records():
                worst = max(worst,
                            abs(r.energy_direct - r.energy_roots),
                            abs(r.energy_direct - r.energy_tbox))
    _report(8, "three-way energy agreement", worst, 1e-8)


def test_criterion_09_root_equations():
    worst = _worst(r.max_bethe_residual
                   for r in SpectralAnalysis(QFamily(3, 3, TW[3])).all_records())
    _report(9, "nested root equations (n=3, L=3)", worst, 1e-8)


def test_criterion_10_path_equivalence():
    # the chain that adds the letters in the order 2, 3, 1 is the default
    # chain at the relabelled twist (phi_2, phi_3, phi_1): both its direct
    # and its root energies are those of the default chain
    relabelled = TwistConfig(tuple(TW[3].phi(a) for a in (2, 3, 1)))
    spectra = []
    for twist in (TW[3], relabelled):
        recs = SpectralAnalysis(QFamily(3, 3, twist)).all_records()
        spectra.append([np.sort_complex(np.array([r.energy_direct for r in recs])),
                        np.sort_complex(np.array([r.energy_roots for r in recs]))])
    worst = _worst(float(np.max(np.abs(s1 - s2))) for s1, s2 in zip(*spectra))
    _report(10, "spectrum path independence", worst, 1e-8)


def test_criterion_11_trace_consistency():
    rng = np.random.default_rng(37)
    modes = [("m", 1, 2), ("m", 2, 1), ("m", 1, 3)]
    qs = {m: cmath.exp(1j * a) for m, a in zip(modes, (0.9, -1.4, 0.55))}
    worst = 0.0
    for _ in range(50):
        x = Op.scalar(complex(rng.normal(), rng.normal()))
        for m in modes:
            k = int(rng.integers(0, 3))
            x = x * (Op.creator(m) ** k) * (Op.annihilator(m) ** k)
        worst = max(worst,
                    abs(weighted_trace(x, qs) - extrapolated_traces([x], qs)[0]))
    _report(11, "closed-form vs extrapolated trace", worst, 1e-6)


def test_criterion_12_signed_resolution():
    worst = 0.0
    for L in (1, 2):
        worst = max(worst, bgg_eigen_check(2, L, (1.0, 0.0), TW[2]))
    _report(12, "signed resolution eigen check", worst, 1e-6)
