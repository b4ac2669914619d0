import cmath
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlab.glrep import permutation_sign
from qlab.spectral import SpectralAnalysis
from qlab import relations
from qlab.tensor import Blocks, SectorLayout, sector_layout
from qlab.transfer import TwistConfig, build_Q
from qlab.relations import (
    QFamily, _operator_det, delta_pair, delta_set, enumerate_hasse, hirota_residual,
    plucker_residual, q_determinant_residual, t_determinant_residual,
    x_merge_residual, x_product_form_residual,
)

TW2 = TwistConfig((0.7, -0.7))
TW3 = TwistConfig((0.7, -0.4, -0.3))


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.int64).tolist()


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
        assert hirota_residual(qf, I, a, b) < 1e-10


def test_quadrilateral_relation_antisymmetric_in_ab():
    qf = QFamily(2, 2, TW2)
    assert hirota_residual(qf, (), 2, 1) < 1e-10


def test_nan_entry_of_a_member_reaches_the_residual_and_fails_the_record():
    from qlab.cli import RunConfig, run_verify
    qf = QFamily(2, 2, TW2)
    q1 = qf.q((1,))
    c0 = q1.coeffs[0].to_dense()
    c0[2, 2] = complex(np.nan, 0.0)
    q1.coeffs = Blocks.join([_runs(sector_layout(2, 2), [c0]), q1.coeffs[1:]])
    assert np.isnan(hirota_residual(qf, (), 1, 2))
    qf.drop_values()
    doc = run_verify(RunConfig(n=2, length=2, suites=("hirota",)), family=qf)
    assert [r["passed"] for r in doc["records"]] == [False]
    assert np.isnan(doc["records"][0]["residual"])


def test_quadrilateral_rejects_bad_indices():
    with pytest.raises(ValueError):
        hirota_residual(QFamily(3, 1, TW3), (1,), 1, 2)
    with pytest.raises(ValueError):
        hirota_residual(QFamily(3, 1, TW3), (), 2, 2)


def test_zero_length_chain_collapses_exactly():
    # every member is the scalar exp(i z sigma), so each residual is one
    # rounding of a unit-modulus product (4.4e-16 at the second point)
    qf = QFamily(2, 0, TW2)
    assert hirota_residual(qf, (), 1, 2) < 1e-15
    assert q_determinant_residual(qf, (1, 2)) < 1e-15


# -- determinant forms ------------------------------------------------------------

def dense(run):
    """The ``(count, dim, dim)`` matrices of a run of sector blocks."""
    return np.array([run[b].to_dense() for b in range(run.count)])


def _block_diagonal(layout, rng, count):
    """``count`` random dense matrices that conserve the letter counts of
    ``layout``'s chain; their entries meet exact cancellations in sums."""
    out = np.zeros((count, layout.dim, layout.dim), dtype=complex)
    for idx in layout.sectors:
        s = len(idx)
        block = (rng.integers(-2, 3, (count, s, s)) + 1j * rng.integers(-2, 3, (count, s, s))) / 4
        out[:, idx[:, None], idx[None, :]] = block
    return out


def _runs(layout, matrices):
    """The dense ``matrices`` as one run of blocks, through the scatter:
    every place that is not zero in some matrix is an entry."""
    matrices = np.asarray(matrices, dtype=complex)
    rows, cols = np.nonzero((matrices != 0).any(axis=0))
    return layout.scatter(rows, cols, matrices[:, rows, cols])


def _naive_det(entries):
    """The signed products over permutations in lexicographic order, each
    multiplied left to right and added in turn."""
    p = len(entries)
    out = None
    for sig in itertools.permutations(range(p)):
        inv = sum(1 for i in range(p) for j in range(i + 1, p) if sig[i] > sig[j])
        term = entries[0][sig[0]]
        for i in range(1, p):
            term = term @ entries[i][sig[i]]
        term = term * float((-1) ** inv)
        out = term if out is None else out + term
    return out


@pytest.mark.parametrize("p", [2, 3, 4])
def test_operator_det_matches_naive_permutation_sum(p):
    rng = np.random.default_rng(p)
    layout = sector_layout(2, 3)
    a = _block_diagonal(layout, rng, 1)[0] * (rng.random((8, 8)) < 0.7)
    powers = [np.eye(8), a, a @ a]
    # polynomials in one matrix commute with each other
    mats = [[sum(complex(*rng.normal(size=2)) * m for m in powers) for _ in range(p)]
            for _ in range(p)]
    entries = [[_runs(layout, [m]) for m in row] for row in mats]
    got = _operator_det(entries)
    assert bits(dense(got)) == bits(dense(_naive_det(entries)))
    want = sum(float(permutation_sign(sig)) * functools.reduce(
        np.matmul, [mats[i][sig[i]] for i in range(p)])
        for sig in itertools.permutations(range(p)))
    assert np.max(np.abs(dense(got)[0] - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 1)]),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_stacked_operator_det_matches_each_determinant(p, chain, count, seed):
    # a run of determinants: each is the determinant of its operators alone
    rng = np.random.default_rng(seed)
    layout = sector_layout(*chain)
    mats = [[_block_diagonal(layout, rng, count) for _ in range(p)] for _ in range(p)]
    got = _operator_det([[_runs(layout, m) for m in row] for row in mats])
    assert got.count == count
    for b in range(count):
        alone = _operator_det([[_runs(layout, m[b:b + 1]) for m in row] for row in mats])
        assert bits(dense(got[b:b + 1])) == bits(dense(alone))


@pytest.mark.parametrize("I", [(1, 2), (1, 3), (2, 3)])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_pair_determinant_form(I, L):
    assert q_determinant_residual(QFamily(3, L, TW3), I) < 1e-10


def test_full_set_determinant_form():
    assert q_determinant_residual(QFamily(3, 2, TW3), (1, 2, 3)) < 1e-10


def test_determinant_form_rejects_empty_set():
    with pytest.raises(ValueError):
        q_determinant_residual(QFamily(3, 1, TW3), ())


@pytest.mark.parametrize("n,tw,L", [(2, TW2, 1), (2, TW2, 3), (3, TW3, 2)])
def test_transfer_determinant_form(n, tw, L):
    assert t_determinant_residual(QFamily(n, L, tw)) < 1e-10


# -- split/merge and product form -------------------------------------------------

def test_merge_two_singletons():
    assert x_merge_residual(QFamily(3, 1, TW3), (1,), (2,), (0.4,), (-0.3,), 0.9) < 1e-11


def test_merge_singleton_with_pair():
    r = x_merge_residual(QFamily(3, 2, TW3), (1,), (2, 3), (0.4,), (-0.3, 0.2), 0.9)
    assert r < 1e-11


def test_merge_rejects_overlap():
    with pytest.raises(ValueError):
        x_merge_residual(QFamily(3, 1, TW3), (1, 2), (2,), (0.1, 0.2), (0.3,), 0.5)


def test_merge_zero_shift_still_holds():
    assert x_merge_residual(QFamily(2, 1, TW2), (1,), (2,), (0.25,), (-0.15,), 0.0) < 1e-11


@pytest.mark.parametrize("I,w", [((1, 2), (0.4, -0.3)),
                                 ((1, 2, 3), (0.4, -0.3, 0.6))])
@pytest.mark.parametrize("L", [1, 2])
def test_product_form(I, w, L):
    assert x_product_form_residual(QFamily(3, L, TW3), I, w) < 1e-11


def test_product_form_trivial_weight_singleton_is_q():
    # a singleton highest-weight operator at weight 0 IS the elementary member
    from qlab.transfer import build_X_plus
    x = build_X_plus(3, 1, (2,), (0.0,), TW3)
    q = build_Q(3, 1, (2,), TW3)
    assert (x.at(0.3) - q.at(0.3)).norms()[0] < 1e-13


# -- exchange relation of determinants --------------------------------------------

def test_exchange_relation_two_levels():
    r = plucker_residual(QFamily(2, 2, TW2), (1, 2), 2, (0.2, 0.7, -0.4))
    assert r < 1e-10


def test_exchange_relation_three_levels():
    r = plucker_residual(QFamily(3, 2, TW3), (1, 2, 3), 3, (0.2, 0.7, -0.4, 1.1))
    assert r < 1e-10


def test_exchange_relation_alternate_chain_order():
    r = plucker_residual(QFamily(3, 1, TW3), (3, 1, 2), 2, (0.15, -0.55, 0.95))
    assert r < 1e-10


def test_exchange_relation_input_guards():
    with pytest.raises(ValueError):
        plucker_residual(QFamily(3, 1, TW3), (1, 2, 3), 1, (0.1, 0.2))
    with pytest.raises(ValueError):
        plucker_residual(QFamily(3, 1, TW3), (1, 2, 3), 2, (0.1, 0.2))


# -- cache behavior ---------------------------------------------------------------

def test_family_cache_returns_same_object():
    qf = QFamily(2, 2, TW2)
    assert qf.q((2, 1)) is qf.q((1, 2))


def test_family_caches_member_blocks_and_values(monkeypatch):
    qf = QFamily(2, 2, TW2)
    points = (0.1, -0.3)
    run = qf.q_at((2, 1), points)
    assert run is qf.q_at((1, 2), [0.1, -0.3])
    want = np.array([qf.q((1, 2)).at(z).to_dense() for z in points])
    assert run.count == 2
    assert np.max(np.abs(dense(run) - want)) <= 1e-15 * np.max(np.abs(want))
    qf.drop_values()
    # the values are formed anew from the member built the first time, and
    # a member held is built again neither by q nor by q_at
    monkeypatch.setattr(relations, "build_Q", lambda *args: pytest.fail("built again"))
    monkeypatch.setattr(relations, "build_Qs", lambda *args: pytest.fail("built again"))
    qf.q((2, 1))
    again = qf.q_at((1, 2), points)
    assert again is not run and bits(dense(again)) == bits(dense(run))


def test_q_at_builds_its_size_at_once_and_q_builds_its_own_set(monkeypatch):
    # the relation checks read every set of each size they touch, so a miss
    # of q_at builds the size's missing sets in one call; the spectrum reads
    # one set per size, so q builds its own set alone
    qf = QFamily(3, 2, TW3)
    calls = []
    build_Qs = relations.build_Qs
    monkeypatch.setattr(relations, "build_Qs", lambda n, length, sets, twist: (
        calls.append(sorted(sets)) or build_Qs(n, length, sets, twist)))
    monkeypatch.setattr(relations, "build_Q", lambda n, length, I, twist: (
        calls.append([I]) or build_Q(n, length, I, twist)))
    qf.q_at((2,), (0.1,))
    assert calls == [[(1,), (2,), (3,)]]
    qf.q((1, 2))
    assert calls[1:] == [[(1, 2)]]
    qf.q_at((2, 3), (0.1,))
    assert calls[2:] == [[(1, 3), (2, 3)]]
    qf.q_at((3,), (0.2,))
    qf.q((1,))
    assert len(calls) == 3
    # a member built with its size has the bits it has built alone
    for I in [(1,), (3,), (1, 3), (2, 3)]:
        assert bits(dense(qf.q(I).coeffs)) == bits(dense(build_Q(3, 2, I, TW3).coeffs))


def test_the_spectrum_reads_no_member_blocks(monkeypatch):
    # the spectrum reads the family's coefficient runs as built: with the
    # members built, its one scatter forms the Hamiltonian
    qf = QFamily(2, 2, TW2)
    for I in [(), (1,), (1, 2)]:
        qf.q(I)
    qf.t_box()
    scatter, calls = SectorLayout.scatter, []
    monkeypatch.setattr(SectorLayout, "scatter",
                        lambda self, *args: calls.append(1) or scatter(self, *args))
    SpectralAnalysis(qf).all_records()
    assert len(calls) == 1


# -- the block sides against dense numpy, and negative controls --------------------

TW4 = TwistConfig((0.9, 0.4, -0.5, -0.8))
TWISTS = {2: TW2, 3: TW3, 4: TW4}


def _dense_det(rows, sign=permutation_sign):
    """The Leibniz sum of a matrix of commuting dense matrices."""
    p = len(rows)
    return sum(float(sign(sig)) * functools.reduce(np.matmul, [rows[i][sig[i]] for i in range(p)])
               for sig in itertools.permutations(range(p)))


@pytest.mark.parametrize("n,L", [(2, 3), (3, 3), (4, 2)])
def test_block_sides_match_dense_numpy(n, L, monkeypatch):
    """Both sides of one record of each kind, formed on blocks, against the
    same expression in numpy on full matrices.  The sides cancel large terms
    (a determinant, or the difference of two products), so the scale is the
    expression's magnitude: the same expression with every matrix replaced
    by its entrywise modulus and every sign by ``+``."""
    from qlab import cli
    from qlab.spectral import build_hamiltonian
    tw = TWISTS[n]
    qf = QFamily(n, L, tw)
    zs = [0.31, -0.57]
    sides = []
    monkeypatch.setattr(relations, "_max_residual",
                        lambda f, length: sides.append(f(zs)) or 0.0)
    for module in (relations, cli):  # the commuting suite forms its own sides
        monkeypatch.setattr(module, "_residual",
                            lambda lhs, rhs: sides.append((lhs, rhs)) or 0.0)
    hirota_residual(qf, (), 1, 2)
    q_determinant_residual(qf, (1, 2))
    t_determinant_residual(qf)
    chain, z = tuple(range(1, n + 1)), [0.2, 0.7, -0.4, 0.55, -0.15][:n + 1]
    plucker_residual(qf, chain, n, z)
    cli.SUITES["commuting"][1](cli.RunConfig(n=n, length=L), qf)[0][1]()
    full = tuple(range(1, n + 1))
    shifts = [(n - 1) / 2 + 1] + [(n - 2 * j + 1) / 2 for j in range(2, n + 1)]
    ops = [build_hamiltonian(n, L, tw), qf.t_box().at(0.29)] \
        + [qf.q(I).at(0.37) for I in enumerate_hasse(n).nodes if 0 < len(I) < n]

    def expressions(f, sign, scalar):
        """Every side, with ``f`` applied to each dense operator."""
        def q(I, x):
            return f(qf.q(I).at(x).to_dense())

        def det(letters, pts):
            return _dense_det([[q((a,), x) for x in pts] for a in letters], sign)

        pairs = list(itertools.combinations([f(op.to_dense()) for op in ops], 2))
        return [
            [scalar(delta_pair(tw, 1, 2)) * q((1, 2), x) @ q((), x) for x in zs],
            [q((1,), x + 0.5) @ q((2,), x - 0.5) + sign((1, 0)) * q((2,), x + 0.5)
             @ q((1,), x - 0.5) for x in zs],
            [scalar(delta_set(tw, (1, 2))) * q((1, 2), x) for x in zs],
            [det((1, 2), [x + 0.5, x - 0.5]) for x in zs],
            [scalar(delta_set(tw, full)) * f(qf.t_box().at(x).to_dense()) for x in zs],
            [det(full, [x + s for s in shifts]) for x in zs],
            [det(chain, [z[0]] + z[2:]) @ det(chain[:-1], z[1:n])],
            [det(chain, z[:n]) @ det(chain[:-1], z[2:])
             + det(chain[:-1], [z[0]] + z[2:n]) @ det(chain, z[1:])],
            [x @ y for x, y in pairs],
            [y @ x for x, y in pairs]]

    want = expressions(lambda m: m, permutation_sign, lambda c: c)
    scale = expressions(np.abs, lambda sig: 1.0, abs)
    # the commuting check forms one run per left operator
    commuting = [Blocks.join(runs) for runs in zip(*sides[4:])]
    got = [run for pair in sides[:4] for run in pair] + commuting
    assert len(got) == len(want) == 10
    for run, w, m in zip(got, want, scale):
        assert np.max(np.abs(dense(run) - np.array(w))) <= 1e-12 * np.max(m)


def _bumped_family(n, L, bump):
    """The family with one off-diagonal entry ``v`` of ``Q_1``'s ``z^0``
    coefficient replaced by ``bump(v, largest entry modulus)``; an entry of a
    one-state sector would commute with every operator."""
    qf = QFamily(n, L, TWISTS[n])
    q1 = qf.q((1,))
    c0 = q1.coeffs[0].to_dense()
    # the first such entry in row-major order
    rows, cols = np.nonzero(c0)
    at = np.flatnonzero(rows != cols)[0]
    r, c = rows[at], cols[at]
    c0[r, c] = bump(c0[r, c], np.max(np.abs(c0)))
    q1.coeffs = Blocks.join([_runs(sector_layout(n, L), [c0]), q1.coeffs[1:]])
    return qf


@pytest.mark.parametrize("n,L", [(2, 2), (3, 3), (4, 3)])
def test_a_bumped_member_fails_hirota_determinant_and_commuting(n, L):
    from qlab.cli import RunConfig, run_verify
    cfg = RunConfig(n=n, length=L, suites=("hirota", "determinant", "commuting"))
    watched = ["quadrilateral I=() a=1 b=2", "max pairwise commutator (%d ops)" % (2 ** n)] \
        + ["pair form I=%s" % (I,) for I in itertools.combinations(range(1, n + 1), 2)
           if 1 in I]

    def records(bump):
        doc = run_verify(cfg, family=_bumped_family(n, L, bump))
        return {r["name"]: r for r in doc["records"]}

    clean = records(lambda v, top: v)
    raised = records(lambda v, top: v + 1e-8 * top)
    broken = records(lambda v, top: complex(np.nan, 0.0))
    for name in watched:
        assert clean[name]["passed"]
        assert not raised[name]["passed"] and raised[name]["residual"] >= 1e-10
        assert not broken[name]["passed"] and np.isnan(broken[name]["residual"])
