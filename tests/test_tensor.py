import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlab.tensor import Blocks, _product, _quotient, basis_states, occupation, \
    sector_layout, state_index
from qlab.transfer import OperatorPolynomial


def run_of(layout, matrices):
    """The dense ``matrices`` (``(count, dim, dim)``) as one run of blocks,
    through the scatter: every place that is not zero in some matrix is an
    entry."""
    matrices = np.asarray(matrices, dtype=complex)
    rows, cols = np.nonzero((matrices != 0).any(axis=0))
    return layout.scatter(rows, cols, matrices[:, rows, cols])


def unit(layout, row, col):
    """The matrix unit ``|row><col|`` as a run of one."""
    return layout.scatter(np.array([row]), np.array([col]), np.ones((1, 1)))


def test_identity_and_matrix_unit():
    layout = sector_layout(3, 1)
    diag = np.arange(3)
    eye = layout.scatter(diag, diag, np.ones((1, 3)))
    assert np.array_equal(eye.to_dense(), np.eye(3))
    # |01><10| on two sites keeps the letter counts
    dense = np.zeros((4, 4))
    dense[1, 2] = 1
    assert np.array_equal(unit(sector_layout(2, 2), 1, 2).to_dense(), dense)


#: chains whose layouts the block tests draw: sector sizes 1 to 6
CHAINS = [(2, 1), (2, 2), (3, 2), (2, 3), (4, 1), (3, 3)]


def dense(run):
    """The ``(count, dim, dim)`` matrices of a run of sector blocks."""
    return np.array([run[b].to_dense() for b in range(run.count)])


def block_diagonal(layout, rng, count):
    """``count`` random dense matrices that conserve the letter counts of
    ``layout``'s chain, about a third of their block entries zero."""
    out = np.zeros((count, layout.dim, layout.dim), dtype=complex)
    for idx in layout.sectors:
        shape = (count, len(idx), len(idx))
        block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out[:, idx[:, None], idx[None, :]] = np.where(rng.random(shape) < 0.7, block, 0.0)
    return out


def test_matmul_agrees_with_dense():
    rng = np.random.default_rng(0)
    layout = sector_layout(3, 3)
    a, b = block_diagonal(layout, rng, 2), block_diagonal(layout, rng, 2)
    got = dense(run_of(layout, a) @ run_of(layout, b))
    assert np.allclose(got, a @ b, rtol=0.0, atol=1e-13)


def test_add_and_scale():
    rng = np.random.default_rng(1)
    layout = sector_layout(2, 2)
    a, b = block_diagonal(layout, rng, 1), block_diagonal(layout, rng, 1)
    x, y = run_of(layout, a), run_of(layout, b)
    assert np.allclose(dense(x + y * 2.5), a + 2.5 * b)
    assert np.allclose(dense(x - y * 1j), a - 1j * b)


def test_permutation_as_sum_of_matrix_units():
    # the exchange P (x ⊗ y) = y ⊗ x, as the sum of e_ab ⊗ e_ba
    n = 3
    layout = sector_layout(n, 2)
    acc = None
    for a in range(n):
        for b in range(n):
            term = unit(layout, a * n + b, b * n + a)
            acc = term if acc is None else acc + term
    p = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            p[a * n + b, b * n + a] = 1.0
    assert np.array_equal(acc.to_dense(), p)


def test_site_operator_embedding():
    # a diagonal operator acting on site 2 only, built from the base-n index,
    # is the Kronecker product with site 1 as the most significant factor
    n, L = 2, 3
    sz = [1.0, -1.0]
    index = np.array([state_index(s, n) for s in basis_states(n, L)])
    full = sector_layout(n, L).scatter(
        index, index, np.array([[sz[s[1]] for s in basis_states(n, L)]])).to_dense()
    expect = np.kron(np.eye(2), np.kron(np.diag(sz), np.eye(2)))
    assert np.array_equal(full, expect)


def test_state_index_base_n_site1_most_significant():
    assert state_index((1, 0, 2), 3) == 1 * 9 + 0 * 3 + 2
    states = list(basis_states(3, 2))
    assert states[0] == (0, 0) and states[-1] == (2, 2)
    assert [state_index(s, 3) for s in states] == list(range(9))


def test_occupation_counts():
    assert occupation((0, 2, 0, 1), 3) == (2, 1, 1)


def test_comm_norm_zero_for_commuting():
    # the commutators [d1, d2] and [d1, off] as one run, one norm each; the
    # basis states 1 and 2 of (n, L) = (2, 2) form one sector
    layout = sector_layout(2, 2)
    d1, d2 = np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([5.0, -1.0, 0.5, 2.0])
    off = unit(layout, 1, 2).to_dense()
    x, y = run_of(layout, [d1, d1]), run_of(layout, [d2, off])
    norms = ((x @ y) - (y @ x)).norms()
    assert norms[0] == 0.0 and norms[1] > 0.5


def test_drop_tolerance():
    # no entry is dropped, however small, and each starts from 0.0, so an
    # entry of -0.0 reads +0.0 and a place whose entries cancel reads +0.0
    layout = sector_layout(2, 1)
    run = layout.scatter(np.array([0, 1, 1, 0]), np.array([0, 1, 1, 0]),
                         np.array([[1e-300, 0.5, -0.5, complex(-0.0, -0.0)]]))
    assert bits(run.to_dense().diagonal()) == bits([1e-300, 0.0])


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.int64).tolist()


#: real and imaginary parts: signed zeros, units, and generic values of
#: modulus 1e-20 .. 1e20
components = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-20, 19)),
)
amplitudes = st.builds(complex, components, components)


def dict_values(run, sigma, z):
    """The member with coefficients ``run`` at ``z``, entry by entry of the
    sector blocks in Python complex arithmetic: each sum starts from ``0.0``
    and adds ``c_k z^k`` coefficient after coefficient, and is then scaled
    by ``exp(i z sigma)``."""
    coeffs = dense(run)
    out = np.zeros(coeffs.shape[1:], dtype=complex)
    factor = cmath.exp(1j * z * sigma)
    for r, c in ((r, c) for idx in run.layout.sectors for r in idx for c in idx):
        acc, zk = 0.0, 1.0 + 0.0j
        for m in coeffs:
            acc += complex(m[r, c]) * zk
            zk *= z
        out[r, c] = acc * factor
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CHAINS[:4]), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.7, -1.1 + 0.2j]),
       st.builds(complex, st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-3, 3),
                 st.sampled_from([0.0, -0.0]) | st.floats(-3, 3)))
@example((2, 1), 1, 0, 0.0, 1.0)
def test_poly_at_matches_dict_reference(chain, degree, seed, sigma, z):
    # every product of a member's value rounds as CPython's complex product
    rng = np.random.default_rng(seed)
    layout = sector_layout(*chain)
    coeffs = block_diagonal(layout, rng, degree)
    # signed zeros, units and components far apart in scale
    coeffs[:, 0, 0] = rng.choice([complex(-0.0, 1.0), complex(1.0, -0.0), 1e-20 + 1e20j])
    run = run_of(layout, coeffs)
    poly = OperatorPolynomial(sigma, run)
    assert bits(poly.at(z).to_dense()) == bits(dict_values(run, sigma, z))


# -- runs of sector blocks: every operator as on its own --------------------------


def operators_of(run):
    """Each operator of a run on its own, as a run of one."""
    return [run[b:b + 1] for b in range(run.count)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CHAINS), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       amplitudes)
def test_stacked_arithmetic_matches_each_operator(chain, count, seed, factor):
    rng = np.random.default_rng(seed)
    layout = sector_layout(*chain)
    xs, ys = block_diagonal(layout, rng, count), block_diagonal(layout, rng, count)
    x, y = run_of(layout, xs), run_of(layout, ys)
    assert bits(dense(x)) == bits(xs)
    # an integer picks a run of one, counted from the end when negative
    for b in range(-count, count):
        assert x[b].count == 1
        assert bits(x[b].to_dense()) == bits(xs[b])
    with pytest.raises(IndexError):
        x[count]
    # each operator of a result is that operator's result alone, bit for bit
    for got, alone in [(x @ y, lambda a, b: a @ b), (x + y, lambda a, b: a + b),
                       (x - y, lambda a, b: a - b),
                       ((x + y) @ (y - x) - x, lambda a, b: (a + b) @ (b - a) - a),
                       (x * factor, lambda a, b: a * factor)]:
        assert got.count == count
        for b, (a1, b1) in enumerate(zip(operators_of(x), operators_of(y))):
            assert bits(dense(got[b:b + 1])) == bits(dense(alone(a1, b1)))
    # and the arithmetic is the dense one: elementwise exactly, products to rounding
    assert bits(dense(x + y)) == bits(xs + ys)
    assert bits(dense(x - y)) == bits(xs - ys)
    assert np.allclose(dense(x @ y), xs @ ys, rtol=0.0, atol=1e-13)
    assert [v.hex() for v in x.norms().tolist()] == \
        [float(np.max(np.abs(m))).hex() for m in xs]
    both_runs = Blocks.join([x, y])
    assert bits(dense(both_runs)) == bits(np.concatenate((xs, ys)))
    picks = rng.integers(0, 2 * count, 5)
    assert bits(dense(both_runs[picks])) == bits(np.concatenate((xs, ys))[picks])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CHAINS), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.7, -1.1 + 0.2j]),
       st.lists(st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
                min_size=1, max_size=5))
def test_stacked_evaluation_matches_each_point(chain, degree, seed, sigma, points):
    rng = np.random.default_rng(seed)
    layout = sector_layout(*chain)
    coeffs = block_diagonal(layout, rng, degree)
    poly = OperatorPolynomial(sigma, run_of(layout, coeffs))
    run = poly.values(points)
    assert run.count == len(points)
    for b, z in enumerate(points):
        # each point as at that point alone, bit for bit, and as the dense
        # polynomial there to rounding
        assert bits(run[b].to_dense()) == bits(poly.at(z).to_dense())
        want = sum(m * z ** k for k, m in enumerate(coeffs)) * np.exp(1j * z * sigma)
        assert np.max(np.abs(dense(run)[b] - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_stacks_must_match():
    layout = sector_layout(2, 2)
    one, two = run_of(layout, [np.eye(4)]), run_of(layout, [np.eye(4)] * 2)
    other = run_of(sector_layout(3, 1), [np.eye(3)])
    for op in (lambda: one @ two, lambda: one + two, lambda: one - two,
               lambda: one @ other, two.to_dense):
        with pytest.raises(ValueError):
            op()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CHAINS), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_sector_blocks_match_dense_reference(chain, count, seed):
    rng = np.random.default_rng(seed)
    layout = sector_layout(*chain)
    matrices = block_diagonal(layout, rng, count)
    run = run_of(layout, matrices)
    assert sorted(layout.slot) == layout.labels
    for label, sector in zip(layout.labels, layout.sectors):
        g, i = layout.slot[label]
        groups = run.group_stack(g)
        assert groups.flags.c_contiguous
        stack = groups[i]
        assert stack.shape == (count, len(sector), len(sector))
        for block, d in zip(stack, matrices):
            assert bits(block) == bits(d[np.ix_(sector, sector)])


def test_signed_zero_conventions():
    """The two rules that give a member's values the bits of the sum over
    stored entries, on single entries."""
    layout = sector_layout(1, 1)
    # a scattered entry starts from 0.0, so an entry of -0.0 + 1j reads 0.0 + 1j
    read = layout.scatter(np.array([0]), np.array([0]), np.array([[complex(-0.0, 1.0)]]))
    assert math.copysign(1.0, read.to_dense()[0, 0].real) == 1.0
    # a polynomial's only term c_0 * 1 has real part (-0.0)(1) - (1)(0.0) = -0.0,
    # and its sum starts from 0.0 (0.0 + v), so the value carries +0.0
    pure = Blocks(layout, [np.full((1, 1, 1, 1), complex(-0.0, 1.0))])
    value = OperatorPolynomial(0.0, pure).at(1.0).to_dense()[0, 0]
    assert value.imag == 1.0 and math.copysign(1.0, value.real) == 1.0


# magnitudes that keep every step of Smith's method finite and normal
moderate = st.one_of(st.just(0.0), st.just(-0.0),
                     st.floats(min_value=1e-100, max_value=1e100),
                     st.floats(min_value=-1e100, max_value=-1e-100))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(moderate, moderate, moderate, moderate).filter(
    lambda t: t[2] != 0.0 or t[3] != 0.0), min_size=1, max_size=12))
@example([(-0.0, 0.0, 1.0, 0.0), (0.0, -0.0, 0.0, -1.0), (1.0, 0.0, 0.6, 0.8)])
def test_quotient_rounds_as_cpython(parts):
    # a relabelled family member divides its traces by plan phases; the
    # quotient is CPython's, signed zeros included, on any host
    a = np.array([complex(ar, ai) for ar, ai, _, _ in parts])
    b = np.array([complex(br, bi) for _, _, br, bi in parts])
    want = np.array([x / y for x, y in zip(a.tolist(), b.tolist())], dtype=complex)
    assert _quotient(a, b).tobytes() == want.tobytes()


#: parts whose products do not underflow: signed zeros, units, and moduli
#: 1e-20 .. 1e20
normal_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(1.0, 10.0) | st.floats(-10.0, -1.0), st.integers(-20, 19)))
#: the scalars that scale runs in the commands: a real float (a determinant's
#: sign), or a complex number with a zero real or imaginary part (a delta)
axis_scalars = st.one_of(
    normal_parts,
    st.builds(complex, normal_parts, st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.sampled_from([0.0, -0.0]), normal_parts))
entry_parts = st.one_of(normal_parts, st.sampled_from([math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, entry_parts, entry_parts), min_size=1, max_size=12),
       axis_scalars)
@example([complex(-0.0, 0.0), complex(0.0, -0.0), complex(math.inf, -0.0),
          complex(-1.0, -math.inf)], -1.0)
@example([complex(-0.0, -0.0), complex(2.5, math.inf), complex(0.0, 1.0)],
         complex(-0.0, 0.7))
def test_a_real_or_imaginary_scale_rounds_as_cpython(entries, scalar):
    # Blocks.__mul__ is numpy's complex *, which may fuse a multiply and an
    # add; with one part of the scalar zero, each part of a product is one
    # rounded product and one exact zero, so it rounds as _product, signed
    # zeros, infinities and NaNs included (a product that underflows to zero
    # may differ in the sign of that zero)
    run = Blocks(sector_layout(1, 1), [np.array(entries).reshape(-1, 1, 1, 1)])
    with np.errstate(invalid="ignore"):
        got, want = (run * scalar).arrays[0], _product(run.arrays[0], scalar)
    assert got.tobytes() == want.tobytes()
