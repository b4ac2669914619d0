import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlab import tensor
from qlab.spectral import sector_blocks
from qlab.tensor import (
    DROP_TOL, Blocks, QuantumOperator, basis_states, occupation, sector_layout,
    state_index,
)
from qlab.transfer import OperatorPolynomial


def from_dense(mat):
    """The operator of a square dense matrix, its entries in row-major order."""
    mat = np.asarray(mat)
    keys = np.flatnonzero(~(np.abs(mat) <= DROP_TOL))
    return QuantumOperator._from_arrays(len(mat), keys, mat.reshape(-1)[keys].astype(complex))


def random_op(dim, rng):
    return from_dense(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def unit(dim, row, col):
    return QuantumOperator(dim, {(row, col): 1.0})


def test_identity_and_matrix_unit():
    eye = QuantumOperator.identity(3)
    assert np.allclose(eye.to_dense(), np.eye(3))
    e01 = unit(2, 0, 1)
    dense = np.zeros((2, 2))
    dense[0, 1] = 1
    assert np.allclose(e01.to_dense(), dense)


#: chains whose layouts the block tests draw: sector sizes 1 to 6
CHAINS = [(2, 1), (2, 2), (3, 2), (2, 3), (4, 1), (3, 3)]


def dense(run):
    """The ``(count, dim, dim)`` matrices of a run of sector blocks."""
    dim = run.layout.dim
    out = np.zeros((run.count, dim, dim), dtype=complex)
    for idx, block in zip(run.layout.groups, run.arrays):
        out[:, idx[:, :, None], idx[:, None, :]] = block
    return out


def block_diagonal(layout, rng, count):
    """``count`` random dense matrices that conserve the letter counts of
    ``layout``'s chain, about a third of their block entries zero."""
    out = np.zeros((count, layout.dim, layout.dim), dtype=complex)
    for idx in layout.sectors:
        shape = (count, len(idx), len(idx))
        block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out[:, idx[:, None], idx[None, :]] = np.where(rng.random(shape) < 0.7, block, 0.0)
    return out


def run_of(layout, matrices):
    """The dense ``matrices`` as one run of blocks."""
    return layout.blocks([from_dense(m) for m in matrices])


def test_matmul_agrees_with_dense():
    rng = np.random.default_rng(0)
    layout = sector_layout(3, 3)
    a, b = block_diagonal(layout, rng, 2), block_diagonal(layout, rng, 2)
    got = dense(run_of(layout, a) @ run_of(layout, b))
    assert np.allclose(got, a @ b, rtol=0.0, atol=1e-13)


def test_add_and_scale():
    rng = np.random.default_rng(1)
    a, b = random_op(4, rng), random_op(4, rng)
    assert np.allclose((a + 2.5 * b).to_dense(), a.to_dense() + 2.5 * b.to_dense())
    assert np.allclose((a - b * 1j).to_dense(), a.to_dense() - 1j * b.to_dense())


def test_permutation_as_sum_of_matrix_units():
    n = 3
    acc = QuantumOperator.zero(n * n)
    for a in range(n):
        for b in range(n):
            acc = acc + from_dense(
                np.kron(unit(n, a, b).to_dense(), unit(n, b, a).to_dense()))
    # the exchange P (x ⊗ y) = y ⊗ x
    p = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            p[a * n + b, b * n + a] = 1.0
    assert (acc - from_dense(p)).norm() < 1e-14


def test_site_operator_embedding():
    # a diagonal operator acting on site 2 only, built from the base-n index,
    # is the Kronecker product with site 1 as the most significant factor
    n, L = 2, 3
    sz = [1.0, -1.0]
    full = QuantumOperator(n ** L, {(state_index(s, n), state_index(s, n)): sz[s[1]]
                                    for s in basis_states(n, L)}).to_dense()
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
    d1 = from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
    d2 = from_dense(np.diag([5.0, -1.0, 0.5, 2.0]))
    off = unit(4, 1, 2)
    x, y = layout.blocks([d1, d1]), layout.blocks([d2, off])
    norms = ((x @ y) - (y @ x)).norms()
    assert norms[0] == 0.0 and norms[1] > 0.5


def test_drop_tolerance():
    op = QuantumOperator(2, {(0, 0): 1e-16, (1, 1): 1.0})
    assert op.keys.tolist() == [3] and op.vals.tolist() == [1.0]


def test_dict_constructor_validates_entries():
    with pytest.raises(IndexError):
        QuantumOperator(2, {(0, 2): 1.0})
    # a dropped entry is not checked, and values are coerced with complex()
    op = QuantumOperator(2, {(5, 5): 0.0, (1, 0): np.float32(0.5), (0, 1): 3})
    assert op.keys.tolist() == [2, 1] and op.vals.tolist() == [0.5 + 0j, 3 + 0j]


# -- bitwise agreement with the dictionary implementation ------------------------
#
# ``DictOperator`` is the dictionary-based substrate the array storage replaced:
# a ``(row, col) -> complex`` map in insertion order, with CPython's complex
# arithmetic.  The array operations must reproduce it bit for bit, key order
# and signed zeros included.

class DictOperator:
    def __init__(self, dim, data=None):
        self.dim = dim
        self.data = {}
        for (r, c), v in (data or {}).items():
            v = complex(v)
            if abs(v) > DROP_TOL:
                self.data[(r, c)] = v

    def __add__(self, other):
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0.0) + v
        return DictOperator(self.dim, data)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        return DictOperator(self.dim, {k: v * scalar for k, v in self.data.items()})

    def norm(self):
        return max((abs(v) for v in self.data.values()), default=0.0)

    def to_dense(self):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (r, c), v in self.data.items():
            out[r, c] = v
        return out


def dict_poly_at(coeffs, z):
    data = {}
    zk = 1.0 + 0.0j
    for c in coeffs:
        for key, v in c.data.items():
            data[key] = data.get(key, 0.0) + v * zk
        zk *= z
    return DictOperator(coeffs[0].dim, data)


def bits(a):
    return np.asarray(a, dtype=complex).view(np.int64).tolist()


def assert_at_rest():
    """The scatter workspace holds no position and only ``+0.0`` sums."""
    assert (tensor._first == tensor._UNSET).all()
    assert not tensor._sums.view(np.int64).any()


def assert_bitwise(op, ref):
    assert op.dim == ref.dim
    assert [divmod(k, op.dim) for k in op.keys.tolist()] == list(ref.data)
    assert bits(op.vals) == bits(list(ref.data.values()))
    assert_at_rest()


def both(dim, data):
    return QuantumOperator(dim, data), DictOperator(dim, data)


_NEAR_TOL = [DROP_TOL, np.nextafter(DROP_TOL, 1.0), np.nextafter(DROP_TOL, 0.0)]

#: real and imaginary parts: signed zeros, units, values at and next to the
#: drop tolerance, and generic values of modulus 1e-20 .. 1e20
components = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5] + _NEAR_TOL + [-t for t in _NEAR_TOL]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-20, 19)),
)
amplitudes = st.builds(complex, components, components)


@st.composite
def operator_pairs(draw, count=2, dims=st.integers(1, 40)):
    """``count`` operators on one dimension, as (array operator, dict reference).

    Each operator's entries are inserted in a random order.  Rows and columns
    come from a pool of at most six indices, and values from a small shared
    pool, each with a random sign, so that sums meet repeated keys and exact
    cancellations at every dimension."""
    dim = draw(dims)
    index = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=6,
                          unique=True))
    pool = draw(st.lists(amplitudes, min_size=1, max_size=4))
    cells = st.tuples(st.sampled_from(index), st.sampled_from(index))
    out = []
    for _ in range(count):
        keys = draw(st.lists(cells, unique=True, max_size=len(index) ** 2))
        data = {k: draw(st.sampled_from(pool)) * draw(st.sampled_from([1, -1]))
                for k in keys}
        out.append(both(dim, data))
    return out


# a pure-imaginary entry with a -0.0 real part met by a disjoint entry,
# and scalings whose only term has a -0.0 imaginary part
_SIGNED_ZEROS = [both(2, {(0, 0): complex(-0.0, 2.0)}),
                 both(2, {(0, 1): complex(-1.0, -0.0), (0, 0): complex(3.0, -0.0)})]


@settings(max_examples=300, deadline=None)
@given(operator_pairs())
@example(_SIGNED_ZEROS)
def test_arithmetic_matches_dict_reference(ops):
    (a, ra), (b, rb) = ops
    assert_bitwise(a + b, ra + rb)
    assert_bitwise(b + a, rb + ra)
    assert_bitwise(a - b, ra - rb)
    assert_bitwise(a - b + b * 0.5, ra - rb + rb * 0.5)
    assert a.norm().hex() == float(ra.norm()).hex()
    assert bits(a.to_dense()) == bits(ra.to_dense())


def check_arithmetic(ops):
    (a, ra), (b, rb) = ops
    assert_bitwise(a + b, ra + rb)
    assert_bitwise(a - b, ra - rb)


@settings(max_examples=100, deadline=None)
@given(operator_pairs(dims=st.integers(20, 40)), operator_pairs(dims=st.integers(1, 5)),
       operator_pairs(dims=st.integers(20, 40)))
def test_interleaved_dimensions_match_dict_reference(large, small, large_again):
    for ops in (large, small, large_again, small):
        check_arithmetic(ops)


def test_failed_scatter_leaves_a_usable_workspace():
    a, ra = both(3, {(0, 1): 1.5, (1, 1): -2.0, (2, 0): 0.25j})
    # a sum whose terms fail to add after their keys were recorded
    with pytest.raises(ValueError):
        tensor._accumulate(3, a.keys, a.vals[:2], assigned=1)
    assert_bitwise(a + a - a, ra + ra - ra)


@settings(max_examples=200, deadline=None)
@given(operator_pairs(count=1),
       st.one_of(st.integers(-3, 3), components, amplitudes))
@example(_SIGNED_ZEROS[1:], -1.0)
@example(_SIGNED_ZEROS[:1], 2)
def test_scalar_multiple_matches_dict_reference(ops, scalar):
    (a, ra), = ops
    assert_bitwise(a * scalar, ra * scalar)
    assert_bitwise(scalar * a, ra * scalar)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: operator_pairs(count=k)),
       st.one_of(components, amplitudes))
@example(_SIGNED_ZEROS[1:], 1.0)
def test_poly_at_matches_dict_reference(ops, z):
    coeffs = [op for op, _ in ops]
    poly = OperatorPolynomial(coeffs[0].dim, 0.0, coeffs)
    assert_bitwise(poly.poly_at(z), dict_poly_at([ref for _, ref in ops], z))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: operator_pairs(count=k)),
       st.one_of(components, amplitudes))
def test_single_operators_keep_their_keys(ops, z):
    coeffs = [op for op, _ in ops]
    dim = coeffs[0].dim
    single = OperatorPolynomial(dim, 0.0, coeffs).at(z)
    # a member at one point is stored as the dict loop stores it
    assert_bitwise(single, dict_poly_at([ref for _, ref in ops], z))
    assert QuantumOperator.identity(dim).keys.tolist() == [r * (dim + 1) for r in range(dim)]
    assert QuantumOperator.zero(dim).keys.tolist() == []


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
    coeffs = [from_dense(m) for m in block_diagonal(layout, rng, degree)]
    blocks = layout.blocks(coeffs)
    run = blocks.polynomial_at(sigma, points)
    assert run.count == len(points)
    poly = OperatorPolynomial(layout.dim, sigma, coeffs)
    for b, z in enumerate(points):
        # each point as at that point alone, bit for bit, and as the sparse
        # member there to rounding
        assert bits(dense(run[b:b + 1])) == bits(dense(blocks.polynomial_at(sigma, [z])))
        want = poly.at(z).to_dense()
        assert np.max(np.abs(dense(run)[b] - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_stacks_must_match():
    a, b = QuantumOperator.identity(2), QuantumOperator.identity(3)
    layout = sector_layout(2, 2)
    one, two = layout.blocks([QuantumOperator.identity(4)]), \
        layout.blocks([QuantumOperator.identity(4)] * 2)
    other = sector_layout(3, 1).blocks([QuantumOperator.identity(3)])
    for op in (lambda: a + b, lambda: one @ two, lambda: one + two, lambda: one - two,
               lambda: one @ other):
        with pytest.raises(ValueError):
            op()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CHAINS), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_sector_blocks_match_dense_reference(chain, count, seed):
    rng = np.random.default_rng(seed)
    layout = sector_layout(*chain)
    matrices = block_diagonal(layout, rng, count)
    ops = [from_dense(m) for m in matrices]
    stacks = sector_blocks(ops, layout)
    assert len(stacks) == len(layout.sectors)
    for stack, sector in zip(stacks, layout.sectors):
        assert stack.flags.c_contiguous
        for block, d in zip(stack, matrices):
            assert bits(block) == bits(d[np.ix_(sector, sector)])
    # the runs read the same blocks, grouped by size
    assert bits(dense(layout.blocks(ops))) == bits(matrices)


def test_signed_zero_conventions():
    """The three rules behind the reference agreement, on single entries."""
    pure = QuantumOperator(1, {(0, 0): complex(-0.0, 1.0)})
    other = QuantumOperator(2, {(1, 1): complex(-0.0, 1.0)})
    # an entry only in the left operand of + keeps its -0.0 real part ...
    left = QuantumOperator(2, {(0, 0): complex(-0.0, 1.0)}) + QuantumOperator.zero(2)
    assert math.copysign(1.0, left.vals[0].real) == -1.0
    # ... one only in the right operand is 0.0 + v, which clears it
    right = QuantumOperator.zero(2) + other
    assert math.copysign(1.0, right.vals[0].real) == 1.0
    # a polynomial's only term c_0 * 1 has real part (-0.0)(1) - (1)(0.0) = -0.0,
    # and its sum starts from 0.0 (0.0 + v), so the value carries +0.0
    value = OperatorPolynomial(1, 0.0, [pure]).poly_at(1.0).vals[0]
    assert value.imag == 1.0 and math.copysign(1.0, value.real) == 1.0


@settings(max_examples=500, deadline=None)
@given(st.floats(0.6, 1.1), st.floats(0.0, 2 * math.pi),
       st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]))
def test_drop_bracket_matches_complex_modulus(ratio, angle, sre, sim):
    r = ratio * DROP_TOL
    v = complex(sre * abs(r * math.cos(angle)), sim * abs(r * math.sin(angle)))
    op = QuantumOperator._from_arrays(1, np.zeros(1, dtype=np.int64), np.array([v]))
    assert len(op.keys) == (abs(v) > DROP_TOL)


def test_drop_bracket_edges_match_complex_modulus():
    rng = np.random.default_rng(7)
    mod = rng.uniform(0.6, 1.1, 20000) * DROP_TOL
    angle = rng.uniform(0.0, 2 * np.pi, 20000)
    edges = [DROP_TOL, tensor._SURE_DROP, DROP_TOL / math.sqrt(2.0)]
    edges = [np.nextafter(e, d) for e in edges for d in (0.0, e, 1.0)]
    vals = np.concatenate((
        mod * np.cos(angle) + 1j * mod * np.sin(angle),
        # one component on an edge, the other zero, equal, or just below it
        [complex(s * e, t * f) for e in edges for f in (0.0, e, np.nextafter(e, 0.0))
         for s in (1, -1) for t in (1, -1)],
        [complex(0.0, -0.0), complex(np.nan, 0.0), complex(np.inf, np.nan)]))
    rng.shuffle(vals)
    keys = np.arange(len(vals), dtype=np.int64)
    op = QuantumOperator._from_arrays(len(vals), keys, vals)
    # a NaN entry is kept, so that it reaches the residual
    kept = [not abs(complex(v)) <= DROP_TOL for v in vals]
    assert op.keys.tolist() == keys[kept].tolist()
