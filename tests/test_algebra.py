"""Multivector arithmetic: defining relations, reversion, inverses, and an
independent rewrite-table oracle for the low-dimensional products."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereglue.algebra import (
    _BLOCK,
    _SKIP_FROM,
    AlgebraError,
    Multivector,
    NotInvertibleError,
    clifford_group_inverse,
    gp_batch,
    reversion,
    row_norms,
    vectors,
)


def mv(dim, **blades):
    """Build a multivector from blade-index keyword pairs, e.g. b0=1, b3=2."""
    coeffs = np.zeros(2**dim)
    for key, val in blades.items():
        coeffs[int(key[1:])] = val
    return Multivector(dim, coeffs)


# -- rewrite-table oracle ----------------------------------------------------


def _oracle_blade_product(i: int, j: int, dim: int):
    """Multiply blades by explicit generator-list rewriting: concatenate the
    factor lists, bubble adjacent transpositions (sign -1 each), and cancel
    equal neighbors with e*e = -1."""
    gens = [g for g in range(dim) if i >> g & 1] + [g for g in range(dim) if j >> g & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(gens) - 1):
            if gens[k] == gens[k + 1]:
                del gens[k : k + 2]
                sign = -sign
                changed = True
                break
            if gens[k] > gens[k + 1]:
                gens[k], gens[k + 1] = gens[k + 1], gens[k]
                sign = -sign
                changed = True
                break
    idx = 0
    for g in gens:
        idx |= 1 << g
    return idx, sign


@pytest.mark.parametrize("dim", [2, 3])
def test_product_matches_rewrite_table(dim):
    for i, j in itertools.product(range(2**dim), repeat=2):
        a = mv(dim, **{f"b{i}": 1.0})
        b = mv(dim, **{f"b{j}": 1.0})
        idx, sign = _oracle_blade_product(i, j, dim)
        got = a * b
        want = np.zeros(2**dim)
        want[idx] = sign
        assert np.array_equal(got.coeffs, want), (i, j)


def _reference_product(dim, a, b):
    """(ab)[..., l] as a sum written out: sign * a_i * b_{i^l} added to zero
    over every blade i in increasing order, with each sign read off the
    rewrite-table oracle."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    out = np.zeros(a.shape)
    for i, l in itertools.product(range(2**dim), repeat=2):
        idx, sign = _oracle_blade_product(i, i ^ l, dim)
        assert idx == l
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN
            out[..., l] += a[..., i] * (b[..., i ^ l] * sign)
    return out


def _product_cases(dim, rng):
    """Operand pairs on both sides of gp_batch's size rule: one row, a few,
    just past _SKIP_FROM and past three _BLOCKs of gathered elements; each
    operand broadcast against the other; a blade of a zero in every row; a
    grade-1 a, which keeps dim of its blades; NaN rows, as the stencil
    judge passes in; an infinite b entry, which a's zero blade turns into
    NaN wherever the two meet."""
    d = 2**dim
    for rows in (1, 3, _SKIP_FROM // d // d + 1, 3 * _BLOCK // d // d + 1):
        a, b = rng.uniform(-1.0, 1.0, (2, rows, d))
        yield a, b
        yield a[0], b
        yield a, b[0]
        yield a[:, None], b[None, :4]
        yield a[:4, None], b[None]
        hole = a.copy()
        hole[:, d - 1] = 0.0
        yield hole, b
        yield vectors(a[:, :dim], dim), b
        nan_a, nan_b = a.copy(), b.copy()
        nan_a[0], nan_b[rows // 2] = np.nan, np.nan
        yield nan_a, nan_b
        yield hole, nan_b
        inf_b = b.copy()
        inf_b[rows // 2, 0] = np.inf
        yield hole, inf_b


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_gp_batch_matches_product(dim):
    """Every product equals the written-out sum bit for bit, NaNs and the
    signs of zeros included."""
    for a, b in _product_cases(dim, np.random.default_rng(dim)):
        got, want = gp_batch(dim, a, b), _reference_product(dim, a, b)
        assert got.shape == want.shape, (a.shape, b.shape)
        assert np.array_equal(got, want, equal_nan=True), (a.shape, b.shape)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (a.shape, b.shape)


@pytest.mark.parametrize("a_shape", [(8320, 16), (16,)])
def test_gp_batch_memory_of_a_large_stack(a_shape):
    """At k = 4, the (8320, 16) products of verify-cauchy at n = 3 (times a
    stack and times one element) peak below two output arrays: no
    (rows, 16, 16) gather, sixteen outputs in size, is formed, and a dense a
    is not copied to skip blades it does not have."""
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-1.0, 1.0, a_shape), rng.uniform(-1.0, 1.0, (8320, 16))
    tracemalloc.start()
    try:
        out = gp_batch(4, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes, peak


# -- defining relations ------------------------------------------------------


def test_generator_squares():
    e1 = mv(2, b1=1.0)
    assert np.array_equal((e1 * e1).coeffs, [-1.0, 0, 0, 0])


def test_anticommutation():
    e1 = mv(2, b1=1.0)
    e2 = mv(2, b2=1.0)
    assert (e1 * e2 + e2 * e1).norm() == 0.0
    assert (e1 * e2).coeffs[3] == 1.0
    assert (e2 * e1).coeffs[3] == -1.0


def test_bivector_square():
    e12 = mv(2, b3=1.0)
    assert np.array_equal((e12 * e12).coeffs, [-1.0, 0, 0, 0])


def test_vector_squares_to_negative_norm():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4):
        v = vectors(rng.uniform(-2, 2, dim), dim)
        sq = gp_batch(dim, v, v)
        assert abs(sq[0] + np.linalg.norm(v) ** 2) <= 1e-12 * np.linalg.norm(v) ** 2
        assert np.linalg.norm(sq[1:]) <= 1e-12


# -- reversion ---------------------------------------------------------------


def test_reversion_fixes_low_grades():
    a = mv(2, b0=1.0, b1=1.0)
    assert np.array_equal(reversion(2, a.coeffs), a.coeffs)


def test_reversion_flips_bivectors():
    e12 = mv(2, b3=1.0)
    assert np.array_equal(reversion(2, e12.coeffs), -e12.coeffs)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_reversion_antiautomorphism(dim, seed):
    rng = np.random.default_rng(seed)
    a = Multivector(dim, rng.uniform(-1, 1, 2**dim))
    b = Multivector(dim, rng.uniform(-1, 1, 2**dim))
    lhs = reversion(dim, (a * b).coeffs)
    rhs = (Multivector(dim, reversion(dim, b.coeffs)) * Multivector(dim, reversion(dim, a.coeffs))).coeffs
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(a.norm() * b.norm(), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_associativity(dim, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (Multivector(dim, rng.uniform(-1, 1, 2**dim)) for _ in range(3))
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert (lhs - rhs).norm() <= 1e-10 * max(a.norm() * b.norm() * c.norm(), 1.0)


# -- kelvin inverse: the group inverse of a vector is -x / ||x||^2 -----------


def kelvin(x):
    return clifford_group_inverse(len(x), vectors(x, len(x)))[1 << np.arange(len(x))]


def test_kelvin_inverse_unit_vector():
    assert np.allclose(kelvin(np.array([1.0, 0.0, 0.0])), [-1.0, 0.0, 0.0])


def test_kelvin_inverse_identity():
    inv = kelvin(np.array([2.0, 0.0]))
    assert np.allclose(inv, [-0.5, 0.0])
    prod = gp_batch(2, vectors([2.0, 0.0], 2), vectors(inv, 2))
    assert np.allclose(prod, [1, 0, 0, 0])


def test_kelvin_inverse_norm_reciprocal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-3, 3, 3)
        nx = np.linalg.norm(x)
        assert abs(np.linalg.norm(kelvin(x)) - 1.0 / nx) <= 1e-12 / nx


def test_kelvin_inverse_zero_raises():
    with pytest.raises(AlgebraError):
        kelvin(np.zeros(2))


# -- norm and the scalar part of a product -----------------------------------


def test_norm_values():
    assert Multivector(3, np.zeros(8)).norm() == 0.0
    assert abs(mv(2, b1=1.0, b2=1.0).norm() - np.sqrt(2.0)) <= 1e-15


def test_row_norms_are_one_row_norms():
    """Bit for bit np.linalg.norm of each row on its own, for contiguous,
    strided and transposed arrays over 1 to 4 batch axes and magnitudes
    1e-100 to 1e100."""
    rng = np.random.default_rng(9)
    for dim, scale in itertools.product(range(1, 6), (1e-100, 1.0, 1e100)):
        shape = tuple(rng.integers(1, 6, int(rng.integers(1, 5))))
        full = rng.normal(size=shape + (2 << dim,)) * scale
        for a in (full[..., : 1 << dim], full[..., ::2], full[..., : 1 << dim].T.copy().T):
            want = [np.linalg.norm(row.copy()) for row in a.reshape(-1, 1 << dim)]
            assert np.array_equal(row_norms(a), np.reshape(want, shape))


def test_grade_projection_extracts_inner_product():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 3)
    y = rng.uniform(-1, 1, 3)
    prod = gp_batch(3, vectors(x, 3), vectors(y, 3))
    assert abs(prod[0] + x @ y) <= 1e-12


# -- clifford group inverse --------------------------------------------------


def test_group_inverse_scalar():
    assert np.allclose(clifford_group_inverse(2, [2.0, 0.0, 0.0, 0.0]), [0.5, 0, 0, 0])


def test_group_inverse_vector_matches_kelvin():
    x = np.array([0.3, -1.2, 0.4])
    got = clifford_group_inverse(3, vectors(x, 3))
    assert np.allclose(got[[1, 2, 4]], -x / (x @ x))


def test_group_inverse_versor():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = Multivector(3, vectors(rng.uniform(-2, 2, 3), 3))
        for _ in range(3):
            a = a * Multivector(3, vectors(rng.uniform(-2, 2, 3), 3))
        inv = Multivector(3, clifford_group_inverse(3, a.coeffs))
        assert ((a * inv) - mv(3, b0=1.0)).norm() <= 1e-12 * max(1.0, a.norm())


def test_group_inverse_rejects_non_versor():
    # 1 + e12 has (1+e12)~(1+e12) = 1 + e12 - e12 - e12 e12 ... not scalar? it
    # is 2 actually; use 1 + e1 whose a~a = 1 + 2 e1 + ... non-scalar
    bad = mv(2, b0=1.0, b1=1.0)
    with pytest.raises(NotInvertibleError):
        clifford_group_inverse(2, bad.coeffs)


def test_dimension_mismatch_raises():
    with pytest.raises(AlgebraError):
        Multivector(2, np.zeros(4)) * Multivector(3, np.zeros(8))


@pytest.mark.parametrize("other", [2.0, 1, np.ones(4)])
def test_only_multivectors_combine(other):
    """Scalars and bare arrays are not Multivector operands."""
    a = mv(2, b0=1.0)
    for op in (lambda: a + other, lambda: a - other, lambda: a * other):
        with pytest.raises(AlgebraError):
            op()
