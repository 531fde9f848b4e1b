"""The matrix dagger category: composition, dagger, morphism classes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from daggerlab import matcat
from daggerlab.axioms import is_dagger_simple
from daggerlab.errors import DomainError, FieldMismatchError, ShapeMismatchError
from daggerlab.matcat import (
    Morphism,
    Obj,
    UNIT,
    approx_eq,
    basis_column,
    compose,
    embed,
    frobenius_distance,
    is_dagger_iso,
    is_dagger_mono,
    is_projection,
)
from daggerlab.sampling import random_dagger_mono, random_morphism, random_rank1_projections
from daggerlab.scalars import ALL_FIELDS, Field, Scalar, mul

RT2 = 2.0 ** -0.5


def test_compose_examples():
    f = Morphism.from_real(Field.REAL, [[1, 2], [3, 4]])
    ident = Morphism.identity(Field.REAL, Obj(2))
    assert frobenius_distance(ident @ f, f) == 0.0

    swap = Morphism.from_real(Field.REAL, [[0, 1], [1, 0]])
    assert frobenius_distance(swap @ swap, ident) == 0.0

    i = Morphism.single(Scalar(Field.QUATERNION, 0, 1, 0, 0))
    j = Morphism.single(Scalar(Field.QUATERNION, 0, 0, 1, 0))
    k = Morphism.single(Scalar(Field.QUATERNION, 0, 0, 0, 1))
    assert frobenius_distance(i @ j, k) == 0.0


def hamilton_oracle(a, b):
    """Entry-by-entry Hamilton products, the independent oracle."""
    m, k, n = a.shape[0], a.shape[1], b.shape[1]
    out = np.zeros((m, n, 4))
    for i in range(m):
        for j in range(n):
            acc = Scalar(Field.QUATERNION, 0)
            for l in range(k):
                p = mul(
                    Scalar(Field.QUATERNION, *a[i, l]),
                    Scalar(Field.QUATERNION, *b[l, j]),
                )
                acc = Scalar(
                    Field.QUATERNION,
                    acc.w + p.w, acc.x + p.x, acc.y + p.y, acc.z + p.z,
                )
            out[i, j] = acc.components()
    return out


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (5, 5, 5), (3, 0, 2)])
def test_compose_matches_hamilton_oracle(shape):
    m, k, n = shape
    rng = np.random.default_rng(5)
    a = rng.normal(size=(m, k, 4))
    b = rng.normal(size=(k, n, 4))
    g = Morphism(Field.QUATERNION, Obj(k), Obj(m), a)
    f = Morphism(Field.QUATERNION, Obj(n), Obj(k), b)
    np.testing.assert_allclose((g @ f).entries, hamilton_oracle(a, b), atol=1e-12)


def test_compose_inner_dimension_mismatch():
    g = Morphism.zero(Field.QUATERNION, Obj(3), Obj(2))
    f = Morphism.zero(Field.QUATERNION, Obj(2), Obj(2))
    with pytest.raises(ShapeMismatchError):
        compose(g, f)


def test_compose_errors():
    f = Morphism.from_real(Field.REAL, [[1, 2]])
    with pytest.raises(ShapeMismatchError):
        compose(f, f)
    g = Morphism.from_complex([[1.0]])
    with pytest.raises(FieldMismatchError):
        compose(g, Morphism.from_real(Field.REAL, [[1.0]]))


def test_dagger_examples():
    m = Morphism.from_complex([[1j]])
    assert np.allclose(m.dagger().complex_view(), [[-1j]])

    f = Morphism.from_real(Field.REAL, [[1, 2], [3, 4]])
    assert np.allclose(f.dagger().entries[..., 0], [[1, 3], [2, 4]])

    z = Morphism.zero(Field.COMPLEX, Obj(3), Obj(2))
    zd = z.dagger()
    assert zd.dom.dim == 2 and zd.cod.dim == 3 and zd.norm() == 0.0


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_dagger_functor_laws(field):
    rng = np.random.default_rng(21)
    for _ in range(500):
        a, b, c = (Obj(int(rng.integers(1, 6))) for _ in range(3))
        f = random_morphism(field, a, b, rng)
        g = random_morphism(field, b, c, rng)
        assert approx_eq((g @ f).dagger(), f.dagger() @ g.dagger())
        assert frobenius_distance(f.dagger().dagger(), f) == 0.0
    ident = Morphism.identity(field, Obj(4))
    assert frobenius_distance(ident.dagger(), ident) == 0.0


def test_dagger_mono_predicates():
    col = Morphism.from_real(Field.REAL, [[RT2], [RT2]])
    assert is_dagger_mono(col)
    assert not is_dagger_iso(col)
    assert not is_dagger_mono(Morphism.from_real(Field.REAL, [[1], [1]]))


def test_projection_predicate():
    assert is_projection(Morphism.from_real(Field.REAL, [[1, 0], [0, 0]]))
    assert not is_projection(Morphism.from_real(Field.REAL, [[1, 1], [0, 0]]))
    with pytest.raises(ShapeMismatchError):
        is_projection(Morphism.from_real(Field.REAL, [[1, 0]]))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_dagger_simple_is_dimension_one(field):
    rng = np.random.default_rng(33)
    assert is_dagger_simple(field, Obj(1), trials=6, rng=rng)
    assert not is_dagger_simple(field, Obj(0), trials=4, rng=rng)
    assert not is_dagger_simple(field, Obj(2), trials=6, rng=rng)
    # explicit witness: a unit column into dim 2 is an isometry, not unitary
    witness = basis_column(field, Obj(2), 0)
    assert is_dagger_mono(witness) and not is_dagger_iso(witness)


def test_frobenius_examples():
    f = Morphism.from_real(Field.REAL, [[1, 2], [3, 4]])
    assert frobenius_distance(f, f) == 0.0
    assert frobenius_distance(
        Morphism.identity(Field.REAL, UNIT), Morphism.zero(Field.REAL, UNIT, UNIT)
    ) == 1.0
    assert frobenius_distance(
        Morphism.from_real(Field.REAL, [[3.0]]), Morphism.from_real(Field.REAL, [[0.0]])
    ) == 3.0
    with pytest.raises(ShapeMismatchError):
        frobenius_distance(f, Morphism.from_real(Field.REAL, [[1.0]]))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_dagger_monos_are_monic(field):
    rng = np.random.default_rng(55)
    for _ in range(100):
        a = Obj(int(rng.integers(1, 5)))
        x = Obj(a.dim + int(rng.integers(0, 3)))
        f = random_dagger_mono(field, a, x, rng)
        s = random_morphism(field, Obj(2), a, rng)
        t = random_morphism(field, Obj(2), a, rng)
        if frobenius_distance(s, t) < 1e-6:
            continue
        # equal post-composites force equal factors
        assert not approx_eq(f @ s, f @ t)
        assert approx_eq(f.dagger() @ (f @ s), s)


def test_small_objects_pairwise_distinct():
    rng = np.random.default_rng(77)
    for field in ALL_FIELDS:
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            f = random_morphism(field, Obj(a), Obj(b), rng)
            assert not is_dagger_iso(f)
            assert not is_dagger_iso(f.dagger())


def test_json_roundtrip():
    rng = np.random.default_rng(90)
    for field in ALL_FIELDS:
        for dom, cod in [(2, 3), (0, 2), (3, 0), (1, 1)]:
            f = random_morphism(field, Obj(dom), Obj(cod), rng)
            g = Morphism.from_json(f.to_json())
            assert frobenius_distance(f, g) == 0.0
    bad = {"field": "C", "dom": 2, "cod": 1, "entries": [[[1.0, 0.0]]]}
    with pytest.raises(ShapeMismatchError):
        Morphism.from_json(bad)


BAD_JSON_TYPES = [
    ("dom", 1.9), ("dom", True), ("cod", "1"), ("cod", None),
    ("entries", [[[True, 0.0]]]), ("entries", [[[1.0, "0"]]]),
    ("entries", [[[None, 0.0]]]), ("entries", [[[[1.0], 0.0]]]),
]


@pytest.mark.parametrize("key, value", BAD_JSON_TYPES,
                         ids=[f"{k}={v!r}" for k, v in BAD_JSON_TYPES])
def test_json_rejects_values_that_are_not_numbers_of_the_right_type(key, value):
    # the 1x1 complex identity with one value replaced; int() would read
    # 1.9, True and "1" as 1, and float() would read True and "0"
    data = {"field": "C", "dom": 1, "cod": 1, "entries": [[[1.0, 0.0]]]}
    data[key] = value
    with pytest.raises(DomainError):
        Morphism.from_json(data)


def test_entry_width_validation():
    e = np.zeros((1, 1, 4))
    e[0, 0, 2] = 1.0
    with pytest.raises(FieldMismatchError):
        Morphism(Field.COMPLEX, UNIT, UNIT, e)


def test_column_extraction():
    f = Morphism.from_real(Field.REAL, [[1, 2], [3, 4]])
    col = f.col(1)
    assert col.dom == UNIT and np.allclose(col.entries[..., 0].ravel(), [2, 4])


def test_morphism_is_immutable():
    f = Morphism.from_real(Field.REAL, [[1.0]])
    with pytest.raises(AttributeError):
        f.dom = Obj(2)


def test_objects_are_natural_numbers():
    assert Obj(0).dim == 0
    with pytest.raises(DomainError):
        Obj(-1)


@pytest.mark.parametrize("dim", [2.5, 3.0, "3", None, np.float64(2.0), True, False])
def test_objects_reject_non_integer_dimensions(dim):
    with pytest.raises(DomainError):
        Obj(dim)


def test_numpy_integer_dimensions_intern_as_int():
    n = 1_000_013  # not interned by any other test
    first = Obj(np.int64(n))
    assert type(first.dim) is int and first is Obj(n) is Obj(np.int32(n))
    assert json.dumps(Obj(n).dim) == str(n)
    with pytest.raises(DomainError):
        Obj(np.int64(-2))


def test_views_are_read_only():
    f = Morphism.from_complex([[1.0 + 2.0j]])
    for view in (f.entries, f.complex_view()):
        with pytest.raises(ValueError):
            view[0, 0] = 0.0
    assert f.entry(0, 0) == Scalar(Field.COMPLEX, 1.0, 2.0)


def test_embed_places_blocks_and_checks_them():
    q = Scalar(Field.QUATERNION, 1.0, 2.0, 3.0, 4.0)
    m = embed(Field.QUATERNION, Obj(2), Obj(3), [(2, 1, Morphism.single(q))])
    assert m.entry(2, 1) == q
    assert m.norm() == pytest.approx(30.0 ** 0.5, rel=1e-15)
    with pytest.raises(ShapeMismatchError):
        embed(Field.QUATERNION, Obj(2), Obj(3), [(3, 0, Morphism.single(q))])
    with pytest.raises(FieldMismatchError):
        embed(Field.REAL, Obj(1), Obj(1), [(0, 0, Morphism.single(q))])


@st.composite
def morphisms(draw, field, dom, cod):
    comps = draw(arrays(np.float64, (cod, dom, field.width),
                        elements=st.floats(-4.0, 4.0, width=64)))
    e = np.zeros((cod, dom, 4))
    e[..., : field.width] = comps
    return Morphism(field, Obj(dom), Obj(cod), e), e


@st.composite
def composable_pairs(draw):
    field = draw(st.sampled_from(ALL_FIELDS))
    a, b, c = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(morphisms(field, a, b)), draw(morphisms(field, b, c))


@settings(max_examples=150, deadline=None, database=None)
@given(composable_pairs())
def test_morphism_laws_hold_on_every_field(pair):
    (f, ef), (g, eg) = pair
    assert frobenius_distance(f.dagger().dagger(), f) == 0.0
    assert approx_eq((g @ f).dagger(), f.dagger() @ g.dagger())
    for m, e in ((f, ef), (g, eg)):
        assert frobenius_distance(Morphism.from_json(m.to_json()), m) == 0.0
        assert np.array_equal(m.entries, e)
        assert m.norm() == pytest.approx(np.sqrt(np.sum(e * e)), rel=1e-12, abs=1e-300)


@st.composite
def stacks(draw):
    field = draw(st.sampled_from(ALL_FIELDS))
    dom, cod, count = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 3))
    return [draw(morphisms(field, dom, cod)) for _ in range(count)]


@settings(max_examples=150, deadline=None, database=None)
@given(stacks())
def test_components_of_a_stack_are_the_entries_of_each_morphism(stack):
    field = stack[0][0].field
    comps = matcat._components(field, np.array([m._a for m, _ in stack]))
    assert comps.shape == (len(stack), *stack[0][1].shape)
    for k, (m, e) in enumerate(stack):
        assert np.array_equal(comps[k], m.entries)
        assert np.array_equal(comps[k], e)


@st.composite
def columns_and_reals(draw):
    field = draw(st.sampled_from(ALL_FIELDS))
    u, _ = draw(morphisms(field, 1, draw(st.integers(1, 5))))
    return u, draw(st.floats(-4.0, 4.0, width=64))


@settings(max_examples=150, deadline=None, database=None)
@given(columns_and_reals())
def test_column_helpers_match_the_scalar_path(pair):
    # the Scalar round trip that orthonormal_columns used before the helpers
    u, r = pair
    assert matcat.column_sq_norm(u) == (u.dagger() @ u).scalar().w
    assert np.array_equal(matcat.scaled(u, r).entries,
                          (u @ Morphism.single(Scalar(u.field, r))).entries)
    assert (matcat.scaled(u, r).dom, matcat.scaled(u, r).cod) == (u.dom, u.cod)


# entries whose squares are zero, underflow, overflow to inf or are NaN
_EDGE_COMPONENTS = [0.0, -0.0, 5e-324, -5e-324, 1e200, -1e200, np.nan]


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_squared_lengths_are_never_negative(monkeypatch, field):
    """A squared length is a sum of squared moduli: +0.0 or more, +inf or
    NaN, never negative, so its square root needs no clamp at 0."""
    rng = np.random.default_rng(5)
    comps = rng.choice(_EDGE_COMPONENTS, size=(300, 3, 1, field.width))
    comps[:len(_EDGE_COMPONENTS)] = np.reshape(_EDGE_COMPONENTS, (-1, 1, 1, 1))
    columns = [matcat.from_components(field, UNIT, Obj(3), c) for c in comps]
    seen = []
    sqrt = np.sqrt
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.array([matcat.column_sq_norm(u) for u in columns])
        monkeypatch.setattr(np, "sqrt", lambda a: seen.append(a.copy()) or sqrt(a))
        matcat.unit_columns(matcat.native_stack(columns))
        monkeypatch.undo()
    (batched,) = seen
    for lengths in (sq, batched):
        assert np.all(np.isnan(lengths) | ((lengths >= 0.0) & ~np.signbit(lengths)))
    assert np.isnan(sq).any() and np.isinf(sq).any() and (sq == 0.0).any()


def _blocks_by_embedding(field, f, g):
    dom, cod = Obj(f.dom.dim + g.dom.dim), Obj(f.cod.dim + g.cod.dim)
    return embed(field, dom, cod, [(0, 0, f), (f.cod.dim, f.dom.dim, g)])


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_direct_sum_and_column_block_are_the_embedded_blocks(field):
    rng = np.random.default_rng(1)
    f = random_morphism(field, Obj(2), Obj(3), rng)
    g = random_morphism(field, Obj(1), Obj(2), rng)
    h = random_morphism(field, Obj(3), Obj(3), rng)
    got = matcat.direct_sum(f, g)
    want = _blocks_by_embedding(field, f, g)
    assert (got.dom, got.cod) == (want.dom, want.cod)
    assert got._a.tobytes() == want._a.tobytes()
    block = matcat.column_block([f, h, f.col(1)])
    parts = [(0, 0, f), (0, 2, h), (0, 5, f.col(1))]
    want = embed(field, Obj(6), Obj(3), parts)
    assert (block.dom, block.cod) == (want.dom, want.cod)
    assert block._a.tobytes() == want._a.tobytes()
    with pytest.raises(ShapeMismatchError):
        matcat.column_block([])
    with pytest.raises(ShapeMismatchError):
        matcat.column_block([f, g])
    other = Field.REAL if field is not Field.REAL else Field.COMPLEX
    with pytest.raises(FieldMismatchError):
        matcat.column_block([f, Morphism.zero(other, UNIT, Obj(3))])
    with pytest.raises(FieldMismatchError):
        matcat.direct_sum(f, Morphism.zero(other, UNIT, UNIT))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_range_component_is_three_compositions(field):
    rng = np.random.default_rng(2)
    q = random_dagger_mono(field, Obj(2), Obj(4), rng)
    u = random_morphism(field, UNIT, Obj(4), rng)
    s = Morphism.single(Scalar(field, -1.0))
    got = matcat.range_component(q, q.dagger(), u, s)
    want = q @ ((q.dagger() @ u) @ s)
    assert (got.field, got.dom, got.cod) == (want.field, want.dom, want.cod)
    assert got._a.tobytes() == want._a.tobytes()
    with pytest.raises(ShapeMismatchError):
        matcat.range_component(q, q.dagger(), random_morphism(field, UNIT, Obj(3), rng), s)
    with pytest.raises(ShapeMismatchError):
        matcat.range_component(q, q.dagger(), random_morphism(field, Obj(2), Obj(4), rng), s)
    other = Field.REAL if field is not Field.REAL else Field.COMPLEX
    with pytest.raises(FieldMismatchError):
        matcat.range_component(q, q.dagger(), u, Morphism.single(Scalar(other, -1.0)))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_commuting_applies_the_approx_eq_rule_to_each_projection(field):
    rng = np.random.default_rng(3)
    x = Obj(3)
    u = random_dagger_mono(field, x, x, rng)
    projections = matcat.unstack(field, x, x, random_rank1_projections(field, x, 5, rng))
    projections += [Morphism.identity(field, x), Morphism.zero(field, x, x),
                    Morphism.from_real(field, np.diag([1.0, 0.0, 0.0]))]
    diagonal = Morphism.from_real(field, np.diag([2.0, 3.0, 3.0]))
    stack = matcat.native_stack(projections)
    for a in (u, diagonal, Morphism.identity(field, x)):
        want = [approx_eq(p @ a, a @ p) for p in projections]
        assert matcat.commuting(field, stack, a).tolist() == want
    assert matcat.commuting(field, stack, diagonal).tolist() == [False] * 5 + [True] * 3
    with pytest.raises(ShapeMismatchError):
        matcat.commuting(field, stack, Morphism.identity(field, Obj(2)))
    other = Field.REAL if field is not Field.REAL else Field.COMPLEX
    with pytest.raises(FieldMismatchError):
        matcat.commuting(field, stack, Morphism.identity(other, x))


def test_from_components_checks_the_shape():
    comps = np.ones((2, 3, 2))
    m = matcat.from_components(Field.COMPLEX, Obj(3), Obj(2), comps)
    assert np.array_equal(m.complex_view(), np.full((2, 3), 1 + 1j))
    with pytest.raises(ShapeMismatchError):
        matcat.from_components(Field.COMPLEX, Obj(2), Obj(3), comps)
    with pytest.raises(ShapeMismatchError):
        matcat.from_components(Field.QUATERNION, Obj(3), Obj(2), comps)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_rows_and_column_norms_match_the_per_column_morphisms(field):
    rng = np.random.default_rng(97)
    for m, n in [(0, 3), (3, 0), (1, 1), (4, 2), (2, 5)]:
        f = random_morphism(field, Obj(n), Obj(m), rng)
        g = random_morphism(field, Obj(n), Obj(m), rng)
        for i in range(m):
            row = f.row(i)
            assert (row.dom.dim, row.cod.dim) == (n, 1)
            assert all(row.entry(0, j) == f.entry(i, j) for j in range(n))
        norms = matcat.column_norms(f)
        distances = matcat.column_distances(f, g)
        assert len(norms) == len(distances) == n
        for j in range(n):
            assert abs(norms[j] - f.col(j).norm()) <= 1e-12
            assert abs(distances[j] - frobenius_distance(f.col(j), g.col(j))) <= 1e-12


def test_column_distances_check_their_operands_and_keep_nan():
    f = Morphism.from_real(Field.REAL, [[1.0, np.nan], [0.0, 0.0]])
    assert np.isnan(matcat.column_norms(f)).tolist() == [False, True]
    assert np.isnan(matcat.column_distances(f, f)).tolist() == [False, True]
    with pytest.raises(ShapeMismatchError):
        matcat.column_distances(f, Morphism.identity(Field.REAL, Obj(3)))
    with pytest.raises(FieldMismatchError):
        matcat.column_distances(f, Morphism.identity(Field.COMPLEX, Obj(2)))


def test_objects_are_interned_with_dataclass_equality_hash_and_repr():
    import copy
    import pickle

    for n in (0, 1, 2, 7):
        o = Obj(n)
        assert Obj(n) is o and Obj(dim=n) is o
        assert o == Obj(n) and o != Obj(n + 1) and o != n
        assert hash(o) == hash((n,)) and repr(o) == f"Obj(dim={n})"
        assert copy.deepcopy(o) is o and pickle.loads(pickle.dumps(o)) is o
    assert matcat.ZERO_OBJ is Obj(0) and UNIT is Obj(1)
    # block constructions reuse the shared objects
    f = Morphism.zero(Field.REAL, Obj(2), Obj(3))
    assert matcat.direct_sum(f, f).dom is Obj(4)
    assert matcat.column_block([f, f]).dom is Obj(4)
    o = Obj(5)
    with pytest.raises(AttributeError):
        o.dim = 6
    with pytest.raises(AttributeError):
        del o.dim
    assert Obj(5).dim == 5


def test_identities_are_cached_shared_and_read_only():
    for field in ALL_FIELDS:
        for n in range(4):
            ident = Morphism.identity(field, Obj(n))
            assert Morphism.identity(field, Obj(n)) is ident
            assert ident.dom is Obj(n) and ident.cod is Obj(n)
            s = 2 if field is Field.QUATERNION else 1
            assert np.array_equal(ident._a, np.eye(s * n))
            assert not ident._a.flags.writeable
            if n:
                with pytest.raises(ValueError):
                    ident._a[0, 0] = 7.0
                # a basis column is a read-only view of the shared identity
                col = basis_column(field, Obj(n), n - 1)
                assert np.shares_memory(col._a, ident._a) and not col._a.flags.writeable
    assert Morphism.identity(Field.REAL, Obj(2)) is not Morphism.identity(Field.COMPLEX, Obj(2))


def test_identity_cache_is_bounded():
    cache = matcat._identity
    assert cache.cache_info().maxsize == 256
    cache.cache_clear()
    # 3 fields x 87 dimensions: five more identities than the cache holds
    keys = [(field, n) for n in range(87) for field in ALL_FIELDS]
    idents = [Morphism.identity(field, Obj(n)) for field, n in keys]
    assert cache.cache_info().currsize == 256
    for (field, n), ident in zip(keys, idents):
        again = Morphism.identity(field, Obj(n))
        assert again.dom is Obj(n) and np.array_equal(again._a, ident._a)
        assert not again._a.flags.writeable
    assert cache.cache_info().currsize == 256
    cache.cache_clear()


def test_basis_columns_are_the_embedded_units():
    for field in ALL_FIELDS:
        for n in range(1, 5):
            x = Obj(n)
            for k in range(n):
                want = embed(field, UNIT, x, [(k, 0, Morphism.single(Scalar(field, 1.0)))])
                got = basis_column(field, x, k)
                assert (got.dom, got.cod) == (UNIT, x)
                assert got._a.dtype == want._a.dtype and np.array_equal(got._a, want._a)


def test_out_of_range_indices_are_shape_mismatches():
    for field in ALL_FIELDS:
        m = Morphism.from_real(field, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])  # 3 -> 2
        for j in (-1, -3, 3, 7):
            with pytest.raises(ShapeMismatchError):
                m.col(j)
        for i in (-1, 2, 5):
            with pytest.raises(ShapeMismatchError):
                m.row(i)
        for i, j in ((5, 0), (2, 0), (0, 3), (-1, 0), (0, -1)):
            with pytest.raises(ShapeMismatchError):
                m.entry(i, j)
        assert m.entry(1, 2) == Scalar(field, 6.0)
        for k in (-1, -3, 3):
            with pytest.raises(ShapeMismatchError):
                basis_column(field, Obj(3), k)
        with pytest.raises(ShapeMismatchError):
            basis_column(field, Obj(0), 0)
        one = Morphism.identity(field, UNIT)
        for row, col in ((-1, 0), (0, -1)):
            with pytest.raises(ShapeMismatchError):
                embed(field, Obj(2), Obj(2), [(row, col, one)])
