"""Biproducts, the derived addition, and its entrywise oracle.

The sum of two 1x1 morphisms evaluated through the defining blocks:
diagonal [1; 1], direct sum diag(f, g), codiagonal [1, 1], so
[1, 1] . diag(2, 3) . [1; 1] = 2 + 3 = 5.  That hand computation is the
frozen oracle for the first example below.
"""

import math

import numpy as np
import pytest

from daggerlab.biproduct import (
    Biproduct,
    derived_add,
    diagonal_pair,
    make_biproduct,
    nfold_biproduct,
    oplus_mor,
    orthonormal_columns,
    pairing,
    verify_biproduct,
)
from daggerlab import axioms, biproduct
from daggerlab.axioms import complement_h3
from daggerlab.errors import DomainError, FieldMismatchError, ShapeMismatchError
from daggerlab.matcat import (
    Morphism,
    Obj,
    UNIT,
    approx_eq,
    basis_column,
    column_block,
    column_sq_norm,
    frobenius_distance,
    is_dagger_iso,
    is_dagger_mono,
    project_to_field,
    range_component,
    scaled,
)
from daggerlab.sampling import random_dagger_mono, random_morphism, random_unitary
from daggerlab.scalars import ALL_FIELDS, Field, Scalar


def test_make_biproduct_examples():
    bp = make_biproduct(Field.REAL, UNIT, UNIT)
    assert np.allclose(bp.inj_left.entries[..., 0], [[1], [0]])
    assert np.allclose(bp.inj_right.entries[..., 0], [[0], [1]])

    bp20 = make_biproduct(Field.REAL, Obj(2), Obj(0))
    assert frobenius_distance(bp20.inj_left, Morphism.identity(Field.REAL, Obj(2))) == 0.0
    assert bp20.inj_right.dom.dim == 0 and bp20.inj_right.cod.dim == 2

    assert make_biproduct(Field.REAL, Obj(0), Obj(0)).total.dim == 0
    assert bp.total is Obj(2)
    with pytest.raises(ShapeMismatchError):
        Biproduct(bp.inj_left, Morphism.identity(Field.REAL, UNIT))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_canonical_biproducts_verify(field):
    for a in range(4):
        for b in range(4):
            ok, residual = verify_biproduct(make_biproduct(field, Obj(a), Obj(b)))
            assert ok and residual < 1e-12


def test_adversarial_injections_rejected():
    bad = Biproduct(
        Morphism.from_real(Field.REAL, [[1], [1]]),
        Morphism.from_real(Field.REAL, [[0], [1]]),
    )
    ok, residual = verify_biproduct(bad)
    assert not ok and residual > 0.5


def test_oplus_examples():
    id1 = Morphism.identity(Field.REAL, UNIT)
    assert frobenius_distance(oplus_mor(id1, id1), Morphism.identity(Field.REAL, Obj(2))) == 0.0

    two = Morphism.from_real(Field.REAL, [[2.0]])
    three = Morphism.from_real(Field.REAL, [[3.0]])
    assert np.allclose(oplus_mor(two, three).entries[..., 0], [[2, 0], [0, 3]])

    f = Morphism.from_real(Field.REAL, [[1, 2], [3, 4]])
    zero00 = Morphism.zero(Field.REAL, Obj(0), Obj(0))
    assert frobenius_distance(oplus_mor(f, zero00), f) == 0.0


def test_oplus_commuting_squares():
    rng = np.random.default_rng(3)
    for field in ALL_FIELDS:
        f = random_morphism(field, Obj(2), Obj(3), rng)
        g = random_morphism(field, Obj(1), Obj(2), rng)
        bp_dom = make_biproduct(field, f.dom, g.dom)
        bp_cod = make_biproduct(field, f.cod, g.cod)
        fg = oplus_mor(f, g)
        assert approx_eq(fg @ bp_dom.inj_left, bp_cod.inj_left @ f)
        assert approx_eq(fg @ bp_dom.inj_right, bp_cod.inj_right @ g)
        # dagger distributes over the direct sum
        assert approx_eq(fg.dagger(), oplus_mor(f.dagger(), g.dagger()))


def test_copairing_pairing_examples():
    e1 = Morphism.from_real(Field.REAL, [[1], [0]])
    e2 = Morphism.from_real(Field.REAL, [[0], [1]])
    assert frobenius_distance(column_block([e1, e2]), Morphism.identity(Field.REAL, Obj(2))) == 0.0
    assert frobenius_distance(column_block([e1]), e1) == 0.0

    r1 = Morphism.from_real(Field.REAL, [[1, 0]])
    r2 = Morphism.from_real(Field.REAL, [[0, 1]])
    assert frobenius_distance(pairing([r1, r2]), Morphism.identity(Field.REAL, Obj(2))) == 0.0

    assert frobenius_distance(column_block([e1, e2]).dagger(), pairing([e1.dagger(), e2.dagger()])) == 0.0
    with pytest.raises(ShapeMismatchError):
        column_block([])
    with pytest.raises(ShapeMismatchError):
        column_block([e1, r1])


def test_diagonal_pair_laws():
    for field in ALL_FIELDS:
        dp = diagonal_pair(field, Obj(3))
        assert frobenius_distance(dp.diagonal.dagger(), dp.codiagonal) == 0.0
        bp = make_biproduct(field, Obj(3), Obj(3))
        ident = Morphism.identity(field, Obj(3))
        assert approx_eq(bp.inj_left.dagger() @ dp.diagonal, ident)
        assert approx_eq(bp.inj_right.dagger() @ dp.diagonal, ident)


def test_derived_add_examples():
    two = Morphism.from_real(Field.REAL, [[2.0]])
    three = Morphism.from_real(Field.REAL, [[3.0]])
    assert frobenius_distance(derived_add(two, three), Morphism.from_real(Field.REAL, [[5.0]])) == 0.0

    rng = np.random.default_rng(8)
    f = random_morphism(Field.COMPLEX, Obj(2), Obj(3), rng)
    zero = Morphism.zero(Field.COMPLEX, Obj(2), Obj(3))
    assert frobenius_distance(derived_add(f, zero), f) == 0.0

    g = random_morphism(Field.COMPLEX, Obj(2), Obj(3), rng)
    assert frobenius_distance(derived_add(f, g), derived_add(g, f)) == 0.0


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_derived_add_matches_entrywise_oracle(field):
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = Obj(int(rng.integers(0, 9)))
        y = Obj(int(rng.integers(0, 9)))
        f = random_morphism(field, x, y, rng)
        g = random_morphism(field, x, y, rng)
        oracle = Morphism(field, x, y, f.entries + g.entries)
        assert frobenius_distance(derived_add(f, g), oracle) <= 1e-9


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_zero_left_leg_forces_unitary_right_leg(field):
    rng = np.random.default_rng(17)
    for _ in range(50):
        t = Obj(int(rng.integers(1, 6)))
        g = random_unitary(field, t, rng)
        bp = Biproduct(Morphism.zero(field, Obj(0), t), g)
        ok, _ = verify_biproduct(bp)
        assert ok and is_dagger_iso(g)
        # replay of the argument: g . g-dagger fixes both legs
        assert approx_eq(g @ (g.dagger() @ g), g)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_range_projections_sum_to_identity(field):
    rng = np.random.default_rng(19)
    for _ in range(50):
        a, b = Obj(int(rng.integers(0, 4))), Obj(int(rng.integers(0, 4)))
        bp = make_biproduct(field, a, b)
        u = random_unitary(field, bp.total, rng)
        left, right = u @ bp.inj_left, u @ bp.inj_right
        total = derived_add(left @ left.dagger(), right @ right.dagger())
        assert approx_eq(total, Morphism.identity(field, bp.total))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_dagger_of_derived_sum(field):
    rng = np.random.default_rng(23)
    for _ in range(50):
        x, y = Obj(int(rng.integers(0, 5))), Obj(int(rng.integers(0, 5)))
        f = random_morphism(field, x, y, rng)
        g = random_morphism(field, x, y, rng)
        assert approx_eq(derived_add(f, g).dagger(), derived_add(f.dagger(), g.dagger()))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_semiadditive_laws(field):
    rng = np.random.default_rng(29)
    for _ in range(50):
        x, y, z = (Obj(int(rng.integers(1, 5))) for _ in range(3))
        f = random_morphism(field, x, y, rng)
        g = random_morphism(field, x, y, rng)
        h = random_morphism(field, x, y, rng)
        r = random_morphism(field, y, z, rng)
        s = random_morphism(field, z, x, rng)
        zero = Morphism.zero(field, x, y)
        assert approx_eq(derived_add(derived_add(f, g), h), derived_add(f, derived_add(g, h)))
        assert approx_eq(derived_add(f, g), derived_add(g, f))
        assert frobenius_distance(derived_add(f, zero), f) == 0.0
        assert approx_eq(r @ derived_add(f, g), derived_add(r @ f, r @ g))
        assert approx_eq(derived_add(f, g) @ s, derived_add(f @ s, g @ s))


def test_nfold_biproduct_examples():
    injections = nfold_biproduct(UNIT, 2, Field.REAL)
    assert np.allclose(injections[0].entries[..., 0], [[1], [0]])
    assert np.allclose(injections[1].entries[..., 0], [[0], [1]])

    assert nfold_biproduct(UNIT, 0, Field.REAL) == []
    with pytest.raises(DomainError):
        nfold_biproduct(UNIT, -1, Field.REAL)

    injections = nfold_biproduct(Obj(2), 2, Field.COMPLEX)
    assert len(injections) == 2
    assert all(i.cod.dim == 4 and i.dom.dim == 2 for i in injections)
    acc = Morphism.zero(Field.COMPLEX, Obj(4), Obj(4))
    for inj in injections:
        assert is_dagger_mono(inj)
        acc = derived_add(acc, inj @ inj.dagger())
    assert approx_eq(acc, Morphism.identity(Field.COMPLEX, Obj(4)))
    assert (injections[1].dagger() @ injections[0]).norm() == 0.0


def test_orthonormal_columns_drops_dependents():
    v = Morphism.from_real(Field.REAL, [[1], [1]])
    cols = orthonormal_columns([v, v])
    assert len(cols) == 1
    assert abs(cols[0].norm() - 1.0) < 1e-12


def test_orthonormal_columns_quaternion_right_action():
    i = Scalar(Field.QUATERNION, 0, 1, 0, 0)
    j = Scalar(Field.QUATERNION, 0, 0, 1, 0)
    v = Morphism.from_scalars(Field.QUATERNION, [[i], [j]])
    (e,) = orthonormal_columns([v])
    ip = (e.dagger() @ e).scalar()
    assert abs(ip.w - 1.0) < 1e-12 and abs(ip.x) + abs(ip.y) + abs(ip.z) < 1e-12


def _gram_schmidt_reference(vectors, against=(), drop_eps=1e-8):
    """Column-by-column modified Gram-Schmidt with one re-orthogonalising
    pass: 1x1 coefficients, one derived addition per basis column."""
    accepted = []
    for v in vectors:
        u = v
        for _ in range(2):
            for e in [*against, *accepted]:
                coef = (e.dagger() @ u).scalar()
                minus_coef = Scalar(u.field, *(-c for c in coef.components()))
                u = derived_add(u, e @ Morphism.single(minus_coef))
        length = np.sqrt((u.dagger() @ u).scalar().w)
        if length < drop_eps:
            continue
        accepted.append(u @ Morphism.single(Scalar(u.field, 1.0 / length)))
    return accepted


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_orthonormal_columns_match_the_column_by_column_reference(field):
    """Gram-Schmidt output is unique for a given order, so the block
    passes must reproduce the loop up to rounding."""
    rng = np.random.default_rng(23)
    x = Obj(7)
    u = random_unitary(field, x, rng)
    for against in ([], [u.col(0), u.col(1), u.col(2)]):
        vectors = [random_morphism(field, UNIT, x, rng) for _ in range(7 - len(against))]
        vectors.insert(2, derived_add(vectors[0], vectors[1]))  # dropped by both
        got = orthonormal_columns(vectors, against=against)
        want = _gram_schmidt_reference(vectors, against=against)
        assert len(got) == len(want) == len(vectors) - 1
        for g, w in zip(got, want):
            assert frobenius_distance(g, w) < 1e-12


def _nearly_dependent_columns(field, x, count, rng):
    """One Gaussian column and `count - 1` copies of it, each moved by
    a 1e-6 Gaussian perturbation: independent, but barely."""
    base = random_morphism(field, UNIT, x, rng)
    cols = [base]
    for _ in range(count - 1):
        noise = random_morphism(field, UNIT, x, rng) @ Morphism.single(Scalar(field, 1e-6))
        cols.append(derived_add(base, noise))
    return cols


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_orthonormal_columns_stay_orthonormal_on_nearly_dependent_input(field):
    rng = np.random.default_rng(17)
    x = Obj(10)
    cols = orthonormal_columns(_nearly_dependent_columns(field, x, 8, rng))
    assert len(cols) == 8
    q = column_block(cols)
    # one classical pass would lose orthogonality to about eps * cond^2 ~ 1e-4
    assert frobenius_distance(q.dagger() @ q, Morphism.identity(field, Obj(8))) <= 1e-12


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_orthonormal_columns_drop_dependents_against_a_prefix(field):
    rng = np.random.default_rng(5)
    x = Obj(4)
    u = random_unitary(field, x, rng)
    against = [u.col(0), u.col(1)]
    alpha = Morphism.single(Scalar(field, 0.3))
    in_prefix = derived_add(against[0] @ alpha, against[1])
    fresh = random_morphism(field, UNIT, x, rng)
    in_both = derived_add(fresh, against[1] @ alpha)
    cols = orthonormal_columns([in_prefix, fresh, fresh, in_both], against=against)
    assert len(cols) == 1
    (e,) = cols
    assert abs(e.norm() - 1.0) < 1e-12
    assert all((a.dagger() @ e).norm() < 1e-12 for a in against)
    # every dropped candidate lies in the span of the prefix and e
    block = column_block([*against, e])
    for v in (in_prefix, fresh, in_both):
        assert frobenius_distance(block @ (block.dagger() @ v), v) < 1e-12


def test_orthonormal_columns_quaternion_right_action_against_a_prefix():
    h = Field.QUATERNION
    i = Scalar(h, 0, 1, 0, 0)
    j = Scalar(h, 0, 0, 1, 0)
    k = Scalar(h, 0, 0, 0, 1)
    half = Scalar(h, 0.5)
    a = Morphism.from_scalars(h, [[i], [j]]) @ Morphism.single(Scalar(h, 2 ** -0.5))
    v = Morphism.from_scalars(h, [[k], [half]])
    (e,) = orthonormal_columns([v], against=[a])
    assert (a.dagger() @ e).norm() < 1e-12
    ip = (e.dagger() @ e).scalar()
    assert abs(ip.w - 1.0) < 1e-12 and abs(ip.x) + abs(ip.y) + abs(ip.z) < 1e-12
    # v expands with coefficients acting on the right: v = a.(a*v) + e.(e*v)
    expansion = derived_add(a @ (a.dagger() @ v), e @ (e.dagger() @ v))
    assert frobenius_distance(expansion, v) < 1e-12


@pytest.mark.parametrize("against_count", [0, 2])
def test_orthonormal_columns_subtract_through_two_derived_additions(monkeypatch, against_count):
    from daggerlab import biproduct

    calls = []

    def counting_add(f, g):
        calls.append(1)
        return derived_add(f, g)

    monkeypatch.setattr(biproduct, "derived_add", counting_add)
    rng = np.random.default_rng(3)
    x = Obj(6)
    u = random_unitary(Field.COMPLEX, x, rng)
    against = [u.col(j) for j in range(against_count)]
    vectors = [random_morphism(Field.COMPLEX, UNIT, x, rng) for _ in range(3)]
    calls.clear()  # sampling the unitary orthonormalised too
    cols = orthonormal_columns(vectors, against=against)
    assert len(cols) == 3
    # one block subtraction per pass and two passes per vector with a
    # non-empty basis; the first vector of an empty basis has nothing to subtract
    projected = 3 if against_count else 2
    assert len(calls) == 2 * projected


def test_diagonal_pair_is_cached_and_read_only():
    for field in ALL_FIELDS:
        dp = diagonal_pair(field, Obj(3))
        assert diagonal_pair(field, Obj(3)) is dp
        for m in (dp.diagonal, dp.codiagonal):
            assert not m._a.flags.writeable
            with pytest.raises(ValueError):
                m._a[0, 0] = 7.0


def test_diagonal_pair_cache_is_bounded():
    cache = biproduct._diagonal_pair
    assert cache.cache_info().maxsize == 256
    cache.cache_clear()
    # 3 fields x 87 dimensions: five more pairs than the cache holds
    keys = [(field, n) for n in range(87) for field in ALL_FIELDS]
    pairs = [diagonal_pair(field, Obj(n)) for field, n in keys]
    assert cache.cache_info().currsize == 256
    for (field, n), dp in zip(keys, pairs):
        again = diagonal_pair(field, Obj(n))
        assert again.diagonal.dom is Obj(n)
        assert frobenius_distance(again.diagonal, dp.diagonal) == 0.0
    assert cache.cache_info().currsize == 256
    cache.cache_clear()


def test_oplus_and_copairing_reject_mixed_fields():
    r = Morphism.identity(Field.REAL, UNIT)
    c = Morphism.identity(Field.COMPLEX, UNIT)
    with pytest.raises(FieldMismatchError):
        oplus_mor(r, c)
    with pytest.raises(FieldMismatchError):
        column_block([r, c])
    # pairing tells a mixed field from a mixed domain
    with pytest.raises(FieldMismatchError):
        pairing([r, c])
    with pytest.raises(ShapeMismatchError):
        pairing([r, Morphism.zero(Field.REAL, Obj(2), UNIT)])


@pytest.mark.parametrize("against_count", [0, 1, 3])
def test_orthonormal_columns_reject_mixed_fields_and_codomains(against_count):
    # the three vectors, or the prefix, span the ambient before a trailing odd input
    rng = np.random.default_rng(8)
    x = Obj(3)
    unitary = random_unitary(Field.COMPLEX, x, rng)
    against = [unitary.col(j) for j in range(against_count)]
    vectors = [random_morphism(Field.COMPLEX, UNIT, x, rng) for _ in range(3)]
    real = random_morphism(Field.REAL, UNIT, x, rng)
    quaternion = random_morphism(Field.QUATERNION, UNIT, x, rng)
    longer = random_morphism(Field.COMPLEX, UNIT, Obj(4), rng)
    wide = random_morphism(Field.COMPLEX, Obj(2), x, rng)
    for odd in (real, quaternion):
        with pytest.raises(FieldMismatchError):
            orthonormal_columns([*vectors, odd], against=against)
        with pytest.raises(FieldMismatchError):
            orthonormal_columns([odd, *vectors], against=against)
    for odd in (longer, wide):
        with pytest.raises(ShapeMismatchError):
            orthonormal_columns([*vectors, odd], against=against)
        with pytest.raises(ShapeMismatchError):
            orthonormal_columns([odd, *vectors], against=against)
    if against:
        # a mixed prefix, and a prefix that differs from every vector
        with pytest.raises(FieldMismatchError):
            orthonormal_columns(vectors, against=[*against, real])
        with pytest.raises(ShapeMismatchError):
            orthonormal_columns(vectors, against=[*against, longer])
        with pytest.raises(FieldMismatchError):
            orthonormal_columns([real], against=against)
        with pytest.raises(ShapeMismatchError):
            orthonormal_columns([longer], against=against)


def _orthonormal_columns_full_scan(vectors, against=(), drop_eps=biproduct.DROP_EPS):
    """Gram-Schmidt as it ran before the stop rule: every candidate is
    projected twice, also once the basis spans the ambient, and Q-dagger
    is formed once per candidate."""
    q = column_block(against) if against else None
    accepted = []
    for v in vectors:
        u = v
        if q is not None:
            q_dagger = q.dagger()
            minus_one = biproduct._MINUS_ONE[u.field]
            for _ in range(2):
                u = derived_add(u, range_component(q, q_dagger, u, minus_one))
                u = project_to_field(u)
        length = math.sqrt(max(column_sq_norm(u), 0.0))  # the clamp never acts: see the bitwise test
        if length < drop_eps:
            continue
        unit = scaled(u, 1.0 / length)
        accepted.append(unit)
        q = unit if q is None else column_block([q, unit])
    return accepted


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.field, g.dom, g.cod) == (w.field, w.dom, w.cod)
        assert np.array_equal(g._a, w._a, equal_nan=True)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_orthonormal_columns_match_the_full_scan_bitwise(field):
    rng = np.random.default_rng(97)
    for n in range(9):
        x = Obj(n)
        u = random_unitary(field, x, rng)
        vectors = [random_morphism(field, UNIT, x, rng) for _ in range(n + 3)]
        if n:
            vectors.insert(1, vectors[0])  # dependent before the span is full
        for k in range(n + 1):
            against = [u.col(j) for j in range(k)]
            _assert_same_bits(orthonormal_columns(vectors, against=against),
                              _orthonormal_columns_full_scan(vectors, against=against))


def _leg_columns(cocone):
    return [leg.col(j) for leg in cocone.legs.values() for j in range(leg.dom.dim)]


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_complements_match_the_full_scan_bitwise(monkeypatch, field):
    rng = np.random.default_rng(41)
    isometries = [random_dagger_mono(field, Obj(a), Obj(n), rng)
                  for n in range(9) for a in range(n + 1)]
    cocones = [axioms.finite_directed_colimit(axioms.random_directed_diagram(field, rng))
               for _ in range(6)]
    got = [complement_h3(f) for f in isometries]
    got_legs = [orthonormal_columns(_leg_columns(c)) for c in cocones]
    monkeypatch.setattr(axioms, "orthonormal_columns", _orthonormal_columns_full_scan)
    for f, g in zip(isometries, got):
        _assert_same_bits([g], [complement_h3(f)])
    for c, g in zip(cocones, got_legs):
        _assert_same_bits(g, _orthonormal_columns_full_scan(_leg_columns(c)))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_orthonormal_columns_stop_projecting_once_the_ambient_is_spanned(monkeypatch, field):
    calls = []

    def counting(*args):
        calls.append(1)
        return range_component(*args)

    monkeypatch.setattr(biproduct, "range_component", counting)
    rng = np.random.default_rng(29)
    x = Obj(3)
    vectors = [random_morphism(field, UNIT, x, rng) for _ in range(7)]
    calls.clear()
    assert len(orthonormal_columns(vectors)) == 3
    assert len(calls) == 2 * 2  # two passes for the second and third candidates only
    u = random_unitary(field, x, rng)
    calls.clear()
    assert orthonormal_columns(vectors, against=[u.col(j) for j in range(3)]) == []
    assert not calls
    # the zero object is spanned by no columns
    assert orthonormal_columns([random_morphism(field, UNIT, Obj(0), rng)]) == []
    assert not calls


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_a_nan_basis_never_stops_the_scan(field):
    rng = np.random.default_rng(37)
    x = Obj(2)
    nan = Morphism.from_real(field, [[np.nan], [0.0]])
    vectors = [random_morphism(field, UNIT, x, rng) for _ in range(3)]
    for vs, against in (([nan, *vectors], []), ([vectors[0], nan, *vectors[1:]], []),
                        (vectors, [nan, basis_column(field, x, 1)])):
        got = orthonormal_columns(vs, against=against)
        _assert_same_bits(got, _orthonormal_columns_full_scan(vs, against=against))
        assert len(got) == len(vs)  # every candidate after the NaN is NaN, and kept
