"""Scalar-field reconstruction, Hermitian structure, bases, subspaces
(held as their isometries), and the column-action functor."""

import numpy as np
import pytest

from daggerlab.biproduct import derived_add
from daggerlab import campaigns, matcat, reconstruct
from daggerlab.campaigns import CampaignConfig
from daggerlab.errors import ShapeMismatchError
from daggerlab.matcat import (
    Morphism,
    Obj,
    UNIT,
    ZERO_OBJ,
    approx_eq,
    basis_column,
    column_block,
    frobenius_distance,
    is_dagger_iso,
    is_dagger_mono,
)
from daggerlab.reconstruct import (
    EndoField,
    functor_v,
    gram_schmidt,
    inner_product,
    onb_expansion,
    orthocomplement,
    orthonormality_residual,
    projection_of_subspace,
    rank_object,
    scalar_field_witness,
)
from daggerlab.reports import ERROR, NO_SAMPLE, worse
from daggerlab.sampling import random_dagger_mono, random_morphism, random_scalar, random_unitary
from daggerlab.scalars import ALL_FIELDS, Field, Scalar, conj, distance, mul, norm

RT2 = 2.0 ** -0.5


def test_inner_product_examples():
    u = basis_column(Field.COMPLEX, Obj(2), 0)
    assert inner_product(u, u).to_json() == [1.0, 0.0]

    v = basis_column(Field.COMPLEX, Obj(2), 1)
    assert inner_product(u, v).to_json() == [0.0, 0.0]

    a = Morphism.from_real(Field.REAL, [[1], [1]])
    b = Morphism.from_real(Field.REAL, [[1], [0]])
    assert inner_product(a, b).w == 1.0

    with pytest.raises(ShapeMismatchError):
        inner_product(u, basis_column(Field.COMPLEX, Obj(3), 0))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_scalar_field_witness(field):
    k1, k2 = scalar_field_witness(field)
    assert abs(norm(k1) - RT2) < 1e-12
    assert abs(norm(k2) - RT2) < 1e-12
    endo = EndoField(field)
    assert endo.add(endo.lift(k1), endo.lift(k2)).norm() <= 1e-9


def test_gram_schmidt_examples():
    v = Morphism.from_real(Field.REAL, [[1], [1]])
    sub = gram_schmidt([v])
    assert (sub.dom.dim, sub.cod.dim) == (1, 2) and is_dagger_mono(sub)
    assert np.allclose(np.abs(sub.entries[..., 0]), [[RT2], [RT2]])

    sub2 = gram_schmidt([v, v])
    assert sub2.dom.dim == 1  # dependent duplicate dropped

    i = Scalar(Field.QUATERNION, 0, 1, 0, 0)
    j = Scalar(Field.QUATERNION, 0, 0, 1, 0)
    subq = gram_schmidt([Morphism.from_scalars(Field.QUATERNION, [[i], [j]])])
    ip = inner_product(subq.col(0), subq.col(0))
    assert abs(ip.w - 1.0) < 1e-12 and abs(ip.x) + abs(ip.y) + abs(ip.z) < 1e-12


def test_gram_schmidt_empty_needs_context():
    sub = gram_schmidt([], field=Field.COMPLEX, ambient=Obj(3))
    assert sub.field is Field.COMPLEX and sub.dom is ZERO_OBJ and sub.cod is Obj(3)
    with pytest.raises(ShapeMismatchError):
        gram_schmidt([])


def _coefficients(u, basis):
    coeffs, _ = onb_expansion(u, basis)
    return [coeffs.entry(i, 0).to_json() for i in range(basis.dom.dim)]


def test_onb_expand_examples():
    basis = Morphism.identity(Field.COMPLEX, Obj(2))
    u = Morphism.from_complex([[3.0 + 0j], [4.0j]])
    assert _coefficients(u, basis) == [[3.0, 0.0], [0.0, 4.0]]
    assert frobenius_distance(onb_expansion(u, basis)[1], u) == 0.0

    e1 = basis.col(0)
    assert _coefficients(e1, basis) == [[1.0, 0.0], [0.0, 0.0]]

    hadamard = Morphism.from_real(Field.REAL, [[RT2, RT2], [RT2, -RT2]])
    ones = Morphism.from_real(Field.REAL, [[1], [1]])
    (c0, *_), (c1, *_) = _coefficients(ones, hadamard)
    assert abs(c0 - 2.0 ** 0.5) < 1e-12
    assert abs(c1) < 1e-12
    assert frobenius_distance(onb_expansion(ones, hadamard)[1], ones) <= 1e-12


def test_onb_expansion_of_a_non_spanning_basis_misses_the_vector():
    short = basis_column(Field.REAL, Obj(2), 0)
    u = Morphism.from_real(Field.REAL, [[1], [1]])
    _, recon = onb_expansion(u, short)
    assert frobenius_distance(u, recon) > 0.5


def test_projection_of_subspace():
    line = basis_column(Field.REAL, Obj(2), 0)
    assert np.allclose(projection_of_subspace(line).entries[..., 0], [[1, 0], [0, 0]])

    full = Morphism.identity(Field.COMPLEX, Obj(2))
    assert approx_eq(
        projection_of_subspace(full), Morphism.identity(Field.COMPLEX, Obj(2))
    )

    diag = gram_schmidt([Morphism.from_real(Field.REAL, [[1], [1]])])
    p = projection_of_subspace(diag)
    assert np.allclose(p.entries[..., 0], [[0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_orthocomplement_splits(field):
    rng = np.random.default_rng(31)
    for _ in range(30):
        x = Obj(int(rng.integers(1, 6)))
        k = int(rng.integers(0, x.dim + 1))
        sub = gram_schmidt(
            [random_morphism(field, UNIT, x, rng) for _ in range(k)],
            field=field, ambient=x,
        )
        perp = orthocomplement(sub)
        assert sub.dom.dim + perp.dom.dim == x.dim
        p, q = projection_of_subspace(sub), projection_of_subspace(perp)
        assert approx_eq(derived_add(p, q), Morphism.identity(field, x))
        for e in map(sub.col, range(sub.dom.dim)):
            assert approx_eq(p @ e, e)
        for e in map(perp.col, range(perp.dom.dim)):
            assert (p @ e).norm() < 1e-9


def test_functor_v_coordinate_bases_is_identity_representation():
    rng = np.random.default_rng(37)
    f = random_morphism(Field.COMPLEX, Obj(2), Obj(3), rng)
    rep = functor_v(f, Morphism.identity(Field.COMPLEX, Obj(2)), Morphism.identity(Field.COMPLEX, Obj(3)))
    assert frobenius_distance(rep, f) < 1e-12

    ident = Morphism.identity(Field.COMPLEX, Obj(3))
    rep_id = functor_v(ident, ident, ident)
    assert frobenius_distance(rep_id, ident) < 1e-12


def test_functor_v_rotated_bases_change_of_basis_oracle():
    rng = np.random.default_rng(41)
    f = random_morphism(Field.COMPLEX, Obj(3), Obj(3), rng)
    bu = random_unitary(Field.COMPLEX, Obj(3), rng)
    bv = random_unitary(Field.COMPLEX, Obj(3), rng)
    basis_dom = column_block([bu.col(j) for j in range(3)])
    basis_cod = column_block([bv.col(j) for j in range(3)])
    rep = functor_v(f, basis_dom, basis_cod)
    oracle = bv.dagger() @ f @ bu
    assert approx_eq(rep, oracle)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_functor_v_dagger_and_additive(field):
    rng = np.random.default_rng(43)
    for _ in range(40):
        x, y = Obj(int(rng.integers(1, 5))), Obj(int(rng.integers(1, 5)))
        f = random_morphism(field, x, y, rng)
        g = random_morphism(field, x, y, rng)
        bu = random_unitary(field, x, rng)
        bv = random_unitary(field, y, rng)
        bx = column_block([bu.col(j) for j in range(x.dim)])
        by = column_block([bv.col(j) for j in range(y.dim)])
        vf = functor_v(f, bx, by)
        assert frobenius_distance(functor_v(f.dagger(), by, bx), vf.dagger()) <= 1e-9
        assert frobenius_distance(
            functor_v(derived_add(f, g), bx, by),
            derived_add(vf, functor_v(g, bx, by)),
        ) <= 1e-9


def test_faithfulness_check():
    report = campaigns.check_functor_faithful(CampaignConfig(field=Field.COMPLEX, seed=47, trials=100))
    assert report.status == "pass" and report.details["trials"] == 100
    assert 0 < report.details["separated"] <= 100

    # id and 0 are separated by the first coordinate column
    f = Morphism.identity(Field.REAL, Obj(2))
    g = Morphism.zero(Field.REAL, Obj(2), Obj(2))
    u = basis_column(Field.REAL, Obj(2), 0)
    assert not approx_eq(f @ u, g @ u)
    # equal morphisms agree on every column, consistently
    for j in range(2):
        u = basis_column(Field.REAL, Obj(2), j)
        assert approx_eq(f @ u, f @ u)


def test_faithfulness_check_with_no_distinct_pair_is_an_error(monkeypatch):
    def zero_morphism(field, dom, cod, rng):
        return Morphism.zero(field, dom, cod)

    monkeypatch.setattr(campaigns, "random_morphism", zero_morphism)
    report = campaigns.check_functor_faithful(CampaignConfig(field=Field.COMPLEX, seed=47, trials=20))
    assert (report.axiom, report.status) == ("reconstruct.functor-faithful", ERROR)
    assert report.details == {"error": NO_SAMPLE}
    assert report.residual == 0.0 and report.witness is None


def test_entry_difference_is_separated_by_its_column():
    rng = np.random.default_rng(53)
    f = random_morphism(Field.COMPLEX, Obj(4), Obj(4), rng)
    bumped = f.entries.copy()
    bumped[2, 3, 0] += 1.0
    g = Morphism(Field.COMPLEX, Obj(4), Obj(4), bumped)
    u = basis_column(Field.COMPLEX, Obj(4), 3)
    assert not approx_eq(f @ u, g @ u)


def test_center_sqrt_minus_one():
    rep_c = campaigns.check_center_classification(CampaignConfig(field=Field.COMPLEX))
    assert (rep_c.status, rep_c.details) == ("pass", {"classified": "pass"})
    alpha = rep_c.witness.scalar()
    assert distance(mul(alpha, alpha), Scalar(Field.COMPLEX, -1.0)) < 1e-15


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_endofield_reversed_multiplication(field):
    rng = np.random.default_rng(59)
    endo = EndoField(field)
    for _ in range(200):
        a, b = random_scalar(field, rng), random_scalar(field, rng)
        # composition order of 1x1 matrices realises the reversed product
        assert distance(endo.lower(endo.mul(endo.lift(a), endo.lift(b))), mul(b, a)) <= 1e-12
        assert distance(endo.lower(endo.star(endo.lift(a))), conj(a)) == 0.0
        if norm(a) > 1e-3:
            assert frobenius_distance(endo.mul(endo.lift(a), endo.inv(endo.lift(a))), endo.one) <= 1e-9


def test_endofield_isomorphic_to_scalars_via_conjugation():
    # alpha -> conj(alpha) straightens the reversal into an isomorphism
    rng = np.random.default_rng(61)
    endo = EndoField(Field.QUATERNION)
    for _ in range(100):
        a, b = (random_scalar(Field.QUATERNION, rng) for _ in range(2))
        lhs = endo.lower(endo.mul(endo.lift(conj(a)), endo.lift(conj(b))))
        assert distance(lhs, conj(mul(a, b))) <= 1e-12


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_hermitian_form_laws(field):
    rng = np.random.default_rng(67)
    endo = EndoField(field)
    for _ in range(60):
        x = Obj(int(rng.integers(1, 6)))
        u = random_morphism(field, UNIT, x, rng)
        v = random_morphism(field, UNIT, x, rng)
        alpha = random_scalar(field, rng)
        lhs = Morphism.single(inner_product(u @ Morphism.single(alpha), v))
        rhs = endo.mul(endo.lift(alpha), Morphism.single(inner_product(u, v)))
        assert approx_eq(lhs, rhs)
        assert distance(inner_product(u, v), conj(inner_product(v, u))) <= 1e-12
        uu = inner_product(u, u)
        if u.norm() > 1e-6:
            assert uu.w > 0 and abs(uu.x) + abs(uu.y) + abs(uu.z) <= 1e-12


def test_rank_objects_up_to_sixteen():
    for field in ALL_FIELDS:
        for n in range(17):
            x, onb = rank_object(field, n)
            assert x.dim == n and len(onb) == n
            if n:
                assert is_dagger_iso(Morphism(field, Obj(n), Obj(n), np.concatenate(
                    [e.entries for e in onb], axis=1)))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_copairing_biconditional(field):
    from daggerlab.sampling import random_dagger_mono

    rng = np.random.default_rng(71)
    for trial in range(60):
        x = Obj(int(rng.integers(1, 6)))
        n = int(rng.integers(1, x.dim + 1))
        if trial % 2 == 0:
            m = random_dagger_mono(field, Obj(n), x, rng)
            cols = tuple(m.col(j) for j in range(n))
        else:
            cols = tuple(random_morphism(field, UNIT, x, rng) for _ in range(n))
        b = column_block(list(cols))
        assert (orthonormality_residual(b) <= 1e-6) == is_dagger_mono(b)


def test_faithfulness_check_with_nan_morphisms_fails(monkeypatch):
    # NaN distances are not separations: the run must not pass on them
    def nan_morphism(field, dom, cod, rng):
        return Morphism.from_real(field, np.full((cod.dim, dom.dim), np.nan))

    monkeypatch.setattr(campaigns, "random_morphism", nan_morphism)
    report = campaigns.check_functor_faithful(CampaignConfig(field=Field.COMPLEX, seed=42, trials=20))
    assert (report.axiom, report.status) == ("reconstruct.functor-faithful", "fail")
    assert np.isnan(report.residual)
    assert "separated" not in report.details


# -- the entrywise code that subspaces-as-isometries replaced, kept as oracles


def _functor_v_entrywise(f, basis_dom, basis_cod):
    cols_dom = [basis_dom.col(j) for j in range(basis_dom.dom.dim)]
    rows = [
        [(basis_cod.col(i).dagger() @ f @ e).scalar() for e in cols_dom]
        for i in range(basis_cod.dom.dim)
    ]
    if not rows:
        return Morphism.zero(f.field, basis_dom.dom, Obj(0))
    return Morphism.from_scalars(f.field, rows)


def _orthonormality_residual_entrywise(b):
    worst = 0.0
    for i in range(b.dom.dim):
        for j in range(b.dom.dim):
            g = inner_product(b.col(i), b.col(j))
            target = 1.0 if i == j else 0.0
            worst = worse(worst, abs(g.w - target), abs(g.x), abs(g.y), abs(g.z))
    return worst


def _onb_expand_entrywise(u, basis):
    coeffs, recon = [], Morphism.zero(u.field, UNIT, u.cod)
    for j in range(basis.dom.dim):
        e = basis.col(j)
        c = (e.dagger() @ u).scalar()
        coeffs.append(c)
        recon = derived_add(recon, e @ Morphism.single(c))
    return coeffs, recon


DIMS = range(7)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_functor_v_matches_the_entrywise_matrix(field):
    rng = np.random.default_rng(73)
    for m in DIMS:
        for n in DIMS:
            f = random_morphism(field, Obj(m), Obj(n), rng)
            for bd, bc in [
                (Morphism.identity(field, Obj(m)), Morphism.identity(field, Obj(n))),
                (random_unitary(field, Obj(m), rng), random_unitary(field, Obj(n), rng)),
            ]:
                rep = functor_v(f, bd, bc)
                assert (rep.dom.dim, rep.cod.dim) == (m, n)
                assert frobenius_distance(rep, _functor_v_entrywise(f, bd, bc)) <= 1e-12


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_orthonormality_residual_matches_the_entrywise_loop(field):
    rng = np.random.default_rng(79)
    for x in map(Obj, DIMS):
        for k in range(x.dim + 1):
            bases = [random_dagger_mono(field, Obj(k), x, rng)]
            if k:
                bases.append(column_block([random_morphism(field, UNIT, x, rng) for _ in range(k)]))
            for b in bases:
                got, want = orthonormality_residual(b), _orthonormality_residual_entrywise(b)
                assert abs(got - want) <= 1e-12
        assert orthonormality_residual(Morphism.zero(field, ZERO_OBJ, x)) == 0.0


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_orthonormality_residual_is_nan_on_a_nan_column(field):
    x = Obj(3)
    cols = [basis_column(field, x, 0), Morphism.from_real(field, [[np.nan], [0.0], [0.0]])]
    b = column_block(cols)
    assert np.isnan(orthonormality_residual(b))
    assert np.isnan(_orthonormality_residual_entrywise(b))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_onb_expand_matches_the_entrywise_expansion(field):
    rng = np.random.default_rng(83)
    for x in map(Obj, DIMS):
        basis = random_unitary(field, x, rng)
        u = random_morphism(field, UNIT, x, rng)
        want, want_recon = _onb_expand_entrywise(u, basis)
        coeffs, recon = onb_expansion(u, basis)
        assert (coeffs.dom.dim, coeffs.cod.dim) == (1, x.dim)
        assert all(distance(coeffs.entry(i, 0), c) <= 1e-12 for i, c in enumerate(want))
        assert frobenius_distance(recon, want_recon) <= 1e-12


def test_onb_expansion_sums_through_derived_additions(monkeypatch):
    calls = []

    def counting_add(f, g):
        calls.append(1)
        return derived_add(f, g)

    monkeypatch.setattr(reconstruct, "derived_add", counting_add)
    basis = Morphism.identity(Field.QUATERNION, Obj(4))
    onb_expansion(basis_column(Field.QUATERNION, Obj(4), 2), basis)
    assert len(calls) == 4


def test_functor_v_is_one_composite(monkeypatch):
    rng = np.random.default_rng(89)
    f = random_morphism(Field.QUATERNION, Obj(4), Obj(5), rng)
    bd = random_unitary(Field.QUATERNION, Obj(4), rng)
    bc = random_unitary(Field.QUATERNION, Obj(5), rng)
    calls = {"compose": 0, "Scalar": 0}
    compose, scalar_init = matcat.compose, Scalar.__init__

    def counting_compose(g, h):
        calls["compose"] += 1
        return compose(g, h)

    def counting_scalar(self, *args, **kwargs):
        calls["Scalar"] += 1
        scalar_init(self, *args, **kwargs)

    monkeypatch.setattr(matcat, "compose", counting_compose)
    monkeypatch.setattr(Scalar, "__init__", counting_scalar)
    rep = functor_v(f, bd, bc)
    assert calls == {"compose": 2, "Scalar": 0}
    assert frobenius_distance(rep, bc.dagger() @ f @ bd) == 0.0


def test_functor_v_rejects_bases_of_other_objects():
    f = Morphism.identity(Field.REAL, Obj(2))
    with pytest.raises(ShapeMismatchError):
        functor_v(f, Morphism.identity(Field.REAL, Obj(3)), f)
    line = basis_column(Field.REAL, Obj(2), 0)
    with pytest.raises(ShapeMismatchError):
        functor_v(f, line, f)
