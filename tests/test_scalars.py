"""Scalar arithmetic: involution, products, inverses, centrality."""

import sys

import numpy as np
import pytest

from daggerlab.errors import DomainError, FieldMismatchError, NonInvertibleError
from daggerlab.scalars import (
    ALL_FIELDS,
    DEFAULT_TOL,
    Field,
    Scalar,
    TolerancePolicy,
    conj,
    distance,
    inv,
    mul,
    norm,
    one,
)


def q(w, x=0.0, y=0.0, z=0.0):
    return Scalar(Field.QUATERNION, w, x, y, z)


def c(w, x=0.0):
    return Scalar(Field.COMPLEX, w, x)


def r(w):
    return Scalar(Field.REAL, w)


def test_conj_examples():
    assert conj(r(1.0)) == r(1.0)
    assert conj(c(0, 1)) == c(0, -1)
    assert conj(q(1, 2, 3, 4)) == q(1, -2, -3, -4)


def test_mul_examples():
    assert mul(q(0, 1, 0, 0), q(0, 0, 1, 0)) == q(0, 0, 0, 1)  # i*j = k
    assert mul(c(0, 1), c(0, 1)) == c(-1.0)
    assert mul(r(2), r(3)) == r(6)


def test_mul_rejects_mixed_fields():
    with pytest.raises(FieldMismatchError):
        mul(r(1), c(1))


def test_inv_examples():
    assert distance(inv(r(2)), r(0.5)) == 0.0
    assert distance(inv(c(0, 1)), c(0, -1)) < 1e-15
    assert distance(inv(q(0, 0, 1, 0)), q(0, 0, -1, 0)) < 1e-15
    with pytest.raises(NonInvertibleError):
        inv(r(0.0))


def test_norm_and_sqrt():
    assert norm(c(3, 4)) == 5.0


def test_width_enforced():
    with pytest.raises(FieldMismatchError):
        Scalar(Field.REAL, 1.0, 0.5)
    with pytest.raises(FieldMismatchError):
        Scalar(Field.COMPLEX, 1.0, 0.0, 1.0)


def test_json_roundtrip():
    for field, comps in [(Field.REAL, [1.5]), (Field.COMPLEX, [1.0, -2.0]),
                         (Field.QUATERNION, [1, 2, 3, 4])]:
        s = Scalar.from_json(field, comps)
        assert s.to_json() == [float(v) for v in comps]
    with pytest.raises(FieldMismatchError):
        Scalar.from_json(Field.REAL, [1.0, 2.0])


def test_tolerance_policy():
    tol = TolerancePolicy(1e-9, 1e-9)
    assert tol.bound() == 1e-9  # no magnitude: the absolute part alone
    assert tol.bound(1.0, 3.0) == 1e-9 + 3e-9  # relative to the larger
    assert 5e-10 <= tol.bound(1.0, 1.0 + 5e-10)
    assert not 5e-8 <= tol.bound(1.0, 1.0 + 5e-8)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_conj_is_antiautomorphism(field):
    rng = np.random.default_rng(11)
    for _ in range(1000):
        comps = rng.normal(size=(2, 4))
        comps[:, field.width:] = 0.0
        a, b = Scalar(field, *comps[0]), Scalar(field, *comps[1])
        assert distance(conj(mul(a, b)), mul(conj(b), conj(a))) <= DEFAULT_TOL.bound(
            norm(a) * norm(b), norm(a) * norm(b)
        )
        assert distance(conj(conj(a)), a) == 0.0
        assert abs(norm(mul(a, b)) - norm(a) * norm(b)) <= DEFAULT_TOL.bound(
            norm(a) * norm(b)
        )


def test_quaternion_noncommutativity():
    i, j = q(0, 1, 0, 0), q(0, 0, 1, 0)
    assert distance(mul(i, j), mul(j, i)) == 2.0  # k vs -k


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_inverse_two_sided(field):
    rng = np.random.default_rng(13)
    for _ in range(300):
        comps = np.zeros(4)
        comps[: field.width] = rng.normal(size=field.width)
        a = Scalar(field, *comps)
        if norm(a) < 1e-3:
            continue
        b = inv(a)
        assert distance(mul(a, b), one(field)) < 1e-9
        assert distance(mul(b, a), one(field)) < 1e-9


def test_field_names():
    assert [Field.from_name(name) for name in "RCH"] == list(ALL_FIELDS)
    with pytest.raises(DomainError):
        Field.from_name("Q")


def test_field_keyed_lookups_make_no_python_call():
    from daggerlab import biproduct, matcat

    matcat.Morphism.identity(Field.COMPLEX, matcat.Obj(3))
    biproduct.diagonal_pair(Field.QUATERNION, matcat.Obj(2))
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        for field in ALL_FIELDS:
            _ = field.width, {field: 1}[field], hash(field)
        matcat.Morphism.identity(Field.COMPLEX, matcat.Obj(3))
        biproduct.diagonal_pair(Field.QUATERNION, matcat.Obj(2))
    finally:
        sys.setprofile(None)
    assert not [f for f in seen if f.endswith("enum.py")]
    assert {Field.REAL: 1}[Field.from_name("R")] == 1
    assert len({*ALL_FIELDS, *ALL_FIELDS}) == 3
