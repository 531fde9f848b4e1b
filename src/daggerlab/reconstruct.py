"""Reconstruction of the scalar field and the Hermitian-space structure
from the category itself.

Scalars are recovered as endomorphisms of the unit object (with the
multiplication order reversed), vectors of an object X are the columns
from the unit object into X, and the inner product of two columns is the
1x1 composition v-dagger . u.  Everything here is computed by composing
morphisms, never by coordinate formulas, so the right-module conventions
for quaternions hold by construction.
"""

from __future__ import annotations

import numpy as np

from .axioms import complement_h3, construct_h4a, normalize_h4b
from .biproduct import derived_add, diagonal_pair, injections, orthonormal_columns
from .errors import ShapeMismatchError
from .matcat import (
    Morphism,
    Obj,
    UNIT,
    ZERO_OBJ,
    approx_eq,
    basis_column,
    column_block,
)
from .scalars import Field, Scalar, TolerancePolicy
from .scalars import inv as scalar_inv


def _require_vector(u: Morphism) -> None:
    if u.dom != UNIT:
        raise ShapeMismatchError("vectors are morphisms out of the unit object")


def hermitian_form(u: Morphism, v: Morphism) -> Morphism:
    """<u, v> = v-dagger . u, a 1x1 morphism: a unit-object endomorphism."""
    _require_vector(u)
    _require_vector(v)
    if u.cod != v.cod:
        raise ShapeMismatchError("inner product needs a common ambient object")
    return v.dagger() @ u


def inner_product(u: Morphism, v: Morphism) -> Scalar:
    """<u, v> = v-dagger . u, a 1x1 morphism lowered to a scalar."""
    return hermitian_form(u, v).scalar()


# A subspace of X is held as its isometry B: Obj(k) -> X, the dagger mono
# whose columns are an orthonormal basis of it.  Every operation on a
# subspace is a composite with B or B-dagger; the zero subspace is
# Morphism.zero(field, ZERO_OBJ, X).


def orthonormality_residual(b: Morphism) -> float:
    """Largest component of B-dagger . B - I, whose entry (i, j) is
    <e_j, e_i> - delta_ij for the columns e of b; NaN if any column
    holds a NaN."""
    if not b.dom.dim:
        return 0.0
    gram = np.array((b.dagger() @ b).entries)
    diagonal = np.arange(b.dom.dim)
    gram[diagonal, diagonal, 0] -= 1.0
    return float(np.abs(gram).max())  # max() propagates a NaN


def gram_schmidt(vectors: list[Morphism], field: Field | None = None,
                 ambient: Obj | None = None) -> Morphism:
    """Orthonormalise a list of vectors into the isometry of the subspace
    they span, dropping near-dependent ones; quaternionic normalisation
    divides on the right."""
    if vectors:
        field, ambient = vectors[0].field, vectors[0].cod
    if field is None or ambient is None:
        raise ShapeMismatchError("empty vector list needs explicit field and ambient")
    for v in vectors:
        _require_vector(v)
    onb = orthonormal_columns(vectors)
    return column_block(onb) if onb else Morphism.zero(field, ZERO_OBJ, ambient)


def onb_expansion(u: Morphism, b: Morphism) -> tuple[Morphism, Morphism]:
    """The coefficients c = B-dagger . u of u in an orthonormal basis B,
    as a column, and the reconstruction sum e_1.c_1 + ... + e_n.c_n,
    assembled via the derived addition."""
    _require_vector(u)
    coeffs = b.dagger() @ u
    recon = Morphism.zero(u.field, UNIT, u.cod)
    for j in range(b.dom.dim):
        recon = derived_add(recon, b.col(j) @ coeffs.row(j))
    return coeffs, recon


def projection_of_subspace(b: Morphism) -> Morphism:
    return b @ b.dagger()


def orthocomplement(b: Morphism) -> Morphism:
    return complement_h3(b)


def functor_v(f: Morphism, basis_dom: Morphism, basis_cod: Morphism) -> Morphism:
    """Matrix of the column action u -> f . u in chosen orthonormal
    bases: the composite B_cod-dagger . f . B_dom, whose entry (i, j) is
    e_i-dagger . f . e_j."""
    if basis_dom.cod.dim != f.dom.dim or basis_cod.cod.dim != f.cod.dim:
        raise ShapeMismatchError("bases do not match the morphism's endpoints")
    if basis_dom.dom.dim != f.dom.dim or basis_cod.dom.dim != f.cod.dim:
        raise ShapeMismatchError("bases must span the domain and codomain")
    return basis_cod.dagger() @ f @ basis_dom


def rank_object(field: Field, n: int) -> tuple[Obj, list[Morphism]]:
    """An object of any requested finite rank, with its orthonormal
    basis of unit-object columns (the n-fold biproduct injections)."""
    return Obj(n), injections(field, [UNIT] * n)


class EndoField:
    """The scalars reconstructed from endomorphisms of the unit object.

    Carrier elements are 1x1 morphisms; addition is the derived addition,
    multiplication is composition in reversed order, and the involution
    is the dagger.
    """

    def __init__(self, field: Field):
        self.field = field
        self.one = Morphism.identity(field, UNIT)
        self.zero = Morphism.zero(field, UNIT, UNIT)

    def lift(self, a: Scalar) -> Morphism:
        return Morphism.single(a)

    def lower(self, m: Morphism) -> Scalar:
        return m.scalar()

    def add(self, a: Morphism, b: Morphism) -> Morphism:
        return derived_add(a, b)

    def mul(self, a: Morphism, b: Morphism) -> Morphism:
        return b @ a

    def star(self, a: Morphism) -> Morphism:
        return a.dagger()

    def inv(self, a: Morphism) -> Morphism:
        return Morphism.single(scalar_inv(a.scalar()))


def scalar_field_witness(field: Field) -> tuple[Scalar, Scalar]:
    """Two unit-object endomorphisms that should be nonzero and sum to zero.

    Replays the construction that turns the endomorphism semiring into a
    ring: normalise the diagonal of the unit object to an isometry, take
    its biproduct complement J with injection f, pick a nonzero g into J,
    and read the two components k1, k2 of k = g-dagger . f-dagger off the
    canonical injections.  k kills the diagonal, and k . diagonal is
    k1 + k2; the campaign check judges the sum and the magnitudes.
    """
    delta = diagonal_pair(field, UNIT).diagonal
    h = normalize_h4b(delta)
    m = delta @ Morphism.single(h)
    f = complement_h3(m)
    g = construct_h4a(field, f.dom)
    k = (f @ g).dagger()
    left, right = injections(field, [UNIT, UNIT])
    return (k @ left).scalar(), (k @ right).scalar()


def separating_column(f: Morphism, g: Morphism, tol: TolerancePolicy) -> int | None:
    """The first coordinate column u from the unit object with
    f . u != g . u, or None if f and g agree on every column."""
    for j in range(f.dom.dim):
        u = basis_column(f.field, f.dom, j)
        if not approx_eq(f @ u, g @ u, tol):
            return j
    return None
