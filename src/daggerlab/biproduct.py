"""Dagger biproducts and everything derived from them.

The addition of parallel morphisms is not an entrywise shortcut: it is
computed literally as codiagonal . (f (+) g) . diagonal, so the block
constructions are exercised by every additive step in the package.  The
entrywise sum appears only inside test oracles.

A `Biproduct` is its two injections; the total object is their shared
codomain.  Gram-Schmidt (`orthonormal_columns`) reads no tolerance: its
one threshold is DROP_EPS, and only `verify_biproduct` judges against a
TolerancePolicy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .errors import DomainError, FieldMismatchError, ShapeMismatchError
from .matcat import (
    DROP_EPS,
    Morphism,
    Obj,
    column_block,
    column_sq_norm,
    direct_sum,
    embed,
    frobenius_distance,
    project_to_field,
    range_component,
    read_only,
    scaled,
)
from .reports import worse
from .scalars import ALL_FIELDS, DEFAULT_TOL, Field, Scalar, TolerancePolicy

# -1 as a 1x1 morphism: the Gram-Schmidt step subtracts Q . c as Q . (c . -1)
_MINUS_ONE = {f: read_only(Morphism.single(Scalar(f, -1.0))) for f in ALL_FIELDS}


@dataclass(frozen=True)
class Biproduct:
    """A pair of injections into one object, the total, witnessing
    total = inj_left.dom (+) inj_right.dom."""

    inj_left: Morphism
    inj_right: Morphism

    def __post_init__(self):
        if self.inj_left.cod != self.inj_right.cod:
            raise ShapeMismatchError("injections must share their codomain")

    @property
    def total(self) -> Obj:
        return self.inj_left.cod


def make_biproduct(field: Field, a: Obj, b: Obj) -> Biproduct:
    """Canonical block injections [I; 0] and [0; I].  When one leg is the
    zero object the other injection degenerates to the identity, so the
    zero object is neutral by construction."""
    total = Obj(a.dim + b.dim)
    inj_left = embed(field, a, total, [(0, 0, Morphism.identity(field, a))])
    inj_right = embed(field, b, total, [(a.dim, 0, Morphism.identity(field, b))])
    return Biproduct(inj_left, inj_right)


def verify_biproduct(bp: Biproduct, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[bool, float]:
    """Check the laws on an arbitrary injection pair: both legs are
    isometries, their ranges are orthogonal, and the range projections
    sum (derived addition) to the identity of the total object.

    Returns (ok, worst residual)."""
    f, g = bp.inj_left, bp.inj_right
    f_dagger, g_dagger = f.dagger(), g.dagger()
    id_left = Morphism.identity(f.field, f.dom)
    id_right = Morphism.identity(g.field, g.dom)
    id_total = Morphism.identity(f.field, bp.total)
    residuals = [
        frobenius_distance(f_dagger @ f, id_left),
        frobenius_distance(g_dagger @ g, id_right),
        (g_dagger @ f).norm(),
        frobenius_distance(derived_add(f @ f_dagger, g @ g_dagger), id_total),
    ]
    worst = worse(*residuals)
    scale = max(1.0, id_total.norm())
    return worst <= tol.bound(scale, scale), worst


def oplus_mor(f: Morphism, g: Morphism) -> Morphism:
    """Block-diagonal direct sum, the unique morphism commuting with the
    canonical injections on both legs."""
    return direct_sum(f, g)


def pairing(fs: Sequence[Morphism]) -> Morphism:
    """(f_1, ..., f_n): X -> A_1 (+) ... (+) A_n for morphisms with a
    common domain; block-stacks the rows."""
    if not fs:
        raise ShapeMismatchError("pairing of an empty list")
    dom = fs[0].dom
    field = fs[0].field
    for f in fs:
        if f.field is not field:
            raise FieldMismatchError(f"{f.field.value} vs {field.value}")
        if f.dom != dom:
            raise ShapeMismatchError("pairing requires a common domain")
    starts = accumulate((f.cod.dim for f in fs), initial=0)
    parts = [(row, 0, f) for row, f in zip(starts, fs)]
    return embed(field, dom, Obj(sum(f.cod.dim for f in fs)), parts)


@dataclass(frozen=True)
class DiagonalPair:
    """Diagonal X -> X (+) X and its dagger, the codiagonal."""

    diagonal: Morphism
    codiagonal: Morphism


def diagonal_pair(field: Field, x: Obj) -> DiagonalPair:
    """Cached per (field, dimension) by `_diagonal_pair`: every derived
    addition asks for two."""
    return _diagonal_pair(field, x.dim)


@functools.lru_cache(maxsize=256)
def _diagonal_pair(field: Field, dim: int) -> DiagonalPair:
    """The key is the dimension, not the Obj, because an int hashes
    faster.  The shared morphisms are read-only, so no caller can
    corrupt them."""
    ident = Morphism.identity(field, Obj(dim))
    diag = read_only(pairing([ident, ident]))
    return DiagonalPair(diag, read_only(diag.dagger()))


def derived_add(f: Morphism, g: Morphism) -> Morphism:
    """Sum of parallel morphisms, evaluated literally as
    codiagonal . (f (+) g) . diagonal."""
    if f.dom.dim != g.dom.dim or f.cod.dim != g.cod.dim or f.field is not g.field:
        raise ShapeMismatchError("derived addition needs parallel morphisms")
    dp_dom = diagonal_pair(f.field, f.dom)
    dp_cod = diagonal_pair(f.field, f.cod)
    return dp_cod.codiagonal @ oplus_mor(f, g) @ dp_dom.diagonal


def nfold_biproduct(x: Obj, n: int, field: Field) -> list[Morphism]:
    """The n injections of x into n.x (empty list for n = 0, whose
    biproduct is the zero object)."""
    if n < 0:
        raise DomainError(f"a biproduct has a natural number of summands, not {n}")
    total = Obj(n * x.dim)
    ident = Morphism.identity(field, x)
    return [embed(field, x, total, [(i * x.dim, 0, ident)]) for i in range(n)]


def orthonormal_columns(
    vectors: Sequence[Morphism],
    against: Sequence[Morphism] = (),
) -> list[Morphism]:
    """Right Gram-Schmidt over the ambient field, in blocks (CGS2).

    Extends the (assumed orthonormal) `against` prefix by unit columns
    spanning `vectors`; candidates whose residual norm falls below
    DROP_EPS are treated as dependent and dropped.  That length is the
    square root of `column_sq_norm`, a sum of squared moduli and so never
    negative: no tolerance enters.  The basis so far
    is one column block Q = [against..., accepted...], and Q-dagger is
    formed at most once per accepted column.  Each candidate u is
    projected out of it twice, each pass forming Q . ((Q-dagger . u) .
    -1) as native products (`matcat.range_component`) and adding it to
    u through one derived addition; two passes keep the columns
    orthogonal to rounding level ("twice is enough": Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 2005).  The subtraction cancels
    most of u, which over H magnifies the rounding drift between the
    halves of each native 2x2 block, so each pass ends with
    `project_to_field`.  Q . c composes the coefficients on the right
    and normalisation divides on the right, so the quaternionic
    right-module structure is respected throughout.

    Once Q has as many columns as the ambient dimension and is finite,
    it is unitary to rounding, so every later candidate's residual is
    at rounding level and would be dropped: the loop stops there.  A
    NaN column is accepted (its length is not below DROP_EPS) and
    makes every later residual NaN, so a non-finite basis never stops
    the loop.  Every input is checked first: mixed fields raise
    FieldMismatchError, and mixed codomains or an input that is not a
    column ShapeMismatchError.
    """
    inputs = [*against, *vectors]
    if not inputs:
        return []
    field, ambient = inputs[0].field, inputs[0].cod.dim
    for v in inputs:
        if v.field is not field:
            raise FieldMismatchError(f"{v.field.value} column among {field.value} columns")
        if v.cod.dim != ambient or v.dom.dim != 1:
            raise ShapeMismatchError(
                f"Gram-Schmidt needs columns into dimension {ambient}, "
                f"not {v.dom.dim}->{v.cod.dim}"
            )
    minus_one = _MINUS_ONE[field]
    q = column_block(against) if against else None
    q_dagger = None  # the dagger of q, formed when a candidate first needs it
    size = len(against)
    finite = q is None or math.isfinite(q.norm())
    accepted: list[Morphism] = []
    for v in vectors:
        if size >= ambient and finite:
            break
        u = v
        if q is not None:
            if q_dagger is None:
                q_dagger = q.dagger()
            for _ in range(2):  # re-orthogonalise once against rounding
                u = derived_add(u, range_component(q, q_dagger, u, minus_one))
                u = project_to_field(u)
        length = math.sqrt(column_sq_norm(u))
        if length < DROP_EPS:
            continue
        unit = scaled(u, 1.0 / length)
        accepted.append(unit)
        q = unit if q is None else column_block([q, unit])
        q_dagger = None
        size += 1
        finite = finite and math.isfinite(length)
    return accepted
