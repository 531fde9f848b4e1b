"""Dagger biproducts and everything derived from them.

The addition of parallel morphisms is not an entrywise shortcut: it is
computed literally as codiagonal . (f (+) g) . diagonal, so the block
constructions are exercised by every additive step in the package.  The
entrywise sum appears only inside test oracles.

A biproduct is its list of injections, the legs; the total object is
their shared codomain.  `injections` gives the canonical legs of any
number of summands, and `verify_biproduct` computes the worst residual
of the laws of any legs, which the campaign checks judge.  Neither reads
a tolerance, nor does Gram-Schmidt (`orthonormal_columns`): its one
threshold is DROP_EPS.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Sequence

from .errors import FieldMismatchError, ShapeMismatchError
from .matcat import (
    DROP_EPS,
    Morphism,
    Obj,
    column_block,
    column_sq_norm,
    direct_sum,
    frobenius_distance,
    identity_columns,
    project_to_field,
    range_component,
    read_only,
    scaled,
)
from .reports import worse
from .scalars import ALL_FIELDS, Field, Scalar

# -1 as a 1x1 morphism: the Gram-Schmidt step subtracts Q . c as Q . (c . -1)
_MINUS_ONE = {f: read_only(Morphism.single(Scalar(f, -1.0))) for f in ALL_FIELDS}


def injections(field: Field, objs: Sequence[Obj]) -> list[Morphism]:
    """The canonical injections of objs[0] (+) ... (+) objs[-1]: the
    column slices of the cached identity of the total, read-only views
    of its array.  A zero summand gets a 0-width leg, so the zero object
    is neutral, and no summand gives no leg: the zero object."""
    starts = list(accumulate((a.dim for a in objs), initial=0))
    total = Obj(starts[-1])
    return [identity_columns(field, total, start, a.dim) for start, a in zip(starts, objs)]


def verify_biproduct(legs: Sequence[Morphism]) -> float:
    """The worst residual of the laws on arbitrary legs into one object:
    each leg is an isometry, the ranges are pairwise orthogonal, and the
    range projections, summed by derived addition from the first leg on,
    are the identity of the total object.  A NaN residual is the worst.
    Legs of different codomains, or no leg, raise ShapeMismatchError."""
    if len({leg.cod for leg in legs}) != 1:
        raise ShapeMismatchError("a biproduct's legs must share one codomain")
    daggers = [leg.dagger() for leg in legs]
    residuals = [frobenius_distance(d @ leg, Morphism.identity(leg.field, leg.dom))
                 for leg, d in zip(legs, daggers)]
    residuals += [(daggers[j] @ legs[i]).norm() for i, j in combinations(range(len(legs)), 2)]
    total = functools.reduce(derived_add, [leg @ d for leg, d in zip(legs, daggers)])
    residuals.append(frobenius_distance(total, Morphism.identity(legs[0].field, legs[0].cod)))
    return worse(*residuals)


def oplus_mor(f: Morphism, g: Morphism) -> Morphism:
    """Block-diagonal direct sum, the unique morphism commuting with the
    canonical injections on both legs."""
    return direct_sum(f, g)


def pairing(fs: Sequence[Morphism]) -> Morphism:
    """(f_1, ..., f_n): X -> A_1 (+) ... (+) A_n for morphisms with a
    common domain: the dagger of the copairing [f_1-dagger, ...,
    f_n-dagger].  Conjugating twice gives back every entry's bits."""
    return column_block([f.dagger() for f in fs]).dagger()


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
