"""Seeded random generators for morphisms, isometries and projections.

All campaign randomness flows through numpy Generators handed in by the
caller, so a campaign seed fully determines every draw.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # loaded here, not lazily by the first draw

from .errors import DomainError, NoMorphismError
from .matcat import (
    Morphism,
    Obj,
    component_stack,
    coordinate_projections,
    from_components,
    isometry_factor,
    native_stack,
    outer_products,
    unit_columns,
)
from .scalars import Field, Scalar


def random_scalar(field: Field, rng: np.random.Generator) -> Scalar:
    comps = np.zeros(4)
    comps[: field.width] = rng.normal(0.0, 1.0, field.width)
    return Scalar(field, *comps)


def random_morphism(field: Field, dom: Obj, cod: Obj, rng: np.random.Generator) -> Morphism:
    comps = rng.normal(0.0, 1.0, (cod.dim, dom.dim, field.width))
    return from_components(field, dom, cod, comps)


def random_dagger_mono(
    field: Field, dom: Obj, cod: Obj, rng: np.random.Generator
) -> Morphism:
    """Random isometry dom -> cod: the Q factor of a Gaussian matrix,
    the basis that Gram-Schmidt would build from its columns, taken by
    one QR (`matcat.isometry_factor`).  A matrix with a column that
    Gram-Schmidt would drop is drawn again.  Requires dom.dim <= cod.dim."""
    if dom.dim > cod.dim:
        raise NoMorphismError(f"no isometry from dimension {dom.dim} into {cod.dim}")
    if dom.dim == 0:
        return Morphism.zero(field, dom, cod)
    while True:
        q = isometry_factor(random_morphism(field, dom, cod, rng))
        if q is not None:  # Gaussian columns are a.s. independent
            return q


def random_unitary(field: Field, obj: Obj, rng: np.random.Generator) -> Morphism:
    return random_dagger_mono(field, obj, obj, rng)


def random_unit_column(field: Field, obj: Obj, rng: np.random.Generator) -> Morphism:
    if obj.dim == 0:
        raise NoMorphismError("the zero object carries no unit column")
    return random_dagger_mono(field, Obj(1), obj, rng)


def _rank1_block(field: Field, dim: int, count: int, rng: np.random.Generator,
                 through: np.ndarray | None = None) -> np.ndarray:
    """Stacked native arrays of `count` projections v . v-dagger, v a
    Gaussian column (first multiplied by the native array `through`, if
    given) divided by its length.

    The Gaussian columns are drawn as one block, the same stream as one
    column at a time.  A column that Gram-Schmidt would drop (shorter
    than DROP_EPS) is skipped, and one more block draws the columns
    still missing, so each replacement is the draw that follows, as in
    the sequential retry."""
    if count < 0:
        raise DomainError(f"cannot draw {count} projections")

    def draw(n: int) -> np.ndarray:
        columns = component_stack(field, rng.normal(0.0, 1.0, (n, dim, 1, field.width)))
        return unit_columns(columns if through is None else through @ columns)

    units = draw(count)
    while len(units) < count:
        units = np.concatenate([units, draw(count - len(units))])
    return outer_products(units)


def random_rank1_projections(
    field: Field, obj: Obj, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stacked native arrays of `count` random rank-1 projections v .
    v-dagger, the same ones as for `count` calls of `random_unit_column`
    in a row, drawn as one block (`_rank1_block`)."""
    if obj.dim == 0:
        raise NoMorphismError("the zero object carries no unit column")
    return _rank1_block(field, obj.dim, count, rng)


def probe_projections(
    field: Field, obj: Obj, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stacked native arrays of the coordinate projections of obj
    followed by `count` random rank-1 projections: the generators of the
    projection words.  The coordinate half draws nothing, so the rank-1
    half is the stream of `random_rank1_projections` alone."""
    return np.concatenate([
        coordinate_projections(field, obj.dim),
        random_rank1_projections(field, obj, count, rng),
    ])


def random_rank1_subprojections(p: Morphism, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stacked native arrays of `count` projections w . w-dagger for
    random unit columns w in the range of the projection p: p applied to
    a Gaussian column, divided by its length.  The columns are one block
    (`_rank1_block`), the same stream as `count` calls of
    `random_morphism(p.field, UNIT, p.cod, rng)` in a row."""
    return _rank1_block(p.field, p.cod.dim, count, rng, through=native_stack([p]))


def random_coordinate_projection(
    field: Field, obj: Obj, rng: np.random.Generator
) -> Morphism:
    """Random 0/1 diagonal projection."""
    mask = rng.integers(0, 2, obj.dim).astype(np.float64)
    return Morphism.from_real(field, np.diag(mask))
