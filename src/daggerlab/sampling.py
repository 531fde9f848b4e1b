"""Seeded random generators for morphisms, isometries and projections.

All campaign randomness flows through numpy Generators handed in by the
caller, so a campaign seed fully determines every draw.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # loaded here, not lazily by the first draw

from .biproduct import copairing, orthonormal_columns
from .matcat import Morphism, Obj, compose
from .scalars import Field, Scalar


def random_scalar(field: Field, rng: np.random.Generator, scale: float = 1.0) -> Scalar:
    comps = np.zeros(4)
    comps[: field.width] = rng.normal(0.0, scale, field.width)
    return Scalar(field, *comps)


def random_morphism(
    field: Field, dom: Obj, cod: Obj, rng: np.random.Generator, scale: float = 1.0
) -> Morphism:
    e = np.zeros((cod.dim, dom.dim, 4))
    e[..., : field.width] = rng.normal(0.0, scale, (cod.dim, dom.dim, field.width))
    return Morphism(field, dom, cod, e)


def random_dagger_mono(
    field: Field, dom: Obj, cod: Obj, rng: np.random.Generator
) -> Morphism:
    """Random isometry dom -> cod, built by orthonormalising the columns
    of a Gaussian matrix.  Requires dom.dim <= cod.dim."""
    if dom.dim > cod.dim:
        raise ValueError("no isometry into a smaller object")
    if dom.dim == 0:
        return Morphism.zero(field, dom, cod)
    while True:
        m = random_morphism(field, dom, cod, rng)
        cols = orthonormal_columns([m.col(j) for j in range(dom.dim)])
        if len(cols) == dom.dim:  # Gaussian columns are a.s. independent
            return copairing(cols)


def random_unitary(field: Field, obj: Obj, rng: np.random.Generator) -> Morphism:
    return random_dagger_mono(field, obj, obj, rng)


def random_unit_column(field: Field, obj: Obj, rng: np.random.Generator) -> Morphism:
    if obj.dim == 0:
        raise ValueError("the zero object carries no unit column")
    return random_dagger_mono(field, Obj(1), obj, rng)


def random_rank1_projection(field: Field, obj: Obj, rng: np.random.Generator) -> Morphism:
    """v . v-dagger for a random unit column v."""
    v = random_unit_column(field, obj, rng)
    return compose(v, v.dagger())


def random_coordinate_projection(
    field: Field, obj: Obj, rng: np.random.Generator
) -> Morphism:
    """Random 0/1 diagonal projection."""
    mask = rng.integers(0, 2, obj.dim).astype(np.float64)
    return Morphism.from_real(field, np.diag(mask))
