"""Products of projections generate the full endomorphism algebra of a
complex object of dimension >= 2.

The desk-scale surrogate: enumerate all words in a small generator set
of projections up to a length cap and compute the rank of their
real-linear span inside the 2n^2-real-dimensional endomorphism space.
Saturation (rank = 2n^2) is the computable necessary condition the
fullness argument consumes; the generated ring itself is not re-proved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, UnsupportedFieldError
from .matcat import Morphism, Obj, basis_column, compose, distances_to
from .sampling import random_rank1_projection
from .scalars import DEFAULT_TOL, Field, TolerancePolicy

SPAN_RANK_EPS = 1e-8  # singular values below this (relative) fraction do not count
DEFAULT_MAX_LEN = 3
DEFAULT_RANDOM_GENERATORS = 2


@dataclass(frozen=True)
class ProjectionWordBasis:
    """Generators, the words they produce, and their real span rank."""

    generators: tuple[Morphism, ...]
    words: tuple[Morphism, ...]
    real_span_rank: int


@dataclass(frozen=True)
class SaturationReport:
    """Span rank of the projection words against the 2n^2 target."""

    dim: int
    rank: int
    target: int
    words: int
    seed: int
    status: str

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "below-threshold (expected)")

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "rank": self.rank,
            "target": self.target,
            "words": self.words,
            "seed": self.seed,
            "status": self.status,
        }


def projection_generators(
    dim: int,
    seed: int,
    count: int = DEFAULT_RANDOM_GENERATORS,
    field: Field = Field.COMPLEX,
) -> list[Morphism]:
    """Coordinate projections plus `count` random rank-1 projections
    built from unit columns with generic phases."""
    if dim < 1:
        raise ShapeMismatchError("generators need dimension >= 1")
    rng = np.random.default_rng(seed)
    x = Obj(dim)
    gens = [
        compose(basis_column(field, x, k), basis_column(field, x, k).dagger())
        for k in range(dim)
    ]
    gens += [random_rank1_projection(field, x, rng) for _ in range(count)]
    return gens


def word_closure(
    gens: list[Morphism],
    max_len: int = DEFAULT_MAX_LEN,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[Morphism]:
    """All products of generators of length <= max_len, deduplicated by
    Frobenius distance: a candidate is dropped iff it lies within
    tol.bound(|w|, |candidate|) of some kept word w.  The distances to
    all kept words come from one stacked array per candidate."""
    if not gens:
        return []
    obj = gens[0].dom
    if any(g.dom != obj or g.cod != obj for g in gens):
        raise ShapeMismatchError("generators must be endomorphisms of one object")

    words: list[Morphism] = []
    norms: list[float] = []

    def add(candidate: Morphism) -> bool:
        norm = candidate.norm()
        if words:
            bounds = tol.abs_eps + tol.rel_eps * np.maximum(norms, norm)
            if np.any(distances_to(words, candidate) <= bounds):
                return False
        words.append(candidate)
        norms.append(norm)
        return True

    frontier = [g for g in gens if add(g)]
    for _ in range(max_len - 1):
        new_frontier = []
        for w in frontier:
            for g in gens:
                candidate = w @ g
                if add(candidate):
                    new_frontier.append(candidate)
        frontier = new_frontier
    return words


def real_span_rank(words: list[Morphism], eps: float = SPAN_RANK_EPS) -> int:
    """Rank of the real-linear span of complex matrices, viewed as
    vectors of stacked real and imaginary parts."""
    if not words:
        return 0
    rows = []
    for w in words:
        c = w.complex_view()
        rows.append(np.concatenate([c.real.ravel(), c.imag.ravel()]))
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > eps * s[0]))


def build_word_basis(
    gens: list[Morphism],
    max_len: int = DEFAULT_MAX_LEN,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ProjectionWordBasis:
    words = word_closure(gens, max_len, tol)
    return ProjectionWordBasis(tuple(gens), tuple(words), real_span_rank(words))


def saturation_check(
    dim: int,
    seed: int,
    max_len: int = DEFAULT_MAX_LEN,
    count: int = DEFAULT_RANDOM_GENERATORS,
    field: Field = Field.COMPLEX,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> SaturationReport:
    """Whether the words saturate the 2n^2-dimensional real span.

    Dimension 1 cannot saturate (its only projections are 0 and 1, whose
    span is the real line); the report flags that as expected rather
    than as a failure, which is exactly why the generation statement
    needs dimension >= 2.
    """
    if field is not Field.COMPLEX:
        raise UnsupportedFieldError("saturation is a complex-field statement")
    gens = projection_generators(dim, seed, count, field)
    basis = build_word_basis(gens, max_len, tol)
    rank = basis.real_span_rank
    target = 2 * dim * dim
    if rank == target:
        status = "pass"
    elif dim == 1:
        status = "below-threshold (expected)"
    else:
        status = "fail"
    return SaturationReport(dim, rank, target, len(basis.words), seed, status)
