"""Products of projections generate the full endomorphism algebra of a
complex object of dimension >= 2.

The desk-scale surrogate: enumerate all words in a small generator set
of projections up to a length cap, keeping those that raise the rank
of their real-linear span inside the 2n^2-real-dimensional endomorphism
space.
Saturation (rank = 2n^2) is the computable necessary condition the
fullness argument consumes; the generated ring itself is not re-proved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .matcat import Morphism, Obj, native_stack, unstack
from .sampling import probe_projections
from .scalars import Field

SPAN_RANK_EPS = 1e-8  # a word this close to the span (relative to its length) adds no rank
DEFAULT_MAX_LEN = 3
DEFAULT_RANDOM_GENERATORS = 2


@dataclass(frozen=True)
class SaturationReport:
    """Span rank of the projection words against the 2n^2 target."""

    dim: int
    rank: int
    target: int
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
            "seed": self.seed,
            "status": self.status,
        }


def projection_generators(
    dim: int,
    seed: int,
    count: int = DEFAULT_RANDOM_GENERATORS,
) -> list[Morphism]:
    """Coordinate projections plus `count` random rank-1 projections
    of a complex object, built from unit columns with generic phases."""
    if dim < 1:
        raise ShapeMismatchError("generators need dimension >= 1")
    if count < 0:
        raise DomainError(f"cannot draw {count} random generators")
    x = Obj(dim)
    rng = np.random.default_rng(seed)
    return unstack(Field.COMPLEX, x, x, probe_projections(Field.COMPLEX, x, count, rng))


def word_closure(gens: list[Morphism], max_len: int = DEFAULT_MAX_LEN) -> list[Morphism]:
    """A basis of the real span of all products of generators of length
    <= max_len: in the order `for w in frontier: for g in gens: w @ g`,
    level by level, a candidate is kept iff it raises the rank of the
    words kept before it.

    Each candidate is read as one real row (the real and imaginary parts
    of its native array) and projected twice out of an orthonormal basis
    of the kept rows ("twice is enough": Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005); it is kept iff the residual is longer
    than SPAN_RANK_EPS times the row, so a zero word never is.  Only the
    kept words of a level form the next frontier: a dropped word is a
    combination of kept ones, so its products with the generators are
    combinations of products already formed.  The scan stops once the
    rank reaches dim^2 * width, the real dimension of the endomorphisms.

    A level's candidates are one batched product of the stacked frontier
    with the stacked generators, decided one at a time.  Only the kept
    words become morphisms, views into one stack."""
    if max_len < 1:
        raise DomainError(f"words have length >= 1, not at most {max_len}")
    if not gens:
        return []
    obj = gens[0].dom
    if any(g.dom != obj or g.cod != obj for g in gens):
        raise ShapeMismatchError("generators must be endomorphisms of one object")
    field = gens[0].field
    letters = native_stack(gens)
    target = obj.dim * obj.dim * field.width
    basis = np.empty((target, letters[0].view(np.float64).size))
    rank = 0
    kept = []
    level = letters
    for length in range(1, max_len + 1):
        if length > 1:  # row f * len(gens) + g is frontier word f times generator g
            level = (level[:, None] @ letters[None]).reshape(
                (len(level) * len(letters),) + letters.shape[1:])
        # over C and H, the real and imaginary part of each entry
        rows = level.reshape(len(level), letters[0].size).view(np.float64)
        fresh = []
        for i, row in enumerate(rows):
            q = basis[:rank]
            residual = row - (q @ row) @ q
            residual -= (q @ residual) @ q
            size = np.sqrt(residual @ residual)
            if size > SPAN_RANK_EPS * np.sqrt(row @ row):
                basis[rank] = residual / size
                rank += 1
                fresh.append(i)
                if rank == target:
                    break
        level = level[fresh]
        kept.append(level)
        if rank == target:
            break
    return unstack(field, obj, obj, np.concatenate(kept))


def saturation_check(
    dim: int,
    seed: int,
    max_len: int = DEFAULT_MAX_LEN,
    count: int = DEFAULT_RANDOM_GENERATORS,
) -> SaturationReport:
    """Whether the words saturate the 2n^2-dimensional real span.

    Dimension 1 cannot saturate (its only projections are 0 and 1, whose
    span is the real line); the report flags that as expected rather
    than as a failure, which is exactly why the generation statement
    needs dimension >= 2.
    """
    rank = len(word_closure(projection_generators(dim, seed, count), max_len))
    target = 2 * dim * dim
    if rank == target:
        status = "pass"
    elif dim == 1:
        status = "below-threshold (expected)"
    else:
        status = "fail"
    return SaturationReport(dim, rank, target, seed, status)
