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

from .errors import DomainError, FieldMismatchError, ShapeMismatchError, UnsupportedFieldError
from .matcat import Morphism, Obj, native_stack, stack_norms, unstack
from .sampling import probe_projections
from .scalars import DEFAULT_TOL, Field, TolerancePolicy

SPAN_RANK_EPS = 1e-8  # singular values below this (relative) fraction do not count
DEFAULT_MAX_LEN = 3
DEFAULT_RANDOM_GENERATORS = 2
DEDUP_CHUNK_BYTES = 256 * 1024  # cap on the stacked differences of one dedup chunk
# relative slack on the norm prefilter of the dedup: the norms' rounding is
# below 1e-13 of their size, and distinct words' norms mostly differ by far more
NORM_MARGIN = 1e-6


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
    if count < 0:
        raise DomainError(f"cannot draw {count} random generators")
    x = Obj(dim)
    return unstack(field, x, x, probe_projections(field, x, count, np.random.default_rng(seed)))


def _close(
    field: Field,
    a: np.ndarray,
    a_norms: np.ndarray,
    b: np.ndarray,
    b_norms: np.ndarray,
    tol: TolerancePolicy,
    upper: bool = False,
) -> np.ndarray:
    """(len(a), len(b)) mask of the stacked words a[i] that lie within
    tol.bound(|a[i]|, |b[k]|) of b[k]; with `upper` (a and b one stack)
    only of the pairs i < k, the rest False.

    Since | |a[i]| - |b[k]| | <= |a[i] - b[k]|, a pair whose norms differ
    by more than its bound plus 2 NORM_MARGIN times the larger norm, far
    above the rounding of the norms, cannot be close and is not
    compared.  The other pairs go in chunks whose differences take at
    most DEDUP_CHUNK_BYTES; each difference, its norm and its bound are
    the ones of a comparison of a[i] with all of b."""
    gap = np.subtract.outer(a_norms, b_norms)
    np.abs(gap, out=gap)
    limit = np.maximum.outer(a_norms, b_norms)
    limit *= tol.rel_eps + 2 * NORM_MARGIN
    limit += tol.abs_eps
    maybe = gap <= limit
    del gap, limit  # before the chunks gather words
    if upper:
        maybe = np.triu(maybe, 1)
    rows, cols = np.nonzero(maybe)
    close = np.zeros(maybe.shape, bool)
    step = max(1, DEDUP_CHUNK_BYTES // max(1, b[:1].nbytes))
    # one buffer for every chunk's differences: a fresh allocation per
    # chunk raised the peak RSS of a campaign
    buf = np.empty((min(step, len(rows)),) + b.shape[1:], b.dtype)
    for start in range(0, len(rows), step):
        r, k = rows[start:start + step], cols[start:start + step]
        diff = np.take(a, r, axis=0, out=buf[:len(r)])
        diff -= b[k]
        bound = tol.abs_eps + tol.rel_eps * np.maximum(a_norms[r], b_norms[k])
        close[r, k] = stack_norms(field, diff) <= bound
    return close


def word_closure(
    gens: list[Morphism],
    max_len: int = DEFAULT_MAX_LEN,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[Morphism]:
    """All products of generators of length <= max_len, deduplicated by
    Frobenius distance: in the order `for w in frontier: for g in gens:
    w @ g`, level by level, a candidate is dropped iff it lies within
    tol.bound(|w|, |candidate|) of some kept word w.

    A level's candidates are one batched product of the stacked frontier
    with the stacked generators.  Those close to a word kept at an
    earlier level are dropped; a greedy pass in candidate order over the
    closeness of the survivors to each other then keeps a survivor iff
    no earlier kept survivor is close to it.  Only the kept words become
    morphisms, views into one stack."""
    if max_len < 1:
        raise DomainError(f"words have length >= 1, not at most {max_len}")
    if not gens:
        return []
    obj = gens[0].dom
    if any(g.dom != obj or g.cod != obj for g in gens):
        raise ShapeMismatchError("generators must be endomorphisms of one object")
    field = gens[0].field
    letters = native_stack(gens)
    words, norms = letters[:0], np.zeros(0)
    level = letters
    for length in range(1, max_len + 1):
        if length > 1:  # row f * len(gens) + g is frontier word f times generator g
            level = (level[:, None] @ letters[None]).reshape(
                (len(level) * len(letters),) + letters.shape[1:])
        level_norms = stack_norms(field, level)
        fresh = np.flatnonzero(~_close(field, level, level_norms, words, norms, tol).any(axis=1))
        level, level_norms = level[fresh], level_norms[fresh]
        twins = _close(field, level, level_norms, level, level_norms, tol, upper=True)
        keep = np.ones(len(level), bool)
        for i in np.flatnonzero(twins.any(axis=1)):
            if keep[i]:  # a kept survivor drops its later twins
                keep &= ~twins[i]
        level = level[keep]
        words = np.concatenate([words, level])
        norms = np.concatenate([norms, level_norms[keep]])
    return unstack(field, obj, obj, words)


def real_span_rank(words: list[Morphism]) -> int:
    """Rank of the real-linear span of complex matrices, viewed as
    vectors of stacked real and imaginary parts."""
    if not words:
        return 0
    if words[0].field is Field.QUATERNION:  # native_stack checks that the rest match
        raise FieldMismatchError("quaternion matrix has no complex view")
    stack = native_stack(words)
    shape = (len(words), stack[0].size)
    rows = np.concatenate([stack.real.reshape(shape), stack.imag.reshape(shape)], axis=1)
    s = np.linalg.svd(rows, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > SPAN_RANK_EPS * s[0]))


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
