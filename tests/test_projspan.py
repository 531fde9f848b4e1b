"""Projection generators, word closure and span saturation, with an
independent row-reduction rank oracle."""

import numpy as np
import pytest

from daggerlab.errors import FieldMismatchError, ShapeMismatchError, UnsupportedFieldError
from daggerlab.matcat import Morphism, Obj, distances_to, frobenius_distance, is_projection
from daggerlab.projspan import (
    projection_generators,
    real_span_rank,
    saturation_check,
    word_closure,
)
from daggerlab.scalars import DEFAULT_TOL, Field


def row_reduction_rank(rows, pivot_eps=1e-6):
    """Gaussian elimination with partial pivoting; deliberately not SVD,
    so it cross-checks the implementation's rank."""
    m = np.array(rows, dtype=float)
    rank = 0
    for col in range(m.shape[1]):
        if rank == m.shape[0]:
            break
        pivot = rank + int(np.argmax(np.abs(m[rank:, col])))
        if abs(m[pivot, col]) <= pivot_eps:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] / m[rank, col]
        for r in range(m.shape[0]):
            if r != rank:
                m[r] = m[r] - m[r, col] * m[rank]
        rank += 1
    return rank


def _vectorise(words):
    return [
        np.concatenate([w.entries[..., 0].ravel(), w.entries[..., 1].ravel()])
        for w in words
    ]


def test_generators_are_projections():
    gens = projection_generators(2, seed=0, count=2)
    assert len(gens) == 4  # 2 coordinate + 2 random rank-1
    for g in gens:
        assert is_projection(g)


def test_generators_dim_one():
    gens = projection_generators(1, seed=0, count=2)
    for g in gens:
        assert is_projection(g)
        # with one dimension every rank-1 projection collapses to 1
        assert abs(g.entries[0, 0, 0] - 1.0) < 1e-12


def test_word_closure_idempotent_generator():
    p = Morphism.from_real(Field.COMPLEX, [[1, 0], [0, 0]])
    words = word_closure([p], max_len=3)
    assert len(words) == 1
    assert frobenius_distance(words[0], p) == 0.0


def test_word_closure_orthogonal_pair_contains_zero():
    p = Morphism.from_real(Field.COMPLEX, [[1, 0], [0, 0]])
    q = Morphism.from_real(Field.COMPLEX, [[0, 0], [0, 1]])
    words = word_closure([p, q], max_len=2)
    zero = Morphism.zero(Field.COMPLEX, Obj(2), Obj(2))
    assert any(frobenius_distance(w, zero) < 1e-12 for w in words)


def test_word_closure_counts_reported():
    gens = projection_generators(2, seed=3, count=2)
    words = word_closure(gens, max_len=3)
    assert len(words) >= len(gens)
    # entries of projection products stay bounded by the dimension
    assert all(np.max(np.abs(w.entries)) <= 2 for w in words)


def test_word_basis_bundle():
    from daggerlab.projspan import build_word_basis

    gens = projection_generators(3, seed=1, count=2)
    basis = build_word_basis(gens, max_len=3)
    assert basis.real_span_rank <= 2 * 3 * 3
    assert all(is_projection(g) for g in basis.generators)
    assert len(basis.words) >= len(basis.generators)


def test_saturation_dim1_below_threshold():
    rep = saturation_check(1, seed=0)
    assert rep.rank == 1 and rep.target == 2
    assert rep.status == "below-threshold (expected)"
    assert rep.ok


@pytest.mark.parametrize("dim,expected", [(2, 8), (3, 18), (4, 32)])
def test_saturation_rank_with_row_reduction_oracle(dim, expected):
    gens = projection_generators(dim, seed=0, count=2)
    words = word_closure(gens, max_len=3)
    rank = real_span_rank(words)
    assert rank == expected == 2 * dim * dim
    assert row_reduction_rank(_vectorise(words)) == expected


def test_saturation_check_reports():
    rep = saturation_check(2, seed=1)
    assert rep.to_json() == {
        "dim": 2, "rank": 8, "target": 8, "words": rep.words, "seed": 1, "status": "pass",
    }


def test_saturation_rejects_other_fields():
    with pytest.raises(UnsupportedFieldError):
        saturation_check(2, seed=0, field=Field.REAL)


def test_rank_monotone_in_length_and_generators():
    for dim in (2, 3):
        by_len = [saturation_check(dim, seed=0, max_len=l).rank for l in (1, 2, 3)]
        assert by_len == sorted(by_len)
        by_count = [saturation_check(dim, seed=0, count=c).rank for c in (0, 1, 2)]
        assert by_count == sorted(by_count)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
def test_distances_to_matches_frobenius_distance(field):
    from daggerlab.sampling import random_morphism

    rng = np.random.default_rng(11)
    fs = [random_morphism(field, Obj(3), Obj(2), rng) for _ in range(5)]
    g = random_morphism(field, Obj(3), Obj(2), rng)
    got = distances_to(fs + [g], g)
    want = [frobenius_distance(f, g) for f in fs] + [0.0]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert distances_to([], g).shape == (0,)


def test_distances_to_rejects_mixed_fields_and_shapes():
    p = Morphism.from_real(Field.COMPLEX, [[1, 0], [0, 0]])
    with pytest.raises(FieldMismatchError):
        distances_to([p, Morphism.from_real(Field.REAL, [[1, 0], [0, 0]])], p)
    with pytest.raises(ShapeMismatchError):
        distances_to([p, Morphism.from_real(Field.COMPLEX, [[1, 0, 0], [0, 0, 0]])], p)
    # an H matrix has the native shape of a C matrix twice its size
    with pytest.raises(FieldMismatchError):
        distances_to([Morphism.identity(Field.QUATERNION, Obj(1))],
                     Morphism.identity(Field.COMPLEX, Obj(2)))


def _word_closure_reference(gens, max_len, tol=DEFAULT_TOL):
    """Word-by-word scan: one frobenius_distance per kept word."""
    words = []

    def add(candidate):
        for w in words:
            if frobenius_distance(w, candidate) <= tol.bound(w.norm(), candidate.norm()):
                return False
        words.append(candidate)
        return True

    frontier = [g for g in gens if add(g)]
    for _ in range(max_len - 1):
        candidates = [w @ g for w in frontier for g in gens]
        frontier = [c for c in candidates if add(c)]
    return words


@pytest.mark.parametrize("dim, seed, max_len", [(2, 0, 4), (3, 5, 3), (4, 42, 3)])
def test_word_closure_matches_the_word_by_word_reference(dim, seed, max_len):
    gens = projection_generators(dim, seed)
    got = word_closure(gens, max_len)
    want = _word_closure_reference(gens, max_len)
    assert len(got) == len(want)
    assert all(frobenius_distance(g, w) == 0.0 for g, w in zip(got, want))


@pytest.mark.parametrize("seed, max_len, counts", [
    (42, 3, {2: 41, 3: 64, 4: 91, 5: 122, 6: 157, 7: 196}),
    (1, 4, {2: 107, 3: 192, 4: 301, 5: 434}),
])
def test_word_closure_keeps_its_word_counts(seed, max_len, counts):
    """The one-shot dedup applies the same rule as a word-by-word scan."""
    got = {dim: saturation_check(dim, seed, max_len).words for dim in counts}
    assert got == counts
