"""Projection generators, word closure and span saturation, with an
independent row-reduction rank oracle."""

import numpy as np
import pytest

from daggerlab import matcat, projspan
from daggerlab.errors import (
    DomainError,
    FieldMismatchError,
    ShapeMismatchError,
    UnsupportedFieldError,
)
from daggerlab.matcat import (
    Morphism,
    Obj,
    frobenius_distance,
    is_projection,
    native_stack,
    stack_norms,
)
from daggerlab.projspan import (
    projection_generators,
    real_span_rank,
    saturation_check,
    word_closure,
)
from daggerlab.sampling import random_morphism
from daggerlab.scalars import ALL_FIELDS, DEFAULT_TOL, Field


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


def test_span_rank_of_real_words_and_rejection_of_quaternion_words():
    gens = projection_generators(2, seed=3, count=2)
    real = [Morphism.from_real(Field.REAL, w.entries[..., 0]) for w in gens]
    # real words span the same real space as their complex copies
    promoted = [Morphism.from_real(Field.COMPLEX, w.entries[..., 0]) for w in real]
    assert real_span_rank(real) == real_span_rank(promoted) == row_reduction_rank(
        _vectorise(real))
    quat = Morphism.identity(Field.QUATERNION, Obj(1))
    with pytest.raises(FieldMismatchError):
        real_span_rank([quat])
    with pytest.raises(FieldMismatchError):
        real_span_rank([gens[0], quat])  # native arrays of one shape


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


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_stack_norms_of_differences_match_frobenius_distance(field):
    rng = np.random.default_rng(11)
    fs = [random_morphism(field, Obj(3), Obj(2), rng) for _ in range(5)]
    g = random_morphism(field, Obj(3), Obj(2), rng)
    got = stack_norms(field, native_stack(fs + [g]) - native_stack([g]))
    want = [frobenius_distance(f, g) for f in fs] + [0.0]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    # over leading axes: every pair of two stacks at once
    pairs = stack_norms(field, native_stack(fs)[:, None] - native_stack(fs + [g])[None])
    assert pairs.shape == (5, 6)
    assert np.allclose(pairs[:, -1], want[:-1], rtol=1e-12, atol=0.0)
    assert np.array_equal(np.diagonal(pairs), np.zeros(5))


def test_native_stack_rejects_mixed_fields_and_shapes():
    p = Morphism.from_real(Field.COMPLEX, [[1, 0], [0, 0]])
    with pytest.raises(FieldMismatchError):
        native_stack([p, Morphism.from_real(Field.REAL, [[1, 0], [0, 0]])])
    with pytest.raises(ShapeMismatchError):
        native_stack([p, Morphism.from_real(Field.COMPLEX, [[1, 0, 0], [0, 0, 0]])])
    # an H matrix has the native shape of a C matrix twice its size
    with pytest.raises(FieldMismatchError):
        native_stack([Morphism.identity(Field.COMPLEX, Obj(2)),
                      Morphism.identity(Field.QUATERNION, Obj(1))])
    with pytest.raises(ShapeMismatchError):
        native_stack([])


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


def _assert_same_words(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.field, g.dom, g.cod) == (w.field, w.dom, w.cod)
        assert g._a.dtype == w._a.dtype
        assert g._a.tobytes() == w._a.tobytes()


@pytest.mark.parametrize("dim, max_len", [
    *((d, l) for d in range(1, 8) for l in (1, 2, 3)),
    # the word-by-word reference takes seconds per case at length 4 beyond dim 4
    *((d, 4) for d in range(1, 5)),
])
@pytest.mark.parametrize("field", ALL_FIELDS)
def test_batched_closure_is_bitwise_the_reference(field, dim, max_len):
    gens = projection_generators(dim, seed=dim + 10 * max_len, field=field)
    _assert_same_words(word_closure(gens, max_len), _word_closure_reference(gens, max_len))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_closure_drops_a_duplicate_inside_one_level(field):
    # two equal generators: the second is a twin of the first in level 1,
    # and every product through it is a twin of one through the first
    gens = projection_generators(3, seed=4, field=field)
    doubled = gens[:2] + [gens[1]] + gens[2:]
    got = word_closure(doubled, 3)
    _assert_same_words(got, _word_closure_reference(doubled, 3))
    _assert_same_words(got[:2], gens[:2])
    assert got[2]._a.tobytes() == gens[2]._a.tobytes()
    assert len(got) == len(word_closure(gens, 3))


def test_closure_of_zero_dimensional_generators():
    z = Morphism.zero(Field.COMPLEX, Obj(0), Obj(0))
    words = word_closure([z, z], 3)
    _assert_same_words(words, _word_closure_reference([z, z], 3))
    assert real_span_rank(words) == 0


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_closure_does_not_depend_on_the_chunk_size(monkeypatch, field):
    gens = projection_generators(3, seed=8, field=field)
    want = word_closure(gens, 3)
    monkeypatch.setattr(projspan, "DEDUP_CHUNK_BYTES", 1)  # one candidate per chunk
    _assert_same_words(word_closure(gens, 3), want)
    _assert_same_words(want, _word_closure_reference(gens, 3))


def test_closure_makes_no_compositions_or_morphisms_per_candidate(monkeypatch):
    gens = projection_generators(4, seed=42)
    calls = {"compose": 0, "Morphism": 0, "wrap": 0}
    compose, init, wrap = matcat.compose, Morphism.__init__, matcat._wrap

    def counting_compose(g, f):
        calls["compose"] += 1
        return compose(g, f)

    def counting_init(self, *args, **kwargs):
        calls["Morphism"] += 1
        init(self, *args, **kwargs)

    def counting_wrap(*args):
        calls["wrap"] += 1
        return wrap(*args)

    monkeypatch.setattr(matcat, "compose", counting_compose)
    monkeypatch.setattr(Morphism, "__init__", counting_init)
    monkeypatch.setattr(matcat, "_wrap", counting_wrap)
    Morphism.from_json(gens[0].to_json()) @ gens[0]
    assert calls == {"compose": 1, "Morphism": 1, "wrap": 1}  # the counters see every path
    calls.update(compose=0, Morphism=0, wrap=0)
    words = word_closure(gens, 3)
    assert len(words) == 91
    # one morphism per kept word, none per candidate
    assert calls == {"compose": 0, "Morphism": 0, "wrap": len(words)}


@pytest.mark.parametrize("max_len", [0, -2])
def test_closure_rejects_a_length_cap_below_one(max_len):
    gens = projection_generators(3, seed=0)
    assert len(word_closure(gens, 1)) == 5
    with pytest.raises(DomainError):
        word_closure(gens, max_len)
    with pytest.raises(DomainError):
        word_closure([], max_len)
    with pytest.raises(DomainError):
        saturation_check(3, seed=0, max_len=max_len)


def test_saturation_rejects_a_negative_generator_count():
    assert saturation_check(3, seed=0, count=0).words > 0
    with pytest.raises(DomainError):
        saturation_check(3, seed=0, count=-3)
    with pytest.raises(DomainError):
        projection_generators(3, seed=0, count=-1)


def _close_by_all_differences(field, a, a_norms, b, b_norms, tol):
    """Every pair compared: the norms of all differences at once."""
    bound = tol.abs_eps + tol.rel_eps * np.maximum(a_norms[:, None], b_norms)
    return stack_norms(field, a[:, None] - b) <= bound


def _stack_with_near_twins(field, rng):
    """Words with repeated norms and twins near the tolerance bound."""
    x = Obj(3)
    base = [random_morphism(field, x, x, rng) for _ in range(6)]
    ident = Morphism.identity(field, x)
    words = base + [base[0], base[1] @ ident, Morphism.zero(field, x, x)]
    stack = native_stack(words)
    nudged = stack[:3] * (1.0 + np.array([0.5e-9, 0.9e-9, 3e-9]))[:, None, None]
    return np.concatenate([stack, nudged, -stack[:2]])


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_close_compares_only_pairs_that_can_be_close(monkeypatch, field):
    rng = np.random.default_rng(12)
    a = _stack_with_near_twins(field, rng)
    b = np.concatenate([a[::2], _stack_with_near_twins(field, rng)])
    a_norms, b_norms = stack_norms(field, a), stack_norms(field, b)
    compared = []

    def counting_norms(f, stack):
        compared.append(len(stack))
        return stack_norms(f, stack)

    monkeypatch.setattr(projspan, "stack_norms", counting_norms)
    for chunk in (projspan.DEDUP_CHUNK_BYTES, 1):
        monkeypatch.setattr(projspan, "DEDUP_CHUNK_BYTES", chunk)
        want = _close_by_all_differences(field, a, a_norms, b, b_norms, DEFAULT_TOL)
        compared.clear()
        got = projspan._close(field, a, a_norms, b, b_norms, DEFAULT_TOL)
        assert got.tolist() == want.tolist()
        assert 0 < sum(compared) < want.size / 4  # equal and near-equal norms only
        twins = _close_by_all_differences(field, a, a_norms, a, a_norms, DEFAULT_TOL)
        compared.clear()
        got = projspan._close(field, a, a_norms, a, a_norms, DEFAULT_TOL, upper=True)
        assert got.tolist() == np.triu(twins, 1).tolist()
        assert sum(compared) < len(a) * (len(a) - 1) / 2 / 4
    assert want.sum() > len(b) // 2 and np.triu(twins, 1).sum() >= 3
