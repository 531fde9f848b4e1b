"""Projection generators, word closure and span saturation, with an
independent row-reduction rank oracle."""

import tracemalloc

import numpy as np
import pytest

from daggerlab import matcat
from daggerlab.errors import DomainError, FieldMismatchError, ShapeMismatchError
from daggerlab.matcat import (
    Morphism,
    Obj,
    frobenius_distance,
    is_projection,
    native_stack,
    stack_norms,
    unstack,
)
from daggerlab.projspan import projection_generators, saturation_check, word_closure
from daggerlab.sampling import probe_projections, random_morphism
from daggerlab.scalars import ALL_FIELDS, Field


class RowReduction:
    """Gauss-Jordan elimination one row at a time, each kept row pivoting
    on its largest entry; deliberately neither SVD nor orthogonal
    projection, so it cross-checks the implementation's rank.  The kept
    rows stay reduced: each is 1 in its pivot column, where the others
    are 0, so a new row is reduced by one product with them."""

    def __init__(self, pivot_eps=1e-6):
        self.rows, self.pivots, self.pivot_eps = None, [], pivot_eps

    def add(self, row):
        """Keep `row` iff its reduction leaves an entry above pivot_eps,
        that is iff the rank of the rows so far plus `row` rises."""
        row = np.asarray(row, dtype=float)
        if self.rows is None:
            self.rows = np.zeros((0, row.size))
        rest = row - row[self.pivots] @ self.rows
        col = int(np.argmax(np.abs(rest))) if rest.size else 0
        if not rest.size or abs(rest[col]) <= self.pivot_eps:
            return False
        rest /= rest[col]
        self.rows = np.vstack([self.rows - np.outer(self.rows[:, col], rest), rest])
        self.pivots.append(col)
        return True


def row_reduction_rank(rows, pivot_eps=1e-6):
    reduction = RowReduction(pivot_eps)
    return sum(reduction.add(row) for row in rows)


def _vectorise(words):
    """Each morphism as one real row: all four components of each entry."""
    return [w.entries.ravel() for w in words]


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
    # pq = qp = 0 are candidates, but a zero word never raises the rank
    assert len(words) == 2
    zero = Morphism.zero(Field.COMPLEX, Obj(2), Obj(2))
    assert all(frobenius_distance(w, zero) > 0.5 for w in words)


def test_word_closure_counts_reported():
    gens = projection_generators(2, seed=3, count=2)
    words = word_closure(gens, max_len=3)
    assert len(words) >= len(gens)
    # entries of projection products stay bounded by the dimension
    assert all(np.max(np.abs(w.entries)) <= 2 for w in words)


def test_saturation_dim1_below_threshold():
    rep = saturation_check(1, seed=0)
    assert rep.rank == 1 and rep.target == 2
    assert rep.status == "below-threshold (expected)"
    assert rep.ok


@pytest.mark.parametrize("dim,expected", [(2, 8), (3, 18), (4, 32)])
def test_saturation_rank_with_row_reduction_oracle(dim, expected):
    gens = projection_generators(dim, seed=0, count=2)
    words = word_closure(gens, max_len=3)
    assert len(words) == expected == 2 * dim * dim
    assert row_reduction_rank(_vectorise(words)) == expected


def test_saturation_check_reports():
    rep = saturation_check(2, seed=1)
    assert rep.to_json() == {
        "dim": 2, "rank": 8, "target": 8, "seed": 1, "status": "pass",
    }


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


def _word_closure_reference(gens, max_len):
    """Word-by-word scan: a candidate is kept iff the row-reduction rank
    of the kept words plus the candidate rises."""
    words, reduction = [], RowReduction()

    def add(candidate):
        if not reduction.add(candidate.entries.ravel()):
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
    (42, 3, {2: 8, 3: 18, 4: 32, 5: 50, 6: 72, 7: 98}),
    (1, 4, {2: 8, 3: 18, 4: 32, 5: 50}),
])
def test_word_closure_keeps_its_word_counts(seed, max_len, counts):
    """The kept words are a basis of the saturated span: 2n^2 of them."""
    reports = {dim: saturation_check(dim, seed, max_len) for dim in counts}
    assert {dim: rep.rank for dim, rep in reports.items()} == counts


def _generators(dim, seed, field):
    """`projection_generators` over any field: the coordinate projections
    and two random rank-1 projections of Obj(dim)."""
    x = Obj(dim)
    return unstack(field, x, x, probe_projections(field, x, 2, np.random.default_rng(seed)))


def _all_words(gens, max_len):
    words, level = [], list(gens)
    for _ in range(max_len):
        words += level
        level = [w @ g for w in level for g in gens]
    return words


def _svd_rank(words):
    s = np.linalg.svd(np.stack(_vectorise(words)), compute_uv=False)
    return int(np.count_nonzero(s > 1e-8 * s[0]))


@pytest.mark.parametrize("dim, max_len", [(d, l) for d in range(1, 6) for l in (1, 2, 3)])
@pytest.mark.parametrize("field", ALL_FIELDS)
def test_kept_words_number_the_span_rank_of_all_words(field, dim, max_len):
    """Brute force: every word of length <= max_len, one SVD of them all."""
    gens = _generators(dim, 3 * dim + max_len, field)
    rank = _svd_rank(_all_words(gens, max_len))
    assert len(word_closure(gens, max_len)) == rank <= dim * dim * field.width
    if field is Field.REAL:  # real words span as much as their complex copies
        promoted = [Morphism.from_real(Field.COMPLEX, g.entries[..., 0]) for g in gens]
        assert len(word_closure(promoted, max_len)) == rank


def _assert_same_words(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.field, g.dom, g.cod) == (w.field, w.dom, w.cod)
        assert g._a.dtype == w._a.dtype
        assert g._a.tobytes() == w._a.tobytes()


@pytest.mark.parametrize("dim, max_len", [(d, l) for d in range(1, 8) for l in (1, 2, 3, 4)])
@pytest.mark.parametrize("field", ALL_FIELDS)
def test_batched_closure_is_bitwise_the_reference(field, dim, max_len):
    gens = _generators(dim, dim + 10 * max_len, field)
    if field is Field.COMPLEX:
        _assert_same_words(gens, projection_generators(dim, dim + 10 * max_len))
    _assert_same_words(word_closure(gens, max_len), _word_closure_reference(gens, max_len))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_closure_drops_a_duplicate_inside_one_level(field):
    # two equal generators: the second adds no rank in level 1, and every
    # product through it is one through the first
    gens = _generators(3, 4, field)
    doubled = gens[:2] + [gens[1]] + gens[2:]
    got = word_closure(doubled, 3)
    _assert_same_words(got, _word_closure_reference(doubled, 3))
    _assert_same_words(got[:2], gens[:2])
    assert got[2]._a.tobytes() == gens[2]._a.tobytes()
    assert len(got) == len(word_closure(gens, 3))


def test_closure_of_zero_dimensional_generators():
    z = Morphism.zero(Field.COMPLEX, Obj(0), Obj(0))
    assert word_closure([z, z], 3) == _word_closure_reference([z, z], 3) == []


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
    assert len(words) == 32
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
    assert saturation_check(3, seed=0, count=0).rank > 0
    with pytest.raises(DomainError):
        saturation_check(3, seed=0, count=-3)
    with pytest.raises(DomainError):
        projection_generators(3, seed=0, count=-1)


def test_saturation_check_traces_little_memory():
    saturation_check(5, 1, max_len=6)  # warm
    tracemalloc.start()
    try:
        saturation_check(5, 1, max_len=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
