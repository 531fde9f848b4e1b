"""Samplers: the batched rank-1 block and the probe family against one
draw at a time, the QR isometry sampler against column-by-column
Gram-Schmidt, and the errors on impossible requests."""

import numpy as np
import pytest

from daggerlab import biproduct, matcat, sampling
from daggerlab.errors import DomainError, NoMorphismError
from daggerlab.matcat import Morphism, Obj, UNIT, ZERO_OBJ, native_stack
from daggerlab.sampling import (
    probe_projections,
    random_dagger_mono,
    random_morphism,
    random_rank1_projections,
    random_rank1_subprojections,
    random_unit_column,
)
from daggerlab.scalars import ALL_FIELDS, Field, TolerancePolicy


class QueueRng:
    """Stand-in for a numpy Generator whose normal draws come in order
    from a fixed queue of standard normal values, however they are
    grouped into calls."""

    def __init__(self, values):
        self.values = list(values)

    def normal(self, loc, scale, size):
        count = int(np.prod(size))
        taken, self.values = self.values[:count], self.values[count:]
        assert len(taken) == count, "queue exhausted"
        return loc + scale * np.array(taken).reshape(size)


def random_rank1_projection(field, obj, rng):
    """v . v-dagger for a random unit column v: one projection at a
    time, the reference for the block samplers."""
    v = random_unit_column(field, obj, rng)
    return matcat.compose(v, v.dagger())


def _sequential(field, dim, count, rng):
    return native_stack([random_rank1_projection(field, Obj(dim), rng) for _ in range(count)])


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_rank1_block_is_bitwise_the_sequential_draws(field, dim):
    seq_rng, block_rng = np.random.default_rng(dim), np.random.default_rng(dim)
    want = _sequential(field, dim, 50, seq_rng)
    got = random_rank1_projections(field, Obj(dim), 50, block_rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # both consumed the same stream
    assert seq_rng.random() == block_rng.random()


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_rank1_block_replaces_a_dropped_draw_with_the_next_one(field):
    dim, count = 3, 5
    column = dim * field.width
    draws = np.random.default_rng(9).normal(0.0, 1.0, (count + 1) * column + 7)
    draws[2 * column:3 * column] = 0.0  # the third column has length 0: Gram-Schmidt drops it
    seq_rng, block_rng = QueueRng(draws), QueueRng(draws)
    want = _sequential(field, dim, count, seq_rng)
    got = random_rank1_projections(field, Obj(dim), count, block_rng)
    assert got.tobytes() == want.tobytes()
    assert len(seq_rng.values) == len(block_rng.values) == 7  # one draw more than count
    # the replacement is the column after the dropped one
    sixth = draws[count * column:(count + 1) * column].reshape(dim, 1, field.width)
    v = matcat.from_components(field, UNIT, Obj(dim), sixth)
    v = matcat.scaled(v, 1.0 / np.sqrt(matcat.column_sq_norm(v)))
    assert got[-1].tobytes() == (v @ v.dagger())._a.tobytes()


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("dim", range(1, 7))
def test_probe_family_is_bitwise_the_coordinate_then_sequential_projections(field, dim):
    x = Obj(dim)
    coordinate = [matcat.basis_column(field, x, k) @ matcat.basis_column(field, x, k).dagger()
                  for k in range(dim)]
    for count in range(9):
        seq_rng, block_rng = np.random.default_rng(count), np.random.default_rng(count)
        want = native_stack(coordinate + [random_rank1_projection(field, x, seq_rng)
                                          for _ in range(count)])
        got = probe_projections(field, x, count, block_rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert seq_rng.random() == block_rng.random()  # both consumed the same stream


def test_rank1_block_rejects_impossible_requests():
    rng = np.random.default_rng(0)
    assert random_rank1_projections(Field.REAL, Obj(2), 0, rng).shape == (0, 2, 2)
    with pytest.raises(NoMorphismError):
        random_rank1_projections(Field.COMPLEX, ZERO_OBJ, 3, rng)
    with pytest.raises(DomainError):
        random_rank1_projections(Field.COMPLEX, Obj(2), -1, rng)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_random_morphism_matches_the_constructor(field):
    rng = np.random.default_rng(4)
    got = random_morphism(field, Obj(3), Obj(2), rng)
    entries = np.zeros((2, 3, 4))
    entries[..., :field.width] = np.random.default_rng(4).normal(0.0, 1.0, (2, 3, field.width))
    want = Morphism(field, Obj(3), Obj(2), entries)
    assert (got.field, got.dom, got.cod) == (want.field, want.dom, want.cod)
    assert got._a.tobytes() == want._a.tobytes()


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_random_dagger_mono_composes_only_inside_derived_additions(monkeypatch, field):
    calls = {"compose": 0, "Morphism": 0, "derived_add": 0}
    compose, init, derived_add = matcat.compose, Morphism.__init__, biproduct.derived_add

    def counting_compose(g, f):
        calls["compose"] += 1
        return compose(g, f)

    def counting_init(self, *args, **kwargs):
        calls["Morphism"] += 1
        init(self, *args, **kwargs)

    def counting_add(f, g):
        calls["derived_add"] += 1
        return derived_add(f, g)

    monkeypatch.setattr(matcat, "compose", counting_compose)
    monkeypatch.setattr(Morphism, "__init__", counting_init)
    monkeypatch.setattr(biproduct, "derived_add", counting_add)
    rng = np.random.default_rng(2)
    random_dagger_mono(field, UNIT, Obj(4), rng)
    assert calls == {"compose": 0, "Morphism": 0, "derived_add": 0}
    m = random_dagger_mono(field, Obj(3), Obj(5), rng)
    # one QR of the native array: no Gram-Schmidt pass, so no derived addition
    assert calls == {"compose": 0, "Morphism": 0, "derived_add": 0}
    assert matcat.is_dagger_mono(m)


def _gram_schmidt_dagger_mono(field, dom, cod, rng):
    """The isometry sampler as it was before one QR: the Gaussian columns
    orthonormalised one at a time by `orthonormal_columns` (CGS2 through
    derived additions), redrawn while a column is dropped."""
    if dom.dim == 0:
        return Morphism.zero(field, dom, cod)
    while True:
        m = sampling.random_morphism(field, dom, cod, rng)
        cols = biproduct.orthonormal_columns([m.col(j) for j in range(dom.dim)])
        if len(cols) == dom.dim:
            return matcat.column_block(cols)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_qr_isometry_is_the_gram_schmidt_isometry(field):
    worst = 0.0
    for n in range(1, 9):
        for k in range(1, n + 1):
            for seed in range(20):
                gs_rng, qr_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = _gram_schmidt_dagger_mono(field, Obj(k), Obj(n), gs_rng)
                got = random_dagger_mono(field, Obj(k), Obj(n), qr_rng)
                assert (got.field, got.dom, got.cod) == (field, Obj(k), Obj(n))
                worst = max(worst, float(np.abs(got._a - want._a).max()))
                assert gs_rng.random() == qr_rng.random()  # the same draws
                if k == 1:  # a unit column is bitwise the Gram-Schmidt one
                    assert got._a.tobytes() == want._a.tobytes()
    assert worst <= 1e-13


def test_qr_isometry_over_h_is_exactly_quaternionic():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for k in range(1, n + 1):
            m = random_dagger_mono(Field.QUATERNION, Obj(k), Obj(n), rng)
            assert matcat.project_to_field(m)._a.tobytes() == m._a.tobytes()
            assert matcat.is_dagger_mono(m, TolerancePolicy(1e-14, 0.0))


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("sampler", [random_dagger_mono, _gram_schmidt_dagger_mono])
def test_rank_deficient_block_is_drawn_once_more(monkeypatch, field, sampler):
    draws = []

    def deficient_first(field, dom, cod, rng):
        m = random_morphism(field, dom, cod, rng)
        if not draws:  # the third column repeats the first
            e = np.array(m.entries)
            e[:, 2] = e[:, 0]
            m = Morphism(field, dom, cod, e)
        draws.append(m)
        return m

    monkeypatch.setattr(sampling, "random_morphism", deficient_first)
    rng = np.random.default_rng(5)
    got = sampler(field, Obj(3), Obj(4), rng)
    assert len(draws) == 2
    monkeypatch.undo()
    rng = np.random.default_rng(5)
    random_morphism(field, Obj(3), Obj(4), rng)  # the dropped draw
    want = _gram_schmidt_dagger_mono(field, Obj(3), Obj(4), rng)
    assert np.abs(got._a - want._a).max() <= 1e-13


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_rank1_subprojection_lies_inside_the_projection(field):
    rng = np.random.default_rng(8)
    inside = random_dagger_mono(field, Obj(2), Obj(4), rng)
    p = inside @ inside.dagger()
    seq_rng, block_rng = np.random.default_rng(9), np.random.default_rng(9)
    block = random_rank1_subprojections(p, 5, block_rng)
    assert block.shape == (5, *p._a.shape)
    for k, q in enumerate(matcat.unstack(field, Obj(4), Obj(4), block)):
        assert matcat.is_projection(q)
        assert matcat.approx_eq(p @ q, q) and matcat.approx_eq(q @ p, q)
        assert abs(q.norm() - 1.0) <= 1e-12  # rank 1
        # the k-th of five one-at-a-time draws: p . g over its length
        w = p @ random_morphism(field, UNIT, Obj(4), seq_rng)
        w = matcat.scaled(w, 1.0 / np.sqrt(matcat.column_sq_norm(w)))
        assert matcat.frobenius_distance(q, w @ w.dagger()) <= 1e-14, k
    assert seq_rng.random() == block_rng.random()  # both consumed the same stream
    assert random_rank1_subprojections(p, 0, block_rng).shape == (0, *p._a.shape)


def test_samplers_reject_impossible_isometries():
    rng = np.random.default_rng(0)
    with pytest.raises(NoMorphismError):
        random_dagger_mono(Field.COMPLEX, Obj(3), Obj(2), rng)
    with pytest.raises(NoMorphismError):
        random_unit_column(Field.REAL, ZERO_OBJ, rng)
    assert random_dagger_mono(Field.REAL, ZERO_OBJ, Obj(2), rng).norm() == 0.0
