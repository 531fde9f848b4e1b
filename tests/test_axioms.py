"""Axiom verifiers: biproduct laws, complements, normalisation, strict
square roots and their refutation, finite directed colimits."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from daggerlab.axioms import (
    DirectedDiagram,
    complement_h3,
    construct_h4a,
    finite_directed_colimit,
    is_strict_sqrt,
    mediating_dagger_mono,
    normalize_h4b,
    polynomial_fit_residual,
    random_directed_diagram,
    refute_h5_scalar_case,
    spectral_projections,
    strict_sqrt_complex,
    subset_diagram,
)
from daggerlab.biproduct import derived_add, verify_biproduct
from daggerlab import axioms, campaigns, matcat
from daggerlab.errors import (
    DomainError,
    NoMorphismError,
    ShapeMismatchError,
    UnsupportedFieldError,
)
from daggerlab.matcat import (
    Morphism,
    Obj,
    UNIT,
    approx_eq,
    basis_column,
    column_block,
    frobenius_distance,
    is_dagger_mono,
)
from daggerlab.reconstruct import inner_product
from daggerlab.sampling import (
    random_dagger_mono,
    random_coordinate_projection,
    random_morphism,
    random_unit_column,
    random_unitary,
)
from daggerlab.scalars import ALL_FIELDS, DEFAULT_TOL, Field, Scalar

RT2 = 2.0 ** -0.5


def _rank1_projection(field, x, rng):
    """v . v-dagger for one random unit column v: the one-at-a-time draw."""
    v = random_unit_column(field, x, rng)
    return v @ v.dagger()


# -- H1 ----------------------------------------------------------------


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_check_h1_passes(field):
    cfg = campaigns.CampaignConfig(field=field, dims=(0, 1, 2, 3), trials=1)
    report = campaigns.check_h1(cfg)
    assert (report.axiom, report.status) == ("axioms.h1-biproducts", "pass")
    assert report.residual < 1e-12 and report.details == {"pairs": 16}
    assert campaigns.check_h1(campaigns.CampaignConfig(field=field, dims=(1,))).status == "pass"
    # the axiom suite reports it under its label
    [h1] = [r for r in campaigns.run_axiom_suite(cfg) if r.axiom == "H1"]
    assert h1.to_json() == {**report.to_json(), "axiom": "H1"}


# -- H3 ----------------------------------------------------------------


def test_complement_coordinate_column():
    f = Morphism.from_real(Field.REAL, [[1], [0]])
    g = complement_h3(f)
    assert np.allclose(np.abs(g.entries[..., 0]), [[0], [1]])


def test_complement_of_full_mono_is_zero_width():
    g = complement_h3(Morphism.identity(Field.COMPLEX, Obj(2)))
    assert g.dom.dim == 0 and g.cod.dim == 2


def test_complement_diagonal_direction():
    f = Morphism.from_real(Field.REAL, [[RT2], [RT2]])
    g = complement_h3(f)
    expected = Morphism.from_real(Field.REAL, [[RT2], [-RT2]])
    # agreement up to a right unit scalar: unit overlap
    overlap = inner_product(g.col(0), expected.col(0))
    assert abs(abs(overlap.w) - 1.0) < 1e-12
    assert verify_biproduct([f, g]) < 1e-12


def test_complement_of_a_non_mono_fails_the_biproduct_laws():
    # complement_h3 presumes an isometry and judges nothing; the laws that
    # the H3 check reads the pair against reject it (f-dagger . f = 2)
    f = Morphism.from_real(Field.REAL, [[1], [1]])
    assert verify_biproduct([f, complement_h3(f)]) >= 1.0


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_complement_random_invariants(field):
    rng = np.random.default_rng(41)
    for _ in range(60):
        x = Obj(int(rng.integers(1, 9)))
        a = Obj(int(rng.integers(0, x.dim + 1)))
        f = random_dagger_mono(field, a, x, rng)
        g = complement_h3(f)
        assert g.dom.dim == x.dim - a.dim
        assert verify_biproduct([f, g]) <= DEFAULT_TOL.bound(1.0, 1.0)


# -- H4 ----------------------------------------------------------------


def test_construct_h4a():
    u = construct_h4a(Field.COMPLEX, Obj(3))
    assert np.allclose(u.complex_view().ravel(), [1, 0, 0])
    assert np.allclose(construct_h4a(Field.REAL, UNIT).entries[..., 0], [[1.0]])
    with pytest.raises(NoMorphismError):
        construct_h4a(Field.REAL, Obj(0))


def test_normalize_h4b_examples():
    u = Morphism.from_real(Field.REAL, [[2], [0]])
    assert abs(normalize_h4b(u).w - 0.5) < 1e-15

    v = Morphism.from_real(Field.REAL, [[1], [1]])
    h = normalize_h4b(v)
    assert abs(h.w - RT2) < 1e-15
    iso = v @ Morphism.single(h)
    assert is_dagger_mono(iso)

    j = Morphism.single(Scalar(Field.QUATERNION, 0, 0, 1, 0))
    assert abs(normalize_h4b(j).w - 1.0) < 1e-15

    # outside its precondition the normaliser is computed, not judged
    with np.errstate(divide="ignore"):
        assert math.isinf(normalize_h4b(Morphism.zero(Field.COMPLEX, UNIT, Obj(2))).w)


# -- H5 over C ---------------------------------------------------------


def test_strict_sqrt_identity():
    ident = Morphism.identity(Field.COMPLEX, Obj(2))
    cert = strict_sqrt_complex(ident)
    assert frobenius_distance(cert.root, ident) < 1e-12


def test_strict_sqrt_diag_reflection():
    u = Morphism.from_complex(np.diag([1.0 + 0j, -1.0 + 0j]))
    cert = strict_sqrt_complex(u)
    assert np.allclose(cert.root.complex_view(), np.diag([1, 1j]), atol=1e-12)
    assert cert.residual < 1e-12
    # strictness against all diagonal projections and random commuting ones
    rng = np.random.default_rng(1)
    for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        p = Morphism.from_real(Field.COMPLEX, np.diag(bits))
        assert approx_eq(p @ cert.root, cert.root @ p)
    for _ in range(100):
        bits = rng.integers(0, 2, 2)
        p = Morphism.from_real(Field.COMPLEX, np.diag(bits.astype(float)))
        assert approx_eq(p @ u, u @ p) and approx_eq(p @ cert.root, cert.root @ p)
    assert is_strict_sqrt(u, cert.root, 50, rng)


def test_strict_sqrt_minus_identity_is_scalar():
    u = Morphism.from_complex(-np.eye(2, dtype=complex))
    cert = strict_sqrt_complex(u)
    assert np.allclose(cert.root.complex_view(), 1j * np.eye(2), atol=1e-12)
    assert len(cert.interpolation_data) == 1  # one spectral cluster


def test_strict_sqrt_rejects_bad_input():
    # only structural input: the `sqrt` command and the H5 check judge
    # unitarity before they ask for a root
    with pytest.raises(ShapeMismatchError):
        strict_sqrt_complex(Morphism.from_complex([[1.0 + 0j, 0j]]))
    with pytest.raises(UnsupportedFieldError):
        strict_sqrt_complex(Morphism.identity(Field.REAL, Obj(2)))


def test_is_strict_sqrt_examples():
    ident = Morphism.identity(Field.COMPLEX, Obj(2))
    rng = np.random.default_rng(2)
    assert is_strict_sqrt(ident, ident, 20, rng)

    minus = Morphism.from_complex(-np.eye(2, dtype=complex))
    rotation = Morphism.from_complex(np.array([[0, -1], [1, 0]], dtype=complex))
    # squares correctly but fails commutation with diag(1, 0)
    assert approx_eq(rotation @ rotation, minus)
    p = Morphism.from_real(Field.COMPLEX, [[1, 0], [0, 0]])
    assert approx_eq(p @ minus, minus @ p)
    assert not approx_eq(p @ rotation, rotation @ p)
    assert not is_strict_sqrt(minus, rotation, 20, rng)

    u = Morphism.from_complex(np.diag([1.0 + 0j, -1.0 + 0j]))
    v = Morphism.from_complex(np.diag([1.0 + 0j, 1j]))
    assert is_strict_sqrt(u, v, 20, rng)


def test_sqrt_campaign_random_unitaries():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = Obj(int(rng.integers(1, 7)))
        u = random_unitary(Field.COMPLEX, x, rng)
        cert = strict_sqrt_complex(u)
        ident = Morphism.identity(Field.COMPLEX, x)
        assert cert.residual <= 1e-8
        assert frobenius_distance(cert.root.dagger() @ cert.root, ident) <= 1e-8
        assert is_strict_sqrt(u, cert.root, 20, rng)
        assert polynomial_fit_residual(u, cert.root) <= 1e-7


def _is_strict_sqrt_one_projection_at_a_time(u, v, projection_samples, rng, tol=DEFAULT_TOL):
    """The strictness check with each projection a morphism, drawn one at
    a time, and each commutation two compositions and approx_eq: the
    spectral projections of u, and inside each one p of rank >= 2,
    `projection_samples` projections onto unit columns p . g / |p . g|
    for Gaussian columns g.  v must commute with each of them that
    commutes with u."""
    if u.dom.dim == 0:
        return True

    def commutes(p, a):
        return approx_eq(p @ a, a @ p, tol)

    spectral = spectral_projections(u)
    inside = []
    for p in spectral:
        if round(np.trace(p.complex_view()).real) >= 2:
            for _ in range(projection_samples):
                w = p @ random_morphism(u.field, UNIT, u.dom, rng)
                w = matcat.scaled(w, 1.0 / np.sqrt(matcat.column_sq_norm(w)))
                inside.append(w @ w.dagger())
    return all(commutes(p, v) for p in spectral + inside if commutes(p, u))


def _strictness_cases(rng):
    """(name, u, v, strict) over C."""
    ident = Morphism.identity(Field.COMPLEX, Obj(2))
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    cases = [
        ("identity", ident, ident, True),
        ("minus-identity-rotation", Morphism.from_real(Field.COMPLEX, -np.eye(2)),
         Morphism.from_real(Field.COMPLEX, turn), False),
    ]
    # u has the eigenvalue 1 twice, and v takes it to 1 and -1: v is no
    # polynomial in u, hidden in a random basis
    u0 = np.zeros((4, 4))
    u0[:2, :2], u0[2:, 2:] = np.eye(2), -np.eye(2)
    v0 = np.zeros((4, 4))
    v0[:2, :2], v0[2:, 2:] = np.diag([1.0, -1.0]), turn
    w = random_unitary(Field.COMPLEX, Obj(4), rng)
    hidden = [w @ Morphism.from_real(Field.COMPLEX, m) @ w.dagger() for m in (u0, v0)]
    cases.append(("non-polynomial-root", *hidden, False))
    # a simple spectrum: w is a function of w . w on it
    w = random_unitary(Field.COMPLEX, Obj(3), rng)
    cases.append(("square-of-random", w @ w, w, True))
    u = random_unitary(Field.COMPLEX, Obj(5), rng)
    cases.append(("synthesised-root", u, strict_sqrt_complex(u).root, True))
    return cases


def test_stacked_strictness_agrees_with_one_projection_at_a_time():
    for name, u, v, strict in _strictness_cases(np.random.default_rng(6)):
        for seed in range(3):
            old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _is_strict_sqrt_one_projection_at_a_time(u, v, 50, old_rng)
            assert is_strict_sqrt(u, v, 50, new_rng) == want == strict, name
            assert old_rng.random() == new_rng.random(), name  # the same draws


@pytest.mark.parametrize("field", [Field.REAL, Field.QUATERNION])
def test_is_strict_sqrt_is_complex_only(field):
    ident = Morphism.identity(field, Obj(2))
    with pytest.raises(UnsupportedFieldError):
        is_strict_sqrt(ident, ident, 20, np.random.default_rng(0))


def _hidden(spectrum, rng):
    """A unitary with the given eigenvalues in a random basis, and the basis."""
    w = random_unitary(Field.COMPLEX, Obj(len(spectrum)), rng)
    return w @ Morphism.from_complex(np.diag(np.array(spectrum, complex))) @ w.dagger(), w


def test_non_polynomial_root_is_refuted_in_every_basis():
    # v is +1 and -1 on the eigenvalue 1 of u, so v fails to commute
    # with most rank-1 projections inside that eigenspace, whichever way
    # the computed -1 pair falls around the branch cut
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    v0 = np.zeros((4, 4))
    v0[:2, :2], v0[2:, 2:] = np.diag([1.0, -1.0]), turn
    for seed in range(200):
        rng = np.random.default_rng(seed)
        u, w = _hidden([1, 1, -1, -1], rng)
        v = w @ Morphism.from_real(Field.COMPLEX, v0) @ w.dagger()
        assert approx_eq(v @ v, u)
        assert not is_strict_sqrt(u, v, 50, rng), seed


@pytest.mark.parametrize("spectrum", [[1, 1, -1, -1], [-1, -1, -1, 1j], [1, 1, 1j, 1j]])
def test_synthesised_root_of_a_repeated_spectrum_is_strict_in_every_basis(spectrum):
    # a repeated -1 is one node, whichever side of the cut its computed
    # copies fall on, so the root is a scalar on each eigenspace and
    # commutes with every rank-1 projection inside it
    for seed in range(200):
        rng = np.random.default_rng(seed)
        u, w = _hidden(spectrum, rng)
        root = strict_sqrt_complex(u).root
        for value in set(spectrum):
            columns = [w.col(k) for k, x in enumerate(spectrum) if x == value]
            g = column_block(columns) @ random_morphism(Field.COMPLEX, UNIT, Obj(len(columns)), rng)
            g = matcat.scaled(g, 1.0 / g.norm())
            p = g @ g.dagger()
            assert approx_eq(p @ root, root @ p), (seed, value)
        assert is_strict_sqrt(u, root, 50, rng), seed


def test_repeated_minus_one_is_one_cluster_across_the_cut():
    eps = axioms.EIGENVALUE_CLUSTER_EPS
    for spread in (0.0, 1e-15, 1e-9, 0.4 * eps):
        eigs = np.exp(1j * np.array([np.pi - spread, 0.5, -np.pi + spread]))
        assert sorted(map(sorted, axioms._cluster_indices(eigs, eps))) == [[0, 2], [1]]


def test_strict_sqrt_branch_cut_straddle():
    # eigenvalues on opposite sides of -1 stay separate nodes and get
    # the principal roots near +i and -i
    for delta in (1e-3, 1e-6, 1e-7):
        lam1 = np.exp(1j * (np.pi - delta))
        lam2 = np.exp(1j * (-np.pi + delta))
        u = Morphism.from_complex(np.diag([lam1, lam2]))
        cert = strict_sqrt_complex(u)
        assert cert.residual <= 1e-10
        assert len(cert.interpolation_data) == 2
        roots = sorted(complex(*r.to_json()).imag for _, r in cert.interpolation_data)
        assert abs(roots[0] + 1.0) < 1e-3 and abs(roots[1] - 1.0) < 1e-3


def test_strict_sqrt_near_degenerate_cluster():
    lam = np.exp(0.7j)
    u = Morphism.from_complex(np.diag([lam, lam * np.exp(1e-9 * 1j)]))
    cert = strict_sqrt_complex(u)
    assert len(cert.interpolation_data) == 1  # merged into one node
    assert cert.residual <= 1e-8
    assert is_strict_sqrt(u, cert.root, 20, np.random.default_rng(0))


@pytest.mark.parametrize("place", [0.0, np.pi / 2, np.pi], ids=["at-1", "at-i", "across-minus-1"])
@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_strict_sqrt_of_a_near_degenerate_spectrum(n, place):
    # a pair or a triple of eigenvalues `gap` apart, centred on `place`,
    # the rest well away from it, in a random basis: whether the cluster
    # is merged into one node or not, the root squares to u
    ident = Morphism.identity(Field.COMPLEX, Obj(n))
    for size, gap, seed in itertools.product((2, 3), (1e-10, 5e-8, 1.5e-7, 1e-6, 1e-4), range(3)):
        if size > n:
            continue
        rng = np.random.default_rng(seed)
        angles = np.concatenate([place + gap * (np.arange(size) - (size - 1) / 2),
                                 place + rng.uniform(0.5, 2 * np.pi - 0.5, n - size)])
        u, _ = _hidden(np.exp(1j * angles), rng)
        cert = strict_sqrt_complex(u)
        case = (size, gap, seed)
        assert cert.residual <= 1e-12, case
        assert frobenius_distance(cert.root.dagger() @ cert.root, ident) <= 1e-12, case
        if place != np.pi:  # the cut splits a pair across -1 into the roots +i and -i
            assert polynomial_fit_residual(u, cert.root) <= 1e-7, case


@pytest.mark.parametrize("n", [2, 4, 8])
def test_genuine_root_of_a_near_degenerate_unitary_reads_strict(n):
    # a pair or a triple of eigenvalues 5e-9 or 2e-8 apart, one cluster,
    # whose rank-1 subprojections commute with u only to about the gap:
    # whether or not such a projection passes for commuting with u, the
    # root commutes with it, so the implication holds
    for size, gap, place, seed in itertools.product(
            (2, 3), (5e-9, 2e-8), (0.0, np.pi / 2, np.pi), range(5)):
        if size > n:
            continue
        rng = np.random.default_rng(seed)
        angles = np.concatenate([place + gap * (np.arange(size) - (size - 1) / 2),
                                 place + rng.uniform(0.5, 2 * np.pi - 0.5, n - size)])
        u, _ = _hidden(np.exp(1j * angles), rng)
        root = strict_sqrt_complex(u).root
        assert is_strict_sqrt(u, root, 50, rng), (size, gap, place, seed)


def test_spectral_projections_commute():
    rng = np.random.default_rng(5)
    u = random_unitary(Field.COMPLEX, Obj(4), rng)
    projections = spectral_projections(u)
    total = Morphism.zero(Field.COMPLEX, Obj(4), Obj(4))
    for p in projections:
        assert approx_eq(p @ u, u @ p)
        total = derived_add(total, p)
    assert approx_eq(total, Morphism.identity(Field.COMPLEX, Obj(4)))


def _spectrum(kind: str, n: int, rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """Eigenvalue angles of one kind and the cluster sizes they must give."""
    if kind == "random":  # well separated, in random order
        return rng.permutation(np.linspace(-3.0, 3.0, n) + rng.uniform(-0.1, 0.1, n)), [1] * n
    if kind == "repeated":
        angles = rng.choice([0.3, 1.7, -2.2], n)
        return angles, [int(c) for c in np.unique(angles, return_counts=True)[1]]
    if kind == "minus-identity":
        return np.full(n, np.pi), [n]
    if kind == "identity":
        return np.zeros(n), [n]
    if kind == "merged":  # 1e-9 apart: one cluster
        return 0.9 + 1e-9 * np.arange(n), [n]
    if kind == "close":  # 2e-7 apart: separate clusters whose eigenvectors are
        return 0.9 + 2e-7 * np.arange(n), [1] * n  # orthogonal only to eps / gap
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["random", "repeated", "minus-identity", "identity",
                                  "merged", "close"])
@pytest.mark.parametrize("n", range(1, 9))
def test_spectral_projections_on_degenerate_spectra(kind, n):
    rng = np.random.default_rng(100 * n + len(kind))
    angles, sizes = _spectrum(kind, n, rng)
    q = random_unitary(Field.COMPLEX, Obj(n), rng).complex_view()
    uc = (q * np.exp(1j * angles)) @ q.conj().T
    projections = spectral_projections(Morphism.from_complex(uc))
    clusters = axioms._cluster_indices(np.linalg.eig(uc)[0], axioms.EIGENVALUE_CLUSTER_EPS)
    assert sorted(len(c) for c in clusters) == sorted(sizes)
    assert len(projections) == len(clusters)
    total = np.zeros((n, n), complex)
    for p, cluster in zip(projections, clusters):
        a = p.complex_view()
        assert np.linalg.matrix_rank(a, tol=0.5) == len(cluster)
        assert np.linalg.norm(a - a.conj().T) <= 1e-12
        assert np.linalg.norm(a @ a - a) <= 1e-12
        assert np.linalg.norm(a @ uc - uc @ a) <= 1e-12
        total += a
    assert np.linalg.norm(total - np.eye(n)) <= 1e-12


# -- H5 refutation -----------------------------------------------------


@pytest.mark.parametrize("field,dim", [
    (Field.REAL, 2), (Field.REAL, 3), (Field.QUATERNION, 2),
])
def test_refutation_infeasible(field, dim):
    report = refute_h5_scalar_case(field, dim, np.random.default_rng(7))
    assert report.status == "infeasible"
    assert report.details["commutant_nullity"] == 1
    # witness is the (normalised) identity direction of the commutant
    w = report.witness
    ident = Morphism.identity(field, Obj(dim))
    overlap = abs(float(np.sum(w.entries * ident.entries))) / ident.norm()
    assert abs(overlap - 1.0) < 1e-8


def test_refutation_rejects_complex():
    with pytest.raises(UnsupportedFieldError):
        refute_h5_scalar_case(Field.COMPLEX, 2, np.random.default_rng(0))


def _per_basis_commutator_matrix(field, dim, projections):
    """M -> pM - Mp built one unit endomorphism and two compositions at
    a time, on all dim^2 * width coordinates: the reference for the
    commutant and for the two lemmas that stand in for its map."""
    w = field.width
    basis = []
    for i in range(dim):
        for j in range(dim):
            for c in range(w):
                e = np.zeros((dim, dim, 4))
                e[i, j, c] = 1.0
                basis.append(Morphism(field, Obj(dim), Obj(dim), e))
    blocks = []
    for p in projections:
        cols = [((p @ m).entries - (m @ p).entries)[..., :w].ravel() for m in basis]
        blocks.append(np.array(cols).T)
    return np.concatenate(blocks, axis=0)


def _coordinate_projections(field, dim):
    x = Obj(dim)
    return [basis_column(field, x, k) @ basis_column(field, x, k).dagger() for k in range(dim)]


def _diagonal_coordinates(field, dim):
    """The coordinates (i, i, c) of M -> pM - Mp, in order."""
    w = field.width
    return np.array([(i * dim + i) * w + c for i in range(dim) for c in range(w)])


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_coordinate_projections_force_every_off_diagonal_coordinate_to_zero(field, dim):
    # the lemma _commutant_of_projections takes in place of the
    # coordinate projections' blocks: each row of their map has at most
    # one nonzero, so the null space is spanned by the coordinates that
    # no row touches, and those are exactly the diagonal ones
    big = _per_basis_commutator_matrix(field, dim, _coordinate_projections(field, dim))
    assert (np.count_nonzero(big, axis=1) <= 1).all()
    untouched = np.flatnonzero(~big.any(axis=0))
    assert untouched.tolist() == _diagonal_coordinates(field, dim).tolist()


def _largest_diagonal_column(p):
    """The column of p at its largest diagonal entry, as a morphism."""
    return p.col(int(np.argmax(p.entries[..., 0].diagonal())))


def _unit_endomorphism(field, dim, i, c):
    """E_ic: the unit scalar c at entry (i, i) of an endomorphism of Obj(dim)."""
    e = np.zeros((dim, dim, 4))
    e[i, i, c] = 1.0
    return Morphism(field, Obj(dim), Obj(dim), e)


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_rank1_commutator_vanishes_iff_both_halves_of_the_lemma_do(field, dim):
    # [p, M] = 0 iff (I - p) M x = 0 and (I - p) M-dagger x = 0, for p
    # a rank-1 projection and x its column at its largest diagonal entry
    x_obj = Obj(dim)
    ident = Morphism.identity(field, x_obj)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = _rank1_projection(field, x_obj, rng)
        x = _largest_diagonal_column(p)
        rest = derived_add(ident, matcat.scaled(p, -1.0))
        generic = np.zeros((dim, dim, 4))
        generic[np.arange(dim), np.arange(dim), :field.width] = rng.normal(size=(dim, field.width))
        cases = [(matcat.scaled(ident, float(rng.normal())), True),
                 (Morphism(field, x_obj, x_obj, generic), False)]
        for m, commutes in cases:
            commutator = frobenius_distance(p @ m, m @ p)
            halves = ((rest @ m @ x).norm(), (rest @ m.dagger() @ x).norm())
            assert (commutator <= 1e-12) is (max(halves) <= 1e-12) is commutes, (seed, commutes)
            if not commutes:
                assert commutator > 1e-3 and max(halves) > 1e-3
        # off the diagonal one half alone can vanish: M = v w-dagger with
        # w orthogonal to v kills (I - p) M x but not (I - p) M-dagger x
        w = rest @ random_morphism(field, UNIT, x_obj, rng)
        m = x @ w.dagger()
        assert (rest @ m @ x).norm() <= 1e-12
        assert (rest @ m.dagger() @ x).norm() > 1e-3
        assert frobenius_distance(p @ m, m @ p) > 1e-3


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_rank1_commutant_map_is_the_lemma_on_morphisms(field, dim):
    # column (i, c) of a block holds the components of (I - p) E_ic x
    # and then of (I - p) E_ic-dagger x, each entry by entry
    rng = np.random.default_rng(dim)
    x_obj = Obj(dim)
    projections = [_rank1_projection(field, x_obj, rng) for _ in range(dim + 3)]
    blocks = matcat.rank1_commutant_map(field, dim, matcat.native_stack(projections))
    w = field.width
    assert blocks.shape == (len(projections), 2 * dim * w, dim * w)
    rest_of = lambda p: derived_add(Morphism.identity(field, x_obj), matcat.scaled(p, -1.0))
    for p, block in zip(projections, blocks):
        x, rest = _largest_diagonal_column(p), rest_of(p)
        want = np.array([
            np.concatenate([(rest @ e @ x).entries[..., :w].ravel(),
                            (rest @ e.dagger() @ x).entries[..., :w].ravel()])
            for e in (_unit_endomorphism(field, dim, i, c) for i in range(dim) for c in range(w))
        ]).T
        assert np.abs(block - want).max() <= 1e-15


def _split_of_the_full_map(field, dim, rank1):
    """The commutant read off the whole map of the coordinate
    projections and the stack `rank1`, every block built on all n
    columns, one unit endomorphism and two compositions at a time.  A
    block is exact when each of its rows has at most one nonzero, and
    the free columns are those that no exact block touches.  The oracle
    for _commutant_of_projections, which takes the coordinate
    projections as a lemma and reads the stack's projections through
    the rank-1 lemma on the diagonal columns alone; the stack's blocks
    on the free columns go through the same `_null_space_of_blocks`."""
    x = Obj(dim)
    projections = _coordinate_projections(field, dim) + matcat.unstack(field, x, x, rank1)
    big = _per_basis_commutator_matrix(field, dim, projections)
    n = big.shape[1]
    blocks = big.reshape(len(projections), n, n)
    nonzero = blocks != 0
    exact = nonzero.sum(axis=2).max(axis=1, initial=0) <= 1
    free = np.flatnonzero(~nonzero[exact].any(axis=(0, 1)))
    nullity, free_basis = axioms._null_space_of_blocks(blocks[dim:, :, free])
    null_basis = np.zeros((n, nullity))
    null_basis[free] = free_basis
    return nullity, null_basis


@pytest.mark.parametrize("field,dim", [
    *((Field.REAL, d) for d in range(2, 7)),
    *((Field.QUATERNION, d) for d in range(2, 5)),
])
def test_refutation_report_does_not_depend_on_how_the_map_is_built(monkeypatch, field, dim):
    # the two maps have one null space; their rounding differs, so the
    # residual and the witness agree to rounding and the rest exactly
    built = refute_h5_scalar_case(field, dim, np.random.default_rng(7))
    monkeypatch.setattr(axioms, "_commutant_of_projections", _split_of_the_full_map)
    reference = refute_h5_scalar_case(field, dim, np.random.default_rng(7))
    assert built.status == reference.status == "infeasible"
    assert built.details == reference.details
    assert max(built.residual, reference.residual) <= 1e-14
    assert np.abs(built.witness.entries - reference.witness.entries).max() <= 1e-12


@pytest.mark.parametrize("kind", ["coordinate+rank1", "rank1", "coordinate", "masks+rank1"])
@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_commutant_builds_the_svd_input_of_the_full_map(monkeypatch, kind, field, dim):
    stack = _stack_of_kind(kind, field, dim, np.random.default_rng(200 + dim))
    inputs = _recording_svd(monkeypatch)
    ref_nullity, ref_basis = _split_of_the_full_map(field, dim, stack)
    ref_inputs = list(inputs)
    inputs.clear()
    nullity, null_basis = axioms._commutant_of_projections(field, dim, stack)
    assert nullity == ref_nullity
    assert [a.shape for a in inputs] == [a.shape for a in ref_inputs]


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_commutant_of_coordinate_projections_is_the_diagonal(field, dim):
    # with no other projection the lemma alone gives the commutant
    no_rank1 = matcat.coordinate_projections(field, dim)[:0]
    nullity, null_basis = axioms._commutant_of_projections(field, dim, no_rank1)
    assert nullity == dim * field.width
    want = np.zeros((dim * dim * field.width, nullity))
    want[_diagonal_coordinates(field, dim), np.arange(nullity)] = 1.0
    assert null_basis.tobytes() == want.tobytes()


@pytest.mark.parametrize("field", [Field.REAL, Field.QUATERNION])
def test_commutant_makes_no_compositions_or_morphisms(monkeypatch, field):
    dim, rng = 4, np.random.default_rng(3)
    projections = [_rank1_projection(field, Obj(dim), rng) for _ in range(dim + 3)]
    rank1 = matcat.native_stack(projections)
    calls = {"compose": 0, "Morphism": 0}
    compose, init = matcat.compose, Morphism.__init__

    def counting_compose(g, f):
        calls["compose"] += 1
        return compose(g, f)

    def counting_init(self, *args, **kwargs):
        calls["Morphism"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(matcat, "compose", counting_compose)
    monkeypatch.setattr(Morphism, "__init__", counting_init)
    Morphism.from_json(projections[0].to_json()) @ projections[0]
    assert calls == {"compose": 1, "Morphism": 1}  # the counters see both paths
    calls.update(compose=0, Morphism=0)
    nullity, _ = axioms._commutant_of_projections(field, dim, rank1)
    assert nullity == 1
    assert calls == {"compose": 0, "Morphism": 0}


def _full_svd_commutant(field, dim, rank1):
    """Nullity and null basis from one SVD of the whole commutator map of
    the coordinate projections and the stack `rank1`: the reference for
    the two lemmas in _commutant_of_projections."""
    x = Obj(dim)
    projections = _coordinate_projections(field, dim) + matcat.unstack(field, x, x, rank1)
    big = _per_basis_commutator_matrix(field, dim, projections)
    _, s, vh = np.linalg.svd(big, full_matrices=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > axioms.SVD_RANK_EPS * max(smax, 1.0)))
    return big.shape[1] - rank, vh[rank:].conj().T


def _stack_of_kind(kind, field, dim, rng):
    """A stack of native arrays to hand to _commutant_of_projections
    beside the coordinate projections it takes as a lemma: random
    rank-1 projections ("rank1", what the refutation hands it), after
    the coordinate projections again ("coordinate+rank1") or after
    random 0/1 diagonal ones ("masks+rank1"), or the coordinate
    projections alone ("coordinate").  Diagonal projections add nothing
    on the diagonal columns: their blocks there are zero."""
    x = Obj(dim)
    rank1 = lambda: [_rank1_projection(field, x, rng) for _ in range(dim + 3)]
    if kind == "coordinate+rank1":
        projections = _coordinate_projections(field, dim) + rank1()
    elif kind == "rank1":
        projections = rank1()
    elif kind == "coordinate":
        projections = _coordinate_projections(field, dim)
    else:
        masks = [random_coordinate_projection(field, x, rng) for _ in range(dim)]
        projections = masks + rank1()
    return matcat.native_stack(projections)


def _recording_svd(monkeypatch):
    """Patch numpy's SVD, as axioms calls it, to record each input."""
    inputs, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(axioms.np.linalg, "svd", recording)
    return inputs


@pytest.mark.parametrize("kind", ["coordinate+rank1", "rank1", "coordinate", "masks+rank1"])
@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_commutant_split_matches_the_full_svd(monkeypatch, kind, field, dim):
    stack = _stack_of_kind(kind, field, dim, np.random.default_rng(100 + dim))
    inputs = _recording_svd(monkeypatch)
    ref_nullity, ref_basis = _full_svd_commutant(field, dim, stack)
    nullity, null_basis = axioms._commutant_of_projections(field, dim, stack)
    assert nullity == ref_nullity
    assert null_basis.shape == ref_basis.shape
    gap = np.abs(null_basis @ null_basis.T - ref_basis @ ref_basis.T).max(initial=0.0)
    assert gap <= 1e-12
    diagonal = _diagonal_coordinates(field, dim)
    off_diagonal = np.setdiff1d(np.arange(null_basis.shape[0]), diagonal)
    assert not null_basis[off_diagonal].any()
    assert len(inputs) == 2
    if kind == "coordinate":
        assert nullity == dim * field.width
        assert not inputs[1].any()  # every block is zero on the diagonal columns


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_commutant_svd_sees_only_the_free_columns(monkeypatch, field, dim):
    stack = _stack_of_kind("rank1", field, dim, np.random.default_rng(dim))
    n, free = dim * dim * field.width, dim * field.width
    inputs = _recording_svd(monkeypatch)
    _full_svd_commutant(field, dim, stack)
    assert [a.shape for a in inputs] == [((2 * dim + 3) * n, n)]  # the recorder sees it
    inputs.clear()
    nullity, _ = axioms._commutant_of_projections(field, dim, stack)
    assert nullity == (2 if field is Field.COMPLEX else 1)
    assert [a.shape for a in inputs] == [(free, free)]
    if field is not Field.COMPLEX:
        inputs.clear()
        refute_h5_scalar_case(field, dim, np.random.default_rng(7))
        assert inputs and all(a.shape[1] <= free for a in inputs)


def test_commutant_peak_memory_stays_below_the_stacked_map():
    # each rank-1 block has 2 f rows, not n: over H the whole commutator
    # map of K = d+3 blocks of n x f would already take K * n * f * 8 bytes
    field = Field.QUATERNION
    for dim in (12, 16):
        stack = _stack_of_kind("rank1", field, dim, np.random.default_rng(dim))
        n, f = dim * dim * field.width, dim * field.width
        axioms._commutant_of_projections(field, dim, stack)  # fill the caches
        tracemalloc.start()
        try:
            nullity, _ = axioms._commutant_of_projections(field, dim, stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nullity == 1, dim
        assert peak < (dim + 3) * n * f * 8, dim


@pytest.mark.parametrize("field,dim", [
    *((Field.REAL, d) for d in (*range(2, 9), 12, 16)),
    *((Field.QUATERNION, d) for d in (*range(2, 6), 12, 16)),
])
def test_refutation_witness_is_the_positive_normalised_identity(field, dim):
    for seed in range(3):
        report = refute_h5_scalar_case(field, dim, np.random.default_rng(seed))
        assert report.status == "infeasible"
        entries = report.witness.entries
        ident = Morphism.identity(field, Obj(dim)).entries
        overlap = float(np.sum(entries * ident)) / np.sqrt(dim)
        assert abs(overlap - 1.0) <= 1e-12
        assert np.abs(entries - ident / np.sqrt(dim)).max() <= 1e-12
        off_diagonal = entries[~np.eye(dim, dtype=bool)]
        assert np.all(off_diagonal == 0.0) and not np.signbit(off_diagonal).any()


def _commutant_returning(vec):
    return lambda field, dim, rank1: (1, vec.reshape(-1, 1))


@pytest.mark.parametrize("field", [Field.REAL, Field.QUATERNION])
def test_refutation_fails_when_the_commutant_is_not_the_identity(monkeypatch, field):
    dim, w = 3, field.width
    e_01 = np.zeros(dim * dim * w)
    e_01[(0 * dim + 1) * w] = 1.0
    monkeypatch.setattr(axioms, "_commutant_of_projections", _commutant_returning(e_01))
    report = refute_h5_scalar_case(field, dim, np.random.default_rng(0))
    assert report.status == "fail"
    assert report.residual == 1.0
    assert report.details["reason"] == "commutant is not spanned by the identity"


@pytest.mark.parametrize("field", [Field.REAL, Field.QUATERNION])
def test_refutation_fails_on_a_nan_commutant(monkeypatch, field):
    dim = 3
    nan = np.full(dim * dim * field.width, np.nan)
    monkeypatch.setattr(axioms, "_commutant_of_projections", _commutant_returning(nan))
    report = refute_h5_scalar_case(field, dim, np.random.default_rng(0))
    assert report.status == "fail"
    assert np.isnan(report.residual)
    assert report.details["reason"] == "commutant is not spanned by the identity"


# -- H2 ----------------------------------------------------------------


def _chain_diagram(field):
    nodes = (1, 2, 3)
    leq = frozenset([(1, 2), (2, 3), (1, 3)])
    objects = {n: Obj(n) for n in nodes}

    def inclusion(a, b):
        e = np.zeros((b, a, 4))
        e[:a, :, 0] = np.eye(a)
        return Morphism(field, Obj(a), Obj(b), e)

    arrows = {(a, b): inclusion(a, b) for a, b in leq}
    return DirectedDiagram(field, nodes, leq, objects, arrows)


def test_chain_colimit():
    d = _chain_diagram(Field.COMPLEX)
    cocone = finite_directed_colimit(d)
    assert cocone.apex.dim == 3
    assert d.validate() < 1e-14
    assert frobenius_distance(cocone.legs[3], Morphism.identity(Field.COMPLEX, Obj(3))) == 0.0
    m = Morphism.from_real(Field.COMPLEX, np.eye(4, 3)[::-1])  # an isometry out of the apex
    competing = {n: m @ leg for n, leg in cocone.legs.items()}
    u = mediating_dagger_mono(cocone, competing)
    assert all(frobenius_distance(u @ leg, competing[n]) == 0.0 for n, leg in cocone.legs.items())


def test_single_object_diagram():
    d = DirectedDiagram(Field.REAL, ("x",), frozenset(), {"x": Obj(2)}, {})
    cocone = finite_directed_colimit(d)
    assert cocone.apex.dim == 2
    assert frobenius_distance(cocone.legs["x"], Morphism.identity(Field.REAL, Obj(2))) == 0.0


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_empty_diagram_rejected(field):
    # a directed poset is nonempty, so the empty diagram has no colimit here
    d = DirectedDiagram(field, (), frozenset(), {}, {})
    with pytest.raises(DomainError, match="nonempty"):
        finite_directed_colimit(d)


def test_subset_diagram_onb_claim():
    d = subset_diagram(["a", "b"], Field.COMPLEX)
    cocone = finite_directed_colimit(d)
    assert cocone.apex.dim == 2
    singles = [cocone.legs[n] for n in d.nodes if len(n) == 1]
    assert len(singles) == 2
    for i, e in enumerate(singles):
        for j, f in enumerate(singles):
            ip = inner_product(e, f)
            assert abs(ip.w - (1.0 if i == j else 0.0)) < 1e-14


def test_non_directed_poset_rejected():
    # two incomparable nodes, no upper bound
    d = DirectedDiagram(
        Field.REAL, ("a", "b"), frozenset(), {"a": Obj(1), "b": Obj(1)}, {}
    )
    with pytest.raises(DomainError):
        finite_directed_colimit(d)


def _h2_on(monkeypatch, diagram):
    """The H2 check with every drawn diagram replaced by `diagram`."""
    monkeypatch.setattr(axioms, "random_directed_diagram", lambda field, rng: diagram)
    return campaigns.check_h2_directed_colimits(
        campaigns.CampaignConfig(field=diagram.field, seed=42, trials=3))


def _assert_h2_rejects_the_diagram(monkeypatch, bad):
    report = _h2_on(monkeypatch, bad)
    assert (report.axiom, report.status) == ("axioms.h2-directed-colimits", "fail")
    assert report.details == {"reason": "not a diagram of isometries"}
    residual = bad.validate()
    assert report.residual == residual or math.isnan(report.residual) and math.isnan(residual)


def test_non_functorial_diagram_rejected(monkeypatch):
    d = _chain_diagram(Field.REAL)
    assert _h2_on(monkeypatch, d).status == "pass"
    arrows = dict(d.arrows)
    arrows[(1, 3)] = Morphism.from_real(Field.REAL, [[0], [0], [1]])
    bad = DirectedDiagram(d.field, d.nodes, d.leq, d.objects, arrows)
    assert bad.validate() > 0.5
    _assert_h2_rejects_the_diagram(monkeypatch, bad)


@pytest.mark.parametrize("factor", [1.5, math.nan])
@pytest.mark.parametrize("field", ALL_FIELDS)
def test_diagram_with_a_non_isometric_arrow_rejected(monkeypatch, field, factor):
    d = _chain_diagram(field)
    arrows = {k: matcat.scaled(a, factor) if k == (1, 2) else a for k, a in d.arrows.items()}
    arrows[(1, 3)] = arrows[(2, 3)] @ arrows[(1, 2)]  # still functorial
    bad = DirectedDiagram(d.field, d.nodes, d.leq, d.objects, arrows)
    assert not bad.validate() <= 0.5  # 1.25, or NaN
    _assert_h2_rejects_the_diagram(monkeypatch, bad)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_missing_arrow_rejected(field):
    d = _chain_diagram(field)
    arrows = {k: a for k, a in d.arrows.items() if k != (1, 3)}
    bad = DirectedDiagram(d.field, d.nodes, d.leq, d.objects, arrows)
    with pytest.raises(DomainError, match="missing arrow for 1 <= 3"):
        bad.validate()
    with pytest.raises(DomainError, match="missing arrow for 1 <= 3"):
        finite_directed_colimit(bad)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_random_colimits_and_mediators(field):
    rng = np.random.default_rng(11)
    for _ in range(15):
        d = random_directed_diagram(field, rng)
        assert d.validate() <= 1e-8
        cocone = finite_directed_colimit(d)
        m = random_dagger_mono(field, cocone.apex, Obj(cocone.apex.dim + 1), rng)
        competing = {n: m @ leg for n, leg in cocone.legs.items()}
        u = mediating_dagger_mono(cocone, competing)
        assert all(frobenius_distance(u @ leg, competing[n]) <= 1e-8
                   for n, leg in cocone.legs.items())
        assert is_dagger_mono(u)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_h2_rejects_a_competing_cocone_that_is_not_isometric(monkeypatch, field):
    # mediating_dagger_mono presumes a cocone of isometries; the H2 check
    # judges its mediator, here twice the competing isometry
    monkeypatch.setattr(campaigns, "random_dagger_mono",
                        lambda *args: matcat.scaled(random_dagger_mono(*args), 2.0))
    report = campaigns.check_h2_directed_colimits(
        campaigns.CampaignConfig(field=field, seed=42, trials=3))
    assert (report.axiom, report.status) == ("axioms.h2-directed-colimits", "fail")
    assert report.details == {"reason": "mediator is not an isometry"}
    assert not is_dagger_mono(report.witness) and is_dagger_mono(matcat.scaled(report.witness, 0.5))
