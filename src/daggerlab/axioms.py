"""Constructors and verifiers for the structural axioms of the matrix
model: directed colimits of isometries (H2), biproduct complements of
isometries (H3), the simple unit object and normalisation (H4), and
strict square roots of unitaries (H5).  The biproducts of H1 live in
`biproduct`.

Over the complex field a strict square root is the principal root
summed over the eigenspaces of one spectral decomposition; over the
reals and quaternions the scalar obstruction (no central square root of
-1) is turned into an explicit infeasibility witness.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .biproduct import orthonormal_columns
from .errors import (
    DomainError,
    NoMorphismError,
    ShapeMismatchError,
    UnsupportedFieldError,
)
from .matcat import (
    Morphism,
    Obj,
    UNIT,
    basis_column,
    column_block,
    commuting,
    frobenius_distance,
    is_dagger_iso,
    native_stack,
    rank1_commutant_map,
)
from .reports import FAIL, INFEASIBLE, Report, worse
from .sampling import (
    random_dagger_mono,
    random_rank1_projections,
    random_rank1_subprojections,
    random_unitary,
)
from .scalars import DEFAULT_TOL, Field, Scalar, TolerancePolicy

EIGENVALUE_CLUSTER_EPS = 1e-7  # eigenvalues closer than this form one cluster
SVD_RANK_EPS = 1e-8


# ---------------------------------------------------------------------------
# (H3)  every isometry is one leg of a biproduct
# ---------------------------------------------------------------------------


def complement_h3(f: Morphism) -> Morphism:
    """Complete an isometry f: A -> X to a biproduct (A -> X <- B).

    The complement is obtained by orthonormalising the canonical basis
    columns of X against the columns of f.  Precondition: f is an
    isometry; the domain of the complement then has dimension exactly
    X.dim - A.dim.  Nothing here judges that: the H3 check reads the
    complement's dimension and the biproduct laws of (f, complement),
    whose residual includes f-dagger . f - I.  Like the Gram-Schmidt it
    runs, it reads no tolerance: its one threshold is DROP_EPS.
    """
    x = f.cod
    against = [f.col(j) for j in range(f.dom.dim)]
    candidates = [basis_column(f.field, x, k) for k in range(x.dim)]
    completed = orthonormal_columns(candidates, against=against)
    if not completed:
        return Morphism.zero(f.field, Obj(0), x)
    return column_block(completed)


# ---------------------------------------------------------------------------
# (H4)  the simple unit object
# ---------------------------------------------------------------------------


def construct_h4a(field: Field, a: Obj) -> Morphism:
    """A nonzero column into any nonzero object: the first basis column."""
    if a.dim == 0:
        raise NoMorphismError("no nonzero morphism into the zero object")
    return basis_column(field, a, 0)


def normalize_h4b(u: Morphism) -> Scalar:
    """The unit automorphism h with u . h an isometry.

    h = 1/sqrt(<u,u>), read off the real part of the squared length
    u-dagger . u.  Precondition: <u,u> is real and positive, so h is real
    and in particular central; `campaigns._normalised_column` judges that
    before it normalises.  Outside it, h is NaN or infinite, never raised.
    """
    if u.dom != UNIT:
        raise ShapeMismatchError("normalisation applies to columns from the unit object")
    return Scalar(u.field, 1.0 / np.sqrt((u.dagger() @ u).scalar().w))


def is_dagger_simple(
    field: Field,
    X: Obj,
    trials: int = 8,
    *,
    rng: np.random.Generator,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> bool:
    """True iff X is nonzero and every sampled nonzero isometry into X
    is unitary; the isometries are random, with domain dimensions
    sweeping 1..X.dim.  Nothing is sampled for the zero object."""
    if X.dim == 0:
        return False
    all_unitary = True
    for t in range(trials):
        a = Obj(1 + t % X.dim)
        m = random_dagger_mono(field, a, X, rng)
        if m.norm() <= tol.abs_eps:
            continue
        if not is_dagger_iso(m, tol):
            all_unitary = False
    return all_unitary


# ---------------------------------------------------------------------------
# (H5)  strict square roots over the complex field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrictSqrtCertificate:
    """A unitary square root together with its spectral data: one
    (node, root) pair per eigenvalue cluster, in cluster order.  The root
    is a function of the input on its spectrum, hence strict."""

    root: Morphism
    interpolation_data: tuple[tuple[Scalar, Scalar], ...]
    residual: float


def _cluster_indices(eigs: np.ndarray, eps: float) -> list[list[int]]:
    """Group indices of unit-circle eigenvalues closer than eps, walking
    them in angle order around the whole circle.  The walk starts just
    after the branch cut at -1, so the last group is merged into the
    first when they lie within eps: a repeated -1 computed as -1 + i e
    and -1 - i e is one eigenvalue, and two nodes with the roots +i and
    -i would split its eigenspace."""
    unit = eigs / np.abs(eigs)
    order = np.argsort(np.angle(unit))
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if abs(unit[idx] - unit[groups[-1][-1]]) <= eps:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    if len(groups) > 1 and abs(unit[groups[0][0]] - unit[groups[-1][-1]]) <= eps:
        groups[0] = groups.pop() + groups[0]
    return groups


@functools.lru_cache(maxsize=1)
def _spectral_decomposition(u: Morphism) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(eigenvalues, orthonormal eigenspace basis) per eigenvalue cluster
    of a complex unitary on a nonzero object.

    The eigenvectors of u are grouped by `_cluster_indices` and made
    orthonormal by one QR factorisation, cluster after cluster; each
    cluster gets its block of columns.  The first columns of a cluster
    span its eigenvectors together with those of the clusters before it,
    an invariant subspace of the normal u, so each block spans an
    eigenspace.  One QR over all clusters, rather than one per cluster,
    keeps the blocks orthogonal to rounding level when two clusters lie
    close: computed eigenvectors of distinct eigenvalues are orthogonal
    only to about eps / gap.

    The decomposition of the last u is kept, keyed by the morphism
    itself (immutable, and hashed by identity): the H5 check builds the
    root of a drawn unitary and then tests strictness on the spectral
    projections of that one decomposition, so each drawn unitary costs
    one `eig`.  Its arrays are shared, so callers only read them.
    """
    eigs, vecs = np.linalg.eig(u.complex_view())
    clusters = _cluster_indices(eigs, EIGENVALUE_CLUSTER_EPS)
    q, _ = np.linalg.qr(vecs[:, [i for idx in clusters for i in idx]])
    ends = itertools.accumulate(len(idx) for idx in clusters)
    return tuple((eigs[idx], q[:, end - len(idx):end]) for idx, end in zip(clusters, ends))


def strict_sqrt_complex(u: Morphism) -> StrictSqrtCertificate:
    """Strict square root of a complex unitary.

    Each eigenvalue cluster c of `_spectral_decomposition`, with
    orthonormal basis Q, gets its node (the renormalised mean of its
    eigenvalues) and the node's principal square root r (argument in
    (-pi, pi] halved, so the root of -1 is +i); the root is the spectral
    sum of r Q Q-dagger.  On a cluster of two or more eigenvalues it adds
    r Q (X/2 - X^2/8) Q-dagger with X = Q-dagger u Q / node - I, the
    series of r sqrt(I + X), so the root squares to u on the cluster
    rather than to its node (X is as small as the cluster's spread, so
    the next term is far below rounding).  Being a function of u on its
    spectrum, the root commutes with every morphism the input commutes
    with.

    Precondition: u is unitary, with its spectrum on the unit circle.
    The H5 check judges the unitarity of the unitary it draws, and the
    `sqrt` command both properties of its input, before either asks for
    a root.
    """
    if u.field is not Field.COMPLEX:
        raise UnsupportedFieldError("spectral square root is implemented over C only")
    if u.dom != u.cod:
        raise ShapeMismatchError("square root of a non-endomorphism")
    if u.dom.dim == 0:
        ident = Morphism.identity(u.field, u.dom)
        return StrictSqrtCertificate(ident, (), 0.0)

    uc = u.complex_view()
    root = np.zeros_like(uc)
    data = []
    for e, q in _spectral_decomposition(u):
        mean = np.mean(e / np.abs(e))
        node = complex(mean / abs(mean))
        val = complex(np.exp(0.5j * np.angle(node)))
        core = np.eye(len(e), dtype=complex)
        if len(e) > 1:
            x = q.conj().T @ uc @ q / node - core
            core += x / 2 - x @ x / 8
        root += val * (q @ core @ q.conj().T)
        data.append((Scalar(Field.COMPLEX, node.real, node.imag),
                     Scalar(Field.COMPLEX, val.real, val.imag)))

    root = Morphism.from_complex(root)
    return StrictSqrtCertificate(root, tuple(data), frobenius_distance(root @ root, u))


def spectral_projections(u: Morphism) -> list[Morphism]:
    """Orthogonal projections Q Q-dagger onto the clustered eigenspaces
    of a complex unitary, one per cluster of `_spectral_decomposition`.
    They sum to the identity and commute with u."""
    if u.field is not Field.COMPLEX:
        raise UnsupportedFieldError("spectral projections are implemented over C only")
    if u.dom.dim == 0:
        return []
    return [Morphism.from_complex(q @ q.conj().T) for _, q in _spectral_decomposition(u)]


def is_strict_sqrt(
    u: Morphism,
    v: Morphism,
    projection_samples: int,
    rng: np.random.Generator,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> bool:
    """True iff v commutes with every member of u's spectral family that
    commutes with u.  The family is the spectral projections of u, and
    `projection_samples` random rank-1 projections inside each spectral
    projection of rank >= 2, one block per eigenspace
    (`sampling.random_rank1_subprojections`); a simple spectrum draws
    none.

    A projection that commutes with u maps each eigenspace into itself,
    so it is a sum of projections inside the spectral ones, and the
    commutator is linear: the family stands for every projection that
    commutes with u.  A random rank-1 projection inside an eigenspace
    commutes with v only where v is a scalar there, which catches a root
    that is not a function of u on a repeated eigenvalue.  The converse
    (commutes with v, so with u = v^2) is automatic, and so is left out.
    Whether v is a unitary and v^2 = u is the caller's to judge.  The
    spectral projections come from the decomposition that
    `strict_sqrt_complex` built the root of u from, when it was the last
    one made (`_spectral_decomposition` keeps it).  The family is one
    stack of native arrays, and each side of the
    implication is tested on the whole stack at once
    (`matcat.commuting`)."""
    if u.field is not Field.COMPLEX:
        raise UnsupportedFieldError("strict square roots are implemented over C only")
    if u.dom != u.cod or v.dom != v.cod or u.dom != v.dom:
        raise ShapeMismatchError("strictness check needs endomorphisms of one object")
    if u.dom.dim == 0:
        return True
    spectral = spectral_projections(u)
    family = np.concatenate([native_stack(spectral)] + [
        random_rank1_subprojections(p, projection_samples, rng)
        for p in spectral
        if round(np.trace(p.complex_view()).real) >= 2
    ])
    return bool(np.all(commuting(u.field, family, v, tol) | ~commuting(u.field, family, u, tol)))


def polynomial_fit_residual(u: Morphism, v: Morphism) -> float:
    """Least-squares residual of fitting v by powers u^0 .. u^(d-1).

    A residual at rounding level certifies that v is a polynomial in u,
    which makes 'p commutes with u implies p commutes with v' automatic.
    """
    if u.field is not Field.COMPLEX:
        raise UnsupportedFieldError("polynomial fit is implemented over C only")
    d = u.dom.dim
    uc = u.complex_view()
    power = np.eye(d, dtype=complex)
    cols = []
    for _ in range(max(d, 1)):
        cols.append(power.ravel())
        power = power @ uc
    a = np.array(cols).T
    b = v.complex_view().ravel()
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(np.linalg.norm(a @ coef - b))


# ---------------------------------------------------------------------------
# (H5)  refutation over R and H
# ---------------------------------------------------------------------------


def _null_space_of_blocks(blocks: np.ndarray) -> tuple[int, np.ndarray]:
    """Nullity and null-space basis (as columns) of the matrix whose
    rows are the blocks of `blocks`, a (count, rows, width) array, in
    order.

    One QR gives its width x width triangular factor R, which has the
    matrix's singular values and right singular vectors (R-SVD: Chan,
    ACM TOMS 8, 1982), and the SVD_RANK_EPS rank rule runs on R.  With
    no block, every vector is null."""
    rows = blocks.reshape(-1, blocks.shape[-1])
    if not rows.size:
        return rows.shape[1], np.eye(rows.shape[1])
    _, s, vh = np.linalg.svd(np.linalg.qr(rows, mode="r"), full_matrices=False)
    rank = int(np.count_nonzero(s > SVD_RANK_EPS * max(s[0], 1.0)))
    return vh.shape[0] - rank, vh[rank:].T


def _commutant_of_projections(field: Field, dim: int, rank1: np.ndarray) -> tuple[int, np.ndarray]:
    """Nullity and null-space basis of M -> (p M - M p) over the
    coordinate projections of Obj(dim) and the rank-1 projections
    `rank1` (native arrays), as a real-linear map on endomorphism space
    with coordinates (i, j, c), component c of entry (i, j).

    Two lemmas stand in for the map.  The coordinate projections enter
    as one: E_kk multiplies coordinate (i, j, c) by [i = k] - [j = k]
    and touches no other, so every M commuting with all of them is
    exactly zero off the diagonal.  The rank-1 ones enter as the other:
    a diagonal M commutes with p iff (I - p) M x and (I - p) M-dagger x
    are zero, for x a nonzero column of p (`matcat.rank1_commutant_map`),
    a 2 * dim * width x dim * width block per projection.
    `_null_space_of_blocks` reads the null space of the stacked blocks,
    and the null vectors are embedded back with exact zeros off the
    diagonal.  With no rank-1 projection, the diagonal is the null
    space."""
    w = field.width
    nullity, diagonal_basis = _null_space_of_blocks(rank1_commutant_map(field, dim, rank1))
    null_basis = np.zeros((dim, dim, w, nullity))
    null_basis[np.arange(dim), np.arange(dim)] = diagonal_basis.reshape(dim, w, nullity)
    return nullity, null_basis.reshape(dim * dim * w, nullity)


def refute_h5_scalar_case(
    field: Field,
    dim: int,
    rng: np.random.Generator,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> Report:
    """Infeasibility of a strict square root of -id over R or H.

    -id commutes with every projection, so a strict root must commute
    with all of them too; a rank computation on the coordinate and
    sampled rank-1 projections shows that commutant is exactly the real
    multiples of the identity, and no real scalar squares to -1.  The
    verdict is INFEASIBLE only when the commutant has nullity 1 and its
    null vector is the identity to within `tol` (a NaN is not); else it
    is FAIL.  The witness is that vector, normalised, with positive trace.
    """
    if field is Field.COMPLEX:
        raise UnsupportedFieldError("over C the root i*id exists; nothing to refute")
    if dim < 2:
        raise DomainError("the scalar-forcing argument needs dimension >= 2")
    x = Obj(dim)
    rank1 = random_rank1_projections(field, x, dim + 3, rng)
    nullity, null_basis = _commutant_of_projections(field, dim, rank1)
    if nullity != 1:
        return Report(
            "H5",
            field.value,
            FAIL,
            float(nullity),
            details={"reason": "commutant is larger than the central scalars"},
        )
    # The 1-dimensional commutant: confirm it is spanned by the identity.
    w = field.width
    mat = null_basis[:, 0].reshape(dim, dim, w)
    if np.trace(mat[..., 0]) < 0:
        mat = 0.0 - mat  # the SVD's sign is arbitrary; -mat would write -0.0
    ident = np.zeros((dim, dim, w))
    ident[..., 0] = np.eye(dim)
    scale = mat.ravel() @ ident.ravel() / dim
    residual = float(np.linalg.norm(mat - scale * ident))
    if not (np.isfinite(residual) and residual <= tol.bound(1.0, 1.0)):
        return Report(
            "H5",
            field.value,
            FAIL,
            residual,
            details={"reason": "commutant is not spanned by the identity", "commutant_nullity": 1},
        )
    witness_entries = np.zeros((dim, dim, 4))
    witness_entries[..., :w] = mat / np.linalg.norm(mat)
    witness = Morphism(field, x, x, witness_entries)
    # alpha real with alpha^2 = -1 is impossible: real squares are >= 0.
    return Report(
        "H5",
        field.value,
        INFEASIBLE,
        residual,
        witness=witness,
        details={
            "commutant_nullity": 1,
            "sampled_projections": dim + len(rank1),
            "obstruction": "any strict root of -id must be alpha*id with alpha real, but real squares are nonnegative",
        },
    )


# ---------------------------------------------------------------------------
# (H2)  finite directed colimits of isometries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectedDiagram:
    """Finite directed poset of objects with isometry arrows.

    `leq` holds the strict comparable pairs (a, b) with a < b; arrows
    must be present for exactly those pairs.
    """

    field: Field
    nodes: tuple[Hashable, ...]
    leq: frozenset
    objects: Mapping[Hashable, Obj]
    arrows: Mapping[tuple[Hashable, Hashable], Morphism]

    def is_leq(self, a: Hashable, b: Hashable) -> bool:
        return a == b or (a, b) in self.leq

    def greatest(self) -> Hashable:
        """Greatest element: a finite poset is directed iff it has one."""
        for top in self.nodes:
            if all(self.is_leq(n, top) for n in self.nodes):
                return top
        raise DomainError("a finite directed poset is nonempty and has a greatest node; "
                          "this diagram has none")

    def arrow(self, a: Hashable, b: Hashable) -> Morphism:
        if a == b:
            return Morphism.identity(self.field, self.objects[a])
        if (a, b) not in self.arrows:
            raise DomainError(f"missing arrow for {a!r} <= {b!r}")
        return self.arrows[(a, b)]

    def validate(self) -> float:
        """Isometry and functoriality residual; raises on structural
        problems (missing arrows, endpoints that disagree with objects).
        The H2 check judges the residual."""
        worst = 0.0
        for a, b in self.leq:
            k = self.arrow(a, b)
            if k.dom != self.objects[a] or k.cod != self.objects[b]:
                raise ShapeMismatchError("arrow endpoints disagree with objects")
            ident = Morphism.identity(self.field, k.dom)
            worst = worse(worst, frobenius_distance(k.dagger() @ k, ident))
        for a, b in self.leq:
            for c in self.nodes:
                if (b, c) in self.leq and (a, c) in self.leq:
                    worst = worse(
                        worst,
                        frobenius_distance(
                            self.arrow(b, c) @ self.arrow(a, b), self.arrow(a, c)
                        ),
                    )
        return worst


@dataclass(frozen=True)
class ColimitCocone:
    """The colimit of a directed diagram: the apex, one leg per node and
    the greatest node `top`, whose leg is the identity.  Its cocone
    equation leg_b . arrow(a, b) = leg_a is the functoriality term of
    `DirectedDiagram.validate` at (a, b, top), and an exact 0 at b = top,
    so `validate()` is the one residual that judges it."""

    apex: Obj
    legs: Mapping[Hashable, Morphism]
    top: Hashable


def finite_directed_colimit(d: DirectedDiagram) -> ColimitCocone:
    """Colimit of a finite directed diagram of isometries: the object at
    the greatest node, with the composite arrows as legs.  Precondition:
    the arrows are isometries and compose, that is, `d.validate()` is
    within tolerance; the H2 check judges that residual.  An empty or
    non-directed diagram, or a missing arrow into the top, raises."""
    top = d.greatest()
    legs = {n: d.arrow(n, top) for n in d.nodes}
    return ColimitCocone(d.objects[top], legs, top)


def mediating_dagger_mono(
    colimit: ColimitCocone, competing_legs: Mapping[Hashable, Morphism]
) -> Morphism:
    """The unique isometry u with u . leg_i = competing_leg_i for all i.

    The colimit leg at the top node is the identity, which pins u to the
    competing leg there.  Precondition: the competing legs are a cocone
    of isometries; the H2 check judges that u is an isometry and that it
    satisfies the equation at every node.
    """
    return competing_legs[colimit.top]


def _selection_arrow(field: Field, small: frozenset, large: frozenset) -> Morphism:
    """Block injection of the sub-biproduct indexed by `small` into the
    biproduct indexed by `large`: the copairing of the basis columns at
    the positions of small's labels."""
    order, x = sorted(large), Obj(len(large))
    return column_block([basis_column(field, x, order.index(k)) for k in sorted(small)])


def subset_diagram(labels: Sequence[Hashable], field: Field) -> DirectedDiagram:
    """The directed diagram of all nonempty finite subsets of `labels`
    under inclusion, with block-injection arrows; its colimit legs at
    singletons form an orthonormal family in the apex."""
    labels = sorted(labels)
    if not labels:
        raise DomainError("subset diagram needs a nonempty label set")
    nodes = []
    for r in range(1, len(labels) + 1):
        nodes += [frozenset(c) for c in itertools.combinations(labels, r)]
    objects = {n: Obj(len(n)) for n in nodes}
    leq = frozenset(
        (a, b) for a in nodes for b in nodes if a != b and a.issubset(b)
    )
    arrows = {(a, b): _selection_arrow(field, a, b) for a, b in leq}
    return DirectedDiagram(field, tuple(nodes), leq, objects, arrows)


def random_directed_diagram(field: Field, rng: np.random.Generator) -> DirectedDiagram:
    """Random finite directed diagram: a union-closed family of at most 6
    subsets of at most 6 labels (hence directed, with the full union on
    top), realised by selection injections and disguised by a random
    unitary change of basis at every node."""
    while True:
        base = int(rng.integers(1, 7))
        seeds = []
        for _ in range(int(rng.integers(1, 4))):
            mask = rng.random(base) < 0.6
            if mask.any():
                seeds.append(frozenset(np.flatnonzero(mask).tolist()))
        if not seeds:
            continue
        family = set(seeds)
        grew = True
        while grew:
            grew = False
            for a, b in itertools.combinations(list(family), 2):
                u = a | b
                if u not in family:
                    family.add(u)
                    grew = True
        if len(family) <= 6:
            break
    nodes = tuple(sorted(family, key=lambda s: (len(s), sorted(s))))
    objects = {n: Obj(len(n)) for n in nodes}
    rotations = {n: random_unitary(field, objects[n], rng) for n in nodes}
    leq = frozenset(
        (a, b) for a in nodes for b in nodes if a != b and a.issubset(b)
    )
    arrows = {
        (a, b): rotations[b] @ _selection_arrow(field, a, b) @ rotations[a].dagger()
        for (a, b) in leq
    }
    return DirectedDiagram(field, nodes, leq, objects, arrows)
