"""Seeded verification campaigns.

Every invariant of the package is packaged as a named check returning a
Report.  The lemma suite runs all of them for one field; the axiom suite
runs the H1-H5 verifiers; the reconstruction suite runs the scalar-field
and Hermitian-space checks.  A campaign seed plus a check id determines
the random stream of that check, so identical configurations reproduce
identical reports check by check, independent of sharding.  The library
modules only compute; every verdict is reached here, so a property the
category breaks reads FAIL, and ERROR is left for a check that raised or
drew no sample.

Each check is declared once, with one of two decorators that own its id:

- `@law(check_id, trials, scale, target, details)` declares a sampled law
  by its sample body `sample(cfg, rng)`.  `_sampled` is the one loop
  that draws samples and judges them: it runs the body `cfg.count(trials)`
  times on the check's stream.  The body returns None for a sample it
  cannot use, a FAIL Report that ends the check, or the sample's
  residuals: `()` for a sample that passed a predicate.  The loop keeps
  the NaN-safe worst residual; the verdict is PASS iff it is within
  `target`, or else the tolerance bound at `scale`.  `details(cfg,
  reached)` adds to the details of the verdict, never to those of an
  early FAIL or an ERROR.  With no sample reaching a residual, the
  report is an ERROR.
- `@check(check_id)` declares a whole check `fn(cfg, rng)` that draws
  from the check's stream and reaches its own verdict.

Both stamp the check id on the report and leave a function of `cfg`
alone, with the declared name, docstring and a `check_id` attribute.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import axioms, projspan, reconstruct, scalars
from .biproduct import (
    Biproduct,
    derived_add,
    make_biproduct,
    nfold_biproduct,
    oplus_mor,
    verify_biproduct,
)
from .errors import DaggerLabError, DomainError, NoMorphismError
from .matcat import (
    Morphism,
    Obj,
    UNIT,
    approx_eq,
    column_block,
    column_distances,
    column_norms,
    frobenius_distance,
    is_dagger_iso,
    is_dagger_mono,
)
from .reports import ERROR, FAIL, INFEASIBLE, NO_SAMPLE, PASS, Report, worse
from .sampling import (
    random_dagger_mono,
    random_morphism,
    random_scalar,
    random_unit_column,
    random_unitary,
)
from .scalars import Field, Scalar, TolerancePolicy

RESIDUAL_TARGET = 1e-9
SQRT_RESIDUAL_TARGET = 1e-8
COMPLEMENT_RESIDUAL_TARGET = 1e-8


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign run: the seed fully determines all randomness."""

    field: Field = Field.COMPLEX
    dims: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6)
    seed: int = 0
    trials: int | None = None  # None: every check uses its own default count
    tol: TolerancePolicy = dc_field(default_factory=TolerancePolicy)

    def __post_init__(self) -> None:
        # with no trial, every sampled check would pass on no evidence
        if self.trials is not None and self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")

    def count(self, default: int) -> int:
        return default if self.trials is None else self.trials

    def rng(self, check_id: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])

    def positive_dims(self) -> tuple[int, ...]:
        return tuple(d for d in self.dims if d >= 1) or (1, 2, 3)


CheckFn = Callable[[CampaignConfig], Report]


def _report(cfg: CampaignConfig, status: str, residual: float = 0.0,
            witness: Morphism | None = None, details: dict | None = None) -> Report:
    """A report of the running check; its decorator stamps the check id."""
    return Report("", cfg.field.value, status, residual, witness, details or {})


def _sampled(cfg: CampaignConfig, rng: np.random.Generator, trials: int, sample: Callable,
             scale: float = 1.0, target: float | None = None,
             details: Callable | None = None) -> Report:
    """Run `sample` `cfg.count(trials)` times and judge the worst
    residual; with no sample reaching a residual there is nothing to
    judge."""
    worst, reached = 0.0, 0
    for _ in range(cfg.count(trials)):
        residuals = sample(cfg, rng)
        if isinstance(residuals, Report):
            return residuals
        if residuals is not None:
            reached += 1
            worst = worse(worst, *residuals)
    if not reached:
        return _report(cfg, ERROR, details={"error": NO_SAMPLE})
    bound = cfg.tol.bound(scale, scale) if target is None else target
    report = _report(cfg, PASS if worst <= bound else FAIL, worst)
    if details:
        report.details.update(details(cfg, reached))
    return report


def check(check_id: str) -> Callable[[Callable], CheckFn]:
    """Declare the whole check `fn(cfg, rng)` under `check_id`."""
    def declare(fn: Callable) -> CheckFn:
        @functools.wraps(fn)
        def run(cfg: CampaignConfig) -> Report:
            report = fn(cfg, cfg.rng(check_id))
            report.axiom = check_id
            return report

        run.check_id = check_id
        return run

    return declare


def law(check_id: str, trials: int, scale: float = 1.0, target: float | None = None,
        details: Callable | None = None) -> Callable[[Callable], CheckFn]:
    """Declare the sampled law `sample(cfg, rng)` under `check_id`."""
    def declare(sample: Callable) -> CheckFn:
        @functools.wraps(sample)
        def run(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
            return _sampled(cfg, rng, trials, sample, scale, target, details)

        return check(check_id)(run)

    return declare


# ---------------------------------------------------------------------------
# scalar checks
# ---------------------------------------------------------------------------


@law("scalars.conj-antiautomorphism", 1000, 4.0)
def check_conj_antiautomorphism(cfg: CampaignConfig, rng: np.random.Generator):
    a = random_scalar(cfg.field, rng)
    b = random_scalar(cfg.field, rng)
    return (
        scalars.distance(
            scalars.conj(scalars.mul(a, b)),
            scalars.mul(scalars.conj(b), scalars.conj(a)),
        ),
        scalars.distance(scalars.conj(scalars.conj(a)), a),
    )


@check("scalars.noncommutativity-witness")
def check_noncommutativity_witness(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    i = Scalar(Field.QUATERNION, 0, 1, 0, 0)
    j = Scalar(Field.QUATERNION, 0, 0, 1, 0)
    gap = scalars.distance(scalars.mul(i, j), scalars.mul(j, i))
    status = PASS if gap > 1.0 else FAIL
    return _report(cfg, status, gap, details={"witness": "i*j != j*i"})


@law("scalars.inverse-two-sided", 500, 1e3)
def check_inverse_two_sided(cfg: CampaignConfig, rng: np.random.Generator):
    a = random_scalar(cfg.field, rng)
    if scalars.norm(a) <= cfg.tol.abs_eps:  # the norm at which `scalars.inv` raises
        return None
    one = scalars.one(cfg.field)
    b = scalars.inv(a, cfg.tol)
    return scalars.distance(scalars.mul(a, b), one), scalars.distance(scalars.mul(b, a), one)


# ---------------------------------------------------------------------------
# dagger category checks
# ---------------------------------------------------------------------------


def _random_shape(rng: np.random.Generator, lo: int = 1, hi: int = 6) -> Obj:
    return Obj(int(rng.integers(lo, hi + 1)))


@law("matcat.dagger-functor-laws", 500, 40.0)
def check_dagger_functor_laws(cfg: CampaignConfig, rng: np.random.Generator):
    a, b, c = (_random_shape(rng) for _ in range(3))
    f = random_morphism(cfg.field, a, b, rng)
    g = random_morphism(cfg.field, b, c, rng)
    ident = Morphism.identity(cfg.field, a)
    return (
        frobenius_distance((g @ f).dagger(), f.dagger() @ g.dagger()),
        frobenius_distance(f.dagger().dagger(), f),
        frobenius_distance(ident.dagger(), ident),
    )


@law("matcat.dagger-monos-are-monic", 200, 40.0)
def check_dagger_monos_are_monic(cfg: CampaignConfig, rng: np.random.Generator):
    a = _random_shape(rng, 1, 5)
    x = Obj(a.dim + int(rng.integers(0, 3)))
    f = random_dagger_mono(cfg.field, a, x, rng)
    w = _random_shape(rng, 1, 4)
    s = random_morphism(cfg.field, w, a, rng)
    # left-composition with the dagger recovers the factor
    return (frobenius_distance(f.dagger() @ (f @ s), s),)


@check("matcat.small-objects-pairwise-distinct")
def check_small_objects_distinct(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        f = random_morphism(cfg.field, Obj(a), Obj(b), rng)
        if is_dagger_iso(f, cfg.tol) or is_dagger_iso(f.dagger(), cfg.tol):
            return _report(cfg, FAIL, 0.0, f)
    # two unit endomorphisms of the unit object can never have orthogonal
    # ranges, so no (unit <- unit -> unit) biproduct exists
    min_overlap = float("inf")
    for _ in range(cfg.count(100)):
        u = random_unit_column(cfg.field, UNIT, rng)
        v = random_unit_column(cfg.field, UNIT, rng)
        overlap = (v.dagger() @ u).norm()
        if not overlap > 0.5:  # also NaN, which min() would drop
            return _report(cfg, FAIL, overlap)
        min_overlap = min(min_overlap, overlap)
    return _report(cfg, PASS, min_overlap)


@check("matcat.dagger-simple-is-dimension-one")
def check_dagger_simple_dimension(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    """The sampled dagger-simplicity of objects 1, 0, 2 and 3 follows the
    dimension rule: an object is dagger simple iff its dimension is 1."""
    for dim, trials in [(1, 8), (0, 4), (2, 8), (3, 8)]:
        simple = axioms.is_dagger_simple(cfg.field, Obj(dim), trials=trials, rng=rng, tol=cfg.tol)
        if simple != (dim == 1):
            return _report(cfg, FAIL, 0.0, details={"dim": dim, "sampled_simple": simple})
    return _report(cfg, PASS, 0.0)


def _not_positive_real(cfg: CampaignConfig, u: Morphism, uu: Morphism) -> Report | None:
    """A FAIL with the column u as witness, unless its squared length
    uu = <u, u> is real and positive (a NaN is neither)."""
    w, *imaginary = uu.entries[0, 0]
    if w > cfg.tol.abs_eps and max(map(abs, imaginary)) <= cfg.tol.abs_eps:
        return None
    return _report(cfg, FAIL, 0.0, u, {"reason": "squared length not positive real"})


def _normalised_column(cfg: CampaignConfig, rng: np.random.Generator,
                       x: Obj) -> Morphism | Report | None:
    """A random column into `x` scaled by its H4b normaliser; None for a
    column whose native squared length is within the tolerance that
    `_not_positive_real` reads, and a FAIL if its squared length is not
    real and positive, which the normaliser presumes."""
    u = random_morphism(cfg.field, UNIT, x, rng)
    if u.norm() ** 2 <= cfg.tol.abs_eps:
        return None
    return (_not_positive_real(cfg, u, u.dagger() @ u)
            or u @ Morphism.single(axioms.normalize_h4b(u)))


@law("axioms.unique-simple-object", 100)
def check_unique_simple_object(cfg: CampaignConfig, rng: np.random.Generator):
    iso = _normalised_column(cfg, rng, UNIT)
    if not isinstance(iso, Morphism):
        return iso
    ident = Morphism.identity(cfg.field, UNIT)
    return (
        frobenius_distance(iso.dagger() @ iso, ident),
        frobenius_distance(iso @ iso.dagger(), ident),
    )


# ---------------------------------------------------------------------------
# biproduct checks
# ---------------------------------------------------------------------------


def _random_rotated_biproduct(
    cfg: CampaignConfig, rng: np.random.Generator
) -> Biproduct:
    """Canonical biproduct disguised by a random unitary on the total."""
    a, b = _random_shape(rng, 0, 4), _random_shape(rng, 0, 4)
    bp = make_biproduct(cfg.field, a, b)
    u = random_unitary(cfg.field, bp.total, rng)
    return Biproduct(u @ bp.inj_left, u @ bp.inj_right)


@law("biproduct.zero-leg-forces-unitary", 200, 10.0)
def check_zero_leg_forces_unitary(cfg: CampaignConfig, rng: np.random.Generator):
    t = _random_shape(rng, 1, 6)
    g = random_unitary(cfg.field, t, rng)
    zero_leg = Morphism.zero(cfg.field, Obj(0), t)
    bp = Biproduct(zero_leg, g)
    ok, residual = verify_biproduct(bp, cfg.tol)
    if not ok or not is_dagger_iso(g, cfg.tol):
        return _report(cfg, FAIL, residual, g)
    # a short right leg cannot complete the zero leg to a biproduct
    short = random_dagger_mono(cfg.field, Obj(t.dim - 1), t, rng)
    ok_short, _ = verify_biproduct(Biproduct(zero_leg, short), cfg.tol)
    if ok_short:
        return _report(cfg, FAIL, 0.0, short, {"reason": "non-spanning leg accepted"})
    return (residual,)


@law("biproduct.dagger-distributes-over-oplus", 200, 20.0)
def check_dagger_distributes_over_oplus(cfg: CampaignConfig, rng: np.random.Generator):
    f1 = random_morphism(cfg.field, _random_shape(rng, 0, 4), _random_shape(rng, 0, 4), rng)
    f2 = random_morphism(cfg.field, _random_shape(rng, 0, 4), _random_shape(rng, 0, 4), rng)
    return (frobenius_distance(oplus_mor(f1, f2).dagger(), oplus_mor(f1.dagger(), f2.dagger())),)


@law("biproduct.range-projections-sum-to-identity", 200, target=COMPLEMENT_RESIDUAL_TARGET)
def check_range_projections_sum(cfg: CampaignConfig, rng: np.random.Generator):
    bp = _random_rotated_biproduct(cfg, rng)
    left = bp.inj_left @ bp.inj_left.dagger()
    right = bp.inj_right @ bp.inj_right.dagger()
    ident = Morphism.identity(cfg.field, bp.total)
    return (frobenius_distance(derived_add(left, right), ident),)


@law("biproduct.dagger-of-derived-sum", 200, 20.0)
def check_dagger_of_derived_sum(cfg: CampaignConfig, rng: np.random.Generator):
    x, y = _random_shape(rng, 0, 5), _random_shape(rng, 0, 5)
    f = random_morphism(cfg.field, x, y, rng)
    g = random_morphism(cfg.field, x, y, rng)
    return (frobenius_distance(derived_add(f, g).dagger(), derived_add(f.dagger(), g.dagger())),)


@law("biproduct.semiadditive-laws", 200, 100.0)
def check_semiadditive_laws(cfg: CampaignConfig, rng: np.random.Generator):
    x, y, z = (_random_shape(rng, 1, 5) for _ in range(3))
    f = random_morphism(cfg.field, x, y, rng)
    g = random_morphism(cfg.field, x, y, rng)
    h = random_morphism(cfg.field, x, y, rng)
    r = random_morphism(cfg.field, y, z, rng)
    zero_m = Morphism.zero(cfg.field, x, y)
    residuals = [
        frobenius_distance(derived_add(derived_add(f, g), h), derived_add(f, derived_add(g, h))),
        frobenius_distance(derived_add(f, g), derived_add(g, f)),
        frobenius_distance(derived_add(f, zero_m), f),
        frobenius_distance(r @ derived_add(f, g), derived_add(r @ f, r @ g)),
    ]
    s = random_morphism(cfg.field, z, x, rng)
    residuals.append(frobenius_distance(derived_add(f, g) @ s, derived_add(f @ s, g @ s)))
    return residuals


@law("biproduct.derived-add-matches-entrywise", 200, target=RESIDUAL_TARGET)
def check_derived_add_matches_entrywise(cfg: CampaignConfig, rng: np.random.Generator):
    """Oracle equivalence: the block-construction sum against the plain
    entrywise sum (the latter exists only here and in the test suite)."""
    x, y = _random_shape(rng, 0, 8), _random_shape(rng, 0, 8)
    f = random_morphism(cfg.field, x, y, rng)
    g = random_morphism(cfg.field, x, y, rng)
    oracle = Morphism(cfg.field, x, y, f.entries + g.entries)
    return (frobenius_distance(derived_add(f, g), oracle),)


@law("biproduct.nfold-injections-orthonormal", 50, 10.0)
def check_nfold_injections(cfg: CampaignConfig, rng: np.random.Generator):
    x = _random_shape(rng, 0, 3)
    n = int(rng.integers(0, 4))
    injections = nfold_biproduct(x, n, cfg.field)
    if n == 0:  # the empty biproduct: its sample passes iff it has no injection
        return _report(cfg, FAIL, 0.0) if injections else ()
    total = Morphism.identity(cfg.field, Obj(n * x.dim))
    acc = Morphism.zero(cfg.field, total.dom, total.cod)
    residuals = []
    for k, inj in enumerate(injections):
        if not is_dagger_mono(inj, cfg.tol):
            return _report(cfg, FAIL, 0.0, inj)
        residuals += [(other.dagger() @ inj).norm() for other in injections[k + 1:]]
        acc = derived_add(acc, inj @ inj.dagger())
    residuals.append(frobenius_distance(acc, total))
    return residuals


# ---------------------------------------------------------------------------
# axiom campaigns
# ---------------------------------------------------------------------------


def check_h1(cfg: CampaignConfig) -> Report:
    """The biproduct laws for every pair of the configured dimensions.
    It draws nothing and reports under its axiom label, H1."""
    worst = 0.0
    for a, b in itertools.product(cfg.dims, cfg.dims):
        ok, residual = verify_biproduct(make_biproduct(cfg.field, Obj(a), Obj(b)), cfg.tol)
        worst = worse(worst, residual)
        if not ok:
            return Report("H1", cfg.field.value, FAIL, residual, details={"pair": [a, b]})
    return Report("H1", cfg.field.value, PASS, worst, details={"pairs": len(cfg.dims) ** 2})


@law("axioms.h2-directed-colimits", 50)
def check_h2_directed_colimits(cfg: CampaignConfig, rng: np.random.Generator):
    """A random directed diagram of isometries, its colimit and the
    mediators of two competing cocones.  The residual is the diagram's
    `validate()` residual; the mediators are judged by predicate."""
    diagram = axioms.random_directed_diagram(cfg.field, rng)
    residual = diagram.validate()
    if not residual <= cfg.tol.bound(1.0, 1.0):
        return _report(cfg, FAIL, residual, details={"reason": "not a diagram of isometries"})
    cocone = axioms.finite_directed_colimit(diagram)
    for _ in range(2):  # two competing cocones per diagram
        extra = int(rng.integers(0, 3))
        m = random_dagger_mono(cfg.field, cocone.apex, Obj(cocone.apex.dim + extra), rng)
        competing = {n: m @ leg for n, leg in cocone.legs.items()}
        u = axioms.mediating_dagger_mono(cocone, competing)
        if not is_dagger_mono(u, cfg.tol):
            return _report(cfg, FAIL, 0.0, u, {"reason": "mediator is not an isometry"})
        for n, leg in cocone.legs.items():
            if not approx_eq(u @ leg, competing[n], cfg.tol):
                return _report(cfg, FAIL, frobenius_distance(u @ leg, competing[n]), u,
                               {"reason": f"mediator fails at node {n!r}"})
    return (residual,)


@law("axioms.h3-complement-invariants", 300, target=COMPLEMENT_RESIDUAL_TARGET)
def check_h3_complement(cfg: CampaignConfig, rng: np.random.Generator):
    x = _random_shape(rng, 1, 8)
    a = Obj(int(rng.integers(0, x.dim + 1)))
    f = random_dagger_mono(cfg.field, a, x, rng)
    g = axioms.complement_h3(f)
    if g.dom.dim != x.dim - a.dim:
        return _report(cfg, FAIL, 0.0, g, {"reason": "wrong complement dimension"})
    ok, residual = verify_biproduct(Biproduct(f, g), cfg.tol)
    if not ok:
        return _report(cfg, FAIL, residual, g)
    return (residual,)


def _normalisation_sample(cfg: CampaignConfig, rng: np.random.Generator):
    """H4b on a random nonzero column: the normalised column is an isometry."""
    iso = _normalised_column(cfg, rng, _random_shape(rng, 1, 6))
    if not isinstance(iso, Morphism):
        return iso
    return (frobenius_distance(iso.dagger() @ iso, Morphism.identity(cfg.field, UNIT)),)


@check("axioms.h4-unit-normalisation")
def check_h4_unit_and_normalisation(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    try:
        axioms.construct_h4a(cfg.field, Obj(0))
        return _report(cfg, FAIL, 0.0, details={"reason": "zero object admitted a column"})
    except NoMorphismError:
        pass
    for dim in cfg.positive_dims():
        u = axioms.construct_h4a(cfg.field, Obj(dim))
        if u.norm() <= cfg.tol.abs_eps:
            return _report(cfg, FAIL, 0.0, u)
    return _sampled(cfg, rng, 200, _normalisation_sample)


@law("axioms.h5-strict-sqrt", 100, target=SQRT_RESIDUAL_TARGET)
def check_h5_strict_sqrt(cfg: CampaignConfig, rng: np.random.Generator):
    """Complex field: synthesise roots for random unitaries and verify
    the square and unitarity of the root and its strictness on the
    spectral family of the unitary."""
    x = _random_shape(rng, 1, 6)
    u = random_unitary(Field.COMPLEX, x, rng)
    if not is_dagger_iso(u, cfg.tol):
        return _report(cfg, FAIL, 0.0, u, {"reason": "drawn unitary is not unitary"})
    root = axioms.strict_sqrt_complex(u).root
    square = frobenius_distance(root @ root, u)
    if not axioms.is_strict_sqrt(u, root, 50, rng, cfg.tol):
        return _report(cfg, FAIL, square, root, {"reason": "strictness sampling failed"})
    unitarity = frobenius_distance(root.dagger() @ root, Morphism.identity(Field.COMPLEX, x))
    return square, unitarity


@check("axioms.h5-scalar-refutation")
def check_h5_refutation(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    """Real/quaternion field: the scalar-forcing obstruction, reported
    as an infeasibility with its commutant witness."""
    dims = [d for d in cfg.dims if d >= 2] or [2, 3]
    reports = [axioms.refute_h5_scalar_case(cfg.field, d, rng, cfg.tol) for d in dims]
    worst = worse(*(r.residual for r in reports))
    if all(r.status == INFEASIBLE for r in reports):
        return _report(cfg, INFEASIBLE, worst, reports[0].witness,
                       {"dims": dims, "expected_failure": True,
                        "obstruction": reports[0].details.get("obstruction", "")})
    failing = [
        {"dim": d, "status": r.status, "residual": r.residual, "reason": r.details["reason"]}
        for d, r in zip(dims, reports)
        if r.status != INFEASIBLE
    ]
    return _report(cfg, FAIL, worst, details={
        "reason": "commutant computation did not force a scalar", "failing": failing})


# ---------------------------------------------------------------------------
# reconstruction checks
# ---------------------------------------------------------------------------


@law("reconstruct.hermitian-form-laws", 300, 100.0)
def check_hermitian_form_laws(cfg: CampaignConfig, rng: np.random.Generator):
    endo = reconstruct.EndoField(cfg.field)
    x = _random_shape(rng, 1, 6)
    u = random_morphism(cfg.field, UNIT, x, rng)
    v = random_morphism(cfg.field, UNIT, x, rng)
    w = random_morphism(cfg.field, UNIT, x, rng)
    alpha = endo.lift(random_scalar(cfg.field, rng))

    herm = reconstruct.hermitian_form  # <p, q> as a 1x1 morphism, never a Scalar
    huv = herm(u, v)
    residuals = (
        # linear in the first slot for the reversed multiplication
        frobenius_distance(herm(u @ alpha, v), endo.mul(alpha, huv)),
        # conjugate-linear in the second slot
        frobenius_distance(herm(u, v @ alpha), endo.mul(huv, endo.star(alpha))),
        # additive in both slots
        frobenius_distance(herm(derived_add(u, w), v), endo.add(huv, herm(w, v))),
        # conjugate symmetry
        frobenius_distance(huv, endo.star(herm(v, u))),
    )
    # anisotropy: the squared length is real and positive for u != 0,
    # judged on the columns that `_normalised_column` keeps
    if u.norm() ** 2 > cfg.tol.abs_eps:
        return _not_positive_real(cfg, u, herm(u, u)) or residuals
    return residuals


@law("reconstruct.uniformity", 200)
def check_uniformity(cfg: CampaignConfig, rng: np.random.Generator):
    unit = _normalised_column(cfg, rng, _random_shape(rng, 1, 6))
    if not isinstance(unit, Morphism):
        return unit
    return (abs(scalars.norm(reconstruct.inner_product(unit, unit)) - 1.0),)


@law("reconstruct.copairing-isometry-biconditional", 200)
def check_copairing_biconditional(cfg: CampaignConfig, rng: np.random.Generator):
    """Orthonormal lists and isometric copairings coincide, in both
    directions: each sample is an isometry or a Gaussian column list,
    with even odds."""
    x = _random_shape(rng, 1, 6)
    n = int(rng.integers(1, x.dim + 1))
    if rng.random() < 0.5:
        b = random_dagger_mono(cfg.field, Obj(n), x, rng)
    else:
        b = column_block([random_morphism(cfg.field, UNIT, x, rng) for _ in range(n)])
    residual = reconstruct.orthonormality_residual(b)
    if not math.isfinite(residual):  # neither side of the biconditional can be read
        return _report(cfg, FAIL, residual, details={"reason": "non-finite residual"})
    orthonormal = residual <= 1e-6
    isometric = is_dagger_mono(b, cfg.tol)
    if orthonormal != isometric:
        return _report(cfg, FAIL, residual,
                       details={"orthonormal": orthonormal, "isometric": isometric})
    return ()


@law("reconstruct.onb-is-full-biproduct", 200, target=RESIDUAL_TARGET)
def check_onb_is_full_biproduct(cfg: CampaignConfig, rng: np.random.Generator):
    """An orthonormal basis of a rank-n object assembles to a unitary
    from the n-fold unit biproduct, and expansion in it reconstructs
    every vector."""
    x = _random_shape(rng, 1, 6)
    basis = random_unitary(cfg.field, x, rng)
    if not is_dagger_iso(basis, cfg.tol):
        return _report(cfg, FAIL, 0.0, basis)
    u = random_morphism(cfg.field, UNIT, x, rng)
    _, recon = reconstruct.onb_expansion(u, basis)
    return (frobenius_distance(u, recon),)


@law("reconstruct.isometry-image-splits", 200, target=COMPLEMENT_RESIDUAL_TARGET)
def check_isometry_image_splits(cfg: CampaignConfig, rng: np.random.Generator):
    """A dagger mono h embeds isometrically and the ambient splits as
    image plus kernel of the adjoint action."""
    x = _random_shape(rng, 1, 6)
    a = Obj(int(rng.integers(0, x.dim + 1)))
    h = random_dagger_mono(cfg.field, a, x, rng)
    bd = Morphism.identity(cfg.field, a)
    bx = Morphism.identity(cfg.field, x)
    vh = reconstruct.functor_v(h, bd, bx)
    comp = axioms.complement_h3(h)
    ident = Morphism.identity(cfg.field, x)
    return (
        frobenius_distance(vh.dagger() @ vh, Morphism.identity(cfg.field, a)),
        (h.dagger() @ comp).norm(),  # kernel(V(h*)) holds the complement
        frobenius_distance(derived_add(h @ h.dagger(), comp @ comp.dagger()), ident),
    )


@law("reconstruct.orthomodularity", 200, target=COMPLEMENT_RESIDUAL_TARGET)
def check_orthomodularity(cfg: CampaignConfig, rng: np.random.Generator):
    """Random subspaces split the ambient object: complementary
    dimensions and projections summing to the identity."""
    x = _random_shape(rng, 1, 6)
    k = int(rng.integers(0, x.dim + 1))
    vs = [random_morphism(cfg.field, UNIT, x, rng) for _ in range(k)]
    sub = reconstruct.gram_schmidt(vs, field=cfg.field, ambient=x)
    perp = reconstruct.orthocomplement(sub)
    if sub.dom.dim + perp.dom.dim != x.dim:
        return _report(cfg, FAIL, 0.0, details={"dims": [sub.dom.dim, perp.dom.dim, x.dim]})
    p, q = reconstruct.projection_of_subspace(sub), reconstruct.projection_of_subspace(perp)
    # one residual per basis column, read from one product each
    return (
        [frobenius_distance(derived_add(p, q), Morphism.identity(cfg.field, x))]
        + column_distances(p @ sub, sub)
        + column_norms(p @ perp)
    )


@law("reconstruct.endofield-matches-scalars", 200, 1e3)
def check_endofield_matches_scalars(cfg: CampaignConfig, rng: np.random.Generator):
    """The endomorphism field of the unit object is the ambient scalars
    with multiplication reversed (composition order of 1x1 matrices)."""
    endo = reconstruct.EndoField(cfg.field)
    a = random_scalar(cfg.field, rng)
    b = random_scalar(cfg.field, rng)
    c = random_scalar(cfg.field, rng)
    la, lb, lc = endo.lift(a), endo.lift(b), endo.lift(c)
    residuals = [
        scalars.distance(endo.lower(endo.mul(la, lb)), scalars.mul(b, a)),
        scalars.distance(endo.lower(endo.star(la)), scalars.conj(a)),
    ]
    if scalars.norm(a) > 1e-3:
        residuals += [
            frobenius_distance(endo.mul(la, endo.inv(la)), endo.one),
            frobenius_distance(endo.mul(endo.inv(la), la), endo.one),
        ]
    return residuals + [
        frobenius_distance(endo.mul(endo.mul(la, lb), lc), endo.mul(la, endo.mul(lb, lc))),
        frobenius_distance(endo.mul(la, endo.add(lb, lc)),
                           endo.add(endo.mul(la, lb), endo.mul(la, lc))),
        frobenius_distance(endo.add(la, endo.zero), la),
    ]


@law("reconstruct.functor-dagger-additive", 200, target=RESIDUAL_TARGET)
def check_functor_dagger_additive(cfg: CampaignConfig, rng: np.random.Generator):
    """The column-action functor preserves dagger, addition and
    composition; in coordinate bases it is the identity representation."""
    x, y, z = (_random_shape(rng, 1, 5) for _ in range(3))
    f = random_morphism(cfg.field, x, y, rng)
    g = random_morphism(cfg.field, x, y, rng)
    h = random_morphism(cfg.field, y, z, rng)
    bx, by, bz = (random_unitary(cfg.field, o, rng) for o in (x, y, z))
    vf = reconstruct.functor_v(f, bx, by)
    coord_x = Morphism.identity(cfg.field, x)
    coord_y = Morphism.identity(cfg.field, y)
    return (
        frobenius_distance(reconstruct.functor_v(f.dagger(), by, bx), vf.dagger()),
        frobenius_distance(reconstruct.functor_v(derived_add(f, g), bx, by),
                           derived_add(vf, reconstruct.functor_v(g, bx, by))),
        frobenius_distance(reconstruct.functor_v(h @ f, bx, bz),
                           reconstruct.functor_v(h, by, bz) @ vf),
        frobenius_distance(reconstruct.functor_v(f, coord_x, coord_y), f),
    )


@law("reconstruct.functor-faithful", 200,
     details=lambda cfg, reached: {"trials": cfg.count(200), "separated": reached})
def check_functor_faithful(cfg: CampaignConfig, rng: np.random.Generator):
    """Distinct parallel morphisms are separated by some column from the
    unit object.  A pair that is not distinct is skipped, so a run in
    which no drawn pair was distinct is an ERROR, not a pass."""
    dims = cfg.positive_dims()
    x = Obj(int(rng.choice(dims)))
    y = Obj(int(rng.choice(dims)))
    f = random_morphism(cfg.field, x, y, rng)
    g = random_morphism(cfg.field, x, y, rng)
    distance = frobenius_distance(f, g)
    if not math.isfinite(distance):  # a NaN pair is neither equal nor separated
        return _report(cfg, FAIL, distance, details={"reason": "non-finite distance"})
    if distance <= 1e-6:
        return None
    if reconstruct.separating_column(f, g, cfg.tol) is None:
        return _report(cfg, FAIL, distance, f, {"reason": "no separating column"})
    return ()


@check("reconstruct.scalar-witness")
def check_scalar_witness(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    k1, k2 = reconstruct.scalar_field_witness(cfg.field)
    endo = reconstruct.EndoField(cfg.field)
    cancel = endo.add(endo.lift(k1), endo.lift(k2)).norm()
    magnitude = min(scalars.norm(k1), scalars.norm(k2))
    ok = magnitude >= 0.1 and cancel <= RESIDUAL_TARGET
    return _report(cfg, PASS if ok else FAIL, cancel,
                   details={"k1": k1.to_json(), "k2": k2.to_json(), "min_magnitude": magnitude})


@check("reconstruct.center-sqrt-minus-one")
def check_center_classification(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    """Complex field: the centre is the whole field and i is a central
    square root of -1, so its square must be exactly -1.  Over R and H
    the centre is the real line, which has none; the commutant
    certificate of `axioms.h5-scalar-refutation` carries that argument."""
    alpha = Scalar(cfg.field, 0.0, 1.0)
    gap = scalars.distance(scalars.mul(alpha, alpha), Scalar(cfg.field, -1.0))
    return _report(cfg, PASS if gap == 0.0 else FAIL, gap, Morphism.single(alpha),
                   {"classified": PASS})


@check("reconstruct.rank-objects-constructible")
def check_rank_objects(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    worst = 0.0
    for n in range(17):
        x, onb = reconstruct.rank_object(cfg.field, n)
        if x.dim != n or len(onb) != n:
            return _report(cfg, FAIL, 0.0, details={"rank": n})
        if onb:
            worst = worse(worst, reconstruct.orthonormality_residual(column_block(onb)))
    return _report(cfg, PASS if worst <= cfg.tol.bound(1.0, 1.0) else FAIL, worst)


# ---------------------------------------------------------------------------
# projection-span checks
# ---------------------------------------------------------------------------


@check("projspan.saturation")
def check_projection_saturation(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    dims = [d for d in cfg.dims if 2 <= d <= 5] or [2, 3, 4, 5]
    runs = []
    for dim in dims:
        for seed in range(cfg.seed, cfg.seed + 5):
            rep = projspan.saturation_check(dim, seed)
            runs.append(rep.to_json())
            if rep.status != PASS:
                return _report(cfg, FAIL, 0.0, details={"failing": rep.to_json()})
    low = projspan.saturation_check(1, cfg.seed)
    runs.append(low.to_json())
    if low.status != "below-threshold (expected)":
        return _report(cfg, FAIL, 0.0, details={"failing": low.to_json()})
    return _report(cfg, PASS, 0.0, details={"runs": runs})


@check("projspan.saturation-monotonicity")
def check_saturation_monotonicity(cfg: CampaignConfig, rng: np.random.Generator) -> Report:
    for dim in (2, 3):
        def rank(**kwargs) -> int:
            return projspan.saturation_check(dim, cfg.seed, **kwargs).rank

        longest = rank(max_len=3, count=2)  # the last entry of both rows
        ranks_by_len = [rank(max_len=1), rank(max_len=2), longest]
        ranks_by_count = [rank(count=0), rank(count=1), longest]
        if ranks_by_len != sorted(ranks_by_len) or ranks_by_count != sorted(ranks_by_count):
            return _report(cfg, FAIL, 0.0,
                           details={"dim": dim, "by_len": ranks_by_len, "by_count": ranks_by_count})
    return _report(cfg, PASS, 0.0)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

_COMMON_LEMMA_CHECKS: list[CheckFn] = [
    check_conj_antiautomorphism,
    check_inverse_two_sided,
    check_dagger_functor_laws,
    check_dagger_monos_are_monic,
    check_small_objects_distinct,
    check_dagger_simple_dimension,
    check_unique_simple_object,
    check_zero_leg_forces_unitary,
    check_dagger_distributes_over_oplus,
    check_range_projections_sum,
    check_dagger_of_derived_sum,
    check_semiadditive_laws,
    check_derived_add_matches_entrywise,
    check_nfold_injections,
    check_h3_complement,
    check_h2_directed_colimits,
    check_hermitian_form_laws,
    check_uniformity,
    check_copairing_biconditional,
    check_onb_is_full_biproduct,
    check_isometry_image_splits,
    check_orthomodularity,
    check_endofield_matches_scalars,
    check_functor_dagger_additive,
    check_functor_faithful,
    check_scalar_witness,
    check_rank_objects,
]


def lemma_checks(field: Field) -> list[CheckFn]:
    checks = list(_COMMON_LEMMA_CHECKS)
    if field is Field.QUATERNION:
        checks.append(check_noncommutativity_witness)
    if field is Field.COMPLEX:
        checks += [
            check_center_classification,
            check_h5_strict_sqrt,
            check_projection_saturation,
            check_saturation_monotonicity,
        ]
    return checks


def run_lemma_suite(cfg: CampaignConfig, stream=None) -> list[Report]:
    return _run(lemma_checks(cfg.field), cfg, stream)


def axiom_checks(field: Field) -> list[tuple[str, CheckFn]]:
    checks = [
        ("H1", check_h1),
        ("H2", check_h2_directed_colimits),
        ("H3", check_h3_complement),
        ("H4", check_h4_unit_and_normalisation),
    ]
    if field is Field.COMPLEX:
        checks.append(("H5", check_h5_strict_sqrt))
    else:
        checks.append(("H5", check_h5_refutation))
    return checks


def run_axiom_suite(cfg: CampaignConfig, stream=None) -> list[Report]:
    labels, checks = zip(*axiom_checks(cfg.field))
    return _run(list(checks), cfg, stream, labels)


def run_reconstruction_suite(cfg: CampaignConfig, stream=None) -> list[Report]:
    """The `reconstruct.` checks of the lemma suite, in lemma order."""
    checks = [fn for fn in lemma_checks(cfg.field) if fn.check_id.startswith("reconstruct.")]
    return _run(checks, cfg, stream)


def _stream_line(stream, report: Report) -> None:
    if stream is not None:
        stream.write(report.text_line() + "\n")
        stream.flush()


def _run(
    checks: list[CheckFn], cfg: CampaignConfig, stream=None, labels=None
) -> list[Report]:
    """Run checks, streaming a line as each completes; the returned list
    is sorted by check id so report assembly is canonical.  `labels`
    renames the reports (the axiom suite reports H1..H5).

    A check that raises a DaggerLabError reaches no verdict: it becomes
    an ERROR report, neither a pass nor a violation, carrying the
    exception text and labelled by the check id (a plain function
    without one, by its name) unless `labels` names it."""
    reports = []
    for fn, label in zip(checks, labels or [None] * len(checks)):
        try:
            report = fn(cfg)
        except DaggerLabError as exc:
            report = Report(getattr(fn, "check_id", fn.__name__), cfg.field.value, ERROR,
                            details={"error": f"{type(exc).__name__}: {exc}"})
        if label is not None:
            report.axiom = label
        _stream_line(stream, report)
        reports.append(report)
    reports.sort(key=lambda r: r.axiom)
    return reports
