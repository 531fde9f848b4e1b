"""Campaign scaffolding: NaN residuals fail, and a check that raises or
draws no sample is reported as an error next to the others instead of
ending the run or passing."""

import dataclasses
import io
import math

import numpy as np
import pytest

from daggerlab import axioms, biproduct, campaigns, projspan
from daggerlab.biproduct import make_biproduct, verify_biproduct
from daggerlab.campaigns import CampaignConfig
from daggerlab.errors import DomainError
from daggerlab.matcat import Morphism, Obj, native_stack
from daggerlab.reports import ERROR, FAIL, INFEASIBLE, PASS, worse
from daggerlab.sampling import random_coordinate_projection
from daggerlab.scalars import Field, Scalar, TolerancePolicy


def _nan_after_first(fn):
    """fn, except that every call after the first returns NaN."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs) if len(calls) == 1 else math.nan

    return patched


def test_worse_propagates_nan_in_any_position():
    assert worse(1.0, 2.0) == 2.0
    assert worse(3.0) == 3.0
    assert math.isnan(worse(0.0, math.nan))
    assert math.isnan(worse(math.nan, 0.0))
    assert math.isnan(worse(0.0, 1.0, math.nan, 2.0))
    assert max(0.0, math.nan) == 0.0  # the trap worse() avoids


def test_nan_residual_after_a_finite_one_fails_the_check(monkeypatch):
    monkeypatch.setattr(campaigns, "frobenius_distance",
                        _nan_after_first(campaigns.frobenius_distance))
    cfg = CampaignConfig(field=Field.COMPLEX, seed=3, trials=3)
    report = campaigns.check_dagger_monos_are_monic(cfg)
    assert report.status == FAIL
    assert math.isnan(report.residual)


def test_nan_residual_fails_the_biproduct_laws(monkeypatch):
    monkeypatch.setattr(biproduct, "frobenius_distance",
                        _nan_after_first(biproduct.frobenius_distance))
    ok, worst = verify_biproduct(make_biproduct(Field.REAL, Obj(2), Obj(1)))
    assert not ok and math.isnan(worst)


def test_nan_arrows_fail_the_colimit_check(monkeypatch):
    draw = axioms.random_directed_diagram

    def nan_arrows(field, rng):
        d = draw(field, rng)
        return dataclasses.replace(d, arrows={
            k: _nan_morphism(field, a.dom, a.cod, rng) for k, a in d.arrows.items()})

    cfg = CampaignConfig(field=Field.REAL, seed=0, trials=3)
    assert campaigns.check_h2_directed_colimits(cfg).status == PASS
    monkeypatch.setattr(axioms, "random_directed_diagram", nan_arrows)
    report = campaigns.check_h2_directed_colimits(cfg)
    assert (report.axiom, report.status) == ("axioms.h2-directed-colimits", FAIL)
    assert report.details == {"reason": "not a diagram of isometries"}
    assert math.isnan(report.residual)


@pytest.mark.parametrize("w, x", [(1.0, 0.5), (-1.0, 0.0), (0.0, 0.0), (math.nan, 0.0)])
def test_squared_length_off_the_positive_reals_fails_with_its_column(w, x):
    # what normalize_h4b presumes of <u, u>, judged where a check reads it
    cfg = CampaignConfig(field=Field.COMPLEX)
    u = Morphism.from_complex([[1.0 + 0j], [0j]])
    assert campaigns._not_positive_real(cfg, u, Morphism.single(Scalar(Field.COMPLEX, 1.0))) is None
    report = campaigns._not_positive_real(cfg, u, Morphism.single(Scalar(Field.COMPLEX, w, x)))
    assert (report.status, report.details) == (FAIL, {"reason": "squared length not positive real"})
    assert report.witness is u


def _raising_check(cfg):
    raise DomainError("no sample could be drawn")


def test_raising_check_is_an_error_next_to_passing_checks(monkeypatch):
    monkeypatch.setattr(campaigns, "lemma_checks",
                        lambda field: [_raising_check, campaigns.check_noncommutativity_witness])
    lines = []

    class Stream:
        def write(self, text):
            lines.append(text)

        def flush(self):
            pass

    reports = campaigns.run_lemma_suite(CampaignConfig(field=Field.QUATERNION), Stream())
    by_id = {r.axiom: r for r in reports}
    assert by_id["_raising_check"].status == ERROR
    assert by_id["_raising_check"].details == {"error": "DomainError: no sample could be drawn"}
    assert by_id["scalars.noncommutativity-witness"].status == PASS
    assert any(line.startswith("[ERROR] _raising_check ") for line in lines)


def test_raising_check_is_labelled_by_its_check_id(monkeypatch):
    def refuse(f):
        raise DomainError("no complement")

    monkeypatch.setattr(campaigns.axioms, "complement_h3", refuse)
    reports = campaigns.run_lemma_suite(CampaignConfig(field=Field.REAL, trials=2))
    assert {r.axiom for r in reports if r.status == ERROR} == {
        "axioms.h3-complement-invariants",
        "reconstruct.isometry-image-splits",
    }


def test_raising_axiom_keeps_its_label(monkeypatch):
    monkeypatch.setattr(campaigns, "check_h2_directed_colimits", _raising_check)
    cfg = CampaignConfig(field=Field.COMPLEX, dims=(1, 2), seed=1, trials=2)
    reports = campaigns.run_axiom_suite(cfg)
    assert [r.axiom for r in reports] == ["H1", "H2", "H3", "H4", "H5"]
    statuses = {r.axiom: r.status for r in reports}
    assert statuses.pop("H2") == ERROR
    assert set(statuses.values()) == {PASS}


def test_other_exceptions_still_propagate(monkeypatch):
    def broken(cfg):
        raise ZeroDivisionError("a bug, not a check outcome")

    monkeypatch.setattr(campaigns, "lemma_checks", lambda field: [broken])
    with pytest.raises(ZeroDivisionError):
        campaigns.run_lemma_suite(CampaignConfig())


def _zero_morphism(field, dom, cod, rng):
    return Morphism.zero(field, dom, cod)


@pytest.mark.parametrize("check, cid", [
    (campaigns.check_unique_simple_object, "axioms.unique-simple-object"),
    (campaigns.check_h4_unit_and_normalisation, "axioms.h4-unit-normalisation"),
    (campaigns.check_uniformity, "reconstruct.uniformity"),
    (campaigns.check_functor_faithful, "reconstruct.functor-faithful"),
])
def test_check_with_every_sample_skipped_is_an_error(monkeypatch, check, cid):
    cfg = CampaignConfig(field=Field.COMPLEX, seed=5, trials=4)
    assert check(cfg).status == PASS
    monkeypatch.setattr(campaigns, "random_morphism", _zero_morphism)
    report = check(cfg)
    assert (report.axiom, report.status) == (cid, ERROR)
    assert report.details == {"error": campaigns.NO_SAMPLE}


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
def test_an_empty_nfold_biproduct_is_a_passing_sample(field):
    # the one draw at this seed is n = 0 copies: the empty biproduct, which
    # has no injection, and that is its whole law
    cfg = CampaignConfig(field=field, seed=12, trials=1)
    rng = cfg.rng("biproduct.nfold-injections-orthonormal")
    rng.integers(0, 4)  # the summand's dimension
    assert int(rng.integers(0, 4)) == 0
    report = campaigns.check_nfold_injections(cfg)
    assert (report.status, report.residual, report.details) == (PASS, 0.0, {})


def test_inverse_check_with_only_zero_scalars_is_an_error(monkeypatch):
    cfg = CampaignConfig(field=Field.QUATERNION, seed=5, trials=4)
    assert campaigns.check_inverse_two_sided(cfg).status == PASS
    monkeypatch.setattr(campaigns, "random_scalar", lambda field, rng: Scalar(field, 0.0))
    report = campaigns.check_inverse_two_sided(cfg)
    assert (report.axiom, report.status) == ("scalars.inverse-two-sided", ERROR)
    assert report.details == {"error": "no sample drawn"}


SKIPPING_CHECKS = [
    campaigns.check_h4_unit_and_normalisation,
    campaigns.check_unique_simple_object,
    campaigns.check_hermitian_form_laws,
    campaigns.check_uniformity,
    campaigns.check_inverse_two_sided,
]


@pytest.mark.parametrize("check", SKIPPING_CHECKS, ids=[c.check_id for c in SKIPPING_CHECKS])
@pytest.mark.parametrize("field", list(Field))
def test_a_looser_tolerance_keeps_a_pass(field, check):
    # each skip rule reads the threshold of the predicate it guards, so a
    # looser tolerance skips more draws and judges none it cannot pass
    for seed in (0, 1):
        statuses = [campaigns._run([check], CampaignConfig(
            field=field, seed=seed, trials=50, tol=TolerancePolicy(t, t)))[0].status
            for t in (1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2)]
        first_pass = statuses.index(PASS) if PASS in statuses else len(statuses)
        assert statuses[first_pass:] == [PASS] * (len(statuses) - first_pass), (seed, statuses)


@pytest.mark.parametrize("field", [Field.REAL, Field.QUATERNION])
def test_h5_refutation_fails_when_only_coordinate_projections_are_sampled(monkeypatch, field):
    cfg = CampaignConfig(field=field, dims=(2, 3, 4), seed=5)
    assert campaigns.check_h5_refutation(cfg).status == INFEASIBLE

    def masks_only(field, obj, count, rng):
        return native_stack([random_coordinate_projection(field, obj, rng) for _ in range(count)])

    # beside the coordinate projections, which the refutation always has
    monkeypatch.setattr(axioms, "random_rank1_projections", masks_only)
    report = campaigns.check_h5_refutation(cfg)
    assert report.status == FAIL
    # the commutant of diagonal projections is the diagonal: nullity d * width
    assert report.residual == 4 * field.width
    assert report.details["failing"] == [
        {"dim": dim, "status": FAIL, "residual": dim * field.width,
         "reason": "commutant is larger than the central scalars"}
        for dim in cfg.dims
    ]
    for dim in cfg.dims:
        single = axioms.refute_h5_scalar_case(field, dim, cfg.rng("h5"), cfg.tol)
        assert (single.status, single.residual) == (FAIL, dim * field.width)


@pytest.mark.parametrize("trials", [0, -1])
def test_config_rejects_fewer_than_one_trial(trials):
    with pytest.raises(DomainError):
        CampaignConfig(field=Field.COMPLEX, trials=trials)


@pytest.mark.parametrize("field", list(Field))
def test_every_check_reports_under_its_one_declared_id(field):
    cfg = CampaignConfig(field=field, dims=(1, 2), seed=1, trials=1)
    lemma_ids = [fn.check_id for fn in campaigns.lemma_checks(field)]
    assert len(set(lemma_ids)) == len(lemma_ids)
    lemma_reports = {fn.check_id: fn(cfg) for fn in campaigns.lemma_checks(field)}
    assert all(report.axiom == cid for cid, report in lemma_reports.items())

    # H1 draws nothing and has no check id: it reports under its label
    axiom_checks = campaigns.axiom_checks(field)
    axiom_ids = [getattr(fn, "check_id", label) for label, fn in axiom_checks]
    assert len(set(axiom_ids)) == len(axiom_ids)
    assert [fn(cfg).axiom for _, fn in axiom_checks] == axiom_ids

    stream = io.StringIO()
    reports = campaigns.run_reconstruction_suite(cfg, stream)
    run_order = [line.split()[1] for line in stream.getvalue().splitlines()]
    assert run_order == [cid for cid in lemma_ids if cid.startswith("reconstruct.")]
    assert [r.to_json() for r in reports] == [lemma_reports[r.axiom].to_json() for r in reports]


def _nan_morphism(field, dom, cod, rng):
    return Morphism.from_real(field, np.full((cod.dim, dom.dim), math.nan))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
def test_nan_columns_fail_the_copairing_biconditional(monkeypatch, field):
    # both sides of the biconditional read False on NaN columns, so they "agree"
    cfg = CampaignConfig(field=field, seed=42, trials=20)
    assert campaigns.check_copairing_biconditional(cfg).status == PASS
    monkeypatch.setattr(campaigns, "random_morphism", _nan_morphism)
    report = campaigns.check_copairing_biconditional(cfg)
    assert (report.axiom, report.status) == ("reconstruct.copairing-isometry-biconditional", FAIL)
    assert math.isnan(report.residual)


def test_nan_square_residual_fails_the_strict_sqrt_law(monkeypatch):
    monkeypatch.setattr(campaigns, "frobenius_distance",
                        _nan_after_first(campaigns.frobenius_distance))
    report = campaigns.check_h5_strict_sqrt(CampaignConfig(field=Field.COMPLEX, seed=42, trials=3))
    assert (report.axiom, report.status) == ("axioms.h5-strict-sqrt", FAIL)
    assert math.isnan(report.residual)


@pytest.mark.parametrize("miss, status", [(5e-8, FAIL), (5e-9, PASS)])
def test_strict_sqrt_judges_the_square_against_its_target(monkeypatch, miss, status):
    # the strict root times a phase e^(i t): still strict and unitary, and
    # its square misses u by |e^(2 i t) - 1| |u| = 2 sin(t) sqrt(n) = miss
    strict_sqrt = axioms.strict_sqrt_complex

    def missing(u):
        cert = strict_sqrt(u)
        t = math.asin(miss / (2 * math.sqrt(u.dom.dim)))
        return dataclasses.replace(cert, root=Morphism.from_complex(
            cert.root.complex_view() * np.exp(1j * t)))

    monkeypatch.setattr(axioms, "strict_sqrt_complex", missing)
    report = campaigns.check_h5_strict_sqrt(CampaignConfig(field=Field.COMPLEX, seed=42, trials=3))
    assert (report.status, report.details) == (status, {})
    assert report.residual == pytest.approx(miss, rel=1e-6)
    assert (report.residual <= campaigns.SQRT_RESIDUAL_TARGET) == (status == PASS)


def test_failed_strictness_sampling_fails_the_strict_sqrt_law(monkeypatch):
    monkeypatch.setattr(axioms, "is_strict_sqrt", lambda *args, **kwargs: False)
    report = campaigns.check_h5_strict_sqrt(CampaignConfig(field=Field.COMPLEX, seed=42, trials=3))
    assert (report.axiom, report.status) == ("axioms.h5-strict-sqrt", FAIL)
    assert report.details == {"reason": "strictness sampling failed"}


def test_strict_sqrt_law_decomposes_each_drawn_unitary_once(monkeypatch):
    # the root and the strictness family of a drawn unitary come from
    # one eig of it, as in `lemmas --field C --trials 20 --seed 42`
    calls = {"eig": 0, "root": 0}
    eig, strict_sqrt = np.linalg.eig, axioms.strict_sqrt_complex

    def counting_eig(a):
        calls["eig"] += 1
        return eig(a)

    def counting_root(u):
        calls["root"] += 1
        return strict_sqrt(u)

    monkeypatch.setattr(axioms.np.linalg, "eig", counting_eig)
    monkeypatch.setattr(axioms, "strict_sqrt_complex", counting_root)
    reports = campaigns.run_lemma_suite(CampaignConfig(field=Field.COMPLEX, seed=42, trials=20))
    assert all(r.status == PASS for r in reports)
    assert calls == {"eig": 20, "root": 20}


@pytest.mark.parametrize("isometric", [True, False])
def test_constant_isometry_test_fails_the_copairing_biconditional(monkeypatch, isometric):
    # a Gaussian column list reads isometric, or an isometry reads not
    # isometric: each needs its kind of sample drawn
    monkeypatch.setattr(campaigns, "is_dagger_mono", lambda *args, **kwargs: isometric)
    report = campaigns.check_copairing_biconditional(CampaignConfig(field=Field.COMPLEX, seed=42))
    assert (report.axiom, report.status) == ("reconstruct.copairing-isometry-biconditional", FAIL)
    assert report.details == {"orthonormal": not isometric, "isometric": isometric}


def test_functor_faithful_counts_its_separated_pairs():
    report = campaigns.check_functor_faithful(CampaignConfig(field=Field.COMPLEX, seed=42, trials=20))
    assert (report.status, report.residual) == (PASS, 0.0)
    assert report.details == {"trials": 20, "separated": 20}


def test_saturation_monotonicity_computes_each_rank_once(monkeypatch):
    cfg = CampaignConfig(field=Field.COMPLEX, seed=42)
    expected = campaigns.check_saturation_monotonicity(cfg).to_json()
    calls = []
    saturation_check = projspan.saturation_check

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return saturation_check(*args, **kwargs)

    monkeypatch.setattr(projspan, "saturation_check", counting)
    assert campaigns.check_saturation_monotonicity(cfg).to_json() == expected
    # dims 2 and 3: max_len 1, 2, 3 at count 2, and count 0, 1 at max_len 3
    assert len(calls) == 10
