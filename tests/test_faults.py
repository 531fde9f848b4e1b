"""A table of faults in the category and the checks they must fail.

Each fault is patched in where the verifier reads the name.  A row
names a check, and the field it runs over, that passes on the genuine
category and fails, not errors, under its fault, with the report it must
give.  The transpose dagger over C gets the whole suites: a dagger
category without positivity, whose every hypothesis is read and judged
by a check instead of ending a check in a library guard.
"""

import dataclasses
import json

import numpy as np
import pytest

from daggerlab import axioms, campaigns, cli, matcat, reconstruct, scalars
from daggerlab.campaigns import CampaignConfig
from daggerlab.matcat import Morphism
from daggerlab.reports import FAIL, PASS
from daggerlab.scalars import Field, Scalar

R, C, H = Field.REAL, Field.COMPLEX, Field.QUATERNION


def negated_mediator(monkeypatch):
    """The mediator of H2 times -1: still an isometry, but not the mediator."""
    mediating = axioms.mediating_dagger_mono
    monkeypatch.setattr(axioms, "mediating_dagger_mono",
                        lambda *args: matcat.scaled(mediating(*args), -1.0))


def square_of_i_is_one(monkeypatch):
    """A multiplication that is right except that i * i = 1."""
    mul, i = scalars.mul, Scalar(C, 0.0, 1.0)
    monkeypatch.setattr(scalars, "mul", lambda a, b: Scalar(a.field, 1.0) if a == b == i else mul(a, b))


def unitary_always(monkeypatch):
    """An `is_dagger_iso` that reads every morphism as unitary."""
    monkeypatch.setattr(axioms, "is_dagger_iso", lambda *args, **kwargs: True)


def unitary_never(monkeypatch):
    """An `is_dagger_iso` that reads no morphism as unitary."""
    monkeypatch.setattr(axioms, "is_dagger_iso", lambda *args, **kwargs: False)


def offset_derived_addition(monkeypatch):
    """The derived addition with 1e-3 added to the real part of every entry."""
    derived_add = reconstruct.derived_add

    def offset(f, g):
        total = derived_add(f, g)
        entries = total.entries.copy()
        entries[..., 0] += 1e-3
        return Morphism(total.field, total.dom, total.cod, entries)

    monkeypatch.setattr(reconstruct, "derived_add", offset)


def transpose_dagger(monkeypatch):
    """The dagger without its conjugation."""
    monkeypatch.setattr(Morphism, "dagger",
                        lambda m: matcat._wrap(m.field, m.cod, m.dom, m._a.T))


def scaled_dagger(monkeypatch):
    """The dagger times 1 + 1e-6."""
    dagger = Morphism.dagger
    monkeypatch.setattr(Morphism, "dagger", lambda m: matcat.scaled(dagger(m), 1.0 + 1e-6))


def rotated_root(monkeypatch):
    """The strict root times the phase e^(i 1e-6), with the certificate's
    residual left at the genuine root's."""
    strict_sqrt = axioms.strict_sqrt_complex

    def rotated(u):
        cert = strict_sqrt(u)
        root = Morphism.from_complex(cert.root.complex_view() * np.exp(1e-6j))
        return dataclasses.replace(cert, root=root)

    monkeypatch.setattr(axioms, "strict_sqrt_complex", rotated)


def _reason_starts(prefix):
    return lambda r: r.details["reason"].startswith(prefix) and r.witness is not None


# fault, fields, check, what its failing report must show
FAULT_TABLE = [
    # -u misses the isometric leg u . leg by twice its norm, 2 sqrt(dim) >= 2
    (negated_mediator, [R, C, H], campaigns.check_h2_directed_colimits,
     lambda r: r.residual > 1.0 and r.details["reason"].startswith("mediator fails at node")),
    (square_of_i_is_one, [C], campaigns.check_center_classification,
     lambda r: r.residual == 2.0),  # |1 - (-1)|
    # every isometry read as non-unitary breaks dimension 1; every one
    # read as unitary breaks dimension 2
    (unitary_never, [R, C, H], campaigns.check_dagger_simple_dimension,
     lambda r: r.details == {"dim": 1, "sampled_simple": False}),
    (unitary_always, [R, C, H], campaigns.check_dagger_simple_dimension,
     lambda r: r.details == {"dim": 2, "sampled_simple": True}),
    (offset_derived_addition, [R, C, H], campaigns.check_scalar_witness,
     lambda r: r.residual == pytest.approx(1e-3, abs=1e-12)),
    # each hypothesis that a library function presumes, judged by its check
    (transpose_dagger, [C], campaigns.check_h2_directed_colimits,
     _reason_starts("mediator is not an isometry")),
    (transpose_dagger, [C], campaigns.check_h5_strict_sqrt,
     _reason_starts("drawn unitary is not unitary")),
    (transpose_dagger, [C], campaigns.check_unique_simple_object,
     _reason_starts("squared length not positive real")),
    (transpose_dagger, [C], campaigns.check_uniformity,
     _reason_starts("squared length not positive real")),
    (transpose_dagger, [C], campaigns.check_h3_complement, lambda r: r.witness is not None),
    # (f-dagger)-dagger is (1 + 1e-6)^2 f
    (scaled_dagger, [R, C, H], campaigns.check_dagger_functor_laws, lambda r: r.residual > 1e-6),
    # still strict, but its square is u times e^(i 2e-6)
    (rotated_root, [C], campaigns.check_h5_strict_sqrt,
     lambda r: r.residual > campaigns.SQRT_RESIDUAL_TARGET),
]

ROWS = [(fault, field, check, shows) for fault, fields, check, shows in FAULT_TABLE
        for field in fields]


@pytest.mark.parametrize("fault, field, check, shows", ROWS, ids=[
    f"{fault.__name__}-{field.value}-{check.check_id}" for fault, field, check, _ in ROWS])
def test_check_fails_under(monkeypatch, fault, field, check, shows):
    cfg = CampaignConfig(field=field, seed=42, trials=5)
    assert check(cfg).status == PASS
    fault(monkeypatch)
    report = check(cfg)
    assert (report.axiom, report.status) == (check.check_id, FAIL)
    assert shows(report)


TRANSPOSE_LEMMAS_C = {
    "axioms.h2-directed-colimits": FAIL,
    "axioms.h3-complement-invariants": FAIL,
    "axioms.h5-strict-sqrt": FAIL,
    "axioms.unique-simple-object": FAIL,
    "biproduct.dagger-distributes-over-oplus": PASS,
    "biproduct.dagger-of-derived-sum": PASS,
    "biproduct.derived-add-matches-entrywise": PASS,
    "biproduct.nfold-injections-orthonormal": PASS,
    "biproduct.range-projections-sum-to-identity": FAIL,
    "biproduct.semiadditive-laws": PASS,
    "biproduct.zero-leg-forces-unitary": FAIL,
    "matcat.dagger-functor-laws": PASS,
    "matcat.dagger-monos-are-monic": FAIL,
    "matcat.dagger-simple-is-dimension-one": FAIL,
    "matcat.small-objects-pairwise-distinct": PASS,
    "projspan.saturation": PASS,
    "projspan.saturation-monotonicity": PASS,
    "reconstruct.center-sqrt-minus-one": PASS,
    "reconstruct.copairing-isometry-biconditional": PASS,
    "reconstruct.endofield-matches-scalars": FAIL,
    "reconstruct.functor-dagger-additive": FAIL,
    "reconstruct.functor-faithful": PASS,
    "reconstruct.hermitian-form-laws": FAIL,
    "reconstruct.isometry-image-splits": FAIL,
    "reconstruct.onb-is-full-biproduct": FAIL,
    "reconstruct.orthomodularity": FAIL,
    "reconstruct.rank-objects-constructible": PASS,
    "reconstruct.scalar-witness": PASS,
    "reconstruct.uniformity": FAIL,
    "scalars.conj-antiautomorphism": PASS,
    "scalars.inverse-two-sided": PASS,
}


def _run(tmp_path, argv):
    """Exit code and statuses by check of a JSON run at seed 42."""
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--seed", "42", "--format", "json", "--out", str(out)])
    return code, {r["axiom"]: r["status"] for r in json.loads(out.read_text())["reports"]}


# fault, argv, exit code, statuses by check
SUITE_TABLE = [
    (transpose_dagger, ["verify-axioms", "--field", "C", "--trials", "20"], cli.EXIT_VIOLATION,
     {"H1": PASS, "H2": FAIL, "H3": FAIL, "H4": FAIL, "H5": FAIL}),
    (transpose_dagger, ["lemmas", "--field", "C", "--trials", "20"], cli.EXIT_VIOLATION,
     TRANSPOSE_LEMMAS_C),
    (square_of_i_is_one, ["reconstruct", "--field", "C", "--trials", "5"], cli.EXIT_VIOLATION,
     {fn.check_id: FAIL if fn is campaigns.check_center_classification else PASS
      for fn in campaigns.lemma_checks(C) if fn.check_id.startswith("reconstruct.")}),
]


@pytest.mark.parametrize("fault, argv, code, statuses", SUITE_TABLE,
                         ids=[f"{fault.__name__}-{argv[0]}" for fault, argv, _, _ in SUITE_TABLE])
def test_fault_gives_the_suite_its_verdicts(monkeypatch, tmp_path, fault, argv, code, statuses):
    assert _run(tmp_path, argv) == (cli.EXIT_OK, dict.fromkeys(statuses, PASS))
    fault(monkeypatch)
    assert _run(tmp_path, argv) == (code, statuses)
