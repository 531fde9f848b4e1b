"""Tests of the campaign benchmark's own code.

    python3 -m pytest -q campaignbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import daggerlab  # noqa: E402
import daggerlab.cli  # noqa: E402,F401  (the tracer resolves names in every module)
from daggerlab import biproduct, matcat, reconstruct, scalars  # noqa: E402
from daggerlab.scalars import Field  # noqa: E402

import run  # noqa: E402
from layers import TARGETS, per_layer_metrics  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

SMALL = ["lemmas", "--field", "H", "--dims", "0,1,2", "--trials", "2"]


def _bindings() -> dict:
    """Identity of every attribute the tracer may patch."""
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "daggerlab" or n.startswith("daggerlab."))]
    owners += [np.linalg, matcat.Morphism, scalars.Field, scalars.Scalar, reconstruct.EndoField]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_rebinds_every_namespace_and_restores_all():
    from daggerlab import axioms, sampling

    before = _bindings()
    original = matcat.compose
    with Tracer(TARGETS) as tracer:
        assert matcat.compose is not original
        assert matcat.compose.__wrapped__ is original
        assert axioms.compose is matcat.compose
        assert sampling.compose is matcat.compose
        assert daggerlab.compose is matcat.compose
        assert tracer.absent == []
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_missing_names_are_absent_not_errors():
    targets = [
        Target("gone.function", ("daggerlab.kernels:no_such_function",)),
        Target("gone.module", ("daggerlab.no_such_module:f",)),
        Target("gone.method", ("daggerlab.matcat:Morphism.no_such_method",)),
        Target("now.a.constant", ("daggerlab.scalars:ALL_FIELDS",)),
    ]
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == [t.name for t in targets]
    assert tracer.result()["totals"] == {t.name: [0, 0, 0] for t in targets}


def test_spans_aggregate_per_check_with_parents_and_self_time():
    f = matcat.Morphism.from_complex([[1, 2j], [3, 4]])
    with Tracer(TARGETS) as tracer:
        biproduct.derived_add(f, f)
        tracer.next_check("first")
        biproduct.derived_add(f, f)
        _ = Field.COMPLEX.width
    result = tracer.result()
    assert set(result["by_check"]) == {"first", "(after last check)"}
    assert result["by_check"]["first"]["biproduct.derived_add"][0] == 1
    calls, incl, self_s = result["totals"]["biproduct.derived_add"]
    assert calls == 2 and incl >= self_s >= 0.0
    assert result["edges"]["biproduct.derived_add>matcat.compose"] == 4
    assert result["edges"]["biproduct.derived_add>biproduct.diagonal_pair"] == 4
    assert result["totals"]["scalars.Field.width"][0] >= 1
    # only top-level spans cover check time: the derived additions and the bare width call
    assert result["covered"]["first"] > 0.0
    assert incl <= sum(result["covered"].values()) <= incl + result["totals"]["scalars.Field.width"][1]


def test_product_flops_and_bytes_are_computed_from_shapes():
    g = matcat.Morphism.from_complex(np.ones((2, 3)))
    f = matcat.Morphism.from_complex(np.ones((3, 4)))
    with Tracer(TARGETS) as tracer:
        matcat.compose(g, f)
    counters = tracer.result()["counters"]["matcat.compose"]
    assert counters["flops"] == 8 * 2 * 3 * 4
    assert counters["bytes"] == 16 * (2 * 3 + 3 * 4 + 2 * 4)
    assert counters["n_3_8.calls"] == 1


def test_traced_run_gives_the_untraced_report_bytes():
    deadline = time.monotonic() + 120
    argv = run.cli_argv(SMALL, 3)
    plain = run.run_child(["run", "0", *argv], deadline)
    traced = run.run_child(["run", "1", *argv], deadline)
    assert plain["exit"] == traced["exit"] == 0
    assert plain["report_sha256"] == traced["report_sha256"]
    assert plain["trace"] is None
    assert traced["trace"]["absent"] == []
    assert [c for c, _ in traced["checks"]] == [c for c, _ in plain["checks"]]
    spans_by_check = set(traced["trace"]["by_check"]) - {"(after last check)"}
    assert spans_by_check and spans_by_check <= {c for c, _ in traced["checks"]}


def test_per_layer_names_follow_the_contract():
    with Tracer(TARGETS) as tracer:
        pass
    names = list(per_layer_metrics(tracer.result(), {}, [], 0.0, 0))
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(names) == sorted(m["name"] for m in declared)
    assert len(names) == len(set(names)) <= 128
    assert all(len(n) <= 64 for n in names)


def test_every_run_repeats_its_first_campaign_and_then_varies_the_seed():
    seeds = [run.campaign_seed(7, i) for i in range(6)]
    assert seeds[0] == seeds[1] == 7
    assert len(set(seeds[1:])) == 5


def _result(exit_code: int, verdicts: dict, sha: str) -> dict:
    return {"exit": exit_code, "verdicts": verdicts, "report_sha256": sha}


def test_checker_separates_failures_from_byte_drift():
    base = run.WORKLOADS["wide-dims"][0]
    pin = run.PINS["runs"][run.label(base)]
    seed = run.PINS["seed"]
    checker = run.Checker()
    checker.check(base, seed, _result(pin["exit"], pin["verdicts"], "drifted"))
    assert (checker.failed, checker.bytes_changed) == (0, 1)
    checker.check(base, seed, _result(pin["exit"], pin["verdicts"], "other"))
    assert (checker.failed, checker.bytes_changed) == (1, 2)

    other_seed = run.Checker()
    other_seed.check(base, seed + 1, _result(pin["exit"], pin["verdicts"], "any"))
    other_seed.check(base, seed + 2, _result(pin["exit"], pin["verdicts"], "another"))
    assert (other_seed.failed, other_seed.bytes_changed) == (0, 0)
    wrong = dict(pin["verdicts"], H5="pass")
    other_seed.check(base, seed + 1, _result(pin["exit"], wrong, "any"))
    other_seed.check(base, seed + 1, _result(0, pin["verdicts"], "any"))
    other_seed.check(base, seed + 1, None)
    assert other_seed.failed == 1 + 2 * len(pin["verdicts"])
