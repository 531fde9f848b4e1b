"""CLI contracts: exit codes, JSON determinism, morphism file I/O."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import daggerlab
from daggerlab import axioms
from daggerlab.cli import build_parser, main
from daggerlab.matcat import Morphism
from daggerlab.scalars import Field
from test_report_pins import PINS

SRC = Path(daggerlab.__file__).resolve().parent.parent


def test_verify_axioms_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify-axioms", "--field", "C", "--dims", "0,1,2", "--seed", "1",
                 "--trials", "10", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert [r["axiom"] for r in payload["reports"]] == ["H1", "H2", "H3", "H4", "H5"]

    code = main(["verify-axioms", "--field", "R", "--dims", "0,1,2", "--seed", "1",
                 "--trials", "10", "--format", "json", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    h5 = [r for r in payload["reports"] if r["axiom"] == "H5"][0]
    assert h5["status"] == "infeasible"
    assert h5["details"]["expected_failure"] is True

    code = main(["verify-axioms", "--field", "H", "--dims", "0,1,2", "--seed", "1",
                 "--trials", "10", "--format", "json", "--out", str(out)])
    assert code == 1


def test_bad_field_is_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-axioms", "--field", "Q"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, argv", [
    ("--trials", ["lemmas", "--field", "H", "--dims", "1", "--trials", "0"]),
    ("--trials", ["verify-axioms", "--trials", "-3"]),
    ("--max-len", ["span", "--dims", "2", "--max-len", "0"]),
    ("--tol-abs", ["verify-axioms", "--tol-abs", "nan"]),
    ("--tol-abs", ["verify-axioms", "--tol-abs=-1e-9"]),
    ("--tol-rel", ["lemmas", "--tol-rel", "inf"]),
    ("--tol-rel", ["sqrt", "--tol-rel", "-0.5"]),
    ("--seed", ["lemmas", "--seed", "-1"]),
    ("--seed", ["span", "--dims", "2", "--seed=-7"]),
])
def test_bad_flag_values_are_input_errors(flag, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


def test_lemmas_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["lemmas", "--field", "C", "--seed", "42", "--trials", "5",
            "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reconstruct_command(tmp_path):
    out = tmp_path / "rec.json"
    code = main(["reconstruct", "--field", "H", "--seed", "3", "--trials", "10",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "reconstruct"
    assert all(r["status"] == "pass" for r in payload["reports"])


def test_span_command(tmp_path):
    out = tmp_path / "span.json"
    code = main(["span", "--dims", "1,2", "--seed", "0", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    by_dim = {r["dim"]: r for r in payload["reports"]}
    assert by_dim[2]["rank"] == 8 and by_dim[2]["status"] == "pass"
    assert by_dim[1]["rank"] == 1


@pytest.mark.parametrize("argv", [
    ["verify-axioms", "--dims", "1", "--trials", "1", "--format", "json"],
    ["span", "--dims", "2"],
    ["sqrt", "--input", "UNITARY"],
])
@pytest.mark.parametrize("target", ["missing/r.json", "."])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, argv, target):
    src = tmp_path / "u.json"
    src.write_text(json.dumps(Morphism.from_complex([[1j]]).to_json()))
    out = tmp_path / target
    argv = [str(src) if a == "UNITARY" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"cannot write the report to {out}: ")


def test_only_span_offers_no_tolerances(capsys):
    for command in ("verify-axioms", "lemmas", "reconstruct", "sqrt"):
        args = build_parser().parse_args([command, "--tol-abs", "0", "--tol-rel", "0"])
        assert (args.tol_abs, args.tol_rel) == (0.0, 0.0)
    # span reads no field and no sample count either
    for flag, value in (("--tol-abs", "0"), ("--tol-rel", "0"), ("--field", "H"), ("--trials", "7")):
        with pytest.raises(SystemExit) as exc:
            main(["span", "--dims", "2", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_sqrt_command(tmp_path, capsys):
    u = Morphism.from_complex(np.diag([1.0 + 0j, -1.0 + 0j]))
    src = tmp_path / "u.json"
    src.write_text(json.dumps(u.to_json()))
    out = tmp_path / "cert.json"
    assert main(["sqrt", "--input", str(src), "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    root = Morphism.from_json(cert["root"])
    assert np.allclose(root.complex_view(), np.diag([1, 1j]), atol=1e-12)
    assert cert["residual"] <= 1e-12
    assert len(cert["interpolation_data"]) == 2


def test_sqrt_of_a_pair_straddling_the_branch_cut(tmp_path):
    # eigenvalues 1e-6 apart on either side of -1, in a random basis: the
    # two nodes get the roots +i and -i, and the root still squares to u
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    spectrum = np.exp(1j * np.array([np.pi - 5e-7, -np.pi + 5e-7, 0.4, -1.9]))
    u = Morphism.from_complex((q * spectrum) @ q.conj().T)
    src, out = tmp_path / "u.json", tmp_path / "cert.json"
    src.write_text(json.dumps(u.to_json()))
    assert main(["sqrt", "--input", str(src), "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    root = Morphism.from_json(cert["root"]).complex_view()
    assert np.linalg.norm(root @ root - u.complex_view()) <= 1e-12
    assert cert["residual"] <= 1e-12


@pytest.mark.parametrize("key, value", [
    ("dom", 1.9), ("dom", True), ("cod", "1"),
    ("entries", [[[True, 0.0]]]), ("entries", [[[1.0, "0"]]]),
])
def test_sqrt_rejects_json_values_of_the_wrong_type(tmp_path, capsys, key, value):
    # each would be read as the 1x1 identity, and its root printed
    data = {"field": "C", "dom": 1, "cod": 1, "entries": [[[1.0, 0.0]]]}
    data[key] = value
    src = tmp_path / "u.json"
    src.write_text(json.dumps(data))
    assert main(["sqrt", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad morphism input" in captured.err


def test_sqrt_malformed_json(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{ not json")
    assert main(["sqrt", "--input", str(src)]) == 2
    assert "line" in capsys.readouterr().err


def test_sqrt_non_unitary_input(tmp_path, capsys):
    m = Morphism.from_complex([[2.0 + 0j]])
    src = tmp_path / "m.json"
    src.write_text(json.dumps(m.to_json()))
    assert main(["sqrt", "--input", str(src)]) == 2


@pytest.mark.parametrize("entry, flags, reason", [
    (2.0, [], "input is not unitary"),
    (1.1, ["--tol-rel", "1"], "spectrum is not on the unit circle"),
])
def test_sqrt_names_why_its_input_has_no_strict_root(tmp_path, capsys, entry, flags, reason):
    src = tmp_path / "m.json"
    src.write_text(json.dumps(Morphism.from_complex([[entry + 0j]]).to_json()))
    assert main(["sqrt", "--input", str(src), *flags]) == 2
    assert capsys.readouterr().err == f"cannot take a strict square root: {reason}\n"


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("DAGGERLAB_SEED", "42")
    a = tmp_path / "env.json"
    assert main(["lemmas", "--field", "C", "--trials", "5", "--format", "json",
                 "--out", str(a)]) == 0
    b = tmp_path / "explicit.json"
    assert main(["lemmas", "--field", "C", "--seed", "42", "--trials", "5",
                 "--format", "json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_seed_env_is_input_error(monkeypatch, capsys):
    monkeypatch.setenv("DAGGERLAB_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--field", "C", "--trials", "1"])
    assert exc.value.code == 2
    assert "argument --seed: bad integer 'abc'" in capsys.readouterr().err

    monkeypatch.setenv("DAGGERLAB_SEED", "-3")
    with pytest.raises(SystemExit) as exc:
        main(["span", "--dims", "2"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -3" in capsys.readouterr().err


def test_bad_seed_env_leaves_sqrt_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("DAGGERLAB_SEED", "abc")
    src = tmp_path / "u.json"
    src.write_text(json.dumps(Morphism.from_complex([[1j]]).to_json()))
    assert main(["sqrt", "--input", str(src), "--out", str(tmp_path / "cert.json")]) == 0


@pytest.mark.parametrize("dims", ["0", "0,0"])
def test_span_without_positive_dimension_is_input_error(dims, capsys):
    assert main(["span", "--dims", dims, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least one dimension of 1 or more" in captured.err


def test_cli_import_loads_no_scipy():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import daggerlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print('numpy.random' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[:2] == ["[]", "True"]


def _fresh_env(threads):
    """The test's environment with the package's source on the path and
    OPENBLAS_NUM_THREADS removed (None) or set to `threads`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_cli_import_pins_one_blas_thread_unless_the_caller_set_one(preset, seen):
    code = "import os, daggerlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(preset),
                         capture_output=True, text=True, check=True).stdout
    assert out == seen + "\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(threads):
    # R at dims 0..12 runs the largest SVDs of the pins, which wake threaded
    # LAPACK; H at dims 0..8 folds the largest commutator blocks by QR
    for field in ("R", "H"):
        [(argv, sha256, code)] = [p for p in PINS
                                  if p[0][:4] == ["verify-axioms", "--field", field, "--dims"]]
        run = subprocess.run([sys.executable, "-m", "daggerlab.cli", *argv, "--seed", "42",
                              "--format", "json"], env=_fresh_env(threads), capture_output=True)
        assert (hashlib.sha256(run.stdout).hexdigest(), run.returncode) == (sha256, code), field


def test_text_format_streams_lines(capsys):
    code = main(["span", "--dims", "2", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rank=8/8" in out


def test_crashing_check_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    # an empty diagram has no greatest node: a structural raise of the
    # colimit construction, not a verdict on the category
    empty = axioms.DirectedDiagram(Field.COMPLEX, (), frozenset(), {}, {})
    monkeypatch.setattr(axioms, "random_directed_diagram", lambda field, rng: empty)
    out = tmp_path / "r.json"
    argv = ["verify-axioms", "--field", "C", "--dims", "1,2", "--trials", "2", "--seed", "42"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 3
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    errors = [r for r in payload["reports"] if r["status"] == "error"]
    assert [r["axiom"] for r in errors] == ["H2"]
    assert errors[0]["details"]["error"].startswith("DomainError: a finite directed poset")
    assert [r["axiom"] for r in payload["reports"]] == ["H1", "H2", "H3", "H4", "H5"]
    assert "Traceback" not in capsys.readouterr().err

    assert main(argv) == 3
    text = capsys.readouterr().out
    assert "[ERROR] H2 " in text and "RAISED" in text.splitlines()[-1]


def test_zero_tolerances_give_verdicts_not_errors(tmp_path):
    # every residual of rounding size now fails where a library guard
    # raised before; H1's canonical biproducts are exact
    out = tmp_path / "r.json"
    argv = ["verify-axioms", "--field", "C", "--dims", "1,2", "--trials", "2",
            "--tol-abs", "0", "--tol-rel", "0", "--seed", "42"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 1
    statuses = {r["axiom"]: r["status"] for r in json.loads(out.read_text())["reports"]}
    assert statuses == {"H1": "pass", "H2": "fail", "H3": "fail", "H4": "fail", "H5": "fail"}


def test_check_that_draws_no_sample_exits_3(tmp_path, capsys):
    # At this seed the one trial of biproduct.nfold-injections-orthonormal
    # draws n = 0 copies, which has no residual to measure.
    out = tmp_path / "r.json"
    argv = ["lemmas", "--field", "C", "--trials", "1", "--seed", "12"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 3
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    errors = [r for r in payload["reports"] if r["status"] == "error"]
    assert errors == [{
        "axiom": "biproduct.nfold-injections-orthonormal",
        "field": "C",
        "status": "error",
        "residual": 0.0,
        "witness": None,
        "details": {"error": "no sample drawn"},
    }]
    assert {r["status"] for r in payload["reports"]} == {"pass", "error"}


@pytest.mark.parametrize("field, dom, reason", [("Q", 1, "unknown field"),
                                                ("C", -1, "natural number")])
def test_sqrt_input_outside_the_domain_is_input_error(tmp_path, capsys, field, dom, reason):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"field": field, "dom": dom, "cod": 1, "entries": [[]]}))
    assert main(["sqrt", "--input", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad morphism input: ") and reason in err


def test_sampler_error_in_a_campaign_check_exits_3(tmp_path, capsys, monkeypatch):
    from daggerlab import campaigns
    from daggerlab.matcat import ZERO_OBJ

    # with the unit object taken for the zero object, the check asks for
    # a unit column of the zero object, which does not exist
    check = campaigns.check_small_objects_distinct
    monkeypatch.setattr(campaigns, "UNIT", ZERO_OBJ)
    monkeypatch.setattr(campaigns, "lemma_checks", lambda field: [check])
    out = tmp_path / "r.json"
    argv = ["lemmas", "--field", "R", "--trials", "2", "--seed", "1"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 3
    (report,) = json.loads(out.read_text())["reports"]
    assert report["axiom"] == "matcat.small-objects-pairwise-distinct"
    assert report["status"] == "error"
    assert report["details"] == {"error": "NoMorphismError: the zero object carries no unit column"}
    assert "Traceback" not in capsys.readouterr().err
