"""Report bytes of eleven fixed runs, pinned by sha256 and exit code.

Each argv runs through `cli.main` in-process at seed 42 in JSON format,
twice: first with the identity and diagonal-pair caches emptied, then
with them filled by the first run.  A speedup must leave every byte of
every report, and every exit code, as it is.
"""

import hashlib

import pytest

from daggerlab import biproduct, matcat
from daggerlab.cli import main


def _dims(first, last):
    return ",".join(str(d) for d in range(first, last + 1))


PINS = [
    (["lemmas", "--field", "C", "--trials", "20"],
     "74507a5a550de80c027de5276cf6b82f91ebc107b2448dd3751d2fc57c813529", 0),
    (["lemmas", "--field", "R", "--trials", "20"],
     "1b5ff7029d15dcfe005d80835d54493d9f13851640f1c810ae821f05f09bd7a5", 0),
    (["lemmas", "--field", "H", "--trials", "30"],
     "732b404cf811ef07c9c5d52b2884719f93d510c131712e91478ab27279de559a", 0),
    (["lemmas", "--field", "C", "--trials", "1", "--seed", "12"],
     "21ccb8de6b36edebe753d53759bca24dc6072e307427bd7697f82c9696cf4a3e", 3),
    (["reconstruct", "--field", "C", "--trials", "20"],
     "ec0fab813b0cf20435d3923100333644f56a11957786a6d4574ce51b72152243", 0),
    (["reconstruct", "--field", "H", "--trials", "20"],
     "e2e6bd37655131face3841649df6c37181b9ab0ef11b70a3d8879efa58d5926e", 0),
    (["verify-axioms", "--field", "R", "--dims", _dims(0, 12), "--trials", "5"],
     "7be57e57edc7910f742fd389553fae41c6c9f63e228019cd23ad3e1d7bc9b6fd", 1),
    (["verify-axioms", "--field", "H", "--dims", _dims(0, 8), "--trials", "5"],
     "b77e2381f21b8627ed12e8a730ef8a90c95469aa8cfd664ea60ca3ef31ed9d4d", 1),
    (["verify-axioms", "--field", "C", "--dims", _dims(0, 6), "--trials", "5"],
     "36b30ad39f55adfc62a44bbdbb90472eac7a09215a601adad2112672c1bbbbfd", 0),
    (["verify-axioms", "--field", "C", "--dims", "1,2", "--trials", "2",
      "--tol-abs", "0", "--tol-rel", "0"],
     "03d3c3990ff0f166dfaa16d80209e0836117ece5ab8a3be3ea996edec0764865", 3),
    (["span", "--dims", _dims(2, 7)],
     "995fd41519bdafb10b7ad0a1650143448fda63b9034ebba596ff94eec76d0fce", 0),
]


@pytest.mark.parametrize("argv, sha256, code", PINS, ids=[" ".join(p[0]) for p in PINS])
def test_report_bytes_and_exit_code_are_pinned(capsys, argv, sha256, code):
    if "--seed" not in argv:
        argv = [*argv, "--seed", "42"]
    argv = [*argv, "--format", "json"]
    matcat._IDENTITIES.clear()
    biproduct._DIAGONAL_PAIRS.clear()
    for cache in ("cold", "warm"):
        exit_code = main(argv)
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest(), exit_code) == (sha256, code), cache
