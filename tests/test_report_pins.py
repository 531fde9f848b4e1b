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
     "aefa9929209642822ad15bcabc387e107ba73e6bd5d404f5e9dc8878f69b1ee0", 0),
    (["lemmas", "--field", "R", "--trials", "20"],
     "bed7bbdeb43dce089a6d34cf930b428ad9dcea8f159f9f55fab91ad7b694c17b", 0),
    (["lemmas", "--field", "H", "--trials", "30"],
     "be73c8f5270fe6dc090953c2089858ee1350f445983505b8dac3929fa74a3841", 0),
    (["lemmas", "--field", "C", "--trials", "1", "--seed", "12"],
     "5bf6e743b13678d5c905ada2c79b5da91e39df7fb51fd2f2034dbe219d8a5505", 3),
    (["reconstruct", "--field", "C", "--trials", "20"],
     "c0c12d065979d530e5856b93cac6fc1f91436cbf8156ca4b20ae715d9a5c7392", 0),
    (["reconstruct", "--field", "H", "--trials", "20"],
     "6b5bb4d543eedb6b98fcc2118c133cc3126e9733a45d7c0b3b7c89b75c5e42d2", 0),
    (["verify-axioms", "--field", "R", "--dims", _dims(0, 12), "--trials", "5"],
     "55c053441aff9875648c0966a9fdb1dc72ed42d1b6e8253940723961873ad742", 1),
    (["verify-axioms", "--field", "H", "--dims", _dims(0, 8), "--trials", "5"],
     "6209386d4761b82f843b631a3af9c259235854314e827d055c58b1f65eb9e709", 1),
    (["verify-axioms", "--field", "C", "--dims", _dims(0, 6), "--trials", "5"],
     "5d3a608ce157c654184f8ada63f68de30ab5a44cd2214cf673639bef393ef883", 0),
    (["verify-axioms", "--field", "C", "--dims", "1,2", "--trials", "2",
      "--tol-abs", "0", "--tol-rel", "0"],
     "03d3c3990ff0f166dfaa16d80209e0836117ece5ab8a3be3ea996edec0764865", 3),
    (["span", "--dims", _dims(2, 7)],
     "9f00bd58c32c2a4541d91fc6b6b6ad1009821bd60341e0b990dbc75c3b04b497", 0),
]


@pytest.mark.parametrize("argv, sha256, code", PINS, ids=[" ".join(p[0]) for p in PINS])
def test_report_bytes_and_exit_code_are_pinned(capsys, argv, sha256, code):
    if "--seed" not in argv:
        argv = [*argv, "--seed", "42"]
    argv = [*argv, "--format", "json"]
    matcat._identity.cache_clear()
    biproduct._diagonal_pair.cache_clear()
    for cache in ("cold", "warm"):
        exit_code = main(argv)
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest(), exit_code) == (sha256, code), cache
