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
     "098be715686953b571a2974a9481e8c9d404610c71b50c494d8700fb4ae63841", 0),
    (["lemmas", "--field", "R", "--trials", "20"],
     "bc685bacb11b40176074a9837d7c6ae3b7dbe1ecbf8f342da853a75d1552520a", 0),
    (["lemmas", "--field", "H", "--trials", "30"],
     "d25885267fa7beee3828033f2f0951f9488e4ecda166a8109b99ec902cd95345", 0),
    (["lemmas", "--field", "C", "--trials", "1", "--seed", "12"],
     "e861cb6173e840935f169e5197cf8c7b3f294b2f592b4e1a1af0718d8563ca28", 3),
    (["reconstruct", "--field", "C", "--trials", "20"],
     "c0c12d065979d530e5856b93cac6fc1f91436cbf8156ca4b20ae715d9a5c7392", 0),
    (["reconstruct", "--field", "H", "--trials", "20"],
     "c4d578b273e10ef51f3309ea13a70634c482d56b513b214786eac9390a1a8b6f", 0),
    (["verify-axioms", "--field", "R", "--dims", _dims(0, 12), "--trials", "5"],
     "55c053441aff9875648c0966a9fdb1dc72ed42d1b6e8253940723961873ad742", 1),
    (["verify-axioms", "--field", "H", "--dims", _dims(0, 8), "--trials", "5"],
     "6209386d4761b82f843b631a3af9c259235854314e827d055c58b1f65eb9e709", 1),
    (["verify-axioms", "--field", "C", "--dims", _dims(0, 6), "--trials", "5"],
     "5d3a608ce157c654184f8ada63f68de30ab5a44cd2214cf673639bef393ef883", 0),
    (["verify-axioms", "--field", "C", "--dims", "1,2", "--trials", "2",
      "--tol-abs", "0", "--tol-rel", "0"],
     "bf46fdfe64123aed1692e635c5d54647db6482ef366bad8fe117c072bd41e492", 1),
    (["span", "--dims", _dims(2, 7)],
     "8d8e23f85b0577cfcbfa8c6d9284937dcd3cca6626cb7698149d396c5ed4f795", 0),
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
