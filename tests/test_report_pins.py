"""Report bytes of twelve fixed runs, pinned by sha256 and exit code.

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
     "dee2b5f103bb0c3ba45412adb44729dc39c1fb1c15785bad1c3e877afd8ee62a", 0),
    (["lemmas", "--field", "R", "--trials", "20"],
     "93146286be491ad45221a20bfe9c828e28ac53f93a3a5afbf31dec6a88e0b012", 0),
    (["lemmas", "--field", "H", "--trials", "30"],
     "4f3fbf6774449799790eb50092c854742a92b3865be572347a7e0d86da071468", 0),
    (["lemmas", "--field", "C", "--trials", "1", "--seed", "12"],
     "6f5c716dbe7e32dab5a199fca1da76720845ff956e6f8974aab2322b00b623f5", 0),
    (["reconstruct", "--field", "C", "--trials", "20"],
     "c0c12d065979d530e5856b93cac6fc1f91436cbf8156ca4b20ae715d9a5c7392", 0),
    (["reconstruct", "--field", "H", "--trials", "20"],
     "c4d578b273e10ef51f3309ea13a70634c482d56b513b214786eac9390a1a8b6f", 0),
    (["verify-axioms", "--field", "R", "--dims", _dims(0, 12), "--trials", "5"],
     "d9d04702bea5805cab60de3724bd7d935d7986325b0f93f9945ffc98fbcf1759", 1),
    (["verify-axioms", "--field", "H", "--dims", _dims(0, 8), "--trials", "5"],
     "1d9505564c24cc577f3cefec5e1191c29fa1188dc8b19dd42b363ff5010eaab1", 1),
    (["verify-axioms", "--field", "C", "--dims", _dims(0, 6), "--trials", "5"],
     "03972012ac1c07af33ab52a3c360e43e40665bb3ee77582ca09d34e1db30a79b", 0),
    (["verify-axioms", "--field", "C", "--dims", "1,2", "--trials", "2",
      "--tol-abs", "0", "--tol-rel", "0"],
     "bf46fdfe64123aed1692e635c5d54647db6482ef366bad8fe117c072bd41e492", 1),
    (["verify-axioms", "--field", "C", "--trials", "5", "--tol-abs", "1e-2", "--tol-rel", "1e-2"],
     "ce4cf06dcf930442caed4c464c679148eaaf21b17718ce8898b3f2a0fdd0ca46", 0),
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
