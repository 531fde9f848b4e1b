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
     "e472313226e86e748afae11baa6beb9d4d004af05fa24bb1d2830379ea007351", 0),
    (["lemmas", "--field", "R", "--trials", "20"],
     "bc685bacb11b40176074a9837d7c6ae3b7dbe1ecbf8f342da853a75d1552520a", 0),
    (["lemmas", "--field", "H", "--trials", "30"],
     "d25885267fa7beee3828033f2f0951f9488e4ecda166a8109b99ec902cd95345", 0),
    (["lemmas", "--field", "C", "--trials", "1", "--seed", "12"],
     "5c46c46d6eec40e87e4af282b17580f1825e064aede94e86b93d9e8df90366d5", 0),
    (["reconstruct", "--field", "C", "--trials", "20"],
     "c0c12d065979d530e5856b93cac6fc1f91436cbf8156ca4b20ae715d9a5c7392", 0),
    (["reconstruct", "--field", "H", "--trials", "20"],
     "c4d578b273e10ef51f3309ea13a70634c482d56b513b214786eac9390a1a8b6f", 0),
    (["verify-axioms", "--field", "R", "--dims", _dims(0, 12), "--trials", "5"],
     "a7db6a768b74d7205a6530e219d0bf3fb7a3b1648f14c16d9377fec9c2f6eef4", 1),
    (["verify-axioms", "--field", "H", "--dims", _dims(0, 8), "--trials", "5"],
     "0e0be8966e275095bb75527c51e14437f4ad5a20b9642888e18ccbe24457bed0", 1),
    (["verify-axioms", "--field", "C", "--dims", _dims(0, 6), "--trials", "5"],
     "3a244e49b194b1844407e55869fca9503ac9d24d18ec89875e744ca809190ebc", 0),
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
