"""Finite-dimensional matrix dagger categories over R, C and H.

Objects are dimensions, morphisms are matrices, the dagger is the
conjugate transpose.  The package implements dagger biproducts with the
derived semiadditive structure, the five structural axioms with their
verifiers (including spectral strict square roots over C and the scalar
obstruction over R and H), the reconstruction of the scalars and the
Hermitian-space structure from unit-object columns, and projection-word
saturation campaigns, all driven by a seeded CLI.
"""

import os

# OpenBLAS reads this once, when numpy loads it; matrices here never need a second thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .matcat import Morphism, Obj, UNIT, ZERO_OBJ, compose, frobenius_distance
from .scalars import Field, Scalar, TolerancePolicy, DEFAULT_TOL

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Scalar",
    "TolerancePolicy",
    "DEFAULT_TOL",
    "Morphism",
    "Obj",
    "UNIT",
    "ZERO_OBJ",
    "compose",
    "frobenius_distance",
    "__version__",
]
