"""Scalar arithmetic for the three classical involutive division rings.

Every scalar is stored as four raw real components (w, x, y, z), read as
w + xi + yj + zk.  Real and complex scalars are the sub-rings where the
trailing components are exactly zero, so conjugation and multiplication
are the quaternion formulas for all three fields.
Matrices do not store scalars: `matcat` keeps one native array per field
(a real or complex number per entry, or over H the 2x2 complex block
[[w + xi, y + zi], [-y + zi, w - xi]]), and its `entry` and `scalar`
read these four components back out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, FieldMismatchError, NonInvertibleError


class Field(enum.Enum):
    """Ambient scalar field selector."""

    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"

    # Members are singletons compared by identity, so hashing by
    # identity is consistent with equality and, unlike Enum's hash of
    # the member name, costs no Python call in every dict keyed by a
    # field.
    __hash__ = object.__hash__

    @property
    def width(self) -> int:
        """Number of real components a scalar of this field carries."""
        return _WIDTHS[self]

    @classmethod
    def from_name(cls, name: str) -> "Field":
        for f in cls:
            if f.value == name:
                return f
        raise DomainError(f"unknown field {name!r}, expected one of R, C, H")


ALL_FIELDS = (Field.REAL, Field.COMPLEX, Field.QUATERNION)
_WIDTHS = {Field.REAL: 1, Field.COMPLEX: 2, Field.QUATERNION: 4}


@dataclass(frozen=True)
class TolerancePolicy:
    """Mixed absolute/relative comparison used by every approximate check:
    a residual passes iff it is <= bound(|a|, |b|), that is
    abs_eps + rel_eps * max(|a|, |b|).
    """

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def bound(self, *magnitudes: float) -> float:
        return self.abs_eps + self.rel_eps * max(magnitudes, default=0.0)


DEFAULT_TOL = TolerancePolicy()


@dataclass(frozen=True)
class Scalar:
    """Element of R, C or H with four raw real components.

    Components beyond the field's width must be exactly zero; the
    constructor enforces this.
    """

    field: Field
    w: float
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        comps = self.components()
        if any(c != 0.0 for c in comps[self.field.width:]):
            raise FieldMismatchError(
                f"components {comps} exceed the width of field {self.field.value}"
            )

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def to_json(self) -> list[float]:
        """Array of 1/2/4 numbers matching the field width."""
        return list(self.components()[: self.field.width])

    @classmethod
    def from_json(cls, field: Field, comps: list[float]) -> "Scalar":
        if len(comps) != field.width:
            raise FieldMismatchError(
                f"expected {field.width} components for field {field.value}, got {len(comps)}"
            )
        if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in comps):
            raise DomainError(f"scalar components must be numbers, not {comps!r}")
        padded = list(comps) + [0.0] * (4 - len(comps))
        return cls(field, *padded)


def one(field: Field) -> Scalar:
    return Scalar(field, 1.0)


def _require_same_field(a: Scalar, b: Scalar) -> None:
    if a.field is not b.field:
        raise FieldMismatchError(f"{a.field.value} vs {b.field.value}")


def conj(a: Scalar) -> Scalar:
    """Involution: identity on R, standard conjugation on C and H."""
    return Scalar(a.field, a.w, -a.x, -a.y, -a.z)


def mul(a: Scalar, b: Scalar) -> Scalar:
    """Hamilton product; restricts to complex/real multiplication."""
    _require_same_field(a, b)
    return Scalar(
        a.field,
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def norm(a: Scalar) -> float:
    return math.sqrt(a.w * a.w + a.x * a.x + a.y * a.y + a.z * a.z)


def distance(a: Scalar, b: Scalar) -> float:
    _require_same_field(a, b)
    return math.sqrt(
        (a.w - b.w) ** 2 + (a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2
    )


def inv(a: Scalar, tol: TolerancePolicy = DEFAULT_TOL) -> Scalar:
    """Two-sided inverse, a^-1 = conj(a) / |a|^2."""
    n = norm(a)
    if n <= tol.abs_eps:
        raise NonInvertibleError(f"scalar of norm {n:.3e} is not invertible")
    c = conj(a)
    s = 1.0 / (n * n)
    return Scalar(a.field, c.w * s, c.x * s, c.y * s, c.z * s)
