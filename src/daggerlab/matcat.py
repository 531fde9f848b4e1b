"""The concrete dagger category: objects are finite dimensions, morphisms
are matrices over R, C or H, and the dagger is the conjugate transpose.

Matrices act on column vectors.  Each field keeps one native array, and
only this module reads or writes a morphism's array:

- R: a float64 (cod, dom) array;
- C: a complex128 (cod, dom) array;
- H: a complex128 (2 cod, 2 dom) array in the complex adjoint
  representation, where the entry w + xi + yj + zk is the 2x2 block
  [[w + xi, y + zi], [-y + zi, w - xi]].

The complex adjoint map is an injective *-homomorphism, so for every
field composition is one matrix product and the dagger one conjugate
transpose.  Its Frobenius norm counts every quaternion entry twice, so
`norm` and `frobenius_distance` divide by sqrt(2) over H.  The public
boundary is a (cod, dom, 4) array of quaternion components: the
constructor takes it, `entries` derives it, and the JSON format stores
it.  A caller that works on many morphisms at once may take a stack of
their native arrays (`native_stack`, `coordinate_projections`, or
`component_stack` from drawn components), which it only slices,
concatenates, multiplies and subtracts, and hand it back to
`stack_norms`, `unit_columns`, `outer_products`, `commuting`,
`rank1_commutant_map` and `unstack`.
Scalars act on columns from the right (a 1x1 morphism composed after
the column), which keeps the quaternionic module structure free of
left/right ambiguity.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

import numpy as np

from .errors import DomainError, FieldMismatchError, ShapeMismatchError
from .scalars import DEFAULT_TOL, Field, Scalar, TolerancePolicy


class Obj:
    """Object of the category: a dimension.  dim 0 is the zero object,
    dim 1 the dagger simple unit.

    Interned: Obj(n) is one shared immutable instance per n, so every
    block construction gets its objects from a dict lookup.  Equality,
    hash and repr are those of a frozen dataclass with one field `dim`.
    The dimension is any integer type (`operator.index`) but bool and is
    stored as an int, so Obj(np.int64(n)) is Obj(n).
    """

    __slots__ = ("dim",)

    def __new__(cls, dim: int) -> "Obj":
        if dim.__class__ is not int:
            try:
                if isinstance(dim, bool):  # operator.index(True) is 1
                    raise TypeError
                dim = operator.index(dim)
            except TypeError:
                raise DomainError(
                    f"object dimension must be a natural number, not {dim!r}"
                ) from None
        obj = _OBJS.get(dim)
        if obj is None:
            if dim < 0:
                raise DomainError(f"object dimension must be a natural number, not {dim}")
            obj = object.__new__(cls)
            _set_dim(obj, dim)
            _OBJS[dim] = obj
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Obj is immutable")

    def __delattr__(self, name):
        raise AttributeError("Obj is immutable")

    def __reduce__(self):
        return Obj, (self.dim,)

    def __eq__(self, other):
        if other.__class__ is Obj:
            return self.dim == other.dim
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim,))

    def __repr__(self) -> str:
        return f"Obj(dim={self.dim!r})"


_OBJS: dict[int, Obj] = {}
_set_dim = Obj.dim.__set__

ZERO_OBJ = Obj(0)
UNIT = Obj(1)


def _block(field: Field) -> int:
    """Side of the native block holding one entry."""
    return 2 if field is Field.QUATERNION else 1


def _span(field: Field, start: int, count: int) -> slice:
    """Native rows (or columns) of `count` object coordinates from `start`."""
    s = _block(field)
    return slice(s * start, s * (start + count))


def _dtype(field: Field) -> type:
    return np.float64 if field is Field.REAL else np.complex128


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, np.complex128)
    out.real = re
    out.imag = im
    return out


def _native(field: Field, e: np.ndarray) -> np.ndarray:
    """Native array of a (cod, dom, >= width) component array."""
    if field is Field.REAL:
        return np.array(e[..., 0])
    a = _complex(e[..., 0], e[..., 1])
    if field is Field.COMPLEX:
        return a
    return _adjoint(a, _complex(e[..., 2], e[..., 3]))


def _adjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex adjoint array of the quaternion matrix a + b j (over the
    last two axes)."""
    out = np.empty(a.shape[:-2] + (2 * a.shape[-2], 2 * a.shape[-1]), np.complex128)
    out[..., 0::2, 0::2] = a
    out[..., 0::2, 1::2] = b
    out[..., 1::2, 0::2] = -b.conj()
    out[..., 1::2, 1::2] = a.conj()
    return out


def _components(field: Field, a: np.ndarray) -> np.ndarray:
    """(..., cod, dom, 4) quaternion components of a native array, or of
    a stack of them along leading axes."""
    s = _block(field)
    e = np.zeros(a.shape[:-2] + (a.shape[-2] // s, a.shape[-1] // s, 4))
    if field is Field.REAL:
        e[..., 0] = a
    else:
        top = a[..., ::s, :]  # the first row of each block holds the entry
        for k in range(s):
            e[..., 2 * k] = top[..., k::s].real
            e[..., 2 * k + 1] = top[..., k::s].imag
    return e


def _sq_norm(field: Field, a: np.ndarray) -> float:
    """Squared Frobenius norm of the matrix a native array stands for."""
    return float(np.vdot(a, a).real) / _block(field)


class Morphism:
    """A matrix with explicit domain and codomain over a fixed field."""

    __slots__ = ("field", "dom", "cod", "_a")

    def __init__(self, field: Field, dom: Obj, cod: Obj, entries: np.ndarray):
        """Build from a (cod, dom, 4) array of quaternion components;
        components beyond the field's width must be exactly zero."""
        entries = np.asarray(entries, dtype=np.float64)
        if entries.shape != (cod.dim, dom.dim, 4):
            raise ShapeMismatchError(
                f"entries shape {entries.shape} != {(cod.dim, dom.dim, 4)}"
            )
        if entries[..., field.width:].any():
            raise FieldMismatchError(
                f"nonzero components beyond the width of field {field.value}"
            )
        _set_field(self, field)
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_a(self, _native(field, entries))

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: Field, dom: Obj, cod: Obj) -> "Morphism":
        s = _block(field)
        return _wrap(field, dom, cod, np.zeros((s * cod.dim, s * dom.dim), _dtype(field)))

    @classmethod
    def identity(cls, field: Field, obj: Obj) -> "Morphism":
        """Cached per (field, dimension) by `_identity` and read-only, so
        no caller can corrupt the shared array."""
        return _identity(field, obj.dim)

    @classmethod
    def from_real(cls, field: Field, mat: np.ndarray | Sequence[Sequence[float]]) -> "Morphism":
        """Real matrix embedded in any of the three fields."""
        mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
        s = _block(field)
        a = np.zeros((s * mat.shape[0], s * mat.shape[1]), _dtype(field))
        for k in range(s):
            a[k::s, k::s] = mat
        return _wrap(field, Obj(mat.shape[1]), Obj(mat.shape[0]), a)

    @classmethod
    def from_complex(cls, mat: np.ndarray | Sequence[Sequence[complex]]) -> "Morphism":
        mat = np.atleast_2d(np.array(mat, dtype=np.complex128))
        return _wrap(Field.COMPLEX, Obj(mat.shape[1]), Obj(mat.shape[0]), mat)

    @classmethod
    def from_scalars(cls, field: Field, rows: Sequence[Sequence[Scalar]]) -> "Morphism":
        cod = len(rows)
        dom = len(rows[0]) if rows else 0
        e = np.zeros((cod, dom, 4))
        for i, row in enumerate(rows):
            if len(row) != dom:
                raise ShapeMismatchError("ragged rows")
            for j, s in enumerate(row):
                if s.field is not field:
                    raise FieldMismatchError("entry field differs from matrix field")
                e[i, j] = s.components()
        return _wrap(field, Obj(dom), Obj(cod), _native(field, e))

    @classmethod
    def single(cls, s: Scalar) -> "Morphism":
        """1x1 morphism carrying one scalar."""
        return cls.from_scalars(s.field, [[s]])

    # -- views ----------------------------------------------------------

    @property
    def entries(self) -> np.ndarray:
        """Read-only (cod, dom, 4) array of quaternion components."""
        e = _components(self.field, self._a)
        e.flags.writeable = False
        return e

    def complex_view(self) -> np.ndarray:
        """Read-only (cod, dom) complex matrix; valid for R and C entries."""
        if self.field is Field.QUATERNION:
            raise FieldMismatchError("quaternion matrix has no complex view")
        view = self._a.astype(np.complex128, copy=False).view()
        view.flags.writeable = False
        return view

    def scalar(self) -> Scalar:
        """The single entry of a 1x1 morphism."""
        if (self.cod.dim, self.dom.dim) != (1, 1):
            raise ShapeMismatchError("not a 1x1 morphism")
        return self.entry(0, 0)

    def entry(self, i: int, j: int) -> Scalar:
        _check_index("row", i, self.cod)
        _check_index("column", j, self.dom)
        top = self._a[_block(self.field) * i, _span(self.field, j, 1)]
        return Scalar(self.field, *(c for z in top for c in (z.real, z.imag)))

    def col(self, j: int) -> "Morphism":
        """j-th column as a morphism from the unit object (a view)."""
        _check_index("column", j, self.dom)
        return _wrap(self.field, UNIT, self.cod, self._a[:, _span(self.field, j, 1)])

    def row(self, i: int) -> "Morphism":
        """i-th row as a morphism into the unit object (a view)."""
        _check_index("row", i, self.cod)
        return _wrap(self.field, self.dom, UNIT, self._a[_span(self.field, i, 1), :])

    # -- algebra ----------------------------------------------------------

    def dagger(self) -> "Morphism":
        return _wrap(self.field, self.cod, self.dom, self._a.conj().T)

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return compose(self, other)

    def norm(self) -> float:
        return math.sqrt(_sq_norm(self.field, self._a))

    def __repr__(self) -> str:
        return (
            f"Morphism({self.field.value}, {self.dom.dim}->{self.cod.dim})"
        )

    # -- JSON -------------------------------------------------------------

    def to_json(self) -> dict:
        w = self.field.width
        e = self.entries
        return {
            "field": self.field.value,
            "dom": self.dom.dim,
            "cod": self.cod.dim,
            "entries": [
                [[float(c) for c in e[i, j, :w]] for j in range(self.dom.dim)]
                for i in range(self.cod.dim)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Morphism":
        field = Field.from_name(data["field"])
        dims = data["dom"], data["cod"]
        if not all(type(d) is int for d in dims):  # not bool, float or str
            raise DomainError(f"dom and cod must be JSON integers, not {dims!r}")
        dom, cod = Obj(dims[0]), Obj(dims[1])
        e = np.zeros((cod.dim, dom.dim, 4))
        rows = data["entries"]
        if len(rows) != cod.dim:
            raise ShapeMismatchError("row count != cod")
        for i, row in enumerate(rows):
            if len(row) != dom.dim:
                raise ShapeMismatchError("column count != dom")
            for j, comps in enumerate(row):
                e[i, j] = Scalar.from_json(field, comps).components()
        return cls(field, dom, cod, e)


# Morphism.__setattr__ refuses every write, so the constructors set the
# slots through their descriptors, which is also cheaper than
# object.__setattr__.
_set_field = Morphism.field.__set__
_set_dom = Morphism.dom.__set__
_set_cod = Morphism.cod.__set__
_set_a = Morphism._a.__set__


@functools.lru_cache(maxsize=256)
def _identity(field: Field, dim: int) -> Morphism:
    """The identity of Obj(dim), keyed by the dimension rather than the
    Obj because an int hashes faster."""
    x = Obj(dim)
    return read_only(_wrap(field, x, x, np.eye(_block(field) * dim, dtype=_dtype(field))))


def _check_index(kind: str, k: int, obj: Obj) -> None:
    if not 0 <= k < obj.dim:
        raise ShapeMismatchError(f"{kind} index {k} out of range for dimension {obj.dim}")


def _wrap(field: Field, dom: Obj, cod: Obj, a: np.ndarray) -> Morphism:
    """Morphism around a native array, without boundary checks."""
    m = object.__new__(Morphism)
    _set_field(m, field)
    _set_dom(m, dom)
    _set_cod(m, cod)
    _set_a(m, a)
    return m


def from_components(field: Field, dom: Obj, cod: Obj, comps: np.ndarray) -> Morphism:
    """The morphism dom -> cod whose entries have the leading components
    comps[i, j, :width], as a sampler draws them: a (cod, dom, width)
    array needs no check for nonzero components beyond the width."""
    if comps.shape != (cod.dim, dom.dim, field.width):
        raise ShapeMismatchError(
            f"components shape {comps.shape} != {(cod.dim, dom.dim, field.width)}"
        )
    return _wrap(field, dom, cod, _native(field, comps))


def direct_sum(f: Morphism, g: Morphism) -> Morphism:
    """The block-diagonal f (+) g: f and g written into one zero array."""
    if f.field is not g.field:
        raise FieldMismatchError(f"{f.field.value} vs {g.field.value}")
    rows, cols = f._a.shape
    a = np.zeros((rows + g._a.shape[0], cols + g._a.shape[1]), _dtype(f.field))
    a[:rows, :cols] = f._a
    a[rows:, cols:] = g._a
    return _wrap(f.field, Obj(f.dom.dim + g.dom.dim), Obj(f.cod.dim + g.cod.dim), a)


def column_block(ms: Sequence[Morphism]) -> Morphism:
    """[m_1, ..., m_n]: morphisms of one field and codomain side by side,
    one concatenation of their native arrays."""
    if not ms:
        raise ShapeMismatchError("a column block needs at least one morphism")
    field, cod = ms[0].field, ms[0].cod
    for m in ms:
        if m.field is not field:
            raise FieldMismatchError(f"{m.field.value} vs {field.value}")
        if m.cod.dim != cod.dim:
            raise ShapeMismatchError("column block requires a common codomain")
    a = np.concatenate([m._a for m in ms], axis=1)
    return _wrap(field, Obj(sum(m.dom.dim for m in ms)), cod, a)


def range_component(q: Morphism, q_dagger: Morphism, u: Morphism, s: Morphism) -> Morphism:
    """q . ((q_dagger . u) . s), for q_dagger the dagger of q: the part of
    u in the range of an isometry q, times the 1x1 scalar s on the right.
    The three compositions are the native products in this order, and
    only the result is wrapped."""
    if not (q.field is q_dagger.field is u.field is s.field):
        raise FieldMismatchError(
            f"{q.field.value}, {q_dagger.field.value}, {u.field.value}, {s.field.value}"
        )
    if q_dagger.dom.dim != u.cod.dim or s.cod.dim != u.dom.dim or q.dom.dim != q_dagger.cod.dim:
        raise ShapeMismatchError(
            f"cannot project {u.dom.dim}->{u.cod.dim} on the range of "
            f"{q.dom.dim}->{q.cod.dim} and scale it by {s.dom.dim}->{s.cod.dim}"
        )
    return _wrap(q.field, s.dom, q.cod, q._a @ ((q_dagger._a @ u._a) @ s._a))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f: one matrix product of the native arrays."""
    if g.field is not f.field:
        raise FieldMismatchError(f"{g.field.value} vs {f.field.value}")
    if f.cod.dim != g.dom.dim:  # the dimension is the object, and cheaper to compare
        raise ShapeMismatchError(
            f"cannot compose {g.dom.dim}->{g.cod.dim} after {f.dom.dim}->{f.cod.dim}"
        )
    return _wrap(g.field, f.dom, g.cod, g._a @ f._a)


def frobenius_distance(f: Morphism, g: Morphism) -> float:
    """Metric backing all approximate morphism equality."""
    if f.field is not g.field:
        raise FieldMismatchError(f"{f.field.value} vs {g.field.value}")
    if f.dom.dim != g.dom.dim or f.cod.dim != g.cod.dim:
        raise ShapeMismatchError("morphisms of different shape")
    return math.sqrt(_sq_norm(f.field, f._a - g._a))


def column_distances(f: Morphism, g: Morphism) -> list[float]:
    """frobenius_distance(f.col(j), g.col(j)) for every column j, from
    one difference of the native arrays; NaN where a column has one."""
    if f.field is not g.field:
        raise FieldMismatchError(f"{f.field.value} vs {g.field.value}")
    if f.dom.dim != g.dom.dim or f.cod.dim != g.cod.dim:
        raise ShapeMismatchError("morphisms of different shape")
    return column_norms(_wrap(f.field, f.dom, f.cod, f._a - g._a))


def column_norms(m: Morphism) -> list[float]:
    """m.col(j).norm() for every column j, from one pass over the native
    array; NaN where a column has one."""
    s = _block(m.field)
    sq = (m._a.conj() * m._a).real.sum(axis=0).reshape(m.dom.dim, s).sum(axis=1)
    return np.sqrt(sq / s).tolist()


def native_stack(ms: Sequence[Morphism]) -> np.ndarray:
    """The native arrays of one or more morphisms of one field and
    shape, stacked along a new leading axis.  Slicing, products and
    differences of stacks stand for those of the morphisms, because the
    representation is linear and turns composition into the product."""
    if not ms:
        raise ShapeMismatchError("cannot stack no morphisms")
    field, shape = ms[0].field, ms[0]._a.shape
    for m in ms:
        if m.field is not field:
            raise FieldMismatchError(f"{m.field.value} vs {field.value}")
        if m._a.shape != shape:  # over one field, equal native shapes mean equal dom and cod
            raise ShapeMismatchError("morphisms of different shape")
    return np.array([m._a for m in ms])


def stack_norms(field: Field, stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a stack of native arrays over
    `field` (the last two axes).  The norm of a difference of two stacks
    is the frobenius_distance of their morphisms up to rounding."""
    flat = stack.reshape(stack.shape[:-2] + (stack.shape[-2] * stack.shape[-1],))
    if flat.dtype == np.complex128:
        flat = flat.view(np.float64)  # real and imaginary parts
    return np.sqrt(np.einsum("...i,...i->...", flat, flat) / _block(field))


def unstack(field: Field, dom: Obj, cod: Obj, stack: np.ndarray) -> list[Morphism]:
    """One morphism dom -> cod per row of a stack of native arrays over
    `field`; each holds a view of its row."""
    return [_wrap(field, dom, cod, a) for a in stack]


def coordinate_projections(field: Field, dim: int) -> np.ndarray:
    """Stacked native arrays of the dim coordinate projections
    e_k . e_k-dagger of Obj(dim): 0/1 diagonals, so every entry is exact."""
    s = _block(field)
    blocks = np.repeat(np.eye(dim), s, axis=1)  # row k is 1 on the native block of e_k
    return blocks[:, :, None] * np.eye(s * dim, dtype=_dtype(field))


def rank1_commutant_map(field: Field, dim: int, stack: np.ndarray) -> np.ndarray:
    """Real matrix of M -> ((I - p) M x, (I - p) M-dagger x) on the
    diagonal endomorphisms M of Obj(dim), as one (2 * dim * width) x
    (dim * width) block per native array p of `stack`, in order; x is
    the column of p at its largest diagonal entry.

    For a rank-1 projection p = v v-dagger, p M - M p is
    p M (I - p) - (I - p) M p, the two off-diagonal blocks of M along
    range(p) (+) ker(p).  x is v times a nonzero scalar on the right,
    so (I - p) M p = 0 iff (I - p) M x = 0, and p M (I - p), the dagger
    of (I - p) M-dagger p, is 0 iff (I - p) M-dagger x = 0: M commutes
    with p iff the block maps M to zero.  Column i * width + c is the
    image of E_ic, the unit scalar c at entry (i, i); row (h, k, c')
    reads component c' of entry k of half h.  Only the first half is
    multiplied out: E_ic-dagger is E_ic for c = 0 and -E_ic otherwise,
    so the second half is the first with its columns c >= 1 negated
    (over R, a copy).  A diagonal projection, which commutes with every
    diagonal M, gives a zero block.
    """
    s, w, count = _block(field), field.width, len(stack)
    n = s * dim
    units = _native(field, np.eye(4)[:w, None, None])  # the unit scalars, (w, s, s)
    j = np.argmax(stack.diagonal(axis1=1, axis2=2)[:, ::s].real, axis=1)
    x = stack.reshape(count, n, dim, s)[np.arange(count), :, j]
    rest = (np.eye(n) - stack).reshape(count, n, dim, s).transpose(0, 2, 1, 3)
    # the images are freed once _components has read them
    comps = _components(field, rest[:, :, None] @ (units @ x.reshape(count, dim, 1, s, s)))
    half = comps[..., 0, :w].transpose(0, 3, 4, 1, 2).reshape(count, dim * w, dim * w)
    sign = np.where(np.arange(dim * w) % w, -1.0, 1.0)
    return np.concatenate([half, half * sign], axis=1)


def component_stack(field: Field, comps: np.ndarray) -> np.ndarray:
    """Stack of native arrays from a (count, cod, dom, width) array of
    the entries' leading components: row k is the array that
    `from_components` builds from comps[k]."""
    return _native(field, comps)


# Gram-Schmidt and the samplers treat a column shorter than this, after
# projection, as dependent
DROP_EPS = 1e-8


def unit_columns(stack: np.ndarray) -> np.ndarray:
    """The columns of a stack of native (cod, 1) arrays that are at least
    DROP_EPS long, each divided by its length, in order.  Each length is
    reckoned as for one column: `column_sq_norm`, its square root, and
    then the product with 1 / length.  A squared length is a sum of
    squared moduli, so it is +0.0 or more, +inf or NaN, never negative."""
    sq = (stack.conj().swapaxes(-1, -2) @ stack)[:, 0, 0].real
    lengths = np.sqrt(sq)
    keep = ~(lengths < DROP_EPS)
    return stack[keep] * (1.0 / lengths[keep])[:, None, None]


def outer_products(stack: np.ndarray) -> np.ndarray:
    """v . v-dagger for each column v of a stack of native arrays: one
    batched product."""
    return stack @ stack.conj().swapaxes(-1, -2)


def commuting(
    field: Field, stack: np.ndarray, a: Morphism, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """Mask of the endomorphisms p in a stack of native arrays over
    `field` that commute with a by the rule of `approx_eq`:
    |p . a - a . p| <= tol.bound(|p . a|, |a . p|).  The compositions
    are two batched products; the norms are `stack_norms`."""
    if a.field is not field:
        raise FieldMismatchError(f"{a.field.value} vs {field.value}")
    if a.dom != a.cod or stack.shape[-2:] != a._a.shape:
        raise ShapeMismatchError("commutation needs endomorphisms of one object")
    pa = stack @ a._a
    ap = a._a @ stack
    bound = tol.abs_eps + tol.rel_eps * np.maximum(stack_norms(field, pa), stack_norms(field, ap))
    return stack_norms(field, pa - ap) <= bound


def column_sq_norm(u: Morphism) -> float:
    """Squared length of a column: the real part of entry [0, 0] of the
    native product u-dagger u.  Over every field that is the real
    component of the 1x1 entry, read without building a Scalar."""
    return float((u._a.conj().T @ u._a)[0, 0].real)


def scaled(m: Morphism, r: float) -> Morphism:
    """m times the real number r, on the native array.  A real scalar is
    central, so this is m composed with r on either side."""
    return _wrap(m.field, m.dom, m.cod, m._a * r)


def project_to_field(m: Morphism) -> Morphism:
    """The morphism over m.field nearest to m's native array.

    Over H each 2x2 block [[a, b], [-conj(b), conj(a)]] is computed by
    rounded sums, so its halves drift apart by about eps times the
    operands' size.  After a cancellation, as in Gram-Schmidt, that
    drift is large relative to the result; averaging every block with
    its conjugate mirror puts it back in the complex adjoint form.  R
    and C arrays have no such constraint and are returned as they are.
    """
    if m.field is not Field.QUATERNION:
        return m
    return _wrap(m.field, m.dom, m.cod, _quaternion_part(m._a))


def _quaternion_part(x: np.ndarray) -> np.ndarray:
    """The complex adjoint array nearest to x: each 2x2 block averaged
    with its conjugate mirror."""
    a = (x[0::2, 0::2] + x[1::2, 1::2].conj()) / 2
    b = (x[0::2, 1::2] - x[1::2, 0::2].conj()) / 2
    return _adjoint(a, b)


def isometry_factor(m: Morphism) -> Morphism | None:
    """The isometry Q of m = Q R with R upper triangular with a positive
    real diagonal, or None when some |R_jj| < DROP_EPS.

    Q is unique, so it is the basis right Gram-Schmidt builds from m's
    columns, and |R_jj| is the residual length Gram-Schmidt compares
    with its drop threshold.  It is computed by one Householder QR of
    the native array, whose column j is then multiplied by the phase
    R_jj / |R_jj| (Mezzadri, Notices AMS 54, 2007).  Over H the
    quaternionic R is upper triangular with a positive real diagonal in
    the complex adjoint form too, so the complex Q is the adjoint of
    the quaternionic one up to rounding, which `project_to_field`'s
    averaging removes.  A single column is divided by its length as
    `unit_columns` does."""
    if m.dom.dim == 1:
        units = unit_columns(m._a[None])
        return _wrap(m.field, m.dom, m.cod, units[0]) if len(units) else None
    q, r = np.linalg.qr(m._a)
    diagonal = np.diagonal(r)
    lengths = np.abs(diagonal)
    if (lengths < DROP_EPS).any():
        return None
    q *= diagonal / lengths
    if m.field is Field.QUATERNION:
        q = _quaternion_part(q)
    return _wrap(m.field, m.dom, m.cod, q)


def read_only(m: Morphism) -> Morphism:
    """Mark m's native array read-only, for morphisms shared by a cache."""
    m._a.flags.writeable = False
    return m


def approx_eq(f: Morphism, g: Morphism, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    return frobenius_distance(f, g) <= tol.bound(f.norm(), g.norm())


def is_dagger_mono(f: Morphism, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Isometry test: f-dagger after f is the identity of the domain."""
    ident = Morphism.identity(f.field, f.dom)
    return approx_eq(f.dagger() @ f, ident, tol)


def is_dagger_iso(f: Morphism, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Unitarity test: isometry in both directions."""
    if not is_dagger_mono(f, tol):
        return False
    ident = Morphism.identity(f.field, f.cod)
    return approx_eq(f @ f.dagger(), ident, tol)


def is_projection(p: Morphism, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Selfadjoint idempotent endomorphism test."""
    if p.dom != p.cod:
        raise ShapeMismatchError("projection candidate must be an endomorphism")
    return approx_eq(p, p.dagger(), tol) and approx_eq(p, p @ p, tol)


def identity_columns(field: Field, x: Obj, start: int, count: int) -> Morphism:
    """Columns start .. start + count - 1 of the identity of x, the
    canonical injection Obj(count) -> x at coordinate start: a read-only
    view of the cached identity's array."""
    if start < 0 or count < 0 or start + count > x.dim:
        raise ShapeMismatchError(
            f"{count} columns from {start} out of range for dimension {x.dim}"
        )
    return _wrap(field, Obj(count), x, _identity(field, x.dim)._a[:, _span(field, start, count)])


def basis_column(field: Field, X: Obj, k: int) -> Morphism:
    """k-th canonical basis column as a morphism from the unit object:
    the one-column case of `identity_columns`."""
    return identity_columns(field, X, k, 1)
