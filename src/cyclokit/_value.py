"""The tuple base of the package's value types: what :func:`collections.namedtuple`
builds, without ``typing`` or ``eval``."""

from collections import _tuplegetter
from types import FunctionType

_tuple_new = tuple.__new__

#: namedtuple's ``__new__`` for 1 to 6 fields, with no ``*args`` tuple to pack.
_NEW = (
    lambda _cls, a: _tuple_new(_cls, (a,)),
    lambda _cls, a, b: _tuple_new(_cls, (a, b)),
    lambda _cls, a, b, c: _tuple_new(_cls, (a, b, c)),
    lambda _cls, a, b, c, d: _tuple_new(_cls, (a, b, c, d)),
    lambda _cls, a, b, c, d, e: _tuple_new(_cls, (a, b, c, d, e)),
    lambda _cls, a, b, c, d, e, f: _tuple_new(_cls, (a, b, c, d, e, f)),
)


class _Fields(type):
    """Makes the names annotated in a class body, unevaluated, its fields: a C
    getter each, ``_fields`` and ``__match_args__``, a ``__new__`` by field
    name unless the body has one, and ``__slots__ = ()`` unless the class is
    declared ``slots=False``."""

    def __new__(mcls, name, bases, ns, slots=True):
        if slots:
            ns["__slots__"] = ()
        if fields := tuple(ns.get("__annotations__", ())):
            ns["_fields"] = ns["__match_args__"] = fields
            ns.update((field, _tuplegetter(i, f"Alias for field number {i}"))
                      for i, field in enumerate(fields))
            if "__new__" not in ns:
                code = _NEW[len(fields) - 1].__code__.replace(co_varnames=("_cls", *fields))
                new = ns["__new__"] = FunctionType(code, globals(), "__new__")
                new.__qualname__ = f"{name}.__new__"
        return super().__new__(mcls, name, bases, ns)


class Value(tuple, metaclass=_Fields):
    """An immutable value, the tuple of its fields: hashed, ordered and iterated
    as that tuple, with namedtuple's ``repr``, ``_fields`` and ``_asdict``, and
    a ``_make`` and ``_replace`` that build through the constructor."""

    #: The message of + and *, which would concatenate or repeat a tuple.
    _arithmetic_hint = "{} values have no + or *"

    def __add__(self, other):
        raise TypeError(self._arithmetic_hint.format(type(self).__name__))

    __radd__ = __mul__ = __rmul__ = __add__

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def _replace(self, **changes):
        value = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return value

    def _asdict(self):
        return dict(zip(self._fields, self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def __getnewargs__(self):  # copy and pickle rebuild a value by its fields
        return tuple(self)
