"""The base of the package's immutable value types, the index and type checks
their methods share, and the errors of an input text and of a command line, which
``cli`` and ``_pred`` both raise."""

import operator
from collections.abc import Iterable
from typing import Optional

# Sets a field from ``__init__``, past the ``__setattr__`` that refuses it.
_set = object.__setattr__


def _index(value, what: str, size: Optional[int] = None) -> int:
    """``value`` coerced with ``operator.index``, so ``True`` is ``1``: a
    natural number, below ``size`` if given. Else TypeError (not an integer)
    or ValueError, naming it as ``what``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{what} {value!r} is not an integer") from None
    if size is None and value < 0:
        raise ValueError(f"{what} must be a natural number")
    if size is not None and not 0 <= value < size:
        raise ValueError(f"{what} {value} out of range")
    return value


def _typed(value, types: tuple[type, ...], what: str):
    """``value``, an instance of one of ``types``; else TypeError naming it as ``what``."""
    if not isinstance(value, types):
        wanted = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{what} must be {'an' if wanted[0] in 'AEIOU' else 'a'} {wanted}, "
                        f"not {type(value).__name__}")
    return value


def _tuple(values, what: str, into=tuple):
    """``into(values)``, by default a tuple; a ``values`` that is not iterable raises
    TypeError naming it as ``what``, checked only once ``into`` has failed."""
    try:
        return into(values)
    except TypeError:
        _typed(values, (Iterable,), what)
        raise


class ParseError(Exception):
    """A diagnosable problem in an input text."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None, code: str = "parse-error"):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.code = code

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        return f"line {self.line}, column {self.column}: {self.message}"


class _UsageError(Exception):
    pass


class Value:
    """An immutable record whose fields are ``__match_args__``, in order.

    A subclass declares its fields in ``__slots__`` (after them, any slot for
    a cached value) and sets them in ``__init__`` with ``_set``. ``_valid`` fills
    the slots, not the fields, with values its caller has checked. As for a
    frozen dataclass: ``==`` holds between two values of the same class with
    equal fields and is ``NotImplemented`` otherwise, so no value equals a
    tuple; ``hash`` is the hash of the field tuple; ``repr`` is
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    AttributeError; and a copy or a pickle is rebuilt from the fields.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):  # the setters of its slots but __dict__, bound for _valid
        cls._setters = tuple(getattr(cls, s).__set__ for s in cls.__slots__ if s != "__dict__")

    @classmethod
    def _valid(cls, *slots):
        """The value of ``cls`` with ``slots`` in its ``__slots__`` but ``__dict__``, unchecked."""
        value = object.__new__(cls)
        for setter, slot in zip(cls._setters, slots):
            setter(value, slot)
        return value

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()
