"""The base of the package's immutable value types."""

# Sets a field from ``__init__``, past the ``__setattr__`` that refuses it.
_set = object.__setattr__


class Value:
    """An immutable record whose fields are ``__match_args__``, in order.

    A subclass declares its fields in ``__slots__`` (after them, any slot for
    a cached value) and sets them in ``__init__`` with ``_set``. As for a
    frozen dataclass: ``==`` holds between two values of the same class with
    equal fields and is ``NotImplemented`` otherwise, so no value equals a
    tuple; ``hash`` is the hash of the field tuple; ``repr`` is
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    AttributeError; and a copy or a pickle is rebuilt from the fields.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

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
