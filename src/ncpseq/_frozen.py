"""The base of the package's immutable value classes.

A subclass names its fields in _fields and sets them in its own
__init__ with object.__setattr__.  Equality and hashing compare the
field values, between instances of the same class only, repr lists
them, and assigning or deleting an attribute raises AttributeError,
all as a frozen dataclass does.  A copy or a pickle is rebuilt from the
field values through the class's own constructor.

The base has empty __slots__, so a subclass that lists its fields in
__slots__ carries no instance __dict__; the classes built by the
thousand (Partition, CatSeq) do.  Anything else a subclass keeps in a
slot, such as a cached verdict, is invisible to equality, hashing and
repr.
"""


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
