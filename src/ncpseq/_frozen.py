"""The base of the package's immutable value classes.

A subclass names its fields in _fields and lists them in __slots__, so
it carries no instance __dict__.  Only Frozen sets the fields, each
through its slot's descriptor, looked up once per class: __init__ takes
one value per field, in _fields order, and a subclass constructor that
checks its arguments ends in super().__init__; the classmethod _trusted
takes the same values and runs no check and no subclass __init__.

Equality and hashing compare the field values, between instances of
the same class only, repr lists them, and assigning or deleting an
attribute raises AttributeError, all as a frozen dataclass does.  A
copy or a pickle is rebuilt from the field values through the class's
own constructor.  Anything else a subclass keeps in a slot, such as a
cached verdict, is invisible to equality, hashing and repr.
"""


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # (position, slot setter) of each field, set per class from _fields.
    _setters: tuple = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(enumerate(getattr(cls, name).__set__ for name in cls._fields))

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self._fields)} "
                            f"field values, got {len(values)}")
        for i, set_field in self._setters:
            set_field(self, values[i])

    @classmethod
    def _trusted(cls, *values: object):
        """An instance with these field values, with no check.

        Only for values that the calling code has just proved, or that a
        theorem proves, to be what the class's constructor would store.
        """
        self = object.__new__(cls)
        for i, set_field in cls._setters:
            set_field(self, values[i])
        return self

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
