"""Bases for facelat's record classes: repr, equality, hashing and
immutability read off one tuple of field names, `_fields`.

Each record writes its own `__init__`, so its signature stays explicit; a
frozen record sets its fields with `setfield`.  The records are written out
rather than declared with `dataclasses`, which imports `inspect` and
compiles every record's methods when its module is imported: a cost that
every process importing facelat would pay at start-up (README, Start-up).
"""

from operator import attrgetter

setfield = object.__setattr__  # sets a field of a frozen record


class Record:
    """Repr and equality over `_fields`, and unhashable, as a mutable
    record is."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # the compared values, read by one C call: equality and hashing
            # run on hot paths (cones in dicts and sets, `in` over faces)
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class Frozen(Record):
    """An immutable record, hashed by its fields: no attribute can be set or
    deleted once `__init__` has set them (`cached_property` writes to the
    instance dict and is unaffected)."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Set the fields a copy or an unpickled record carries: the
        instance dict, or (dict, slots) for a record with `__slots__`."""
        if isinstance(state, tuple):
            state = {**(state[0] or {}), **state[1]}
        for name, value in state.items():
            setfield(self, name, value)
