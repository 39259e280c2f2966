"""The base of the package's frozen value records.

A record class names its fields in ``_fields``, and ``Record.__init__``
takes one positional value per field and stores them. A record class writes
its own ``__init__`` only to check or convert its arguments, and then hands
them to ``Record.__init__``; FuzzyNumber's raises TypeError, as only its
factories make one. The one maker that skips those checks is
``_from_fields``, whose caller vouches for the values as the class docstring
states them.

The base gives every record value semantics: equality only between
instances of one class, on the field tuple; the hash of that tuple; a
``Name(field=value, ...)`` repr; and assignment or deletion that raises
AttributeError. Instances keep a ``__dict__`` for cached properties and weak
references; pickle and copy carry the fields only, and a copy derives any
cached value again.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **keywords) -> None:
        """Store the field values, in _fields order, past __setattr__."""
        if keywords or len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__qualname__} takes its {len(self._fields)} fields "
                f"{self._fields} by position, got {len(values)} positional and "
                f"{len(keywords)} keyword values"
            )
        vars(self).update(zip(self._fields, values))

    @classmethod
    def _from_fields(cls, *values):
        """A record of the field values, in _fields order, unchecked."""
        record = object.__new__(cls)
        vars(record).update(zip(cls._fields, values))
        return record

    def __reduce__(self):
        return type(self)._from_fields, self._values()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
