"""Slotted records for the classes that cannot be named tuples.

The plain records of the package are ``namedtuple`` subclasses with
``__slots__ = ()``.  Two kinds of record need more: a mutable one
(:class:`Record`), and a frozen one that keeps a first-use cache in a
private slot (:class:`FrozenRecord`).  A subclass lists its fields in
``_fields``, in order, and declares them and any cache in
``__slots__``; ``__init__`` takes the fields in that order.  ``repr``,
equality, hashing, copying and pickling read the fields only, as a
named tuple's do, and a record equals only records of its own class.
"""


class Record:
    """A mutable slotted record: ``Name(field=value, ...)`` repr,
    equality field by field, unhashable."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __reduce__(self):
        # rebuilt through __init__, so a copy's caches start empty
        return type(self), self._values()


class FrozenRecord(Record):
    """A record whose slots are set once, by ``object.__setattr__`` in
    ``__init__`` or when a cache is filled; any other assignment raises
    :class:`AttributeError`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a %s"
                             % (name, type(self).__name__))

    def _replace(self, **changes):
        """A new record with the given fields changed; the caches of
        the new record start empty."""
        values = dict(zip(self._fields, self._values()))
        values.update(changes)
        return type(self)(**values)
