"""The contract shared by the package's value types and report records."""


class Value:
    """A value whose fields are its class's ``__slots__``, built by
    position only: ``Cls(*fields)``, where a wrong count raises TypeError.
    No field can be reassigned or deleted; a list or dict held in a field
    stays mutable, as in a tuple.  Equal to an instance of the same class
    with equal fields; hashed and pickled as the tuple of its fields, so a
    value is hashable only when all its fields are."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__name__} takes "
                            f"{len(self.__slots__)} fields, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self.__slots__:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def _fields(self) -> tuple:
        # A plain loop hashes a Subgroup about 3x faster than tuple(map(...)).
        fields = []
        for name in self.__slots__:
            fields.append(getattr(self, name))
        return tuple(fields)

    def to_dict(self) -> dict:
        """The fields by name as plain JSON data: tuples become lists and
        nested values their dicts.  A field that is None is left out, and
        ``ok`` is added where the class defines it."""
        d = {name: _plain(value) for name, value in zip(self.__slots__, self._fields())
             if value is not None}
        if hasattr(self, "ok"):
            d["ok"] = self.ok
        return d


def _plain(x):
    if isinstance(x, Value):
        return x.to_dict()
    if isinstance(x, (tuple, list)):
        return [_plain(e) for e in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x
