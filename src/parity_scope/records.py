"""Frozen records: a subclass lists its fields as annotations, any default as a class attribute."""


class Record:
    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("__annotations__", {})      # name -> type, in order
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):      # keywords, defaults or a binding error
            given = {**dict(zip(fields, args)), **kwargs} if args else kwargs
            values = {**self._defaults, **given}
            # a repeat or surplus shortens ``given``; an unknown or missing name moves the keys
            if values.keys() != fields.keys() or len(given) < len(args) + len(kwargs):
                raise TypeError(f"{type(self).__name__}{(*fields,)} given {len(args)}, {[*kwargs]}")
            object.__setattr__(self, "__dict__", values)
        else:
            self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        """The checks a subclass runs on every new record."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of a frozen record is read-only")
    __delattr__ = __setattr__

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{field}={self.__dict__[field]!r}" for field in self._fields)
        return f"{type(self).__qualname__}({body})"


def replace(record, **changes):
    """``record`` with ``changes``, built and checked as a new one."""
    return type(record)(**{**record.__dict__, **changes})     # __dict__ holds the fields
