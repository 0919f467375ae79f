"""The input boundary: one kind checker for decoded JSON values, and one
JSON-lines reader (and writer) for every record stream.

Each kind is one rule, written here only: INT, a JSON integer (not true);
NUM, a finite JSON number (not true; an integer beyond float range counts
as infinite); FLOAT, a JSON number within float range, NaN and the
infinities left to a range rule; BOOL, true or false; an int k, a list of
k finite numbers; a `Fields`, a JSON object with fields of given kinds;
and [kind], a list of any length of that kind.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import compress
from operator import itemgetter

INT = "int"
NUM = "num"
FLOAT = "float"
BOOL = "bool"

_FLOAT_MAX = sys.float_info.max
# (rule for one value, rule for several, exact type of the common case)
_RULES = {INT: ("an integer", "integers", int),
          NUM: ("a number", "finite JSON numbers", float),
          FLOAT: ("a number", "numbers", float),
          BOOL: ("true or false", "true or false", bool)}


def is_finite(value) -> bool:
    """Whether a decoded JSON value is a finite number; type(), not
    isinstance(), since a JSON true is a bool, not a number."""
    if type(value) is float:
        return math.isfinite(value)
    return type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX


_TESTS = {INT: lambda value: type(value) is int,
          NUM: is_finite,
          FLOAT: lambda value: type(value) is float or is_finite(value),
          BOOL: lambda value: type(value) is bool}


def require(value, kind, label: str) -> None:
    """Raise ValueError, naming `label`, unless `value` is of `kind`."""
    if type(kind) is list:
        if type(value) is not list:
            raise ValueError(f"{label} must be a list, got {value!r}")
        for item in value:
            require(item, kind[0], label)
    elif type(kind) is Fields:
        kind.check(value, f"{label} entry: ")
    elif type(kind) is int:
        if not (type(value) is list and len(value) == kind and all(map(is_finite, value))):
            count = {3: "three", 4: "four"}.get(kind, kind)
            raise ValueError(f"{label} must be {count} finite JSON numbers, got {value!r}")
    elif not _TESTS[kind](value):
        huge = type(value) is int and kind in (NUM, FLOAT)
        rule = "finite" if kind == NUM and (huge or type(value) is float) else _RULES[kind][0]
        shown = "an integer too large for a float" if huge else repr(value)
        raise ValueError(f"{label} must be {rule}, got {shown}")


class Fields:
    """The kinds of a JSON record's fields, checked in one call: `kinds`
    maps a key to its kind, or a tuple of keys to one of INT, NUM, FLOAT or
    BOOL that they share with one message; a key in `optional` may be absent.
    """

    def __init__(self, kinds: dict, optional=()):
        self.kinds = {(keys,) if type(keys) is str else keys: kind
                      for keys, kind in kinds.items()}
        self.optional = optional
        # Per detection record, C-level calls first try the exact type of
        # every scalar field, then one finite sum of the NUM fields (NaN and
        # the infinities propagate through a sum).
        each = [kind for keys, kind in self.kinds.items() for _ in keys]
        self._fast = not optional and len(each) > 1 and all(type(k) is str for k in each)
        if self._fast:
            self._get = itemgetter(*(key for keys in self.kinds for key in keys))
            self._types = tuple(_RULES[kind][2] for kind in each)
            self._numbers = [kind == NUM for kind in each]

    def check(self, rec, where: str = ""):
        """`rec` if it is a JSON object with fields of these kinds, else raise
        ValueError (KeyError for a missing key), the message led by `where`."""
        if self._fast and type(rec) is dict:
            values = self._get(rec)
            if (tuple(map(type, values)) == self._types
                    and math.isfinite(sum(compress(values, self._numbers)))):
                return rec
        if type(rec) is not dict:
            raise ValueError(f"{where}expected a JSON object, got {rec!r}")
        for keys, kind in self.kinds.items():
            if len(keys) > 1:
                values = [rec[key] for key in keys]
                if not all(map(_TESTS[kind], values)):
                    names = ", ".join(keys[:-1]) + " and " + keys[-1]
                    raise ValueError(f"{where}{names} must be {_RULES[kind][1]}, "
                                     f"got {values!r}")
            elif keys[0] in rec or keys[0] not in self.optional:
                require(rec[keys[0]], kind, where + keys[0])
        return rec


_raw_decode = json.JSONDecoder().raw_decode


def decode(line: str):
    """json.loads(line), for one line of a JSON-lines file.  A line that is
    one JSON value and a line end is decoded without json.loads's
    whitespace scans; any other line goes to json.loads, whose rules and
    messages hold for it."""
    try:
        value, end = _raw_decode(line)
        if line[end:] in ("\n", "", "\r\n"):
            return value
    except ValueError:
        pass
    return json.loads(line)


def read_jsonl(path, what: str, parse) -> list:
    """[parse(record) for each non-blank line of a JSON-lines file]; a line
    that is not JSON, or whose parse raises ValueError, KeyError or
    TypeError, raises ValueError "path:line: bad <what> record: ..."."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                out.append(parse(decode(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
    return out


def write_json(path, value) -> None:
    """Write one JSON document, indented, with sorted keys."""
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(path, records) -> None:
    """Write each record as one line of JSON with sorted keys."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
