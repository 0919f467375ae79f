"""The input boundary: one kind checker for decoded JSON values, and one
reader (and writer) for every JSON-lines record stream and JSON document.

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
from itertools import islice

INT = "int"
NUM = "num"
FLOAT = "float"
BOOL = "bool"

_FLOAT_MAX = sys.float_info.max
# (rule for one value, rule for several)
_RULES = {INT: ("an integer", "integers"),
          NUM: ("a number", "finite JSON numbers"),
          FLOAT: ("a number", "numbers"),
          BOOL: ("true or false", "true or false")}


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


def describe(value) -> str:
    """repr(value), cut to its first 80 characters and its length where it
    is longer, or a phrase where it nests too deep for repr, which can
    reach a recursion limit that the decode a few calls up did not."""
    try:
        text = repr(value)
    except RecursionError:
        return "a value nested too deep to show"
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def require(value, kind, label: str) -> None:
    """Raise ValueError, naming `label`, unless `value` is of `kind`."""
    if type(kind) is list:
        if type(value) is not list:
            raise ValueError(f"{label} must be a list, got {describe(value)}")
        for item in value:
            require(item, kind[0], label)
    elif type(kind) is Fields:
        kind.check(value, f"{label} entry: ")
    elif type(kind) is int:
        if not (type(value) is list and len(value) == kind and all(map(is_finite, value))):
            count = {3: "three", 4: "four"}.get(kind, kind)
            raise ValueError(f"{label} must be {count} finite JSON numbers, got {describe(value)}")
    elif not _TESTS[kind](value):
        huge = type(value) is int and kind in (NUM, FLOAT)
        rule = "finite" if kind == NUM and (huge or type(value) is float) else _RULES[kind][0]
        shown = "an integer too large for a float" if huge else describe(value)
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

    def check(self, rec, where: str = ""):
        """`rec` if it is a JSON object with fields of these kinds, else raise
        ValueError (KeyError for a missing key), the message led by `where`."""
        if type(rec) is not dict:
            raise ValueError(f"{where}expected a JSON object, got {describe(rec)}")
        for keys, kind in self.kinds.items():
            if len(keys) > 1:
                values = [rec[key] for key in keys]
                if not all(map(_TESTS[kind], values)):
                    names = ", ".join(keys[:-1]) + " and " + keys[-1]
                    raise ValueError(f"{where}{names} must be {_RULES[kind][1]}, "
                                     f"got {describe(values)}")
            elif keys[0] in rec or keys[0] not in self.optional:
                require(rec[keys[0]], kind, where + keys[0])
        return rec


_scan_once = json.JSONDecoder().scan_once


def decode(line: str):
    """json.loads(line), for one line of a JSON-lines file.  A line that is
    one JSON value and a line end is decoded by the scanner alone, without
    json.loads's whitespace scans; any other line goes to json.loads, whose
    rules and messages hold for it."""
    try:
        value, end = _scan_once(line, 0)
        if line[end:] in ("\n", "", "\r\n"):
            return value
    except (ValueError, StopIteration):
        pass
    return json.loads(line)


# Lines read per block: one block's text and decoded records are alive at a
# time, not the whole file's.  Larger blocks save little per-block work and
# raise the peak memory of reading a file of long lines (truth records).
BLOCK_LINES = 256


class BadRecord(Exception):
    """BadRecord(index, error): raised by a block parse of `read_blocks` for
    the first record of its block that breaks a rule."""


def _undecodable(texts: list[str]):
    """(index, UnicodeDecodeError) of the first of `texts`, lines read with
    errors="surrogateescape", that held bytes which are not UTF-8, or None.
    Such bytes are lone surrogates in the text, which no clean line has, so
    one encode of the whole block finds whether there is one."""
    try:
        "".join(texts).encode()
        return None
    except UnicodeEncodeError:
        for i, text in enumerate(texts):
            try:
                text.encode(errors="surrogateescape").decode()
            except UnicodeDecodeError as exc:
                return i, exc


def read_blocks(path, what: str, parse) -> list:
    """[parse(records) for each block of up to BLOCK_LINES lines of a
    JSON-lines file], `records` the block's non-blank lines decoded, in
    order.  The first bad line of the file, one that is not UTF-8, is not
    JSON, nests too deep to decode or whose record `parse` names with
    BadRecord, raises ValueError "path:line: bad <what> record: ...".  Only
    LF ends a line, as `grep -n` counts them: a CR is part of its line."""
    out, base = [], 0
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        while lines := list(islice(fh, BLOCK_LINES)):
            texts = [line for line in lines if not line.isspace()]
            recs, bad = [], _undecodable(texts)
            try:
                # extend keeps the records decoded before a line that fails;
                # only the lines before one that is not UTF-8 are decoded.
                recs.extend(map(decode, texts[:bad[0]] if bad else texts))
            except (ValueError, RecursionError) as exc:
                bad = len(recs), exc
            try:
                out.append(parse(recs))
            except BadRecord as exc:
                bad = exc.args
            if bad:
                index, exc = bad
                kept = [i for i, text in enumerate(lines) if not text.isspace()]
                lineno = base + 1 + kept[index]
                raise ValueError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
            base += len(lines)
    return out


def read_jsonl(path, what: str, parse) -> list:
    """[parse(record) for each non-blank line of a JSON-lines file]; a line
    that is not UTF-8 or not JSON, or whose parse raises ValueError,
    KeyError or TypeError, raises ValueError "path:line: bad <what> record:
    ..."."""
    def each(recs):
        out = []
        for i, rec in enumerate(recs):
            try:
                out.append(parse(rec))
            except (ValueError, KeyError, TypeError) as exc:
                raise BadRecord(i, exc) from exc
        return out
    return [value for block in read_blocks(path, what, each) for value in block]


def read_json(path, what: str):
    """The JSON document in a file; one that is not UTF-8 or not JSON, or
    nests too deep to decode, raises ValueError "path: bad <what> file: ..."."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.loads(fh.read())
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: bad {what} file: {exc}") from exc


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
