"""One declared rule per JSON config field, and the one line it writes.

A rule is a function `(value, name)`: None for a value it takes, else
`<name> must be <rule>, got <value>`, naming a nested value by its path
(`model[0].eps`). No rule takes a bool for a number, a fraction for an
integer, NaN or Infinity (Python's json reads both), an integer beyond
2**53 in magnitude (where JSON numbers stop being exact), an empty array,
or an undeclared key.

An output record is a dataclass whose fields, in order, are its JSON keys
(`asdict`) and its CSV columns: every CSV output is `csv_text`, every JSON
output `json_text`.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, field, fields, is_dataclass

_BOUNDS = {"gt": (">", operator.gt), "ge": (">=", operator.ge),
           "lt": ("<", operator.lt), "le": ("<=", operator.le)}
_ADJECTIVES = {(("gt", 0),): "a positive", (("ge", 0),): "a non-negative"}


def _rule(what: str, accepts, inner=None, null: bool = False):
    """Takes what `accepts` (as `what`) or, with `null`, null; then `inner` checks inside."""
    def problem(value, name: str) -> str | None:
        if value is None and null:
            return None
        if not accepts(value):
            return f"{name} must be {what}{' or null' if null else ''}, got {value!r}"
        return inner(value, name) if inner else None
    return problem


def number(null: bool = False, whole: bool = False, **bounds):
    """A finite number (with `whole`, an integer) within gt/ge/lt/le `bounds`."""
    key, noun = tuple(bounds.items()), "integer" if whole else "number"
    limits = " and ".join(f"{_BOUNDS[op][0]} {limit}" for op, limit in key)
    what = (f"{_ADJECTIVES[key]} {noun}" if key in _ADJECTIVES
            else f"{'an' if whole else 'a'} {noun} {limits}".rstrip())
    return _rule(what, lambda v: (
        isinstance(v, int if whole else (int, float)) and not isinstance(v, bool)
        and (isinstance(v, int) or math.isfinite(v))
        and all(_BOUNDS[op][1](v, limit) for op, limit in key)),
        lambda v, name: f"{name} must be at most 2**53 in magnitude, got {v!r}"
        if isinstance(v, int) and abs(v) > 2**53 else None, null)


def integer(null: bool = False, **bounds):
    return number(null, True, **bounds)


def boolean():
    return _rule("true or false", lambda v: isinstance(v, bool))


def string(null: bool = False):
    return _rule("a string", lambda v: isinstance(v, str), null=null)


def one_of(*options: str):
    return _rule("one of " + ", ".join(map(repr, options)),
                 lambda v: isinstance(v, str) and v in options)


def array(*items, null: bool = False):
    """A non-empty array (a list or, from Python, a tuple) of `items[0]`, or one
    entry per rule as in a [count, probability]."""
    def inner(value, name: str) -> str | None:
        if not value:
            return f"{name} must not be empty"
        rules = items if len(items) > 1 else items * len(value)
        return next(filter(None, (rule(v, f"{name}[{i}]")
                                  for i, (rule, v) in enumerate(zip(rules, value)))), None)
    what = f"an array of {len(items)} entries" if len(items) > 1 else "an array"
    return _rule(what, lambda v: isinstance(v, (list, tuple))
                 and (len(items) == 1 or len(v) == len(items)), inner, null)


def mapping(spec, label: str = ""):
    """An object of only the keys of `spec`: a {key: rule} dict, or a dataclass
    declared with `ruled`, whose fields without a default are required. All
    problems are reported; a `label` prefixes them in place of the path."""
    required = []
    if is_dataclass(spec):
        required = [f.name for f in fields(spec)
                    if f.default is MISSING and f.default_factory is MISSING]
        spec = {f.name: f.metadata["rule"] for f in fields(spec)}

    def inner(value: dict, name: str) -> str | None:
        path = "" if label else name
        at = (lambda key: f"{path}.{key}") if path else str
        unknown = sorted(set(value) - set(spec))
        problems = [f"unknown {path + ' ' if path else ''}fields {unknown}; "
                    f"expected {list(spec)}"] if unknown else []
        problems += [f"{at(k)} must be given" for k in required if k not in value]
        problems += [p for k, rule in spec.items() if k in value and (p := rule(value[k], at(k)))]
        text = "; ".join(problems)
        return (f"{label}: {text}" if label else text) if problems else None
    return _rule("a mapping", lambda v: isinstance(v, dict), inner)


def keyed(key: str, present, absent):
    """Rule `present` for an object that holds `key`, else rule `absent`."""
    return lambda value, name: (
        present if isinstance(value, dict) and key in value else absent)(value, name)


SEED = integer(ge=0)  # every seed: a training config's, a sampler spec's, the --seed flag's


def ruled(rule, default=MISSING, **kwargs):
    """A dataclass field declared with its rule; without a default it is required."""
    return field(default=default, metadata={"rule": rule}, **kwargs)


def check(error: type, *checks, prefix: str = "") -> None:
    """Raise `error` naming every `(rule, value, name)` of `checks` whose value breaks its rule."""
    if problems := [p for rule, value, name in checks if (p := rule(value, name))]:
        raise error(prefix + "; ".join(problems))


def load(cls, raw: dict, error: type, **given):
    """`cls(**raw, **given)`, the one construction of a config, whose
    `__post_init__` checks each value. A key of `raw` that is no field of
    `cls`, or that `given` sets, is unknown: it raises one `error` naming the
    unknown keys and then every bad value of `raw`, in field order."""
    rules = {f.name: f.metadata["rule"] for f in fields(cls) if f.name not in given}
    if not raw.keys() <= rules.keys():
        check(error, (mapping(rules), raw, ""))
    return cls(**raw, **given)


def check_fields(obj, error: type, prefix: str = "") -> None:
    """`check` every field of dataclass instance `obj` against the rule it declares."""
    check(error, *((f.metadata["rule"], getattr(obj, f.name), f.name) for f in fields(obj)),
          prefix=prefix)


def json_text(obj) -> str:
    """The text of a JSON output: keys sorted, two-space indent, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def csv_header(record) -> str:
    """The CSV header of dataclass `record`: its field names."""
    return ",".join(f.name for f in fields(record))


def csv_line(row) -> str:
    """Dataclass instance `row` as CSV: ints as they are, None empty, else repr(float(v))."""
    return ",".join(str(v) if isinstance(v, int) else "" if v is None else repr(float(v))
                    for v in (getattr(row, f.name) for f in fields(row)))


def csv_text(record, rows) -> str:
    """The text of a CSV output: `record`'s header, then one line per row."""
    return "\n".join([csv_header(record), *map(csv_line, rows)]) + "\n"
