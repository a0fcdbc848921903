"""Canonical JSON serialization used by every file the package writes.

The stdlib json module cannot be told to print floats with a fixed number of
significant digits, so a small writer is rolled by hand: floats are emitted
with 17 significant digits (enough to round-trip a double exactly), keys stay
in insertion order for files, and a sorted-key/no-whitespace form feeds the
config hashes.
"""

import hashlib
import json
import math

import numpy as np

from .errors import ConfigError

SCHEMA_VERSION = 1


def format_float(value):
    """17-significant-digit decimal form of a finite double."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return format(value, ".17g")


def _write(obj, parts, indent, level, sort_keys):
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    end_pad = "" if indent is None else "\n" + " " * (indent * level)
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()  # NumPy arrays and scalars as plain Python
    if obj is None or isinstance(obj, bool):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        keys = sorted(obj) if sort_keys else list(obj)
        if not keys:
            parts.append("{}")
            return
        parts.append("{")
        for i, k in enumerate(keys):
            parts.append(pad + json.dumps(k) + (": " if indent else ":"))
            _write(obj[k], parts, indent, level + 1, sort_keys)
            if i < len(keys) - 1:
                parts.append(",")
        parts.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[")
        for i, v in enumerate(obj):
            parts.append(pad)
            _write(v, parts, indent, level + 1, sort_keys)
            if i < len(obj) - 1:
                parts.append(",")
        parts.append(end_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent=2, sort_keys=False):
    """Serialize to JSON text with 17-significant-digit floats."""
    parts = []
    _write(obj, parts, indent, 0, sort_keys)
    return "".join(parts)


def dump_file(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps(obj) + "\n")


def _finite_float(literal):
    """A float literal, or NaN/Infinity; non-finite ones (1e999 too) are refused."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal} (the writer never emits one)")
    return value


def json_fits(kind, value):
    """Whether a JSON value is of a config field type: an integer for int
    (never a bool), any number for float, a string for str, a list of
    integers for tuple, a list of numbers for list, an object for dict."""
    if kind in (tuple, list):
        item = int if kind is tuple else float
        return isinstance(value, list) and all(json_fits(item, v) for v in value)
    return isinstance(value, {int: int, float: (int, float), str: str, dict: dict}[kind]) and not isinstance(value, bool)


def load_file(path):
    """Parse a JSON file; an unreadable, malformed or non-finite one is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load JSON from {path}: {exc}") from None


def config_hash(obj):
    """sha256 over the canonical (sorted-key, whitespace-free) serialization."""
    canonical = dumps(obj, indent=None, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def schema_free_hash(cfg):
    """config_hash of a to_config() dict without its schema key."""
    return config_hash({k: v for k, v in cfg.items() if k != "schema"})
