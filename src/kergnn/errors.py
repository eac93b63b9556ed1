"""Exception types shared across the package, and its one typed value check."""

import numbers


class DatasetError(Exception):
    """Raised when dataset files are missing or malformed."""


class ConfigError(ValueError):
    """Raised when a configuration is internally inconsistent."""


class CheckpointError(Exception):
    """Raised when a checkpoint file cannot be read or has the wrong version."""


class TrainingError(RuntimeError):
    """Raised when training diverges (non-finite loss)."""


# kind -> (accepted abstract type, name in messages)
_KINDS = {int: (numbers.Integral, "integers"), float: (numbers.Real, "reals"),
          bool: (bool, "True or False"), str: (str, "a string")}


def plain_value(name: str, value, kind: type):
    """value as a Python int, float, bool or str (kind), or ConfigError if it is
    not of that kind; a bool is neither an int nor a float here."""
    abc, label = _KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, abc):
        raise ConfigError(f"{name}: expected {label}, got {value!r}")
    return kind(value)
