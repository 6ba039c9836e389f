"""Numeric environment knobs: one parser, one fallback rule."""

from __future__ import annotations

import os
import warnings


def env_number(name: str, default, cast=int, minimum=None):
    """``cast`` of the environment variable ``name``; ``default`` when unset.

    A malformed value, or one below ``minimum``, warns with a
    ``RuntimeWarning`` naming the variable and yields ``default``: a
    tuning typo degrades to the stock value, never crashes the program.
    """
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = cast(raw)
    except ValueError:
        value = None
    if value is None or (minimum is not None and value < minimum):
        warnings.warn(
            f"ignoring {name}={raw!r}; using the default {default}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default
    return value
