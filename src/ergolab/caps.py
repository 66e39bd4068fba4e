"""The single brute-force budget knob honored by every exhaustive scan."""

from __future__ import annotations

DEFAULT_CAP = 16  # exhaustive scans enumerate at most 2**DEFAULT_CAP items


class CapExceededError(ValueError):
    """An exhaustive scan would enumerate more than 2**cap items."""


def resolve(cap: int | None) -> int:
    if cap is None:
        return DEFAULT_CAP
    # bool is an int subclass, but True is no budget
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
        raise ValueError(f"cap must be a nonnegative integer, got {cap!r}")
    return cap


def guard(label: str, exponent: int, cap: int | None) -> None:
    """Refuse a scan of 2**exponent items when it exceeds the budget 2**cap."""
    limit = resolve(cap)
    if exponent > limit:
        raise CapExceededError(
            f"{label} would enumerate 2**{exponent} items, above the cap 2**{limit}; "
            "raise the cap explicitly to force it"
        )
