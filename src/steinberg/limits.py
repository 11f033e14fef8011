"""Hard size caps shared by the validator and the exhaustive routines."""

from __future__ import annotations

import os

# Validation walks all composable triples, which is cubic in the worst case.
MAX_GROUPOID_ELEMENTS = 512

# Ceiling on exhaustive vector enumeration (q ** dimension): the oracle's
# q^|G| vectors, and the minimality test's q^(dim I / k) corner vectors.
ENUM_CAP = 1 << 20

ENUM_CAP_ENV = "STEINBERG_MAX_ENUM"

# Ceiling on the edges of all boundary paths a graph report prints: every
# line point prints its whole path, so a line of V vertices prints ~V**2 / 2.
MAX_BOUNDARY_PATH_EDGES = 1 << 22


class SizeCapExceeded(RuntimeError):
    """An input is larger than the cap a routine is willing to handle."""


def enum_cap_from_env() -> int | None:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be positive, got {value}")
    return value


def check_enum_size(q: int, dimension: int, max_enum: int | None = None) -> int:
    """Return q ** dimension if it is within the cap, else raise SizeCapExceeded.

    The cap is ENUM_CAP.  ``max_enum`` (a function argument or the
    STEINBERG_MAX_ENUM environment variable) may lower it but never raise it.
    """
    cap = ENUM_CAP
    if max_enum is not None:
        if max_enum < 1:
            raise ValueError("enumeration cap must be positive")
        cap = min(cap, max_enum)
    total = q**dimension
    if total > cap:
        raise SizeCapExceeded(
            f"enumeration of {q}^{dimension} = {total} vectors exceeds the cap {cap}"
        )
    return total
