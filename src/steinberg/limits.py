"""Hard size caps shared by the validator and the exhaustive routines.

All three are constants: no argument or environment variable moves them.
"""

from __future__ import annotations

# Validation walks all composable triples, which is cubic in the worst case.
MAX_GROUPOID_ELEMENTS = 512

# Ceiling on exhaustive vector enumeration (q ** dimension): the oracle's
# q^|G| vectors, and the minimality test's q^(dim I / k) corner vectors.
ENUM_CAP = 1 << 20

# Ceiling on the edges of all boundary paths a graph report prints: every
# line point prints its whole path, so a line of V vertices prints ~V**2 / 2.
MAX_BOUNDARY_PATH_EDGES = 1 << 22


class SizeCapExceeded(RuntimeError):
    """An input is larger than the cap a routine is willing to handle."""


def check_enum_size(q: int, dimension: int) -> None:
    """Raise SizeCapExceeded if q ** dimension exceeds ENUM_CAP."""
    total = q**dimension
    if total > ENUM_CAP:
        raise SizeCapExceeded(
            f"enumeration of {q}^{dimension} = {total} vectors exceeds the cap {ENUM_CAP}"
        )
