"""Hard size caps shared by the validator and the exhaustive routines.

All five are constants: no argument or environment variable moves them.
"""

from __future__ import annotations

# Ceiling on the elements of a groupoid, and so on the dimension of its
# algebra.
MAX_GROUPOID_ELEMENTS = 512

# Ceiling on the composable triples (a, b, c) that validation checks for
# associativity, by either route.  Listing every failing triple of an
# invalid table takes the sweep over all of them, so it runs only below the
# cap.  Light's test checks |G_r(t)| * |G^s(t)| triples for each t of a
# generating set.  On a valid groupoid each generator, with its inverse,
# merges two orbits or at least doubles an isotropy group of what the
# earlier ones generate, so under the element cap Light's test needs at
# most 9 * 512^2 (about 2.4 M) triples, the cost for a group of order 512
# with nine generators: no valid groupoid is refused.
MAX_ASSOCIATIVITY_TRIPLES = 1 << 22

# Ceiling on the violations that validation lists for one table.  An
# invalid table can fail on millions of triples; the list stops at the cap
# and ends with a line saying it is partial, so what a report costs follows
# the cap, not the table (about 60 KB of JSON with short element ids).
MAX_REPORTED_VIOLATIONS = 1000

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
