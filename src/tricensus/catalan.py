"""Catalan numbers and convex-polygon triangulation counts, exactly.

Everything here is plain Python integer arithmetic, so all values are exact
at any size.  ``catalan`` uses the closed form C(2n, n) / (n + 1), computed
on each call.
"""

from __future__ import annotations

from math import comb, prod
from typing import NamedTuple


def catalan(n: int) -> int:
    """The n-th Catalan number, n >= 0."""
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return comb(2 * n, n) // (n + 1)


def polygon_triangulation_count(n: int) -> int:
    """Number of triangulations of a convex polygon with n vertices.

    A 2-gon (a bare edge) counts as 1 by convention; for n >= 3 this is the
    (n-2)-nd Catalan number.
    """
    if n < 2:
        raise ValueError("polygon size must be at least 2")
    return catalan(n - 2)


def polygon_count_recurrence_holds(n: int) -> bool:
    """Check the split-at-an-edge identity for the polygon counts at size n.

    The identity sums, over the apex choice of the triangle on a fixed
    polygon side, the products of the two sub-polygon counts.
    """
    if n < 3:
        raise ValueError("the recurrence applies for n >= 3")
    total = sum(polygon_triangulation_count(k) * polygon_triangulation_count(n - k + 1)
                for k in range(2, n))
    return total == polygon_triangulation_count(n)


class ProductInequality(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


def check_product_inequality(sizes) -> ProductInequality:
    """Compare prod(count(k_i)) against count(sum(k_i) - 2(m-1)) for polygon sizes k_i >= 2."""
    ks = list(sizes)
    if not ks:
        raise ValueError("size list must be nonempty")
    if any(k < 2 for k in ks):
        raise ValueError("every polygon size must be at least 2")
    lhs = prod(map(polygon_triangulation_count, ks))
    rhs = polygon_triangulation_count(sum(ks) - 2 * (len(ks) - 1))
    return ProductInequality(lhs, rhs, lhs <= rhs)
