"""Squarefree part by full trial division up to sqrt(n): the test-only
oracle for `padic.squarefree_part`, which stops at the cube root."""

from bttwist.errors import ZeroInput


def _factor(n: int) -> dict:
    n = abs(n)
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(n: int) -> tuple[int, int]:
    """n = d * t^2 with d squarefree; returns (d, t). Sign goes into d."""
    if n == 0:
        raise ZeroInput("0 has no squarefree part")
    d, t = 1, 1
    for p, a in _factor(n).items():
        if a % 2:
            d *= p
        t *= p ** (a // 2)
    return (d if n > 0 else -d), t
