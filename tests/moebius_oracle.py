"""`MoebiusMap.proj_eq` as it was before it cross-multiplied, kept as a
test-only oracle: the same zero pattern, and one ratio x / y shared by
every pair of nonzero entries, each ratio computed with an inverse."""


def proj_eq_by_division(m, n) -> bool:
    mine = [m.a, m.b, m.c, m.d]
    theirs = [n.a, n.b, n.c, n.d]
    lam = None
    for x, y in zip(mine, theirs):
        if x.is_zero() != y.is_zero():
            return False
        if not x.is_zero():
            ratio = x / y
            if lam is None:
                lam = ratio
            elif not (lam == ratio):
                return False
    return True
