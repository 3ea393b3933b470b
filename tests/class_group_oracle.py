"""The class group as `bttwist.globalforms.ClassGroup` built it before it
composed only what it reads, kept as a test-only oracle.

Copied with only its imports moved to the top and the discriminant limit
left out: it composes all h^2 pairs of classes into a table, checks that
the identity fixes every class and that every class has some inverse in
the table (associativity too for h <= 24), and reads `h2` and `squares`
from the table's diagonal."""

from bttwist.errors import InternalInvariant
from bttwist.globalforms import (compose, discriminant_of, principal_form,
                                 reduced_forms)


class FullTableClassGroup:
    """Form class group of Q(sqrt(-N)), with its composition table."""

    def __init__(self, N: int):
        self.N = N
        self.D = discriminant_of(N)
        self.elements = reduced_forms(self.D)
        self.identity = principal_form(self.D).reduce()
        if self.identity not in self.elements:
            raise InternalInvariant(
                f"principal form {self.identity!r} is not reduced")
        self.h = len(self.elements)
        idx = {f: i for i, f in enumerate(self.elements)}
        self.table = [
            [idx[compose(f, g)] for g in self.elements] for f in self.elements
        ]
        self._verify_group(idx)

    def _verify_group(self, idx):
        e = idx[self.identity]
        n = self.h
        for i in range(n):
            if not (self.table[i][e] == i and self.table[e][i] == i):
                raise InternalInvariant(
                    f"{self.elements[i]!r} is moved by the identity")
            if not any(self.table[i][j] == e for j in range(n)):
                raise InternalInvariant(f"{self.elements[i]!r} has no inverse")
        if n <= 24:
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if (self.table[self.table[i][j]][k]
                                != self.table[i][self.table[j][k]]):
                            raise InternalInvariant(
                                f"composition is not associative at "
                                f"{i}, {j}, {k}")

    def h2(self) -> int:
        e = self.elements.index(self.identity)
        return sum(1 for i in range(self.h) if self.table[i][i] == e)

    def squares(self) -> set:
        return {self.elements[self.table[i][i]] for i in range(self.h)}
