"""Reference answers that do not depend on the code under test.

Two sources, both independent of the library's algorithms:

- closed forms over the lattice family (``Family``): element count, rank of
  the measure group, state-polytope vertex count and automorphism-group
  order, plus their invariant versions under the full automorphism group;
- ``Structure``, a small order oracle built from the lattice file the
  benchmark wrote (elements, cover pairs, orthocomplement).  It gives the
  atoms, heights and joins of orthogonal pairs, so every measure in a
  report can be checked for additivity by this module's own loop.

Every check returns a list of mismatch strings; an empty list is a match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial


@dataclass(frozen=True)
class Family:
    """A lattice by construction: boolean(n), mo(n), product, hsum, benzene,
    or the anisotropic subspace lattice of F_q^2 (isomorphic to MO((q+1)/2)).

    Closed forms for products and horizontal sums assume the two parts
    share no direct (resp. horizontal) factor unless they are equal.
    """

    kind: str
    n: int = 0
    parts: tuple["Family", ...] = ()

    @property
    def label(self) -> str:
        if self.kind in ("product", "hsum"):
            return f"{self.kind}({self.parts[0].label},{self.parts[1].label})"
        if self.kind == "subspace":
            return f"subspace({self.n},2)"
        if self.kind == "benzene":
            return "benzene"
        return f"{self.kind}({self.n})"

    def build(self, om):
        if self.kind == "boolean":
            return om.boolean(self.n)
        if self.kind == "mo":
            return om.mo(self.n)
        if self.kind == "benzene":
            return om.benzene()
        if self.kind == "subspace":
            return om.subspace_lattice(self.n, 2, (1, 1))
        a, b = (p.build(om) for p in self.parts)
        return om.product(a, b) if self.kind == "product" else om.horizontal_sum(a, b)

    def _as_mo(self) -> "Family":
        return Family("mo", (self.n + 1) // 2) if self.kind == "subspace" else self

    @property
    def size(self) -> int:
        f = self._as_mo()
        if f.kind == "boolean":
            return 2 ** f.n
        if f.kind == "mo":
            return 2 * f.n + 2
        if f.kind == "benzene":
            return 6
        a, b = (p.size for p in f.parts)
        return a * b if f.kind == "product" else a + b - 2

    @property
    def rank(self) -> int:
        """rank M(B_n) = n, rank M(MO(n)) = n + 1, ranks add over products
        and add minus one (the shared top) over horizontal sums."""
        f = self._as_mo()
        if f.kind == "boolean":
            return f.n
        if f.kind == "mo":
            return f.n + 1
        if f.kind == "benzene":
            return 2  # free on a and b'; b = a, a' = b', 1 = a + b'
        a, b = (p.rank for p in f.parts)
        return a + b if f.kind == "product" else a + b - 1

    @property
    def vertices(self) -> int:
        """State vertices, equal to the extreme rays of the positive cone."""
        f = self._as_mo()
        if f.kind == "boolean":
            return f.n
        if f.kind == "mo":
            return 2 ** f.n
        if f.kind == "benzene":
            return 2
        a, b = (p.vertices for p in f.parts)
        return a + b if f.kind == "product" else a * b

    @property
    def aut_order(self) -> int:
        f = self._as_mo()
        if f.kind == "boolean":
            return factorial(f.n)
        if f.kind == "mo":
            return 2 ** f.n * factorial(f.n)
        a, b = f.parts
        return a.aut_order * b.aut_order * (2 if a == b else 1)

    @property
    def invariant_rank(self) -> int:
        """Rank of the coinvariants under the full automorphism group."""
        if self.kind in ("boolean", "mo", "subspace"):
            return 1
        a, b = self.parts
        if a == b:
            return 1
        if self.kind == "product":
            return a.invariant_rank + b.invariant_rank
        return a.invariant_rank + b.invariant_rank - 1

    @property
    def invariant_vertices(self) -> int:
        if self.kind == "product" and self.parts[0] != self.parts[1]:
            return 2
        return 1

    @property
    def orthomodular(self) -> bool:
        return self.kind != "benzene"

    @property
    def distributive(self) -> bool:
        if self.kind == "product":
            return all(p.distributive for p in self.parts)
        return self.kind == "boolean"

    @property
    def atomistic(self) -> bool:
        return self.kind != "benzene"


def boolean_(n):
    return Family("boolean", n)


def mo_(n):
    return Family("mo", n)


def product_(a, b):
    return Family("product", parts=(a, b))


def hsum_(a, b):
    return Family("hsum", parts=(a, b))


BENZENE = Family("benzene")


class Structure:
    """Order oracle over one written lattice file."""

    def __init__(self, elements, covers, orth):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        above = [[] for _ in range(n)]
        for a, b in covers:
            above[self.index[a]].append(self.index[b])
        up = [None] * n

        def close(i):
            stack = [i]
            while stack:
                k = stack[-1]
                pending = [j for j in above[k] if up[j] is None]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                if up[k] is None:
                    mask = 1 << k
                    for j in above[k]:
                        mask |= up[j]
                    up[k] = mask

        for i in range(n):
            close(i)
        self.up = up
        self.orth = [self.index[orth[e]] for e in self.elements]
        self._by_up = {m: i for i, m in enumerate(up)}
        full = (1 << n) - 1
        self.bottom = next(i for i in range(n) if up[i] == full)
        self.top = next(i for i in range(n) if up[i] == 1 << i)
        self.atoms = {
            i for i in range(n)
            if i != self.bottom and self._below_count(i) == 2
        }
        order = sorted(range(n), key=self._below_count)
        height = [0] * n
        for i in order:
            for j in order:
                if j != i and self.leq(j, i):
                    height[i] = max(height[i], height[j] + 1)
        self.height = height
        self.orthogonal_pairs = [
            (i, j, self._by_up[up[i] & up[j]])
            for i in range(n) for j in range(i, n)
            if self.leq(j, self.orth[i])
        ]

    def leq(self, i, j) -> bool:
        return bool(self.up[i] >> j & 1)

    def _below_count(self, i) -> int:
        return sum(1 for m in self.up if m >> i & 1)

    def atoms_below(self, i) -> list[int]:
        return [a for a in self.atoms if self.leq(a, i)]

    # --- checks on report fragments ---------------------------------------

    def additivity(self, values: dict, modulus: int | None) -> list[str]:
        vals = []
        for e in self.elements:
            if e not in values:
                return [f"no value at {e!r}"]
            vals.append(values[e])
        for i, j, k in self.orthogonal_pairs:
            gap = vals[i] + vals[j] - vals[k]
            if gap % modulus if modulus else gap:
                return [f"not additive on ({self.elements[i]!r}, {self.elements[j]!r})"]
        return []

    def is_automorphism(self, mapping: dict) -> bool:
        if sorted(mapping) != sorted(self.elements) or sorted(mapping.values()) != sorted(self.elements):
            return False
        p = [self.index[mapping[e]] for e in self.elements]
        n = len(p)
        return all(
            self.orth[p[i]] == p[self.orth[i]]
            and all(self.leq(i, j) == self.leq(p[i], p[j]) for j in range(n))
            for i in range(n)
        )


def parse_value(raw, domain: str):
    """A serialized measure value: "p/q" strings over Q, ints otherwise."""
    return Fraction(raw) if domain == "Q" else int(raw)


def modulus_of(domain: str) -> int | None:
    return int(domain[2:]) if domain.startswith("Z/") else None
