"""Hypothesis strategies and lattice lists shared by the test modules."""

import random
from functools import lru_cache

from hypothesis import strategies as st

from orthomeasure import (
    LatticeDescription,
    benzene,
    boolean,
    build_lattice,
    horizontal_sum,
    mo,
    product,
    subspace_lattice,
)
from orthomeasure.errors import LatticeInputError

BASES = {
    "boolean(1)": lambda: boolean(1),
    "boolean(2)": lambda: boolean(2),
    "boolean(3)": lambda: boolean(3),
    "mo(1)": lambda: mo(1),
    "mo(2)": lambda: mo(2),
    "mo(3)": lambda: mo(3),
    "benzene": benzene,
    "subspaces(F_3^2)": lambda: subspace_lattice(3, 2, (1, 1)),
}
MAX_ELEMENTS = 64
MAX_STEPS = 2


@lru_cache(maxsize=None)
def base(name):
    return BASES[name]()


@st.composite
def composite_lattices(draw):
    """A base lattice, then up to MAX_STEPS products or horizontal sums
    with another base on either side; a step that would pass
    MAX_ELEMENTS elements is skipped.  In half the cases the elements are put
    in a shuffled order, so that index order need not extend the lattice
    order."""
    lattice = base(draw(st.sampled_from(sorted(BASES))))
    for _ in range(draw(st.integers(0, MAX_STEPS))):
        other = base(draw(st.sampled_from(sorted(BASES))))
        op = draw(st.sampled_from([product, horizontal_sum]))
        size = len(lattice) * len(other) if op is product else len(lattice) + len(other) - 2
        if size > MAX_ELEMENTS:
            continue
        pair = (lattice, other) if draw(st.booleans()) else (other, lattice)
        lattice = op(*pair)
    if draw(st.booleans()):
        lattice = relisted(lattice, draw(st.permutations(lattice.elements)))
    return lattice


def relisted(lattice, elements):
    """The lattice built again from its description with its elements
    listed in the order of ``elements``."""
    desc = lattice.to_description()
    return build_lattice(LatticeDescription(
        desc.name, tuple(elements), desc.leq_pairs, dict(desc.orthocomplement)))


def pairwise_composites(lattices):
    """The products and horizontal sums of every ordered pair of
    ``lattices`` that have at most MAX_ELEMENTS elements."""
    out = []
    for a in lattices:
        for b in lattices:
            if len(a) * len(b) <= MAX_ELEMENTS:
                out.append(product(a, b))
            if len(a) + len(b) - 2 <= MAX_ELEMENTS:
                out.append(horizontal_sum(a, b))
    return out


def greechie_loop(k):
    """The pasting of k Boolean blocks of three atoms in a loop, each
    sharing one atom with the next: 0, 1, the atoms and their
    complements, with a below b' when a and b share a block."""
    corners = [f"c{i}" for i in range(k)]
    blocks = [(corners[i], f"m{i}", corners[(i + 1) % k]) for i in range(k)]
    atoms_ = [a for block in blocks for a in block[:2]]
    pairs = [("0", a) for a in atoms_] + [(a + "'", "1") for a in atoms_]
    pairs += [(a, b + "'") for block in blocks for a in block for b in block if a != b]
    orth = {"0": "1", "1": "0"}
    for a in atoms_:
        orth[a], orth[a + "'"] = a + "'", a
    elements = ("0", *atoms_, *(a + "'" for a in atoms_), "1")
    return build_lattice(LatticeDescription(f"loop({k})", elements, tuple(pairs), orth))


def random_ortholattice(rng, k):
    """One draw of an ortholattice on 0, p0..pk-1, q0..qk-1, 1 with
    qi = pi', or None when build_lattice refuses it.

    The p's get a random order (pi <= pj for i < j with probability 0.3,
    closed transitively), the q's its dual (qj <= qi when pi <= pj), and
    "pi <= qj" a random relation that is symmetric, irreflexive and closed
    downwards: a drawn pair (i, j) brings every pair below it, and is
    drawn only if no p lies below both pi and pj.  No q lies below a p.
    """
    below = [1 << i for i in range(k)]  # below[j]: the i with pi <= pj
    for j in range(k):
        for i in range(j):
            if rng.random() < 0.3:
                below[j] |= below[i]
    orth = [0] * k  # orth[i]: the j with pi <= qj
    for j in range(k):
        for i in range(j):
            if rng.random() < 0.3 and not below[i] & below[j]:
                for a in range(k):
                    if below[i] >> a & 1:
                        orth[a] |= below[j]
                    if below[j] >> a & 1:
                        orth[a] |= below[i]
    p = [f"p{i}" for i in range(k)]
    q = [f"q{i}" for i in range(k)]
    pairs = [("0", x) for x in p] + [(x, "1") for x in q]
    for i in range(k):
        for j in range(k):
            if i != j and below[j] >> i & 1:
                pairs += [(p[i], p[j]), (q[j], q[i])]
            if orth[i] >> j & 1:
                pairs.append((p[i], q[j]))
    orthocomplement = {"0": "1", "1": "0"}
    for a, b in zip(p, q):
        orthocomplement[a], orthocomplement[b] = b, a
    try:
        return build_lattice(LatticeDescription(
            f"random({k})", ("0", *p, *q, "1"), tuple(pairs), orthocomplement))
    except LatticeInputError:
        return None


@lru_cache(maxsize=None)
def random_ortholattices(seed, count):
    """The first ``count`` distinct draws of :func:`random_ortholattice`
    that build_lattice accepts (about one in five), with k uniform in 2..6
    and a generator seeded with ``seed``.  Almost none is orthomodular."""
    rng = random.Random(seed)
    kept, seen = [], set()
    while len(kept) < count:
        lattice = random_ortholattice(rng, rng.randint(2, 6))
        if lattice is not None and (lattice.down_masks, lattice.orth_map) not in seen:
            seen.add((lattice.down_masks, lattice.orth_map))
            kept.append(lattice)
    return kept


@st.composite
def sparse_matrices(draw):
    """(width, dense rows): up to 8 rows over 1..7 columns, each with up to
    four nonzero entries in -3..3."""
    width = draw(st.integers(1, 7))
    entries = st.integers(-3, 3).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [0] * width
        for j in draw(st.lists(st.integers(0, width - 1), max_size=4, unique=True)):
            row[j] = draw(entries)
        rows.append(row)
    return width, rows
