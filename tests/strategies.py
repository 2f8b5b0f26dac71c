"""Hypothesis strategies and lattice lists shared by the test modules."""

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
        desc = lattice.to_description()
        elements = tuple(draw(st.permutations(desc.elements)))
        lattice = build_lattice(LatticeDescription(
            desc.name, elements, desc.leq_pairs, dict(desc.orthocomplement)))
    return lattice


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
