"""Independent oracles for the test suite.

Everything here is deliberately written from scratch (plain Gaussian
elimination, Bareiss determinants, exhaustive counting) and must not import
the package's linear algebra, so that every cross-check runs down two
independent computational paths.  Two exceptions use the package's Smith
normal form, which is itself checked against the dense route and sympy.
``measure_group_by_pairs`` differs in its presentation: it feeds every
orthogonal-pair row to ``FPAbelianGroup.from_relations``.
``module_by_dense_images`` differs in how it writes the images: it keeps
every one as a dense vector as wide as the group, as the package did
before it kept them sparse.  ``normalizer_by_search`` runs the package's
automorphism search on the whole lattice, coloured by the sets, as the
package found normalizers before it composed them from the lattice's
blocks.  ``orthogonal_closure_by_members`` tests every member at every
element reached, as the package's closure did before it read the members
below x' off one mask.  ``lattice_description_by_generators`` checks a
lattice file's fields with one generator expression per check, as the
package did before it ran each check as a map in C.  The ``*_by_up_sets``
oracles read the order one comparison at a time into up-sets and take
joins and covers from them, as the package did while it kept up-sets
beside its down-sets.  The ``*_by_description`` constructors list element
names, cover pairs and the orthocomplement and have ``build_lattice``
close the order and prove every axiom, as the package's constructors did
before they wrote their masks.  ``quotient_map_injective_by_classes``
keeps the normalizer class met in each full orbit, as a frozenset, as the
package did before it compared the classes' orbit labels.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import mul


def mat_mul(a, b):
    """Product of two matrices (integers or Fractions)."""
    if not a or not b:
        return [[] for _ in a]
    cols = len(b[0])
    inner = len(b)
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for row in a
    ]


def join_all(lattice, names):
    """The least element above all of ``names``, one join at a time
    (bottom for no names)."""
    out = lattice.bottom
    for name in names:
        out = lattice.join(out, name)
    return out


def row_reduce(rows):
    """Textbook Gauss-Jordan over Fractions; returns (reduced rows, pivots)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        hit = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                hit = i
                break
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        scale = rows[r][c]
        rows[r] = [x / scale for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows):
    return len(row_reduce(rows)[1])


def solve_exact(rows, rhs):
    """One solution of rows * x == rhs with free variables zero, or None."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = row_reduce(aug)
    sol = [Fraction(0)] * ncols
    for r, c in zip(range(len(red)), pivots):
        if c == ncols:
            return None
        sol[c] = red[r][ncols]
    return sol


def additivity_nullity(lattice):
    """Dimension of the rational solution space of the additivity system.

    Builds the constraint rows directly from the public lattice API (one row
    per ordered orthogonal pair) and row-reduces them here; this is the
    independent route against which measure-module ranks are checked.
    """
    elements = list(lattice.elements)
    index = {e: i for i, e in enumerate(elements)}
    rows = []
    for x in elements:
        for y in elements:
            if lattice.orthogonal(x, y):
                row = [0] * len(elements)
                row[index[lattice.join(x, y)]] += 1
                row[index[x]] -= 1
                row[index[y]] -= 1
                rows.append(row)
    return len(elements) - rank(rows)


def det_bareiss(matrix):
    """Exact integer determinant by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hom_count_bruteforce(rows, ncols, m):
    """Number of x in (Z/m)^ncols with every row . x == 0 mod m.

    Exhaustive meet-in-the-middle count: enumerate both halves of the
    coordinates, bucket the partial row sums of one half, and look up the
    complement of the other.  Covers every assignment exactly once.
    """
    rows = [list(r) for r in rows]
    half = ncols // 2
    left_cols = range(half)
    right_cols = range(half, ncols)
    buckets = {}
    for assignment in product(range(m), repeat=half):
        key = tuple(
            sum(row[c] * assignment[c] for c in left_cols) % m for row in rows
        )
        buckets[key] = buckets.get(key, 0) + 1
    total = 0
    for assignment in product(range(m), repeat=ncols - half):
        key = tuple(
            (-sum(row[c] * assignment[c - half] for c in right_cols)) % m
            for row in rows
        )
        total += buckets.get(key, 0)
    return total


def in_convex_hull(point, vertices):
    """Exact membership of a point in the convex hull of finitely many
    vertices, via Caratheodory: some subset of at most dim+1 vertices
    carries a nonnegative affine combination equal to the point."""
    point = [Fraction(x) for x in point]
    dim = len(point)
    verts = [[Fraction(x) for x in v] for v in vertices]
    for k in range(1, min(len(verts), dim + 1) + 1):
        for combo in combinations(verts, k):
            rows = [[v[i] for v in combo] for i in range(dim)]
            rows.append([Fraction(1)] * k)
            rhs = point + [Fraction(1)]
            sol = solve_exact(rows, rhs)
            if sol is None:
                continue
            if all(x >= 0 for x in sol) and all(
                sum(row[j] * sol[j] for j in range(k)) == b
                for row, b in zip(rows, rhs)
            ):
                return True
    return False


def unique_measure_with_atom_values(lattice, atom_values):
    """Brute-force determination of the measure with the given atom values.

    Non-atom elements range over every subset sum of the assignment;
    candidates are pruned by the additivity triples as soon as all three
    members are assigned.  Asserts uniqueness and returns the value map.
    """
    elements = list(lattice.elements)
    index = {e: i for i, e in enumerate(elements)}
    sums = {0}
    for v in atom_values.values():
        sums |= {s + v for s in sums}
    candidates = []
    for e in elements:
        if e in atom_values:
            candidates.append([atom_values[e]])
        else:
            candidates.append(sorted(sums))
    triples = []
    for x in elements:
        for y in elements:
            if lattice.orthogonal(x, y):
                triples.append((index[x], index[y], index[lattice.join(x, y)]))
    by_last = [[] for _ in elements]
    for i, j, k in triples:
        by_last[max(i, j, k)].append((i, j, k))
    found = []
    assignment = [None] * len(elements)

    def extend(t):
        if t == len(elements):
            found.append(dict(zip(elements, assignment)))
            return
        for v in candidates[t]:
            assignment[t] = v
            if all(
                assignment[i] + assignment[j] == assignment[k]
                for i, j, k in by_last[t]
            ):
                extend(t + 1)
        assignment[t] = None

    extend(0)
    assert len(found) == 1, f"expected a unique measure, found {len(found)}"
    return found[0]


def row_appended_coinvariant_rows(lattice, perms):
    """Relation rows of the coinvariants, built the long way.

    One row per unordered orthogonal pair (the join minus the two parts),
    followed by one row e_gx - e_x for every group element g and element x
    it moves, deduplicated: the quotient of the free group on the elements
    by all of them is the coinvariant measure group.  ``perms`` must list
    every group element.
    """
    elements = list(lattice.elements)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    rows = []
    for i, x in enumerate(elements):
        for y in elements[i:]:
            if lattice.orthogonal(x, y):
                row = [0] * n
                row[index[lattice.join(x, y)]] += 1
                row[index[x]] -= 1
                row[index[y]] -= 1
                rows.append(row)
    seen = set()
    for p in perms:
        for i, j in enumerate(p):
            if i != j and (i, j) not in seen:
                seen.add((i, j))
                row = [0] * n
                row[j] += 1
                row[i] -= 1
                rows.append(row)
    return rows


def measure_group_by_pairs(lattice, action=None):
    """The measure group, or its coinvariants, from one dense row per
    orthogonal pair.

    The rows are ``relation_matrix``'s.  Under an action each orbit's
    columns are summed (orbits numbered by their least element, in order)
    and repeated rows dropped.  ``from_relations`` reduces them with every
    column at the same height, so its passes order the columns by how many
    rows hold them alone, not by the down-set sizes ``measure_module`` uses.
    """
    from orthomeasure import FPAbelianGroup, relation_matrix

    rows = relation_matrix(lattice)
    if action is None:
        return FPAbelianGroup.from_relations(len(lattice), rows)
    labels = action.orbit_labels()
    position = {label: k for k, label in enumerate(sorted(set(labels)))}
    columns = [position[label] for label in labels]
    merged = {}
    for row in rows:
        out = [0] * len(position)
        for c, x in zip(columns, row):
            out[c] += x
        merged[tuple(out)] = None
    return FPAbelianGroup.from_relations(len(position), list(merged))


def dense_presented(generator_count, rows, heights):
    """(invariants, images) of Z^generator_count modulo the sparse rows,
    each image a dense vector, torsion coordinates first (reduced mod their
    invariant), then free ones.

    The triangular passes and the Smith normal form of what they leave,
    as ``FPAbelianGroup._presented`` runs them, then a back-substitution
    that writes each taken column's image as a full-width vector: the
    combination its row gives of the images of its other columns.
    """
    from orthomeasure.intlinalg import smith_normal_form, snf_diagonal

    def combine(terms, vectors):
        acc = {}
        for j, a in terms:
            for k, b in vectors[j].items():
                acc[k] = acc.get(k, 0) + a * b
        return {k: x for k, x in acc.items() if x}

    passes = []
    residual = [dict(row) for row in rows]
    while residual:
        holders = {}
        for row in residual:
            for j in row:
                holders[j] = holders.get(j, 0) + 1
        order = sorted(holders, key=lambda c: (heights[c], -holders[c], c))
        position = {c: t for t, c in enumerate(order)}
        taken, rest = {}, []
        for row in residual:
            c = max(row, key=position.__getitem__)
            if row[c] in (1, -1) and c not in taken:
                taken[c] = row
            else:
                rest.append(row)
        if not taken:
            break
        over_left = {}
        for c in order:
            row = taken.get(c)
            if row is None:
                over_left[c] = {c: 1}
            else:
                over_left[c] = combine(((j, -row[c] * a) for j, a in row.items() if j != c),
                                       over_left)
        passes.append([(c, taken[c]) for c in order if c in taken])
        residual = [r for r in (combine(row.items(), over_left) for row in rest) if r]
    core_columns = sorted({j for row in residual for j in row})
    if residual:
        _, d, v = smith_normal_form([[row.get(j, 0) for j in core_columns] for row in residual])
        diagonal = snf_diagonal(d)
    else:
        diagonal, v = [], []
    bound = {c for pivots in passes for c, _ in pivots} | set(core_columns)
    free_columns = [j for j in range(generator_count) if j not in bound]
    moduli = [x for x in diagonal if x > 1]
    s = len(diagonal)
    width = len(moduli) + len(core_columns) - s + len(free_columns)
    images = [None] * generator_count
    for i, j in enumerate(core_columns):
        torsion = [v[i][t] % x for t, x in enumerate(diagonal) if x > 1]
        images[j] = (*torsion, *v[i][s:], *[0] * len(free_columns))
    offset = width - len(free_columns)
    for q, j in enumerate(free_columns):
        images[j] = (0,) * (offset + q) + (1,) + (0,) * (width - offset - q - 1)
    k = len(moduli)
    for pivots in reversed(passes):
        for c, row in pivots:
            acc = [0] * width
            for j, a in row.items():
                if j != c:
                    f = -row[c] * a
                    acc = [x + f * y for x, y in zip(acc, images[j])]
            images[c] = (*(x % m for x, m in zip(acc[:k], moduli)), *acc[k:])
    invariants = (1,) * sum(map(len, passes)) + tuple(diagonal)
    return invariants, tuple(images)


def module_by_dense_images(lattice, action=None):
    """(invariants, images per generator, generator per element) of the
    presentation ``measure_module`` reduces, by :func:`dense_presented`.

    The rows are the cover rows on an orthomodular lattice and the
    orthogonal-pair rows on any other, also on a Boolean lattice, whose
    module the package writes in closed form.
    """
    import orthomeasure.measures as measures_mod

    rows = measures_mod._presentation_rows(lattice)
    columns = measures_mod._orbit_columns(lattice, action)
    width = max(columns) + 1
    heights = [0] * width
    for c, down in zip(columns, lattice.down_masks):
        heights[c] = down.bit_count()
    if action is not None:
        rows = measures_mod._merged_rows(rows, columns)
    invariants, images = dense_presented(width, rows, heights)
    return invariants, images, columns


def every_pair_meets(down_pos, order):
    """Whether the lower bounds of every pair have a greatest element: the
    one at their highest position, whose down-set must be all of them.  An
    empty bound set fails too, as position -1 holds a nonempty down-set.
    Every pair of positions is tested."""
    down_at = [down_pos[i] for i in order]
    for p, d in enumerate(down_at):
        for e in down_at[p + 1:]:
            lb = d & e
            if down_at[lb.bit_length() - 1] != lb:
                return False
    return True


def orbits_by_listing(perms, n):
    """The orbit of every index, read off the listed group elements."""
    return [frozenset(p[i] for p in perms) for i in range(n)]


def _primitive(vec):
    """Scale a rational vector to coprime integers, keeping its direction."""
    fracs = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _sign_canonical(vec):
    first = next((x for x in vec if x), 0)
    return tuple(-x for x in vec) if first < 0 else vec


def _dot(a, b):
    return sum(map(mul, a, b))


def double_description_by_rank(normals, dim):
    """Extreme rays and lineality basis of {x : n . x >= 0 for all n}.

    The double description method with the rank-based adjacency test: two
    rays are adjacent when the inserted constraints tight at both have rank
    two less than all inserted constraints.  Ranks come from ``rank`` above
    (Fraction Gauss-Jordan), so this is the slow path the package's
    tight-set test is checked against; it returns the same canonical
    (sorted, primitive) rays and lineality basis.
    """
    lineality = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays = []
    processed = []
    for raw in normals:
        a = _primitive(raw)
        if not any(a):
            continue
        pairings = [_dot(a, l) for l in lineality]
        pivot = next((i for i, d in enumerate(pairings) if d), None)
        if pivot is not None:
            l0 = lineality[pivot]
            if pairings[pivot] < 0:
                l0 = tuple(-x for x in l0)
            d0 = abs(pairings[pivot])
            new_lineality = []
            for i, l in enumerate(lineality):
                if i == pivot:
                    continue
                if pairings[i]:
                    l = _primitive(
                        tuple(d0 * x - pairings[i] * y for x, y in zip(l, l0))
                    )
                new_lineality.append(_sign_canonical(l))
            rays = [
                _primitive(
                    tuple(d0 * x - _dot(a, r) * y for x, y in zip(r, l0))
                )
                for r in rays
            ]
            rays.append(l0)
            lineality = new_lineality
            rays = list(dict.fromkeys(rays))
        else:
            values = [_dot(a, r) for r in rays]
            if any(v < 0 for v in values):
                target = rank(processed) - 2
                keep = [r for r, v in zip(rays, values) if v >= 0]
                combos = []
                for p, vp in zip(rays, values):
                    if vp <= 0:
                        continue
                    for nray, vn in zip(rays, values):
                        if vn >= 0:
                            continue
                        tight = [
                            row for row in processed
                            if _dot(row, p) == 0 and _dot(row, nray) == 0
                        ]
                        if rank(tight) != target:
                            continue
                        combos.append(
                            _primitive(
                                tuple(vp * x - vn * y for x, y in zip(nray, p))
                            )
                        )
                rays = list(dict.fromkeys(keep + combos))
        processed.append(a)
    rays.sort()
    lineality = sorted(lineality)
    return rays, lineality


def state_vertices_by_pairings(lattice, rays, coords):
    """State-polytope vertices sliced from the cone's rays, their values
    kept as integers.

    Each ray r is scaled by 1 / (top . r): its coordinates become
    Fractions, and each element's value is its coordinate row paired with
    r, over that scale.  The vertices are sorted on their Fraction
    coordinates.  Returns (coords, ray, pairings, scale) in that order,
    pairings[i] / scale being the value at element i.
    """
    top = coords[lattice.top_index]
    vertices = []
    for r in rays:
        scale = _dot(top, r)
        pairings = [_dot(c, r) for c in coords]
        vertices.append((tuple(Fraction(x, scale) for x in r), r, pairings, scale))
    vertices.sort(key=lambda v: v[0])
    return vertices


def state_vertices_by_fractions(lattice, rays, coords):
    """:func:`state_vertices_by_pairings` with every value a Fraction:
    (coords, values) pairs, values mapping each element to its value."""
    return [
        (vertex, {e: Fraction(p, scale) for e, p in zip(lattice.elements, pairings)})
        for vertex, _, pairings, scale in state_vertices_by_pairings(lattice, rays, coords)
    ]


def distributivity_witness(lattice):
    """First triple (x, y, z) in element order breaking either distributive
    law, read through the lattice's name-level meet and join; None if
    there is none."""
    meet, join = lattice.meet, lattice.join
    for x in lattice.elements:
        for y in lattice.elements:
            for z in lattice.elements:
                if (join(x, meet(y, z)) != meet(join(x, y), join(x, z))
                        or meet(x, join(y, z)) != join(meet(x, y), meet(x, z))):
                    return (x, y, z)
    return None


def join_irreducibles_by_definition(lattice):
    """The names x != 0, in element order, that are no join of two elements
    both other than x, read through the name-level join."""
    names, join = lattice.elements, lattice.join
    out = []
    for x in names:
        below = [y for y in names if y != x and lattice.leq(y, x)]
        if x != lattice.bottom and all(join(y, z) != x for y in below for z in below):
            out.append(x)
    return out


def distributivity_failure(lattice):
    """The witness of ``is_distributive``'s rule, from names: the first x in
    element order, then join-irreducible j in element order, with
    J(x v j) != J(x) | J(j), where J(y) is the set of join-irreducibles
    below y; returns (i, x, j) for the first join-irreducible i in the
    difference, or None if there is no such pair."""
    irreducible = join_irreducibles_by_definition(lattice)
    below = {y: {i for i in irreducible if lattice.leq(i, y)} for y in lattice.elements}
    for x in lattice.elements:
        for j in irreducible:
            extra = below[lattice.join(x, j)] - below[x] - below[j]
            if extra:
                return next(i for i in irreducible if i in extra), x, j
    return None


def orthomodularity_failure(lattice):
    """The witness of ``is_orthomodular``'s rule, from names: the first pair
    a < b, a in element order and then b, with a' ^ b = 0; None if there is
    none."""
    names = lattice.elements
    return next(((a, b) for a in names for b in names
                 if a != b and lattice.leq(a, b)
                 and lattice.meet(lattice.orthocomplement(a), b) == lattice.bottom),
                None)


def relation_pairs_by_names(lattice):
    """The pairs whose rows present the measure group, from names: on an
    orthomodular lattice (0, 0), then (x, a) for x != 0 in element order and
    each atom a <= x' in element order, an atom x taking only the atoms
    after it; on any other lattice every orthogonal pair (x, y), y <= x',
    x in element order and y from x on."""
    names, bottom = lattice.elements, lattice.bottom
    if orthomodularity_failure(lattice) is not None:
        return [(x, y) for k, x in enumerate(names) for y in names[k:]
                if lattice.leq(y, lattice.orthocomplement(x))]
    atoms = [a for a in names if a != bottom
             and all(y in (bottom, a) for y in names if lattice.leq(y, a))]
    pairs = [(bottom, bottom)]
    for k, x in enumerate(names):
        if x != bottom:
            pairs += [(x, a) for a in atoms if lattice.leq(a, lattice.orthocomplement(x))
                      and (x not in atoms or names.index(a) > k)]
    return pairs


def first_nonadditive_relation_pair(lattice, values, domain):
    """The witness of ``is_measure``'s rule: the first pair of
    :func:`relation_pairs_by_names` where the values are not additive, or
    None."""
    vals = {e: domain.validate(values[e]) for e in lattice.elements}
    return next(((x, y) for x, y in relation_pairs_by_names(lattice)
                 if domain.add(vals[x], vals[y]) != vals[lattice.join(x, y)]), None)


def inclusion_exclusion_check(lattice, members, partial, k_max=8):
    """Groemer's inclusion-exclusion identities, by a scan over subsets.

    Checks every combination of 2..k_max distinct members whose join is a
    member: its value must be the alternating sum of the values at the meets
    of its nonempty subcombinations, a meet landing on bottom outside the
    set counting zero.  The lattice must be distributive and the set
    meet-closed.  Returns a CheckResult whose witness is the first failing
    combination.
    """
    from orthomeasure import (
        CheckResult,
        DomainMismatchError,
        NotDistributiveError,
        SchemaError,
        is_distributive,
        make_generating_set,
    )

    dist = is_distributive(lattice)
    if not dist.ok:
        raise NotDistributiveError(f"witness {dist.witness}")
    names = make_generating_set(lattice, members).members
    domain = partial.domain
    for b in partial.values:
        if b not in names:
            raise SchemaError(f"partial measure names non-member {b!r}")
    values = {}
    for b in names:
        if b not in partial.values:
            raise DomainMismatchError(f"no value given for member {b!r}")
        values[b] = domain.validate(partial.values[b])
    for k in range(2, min(len(names), k_max) + 1):
        for combo in combinations(names, k):
            join = join_all(lattice, combo)
            if join not in values:
                continue
            expected = 0
            for size in range(1, k + 1):
                sign = 1 if size % 2 else -1
                for sub in combinations(combo, size):
                    meet = sub[0]
                    for b in sub[1:]:
                        meet = lattice.meet(meet, b)
                    expected += sign * values.get(meet, 0)
            if domain.validate(expected) != values[join]:
                return CheckResult(False, combo)
    return CheckResult(True)


def orthogonal_joins_by_subsets(lattice, members):
    """The joins of every pairwise orthogonal subset of the members, the
    empty one (bottom) included, by a scan over all subsets."""
    out = set()
    for k in range(len(members) + 1):
        for combo in combinations(members, k):
            if all(lattice.orthogonal(a, b) for a, b in combinations(combo, 2)):
                out.add(join_all(lattice, combo))
    return out


def indicator_identities_by_functions(lattice, max_product_size=3):
    """The indicator identity suite on Fraction-valued simple functions.

    Builds every indicator as a function on the atoms and checks the
    product, modular and join-product identities pointwise, scanning every
    pair and every subset of up to ``max_product_size`` elements, which
    ``check_indicator_identities`` proves instead; returns (ok, witness).
    """
    from orthomeasure.indicators import SimpleFunction, indicator
    from orthomeasure.lattice import atoms

    one = SimpleFunction(dict.fromkeys(atoms(lattice), Fraction(1)))
    ind = {x: indicator(lattice, x) for x in lattice.elements}
    for x in lattice.elements:
        for y in lattice.elements:
            if ind[x] * ind[y] != ind[lattice.meet(x, y)]:
                return False, ("product", x, y)
            lhs = ind[lattice.join(x, y)] + ind[lattice.meet(x, y)]
            if lhs != ind[x] + ind[y]:
                return False, ("modular", x, y)
    for k in range(1, max_product_size + 1):
        for combo in combinations(lattice.elements, k):
            expected = one
            for x in combo:
                expected = expected * (one - ind[x])
            expected = one - expected
            if expected != ind[join_all(lattice, combo)]:
                return False, ("join_product", *combo)
    return True, None


def build_lattice_by_scan(desc, max_elements=4096):
    """The lattice tables of a description, built the long way.

    Warshall's closure over bitmask rows, an antisymmetry scan of all pairs,
    every meet and join found by scanning the bound set for an element whose
    own down- or up-set is the whole set, and order reversal checked on
    every pair of the closure.  On a rejected description it raises the
    error class ``build_lattice`` raises, with the same message for a
    schema, duplicate, unknown-element, image, involution or complement
    fault.  A cycle, a missing meet or join and a failed order reversal it
    names by its own scans (the first pair of the closure, by index, that
    breaks the law), which need not be the witness ``build_lattice`` finds
    in the pass that fails.  An accepted description gives the tables as a
    dict keyed like the ``OrthoLattice`` attributes.
    """
    from orthomeasure.errors import (
        BadOrthocomplementError,
        NotALatticeError,
        NotAPartialOrderError,
        SchemaError,
        SizeCapError,
    )

    elements = desc.elements
    n = len(elements)
    if n == 0:
        raise NotALatticeError("a lattice needs at least one element")
    if n > max_elements:
        raise SizeCapError(f"{n} elements exceeds the cap of {max_elements}")
    if len(set(elements)) != n:
        dup = next(e for e in elements if elements.count(e) > 1)
        raise SchemaError(f"duplicate element identifier {dup!r}")
    index = {e: i for i, e in enumerate(elements)}

    for a, b in desc.leq_pairs:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise SchemaError(f"leq pair references unknown element {missing!r}")
    up = order_closure(desc)
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise NotAPartialOrderError(
                    f"cycle: {elements[i]!r} <= {elements[j]!r} <= {elements[i]!r}"
                )

    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]

    def bound_of(candidates, reach):
        for m in range(n):
            if candidates >> m & 1 and reach[m] == candidates:
                return m
        return None

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m = bound_of(down[i] & down[j], down)
            if m is None:
                raise NotALatticeError(
                    f"{elements[i]!r} and {elements[j]!r} have no meet"
                )
            jn = bound_of(up[i] & up[j], up)
            if jn is None:
                raise NotALatticeError(
                    f"{elements[i]!r} and {elements[j]!r} have no join"
                )
            meet[i][j] = meet[j][i] = m
            join[i][j] = join[j][i] = jn

    full = (1 << n) - 1
    bottom = next(i for i in range(n) if up[i] == full)
    top = next(i for i in range(n) if down[i] == full)

    orth = [None] * n
    for e in elements:
        img = desc.orthocomplement.get(e)
        if img is None:
            raise BadOrthocomplementError(f"no orthocomplement given for {e!r}")
        if img not in index:
            raise SchemaError(f"orthocomplement references unknown element {img!r}")
        orth[index[e]] = index[img]
    extra = set(desc.orthocomplement) - set(elements)
    if extra:
        raise SchemaError(f"orthocomplement keys not in elements: {sorted(extra)}")
    for i in range(n):
        if orth[orth[i]] != i:
            raise BadOrthocomplementError(f"involution fails at {elements[i]!r}")
        if join[i][orth[i]] != top or meet[i][orth[i]] != bottom:
            raise BadOrthocomplementError(f"complement laws fail at {elements[i]!r}")
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1 and not up[orth[j]] >> orth[i] & 1:
                raise BadOrthocomplementError(
                    f"order reversal fails on ({elements[i]!r}, {elements[j]!r})"
                )

    return {
        "elements": tuple(elements),
        "up_masks": tuple(up),
        "down_masks": tuple(down),
        "meet_table": tuple(map(tuple, meet)),
        "join_table": tuple(map(tuple, join)),
        "orth_map": tuple(orth),
        "bottom_index": bottom,
        "top_index": top,
    }


def order_closure(desc):
    """Warshall's reflexive-transitive closure of a description's pairs, as
    up-set bitmask rows over element indices; every name must be an
    element.  A cycle shows as two rows holding each other's bit."""
    n = len(desc.elements)
    index = {e: i for i, e in enumerate(desc.elements)}
    up = [1 << i for i in range(n)]
    for a, b in desc.leq_pairs:
        up[index[a]] |= 1 << index[b]
    for k in range(n):
        mk = up[k]
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= mk
    return up


def extreme_pair_failure(desc):
    """How ``build_lattice`` names a missing bottom or top, from the names
    and the closure of an acyclic description: ``("meet", x, y)`` for the
    first two minimal elements by index, else ``("join", x, y)`` for the
    first two maximal ones, else None."""
    elements = desc.elements
    up = order_closure(desc)
    below = [sum(1 << i for i, row in enumerate(up) if row >> j & 1)
             for j in range(len(elements))]
    for kind, rows in (("meet", below), ("join", up)):
        ends = [e for e, row in zip(elements, rows) if row.bit_count() == 1]
        if len(ends) > 1:
            return kind, ends[0], ends[1]
    return None


def order_reversal_failure(desc):
    """How ``build_lattice`` names an orthocomplement that reverses no
    order: the first given pair (a, b), a by index and then in the file's
    order, with b' not below a' in the closure; None when there is none."""
    index = {e: i for i, e in enumerate(desc.elements)}
    orth = desc.orthocomplement
    up = order_closure(desc)
    for a, b in sorted(desc.leq_pairs, key=lambda pair: index[pair[0]]):
        if not up[index[orth[b]]] >> index[orth[a]] & 1:
            return a, b
    return None


def subspace_description_by_listing(q, n, form, max_elements=4096):
    """The description ``subspace_lattice`` builds, by listing every subspace.

    Each subspace of F_q^n is the row-reduced span of some combination of
    projective points; the order is inclusion of the spanned vector sets and
    the complement is the row-reduced space orthogonal to the basis.  Raises what
    ``subspace_lattice`` raises, with the same message, before it builds.
    """
    from orthomeasure.errors import IsotropicFormError, SizeCapError
    from orthomeasure.lattice import LatticeDescription

    if n < 1 or len(form) != n:
        raise ValueError("form must list one diagonal coefficient per dimension")
    if q < 2 or any(q % d == 0 for d in range(2, q) if d * d <= q):
        raise ValueError(f"q={q} is not prime (prime fields only)")
    coeffs = [c % q for c in form]

    def pairing(u, v):
        return sum(c * a * b for c, a, b in zip(coeffs, u, v)) % q

    def rref(rows):
        rows = [list(r) for r in rows]
        r = 0
        for c in range(n):
            pivot = next((i for i in range(r, len(rows)) if rows[i][c] % q), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = pow(rows[r][c] % q, q - 2, q)
            rows[r] = [(x * inv) % q for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] % q:
                    f = rows[i][c] % q
                    rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
            r += 1
            if r == len(rows):
                break
        return tuple(tuple(row) for row in rows[:r])

    def span(basis):
        vectors = {tuple([0] * n)}
        for row in basis:
            vectors = {tuple((x + c * y) % q for x, y in zip(v, row))
                       for v in vectors for c in range(q)}
        return vectors

    all_vectors = list(product(range(q), repeat=n))
    for v in all_vectors:
        if any(v) and pairing(v, v) == 0:
            raise IsotropicFormError(f"isotropic vector {v} over F_{q}")
    points = [v for v in all_vectors if next((x for x in v if x), None) == 1]
    subspaces = {()}
    for k in range(1, n + 1):
        for combo in combinations(points, k):
            subspaces.add(rref(combo))
    ordered = sorted(subspaces, key=lambda b: (len(b), b))
    if len(ordered) > max_elements:
        raise SizeCapError(f"{len(ordered)} subspaces exceeds the cap")

    def sub_name(basis):
        if not basis:
            return "0"
        if len(basis) == n:
            return "1"
        return "<" + "; ".join(",".join(str(x) for x in row) for row in basis) + ">"

    spans = {b: span(b) for b in ordered}
    names = {b: sub_name(b) for b in ordered}
    pairs = tuple((names[a], names[b]) for a in ordered for b in ordered
                  if a != b and spans[a] <= spans[b])
    orth = {}
    for b in ordered:
        perp = [v for v in all_vectors if any(v) and all(pairing(v, u) == 0 for u in b)]
        orth[names[b]] = names[rref(perp)]
    return LatticeDescription(
        f"subspaces(F_{q}^{n})", tuple(names[b] for b in ordered), pairs, orth
    )


class TwoSidedRefinement:
    """Nodes of the isomorphism search by joint refinement of both sides.

    Each round refines the source and target colourings together over one
    palette, the sorted union of both sides' signatures, and prunes on
    unequal colour multisets.  Covers come from a scan of the order
    relation.  ``marks``, when given, is a pair of lists: a mark per
    element index of src and one per element index of dst.  ``root`` and
    ``fix`` give the nodes the search should give.
    """

    def __init__(self, src, dst, marks=None):
        self.sides = []
        initial = []
        for lat, side in zip((src, dst), marks or (None, None)):
            n = len(lat)
            less = [[lat.leq_index(i, j) and i != j for j in range(n)] for i in range(n)]
            ups = [
                [j for j in range(n) if less[i][j]
                 and not any(less[i][k] and less[k][j] for k in range(n))]
                for i in range(n)
            ]
            downs = [[i for i in range(n) if j in ups[i]] for j in range(n)]
            orth = lat.orth_map
            self.sides.append((ups, downs, orth))
            colours = [
                (sum(lat.leq_index(j, i) for j in range(n)),
                 sum(lat.leq_index(i, j) for j in range(n)),
                 len(downs[i]), len(ups[i]),
                 sum(lat.leq_index(j, orth[i]) for j in range(n)))
                for i in range(n)
            ]
            if side is not None:
                colours = [c + (m,) for c, m in zip(colours, side)]
            initial.append(colours)
        self.root = self.refine(initial) if len(src) == len(dst) else None

    def refine(self, colours):
        count = len(set(colours[0]))
        while True:
            mix = {c: hash((c, 0x9E3779B9)) for c in set(colours[0]) | set(colours[1])}
            size = {c: colours[0].count(c) for c in set(colours[0]) | set(colours[1])}
            sigs = []
            for c, (ups, downs, orth) in zip(colours, self.sides):
                sigs.append([
                    (x,) if size[x] == 1 else
                    (x, sum(mix[c[j]] for j in ups[i]), sum(mix[c[j]] for j in downs[i]),
                     c[orth[i]])
                    for i, x in enumerate(c)
                ])
            palette = {s: k for k, s in enumerate(sorted(set(sigs[0]) | set(sigs[1])))}
            colours = [[palette[s] for s in side] for side in sigs]
            if sorted(colours[0]) != sorted(colours[1]):
                return None
            if len(palette) == count:
                return colours
            count = len(palette)

    def fix(self, node, x, y):
        if node is None or node[0][x] != node[1][y]:
            return None
        ca, cb = list(node[0]), list(node[1])
        ca[x] = cb[y] = len(ca)
        return self.refine([ca, cb])


def normalizer_by_search(lattice, sets):
    """The stabilizer in Aut(L) of the index sets: one search of the whole
    lattice, each element coloured by the bitmask of the sets that hold
    it."""
    from orthomeasure.symmetry import _search_group

    colours = [0] * len(lattice)
    for k, s in enumerate(sets):
        for i in s:
            colours[i] |= 1 << k
    return _search_group(lattice, colours)


def orthogonal_closure_by_members(lattice, members, values):
    """(first element not reached or None, path sums by index) of the
    joins of pairwise orthogonal members: from each element x reached,
    every member is tested for b <= x', in the given order."""
    gens = [(lattice.index(b), values[b]) for b in members]
    orth, down = lattice.orth_map, lattice.down_masks
    sums = {lattice.bottom_index: 0}
    queue = [lattice.bottom_index]
    for x in queue:
        below, total = down[orth[x]], sums[x]
        for b, v in gens:
            if below >> b & 1:
                z = lattice.join_index(x, b)
                if z not in sums:
                    sums[z] = total + v
                    queue.append(z)
    missing = next((e for i, e in enumerate(lattice.elements) if i not in sums), None)
    return missing, sums


def quotient_map_injective_by_classes(action, members):
    """Whether no full orbit meets two distinct normalizer orbits of the
    members, read class by class."""
    from orthomeasure.symmetry import normalizer, orbits

    members = list(members)
    labels = action.orbit_labels()
    seen = {}
    for orb in orbits(normalizer(action, members), members):
        big = labels[action.lattice.index(orb.representative)]
        small = frozenset(orb.members)
        if big in seen and seen[big] != small:
            return False
        seen[big] = small
    return True


def normalizer_by_listing(perms, members):
    """The listed elements that map the index set onto itself."""
    target = set(members)
    return {p for p in perms if {p[i] for i in target} == target}


def first_nonadditive_pair(lattice, values, domain):
    """Additivity scanned over every orthogonal pair in canonical order:
    (True, None), or (False, the first failing pair of names)."""
    vals = [domain.validate(values[e]) for e in lattice.elements]
    for i, j in lattice.orthogonal_index_pairs():
        if domain.add(vals[i], vals[j]) != vals[lattice.join_index(i, j)]:
            return False, (lattice.elements[i], lattice.elements[j])
    return True, None


def functional_invariance_by_indicators(lattice, action, measure):
    """Whether the measure's linear functional takes one value on ind(x)
    and ind(g(x)) for every generator g and element x, each indicator built
    as a Fraction-valued function on the atoms: the functional side of
    ``invariant_functional_check``, which that function answers from the
    measure alone."""
    from orthomeasure.indicators import functional_from_measure, indicator

    functional = functional_from_measure(lattice, measure)
    ind = {x: indicator(lattice, x) for x in lattice.elements}
    return all(
        functional(ind[g(x)]) == functional(ind[x])
        for g in action.generators
        for x in lattice.elements
    )


def unit_elements_by_dense_scan(module):
    """For each free basis vector e_j, the first element (in index order)
    whose dense free coordinates are e_j, or None if some e_j is no
    element's image: a scan of every element's dense vector."""
    k = len(module.torsion)
    rank = module.rank
    units = [None] * rank
    for i in range(len(module.lattice)):
        c = module.projection_index(i)[k:]
        if c.count(0) == rank - 1 and c.count(1) == 1:
            j = c.index(1)
            if units[j] is None:
                units[j] = i
    return None if None in units else units


def lattice_description_by_generators(data):
    """``LatticeDescription.from_json_dict``, each field checked by a
    generator over its items."""
    from orthomeasure import LatticeDescription
    from orthomeasure.errors import SchemaError

    if not isinstance(data, dict):
        raise SchemaError("lattice file must contain a JSON object")
    allowed = {"name", "elements", "leq", "orthocomplement"}
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"unknown keys in lattice file: {sorted(unknown)}")
    for key in ("elements", "leq", "orthocomplement"):
        if key not in data:
            raise SchemaError(f"lattice file missing key {key!r}")
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SchemaError("'elements' must be a list of strings")
    pairs = data["leq"]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
        for p in pairs
    ):
        raise SchemaError("'leq' must be a list of [str, str] pairs")
    orth = data["orthocomplement"]
    if not isinstance(orth, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in orth.items()
    ):
        raise SchemaError("'orthocomplement' must map strings to strings")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("'name' must be a string")
    return LatticeDescription(name, tuple(elements), tuple((a, b) for a, b in pairs), dict(orth))


def up_sets_by_leq(lattice):
    """Each element's up-set, bits over element indices, read one
    comparison at a time."""
    n = len(lattice)
    return [sum(lattice.leq_index(i, j) << j for j in range(n)) for i in range(n)]


def _least(masks, common):
    """The element of ``common`` whose mask is all of ``common``: the least
    upper bound when the masks are up-sets, the greatest lower bound when
    they are down-sets; None if there is none."""
    return next((k for k in range(len(masks)) if common >> k & 1 and masks[k] == common), None)


def join_by_up_sets(up, i, j):
    """The least upper bound of i and j, read off the up-sets ``up``."""
    return _least(up, up[i] & up[j])


def cover_masks_by_up_sets(lattice):
    """covers[i], the bits of the elements covering i: the j of the strict
    up-set of i whose down-set meets it in j alone."""
    up = up_sets_by_leq(lattice)
    n = len(up)
    down = [sum((up[i] >> j & 1) << i for i in range(n)) for j in range(n)]
    out = []
    for i in range(n):
        strict = up[i] & ~(1 << i)
        out.append(sum(1 << j for j in range(n) if strict >> j & 1 and down[j] & strict == 1 << j))
    return out


def atomistic_failure_by_up_sets(lattice):
    """The first element, by index, that is not the join of the atoms
    below it; None if there is none."""
    up = up_sets_by_leq(lattice)
    n = len(up)
    atom_mask = cover_masks_by_up_sets(lattice)[lattice.bottom_index]
    for i in range(n):
        common = (1 << n) - 1
        for a in range(n):
            if atom_mask >> a & 1 and up[a] >> i & 1:
                common &= up[a]
        if _least(up, common) != i:
            return lattice.elements[i]
    return None


def direct_factors_by_definition(lattice):
    """``direct_factors`` as (members, coordinates, orthocomplements), from
    the definitions: the atoms of the center, the z != 0, 1 with
    t = (t ^ z) v (t ^ z') for every t and no such element strictly below,
    by down-set size and then index; the members of each [0, z]; and
    coordinates[t][j], the index of t ^ z_j among the members of z_j.
    ([], [], []) when there are fewer than two, or when t -> coordinates is
    not a bijection that takes each t to elements it is the join of and
    carries ' to x -> x' ^ z_j."""
    up = up_sets_by_leq(lattice)
    n = len(up)
    down = [sum((up[i] >> j & 1) << i for i in range(n)) for j in range(n)]
    orth = lattice.orth_map

    def meet(i, j):
        return _least(down, down[i] & down[j])

    def join(i, j):
        return _least(up, up[i] & up[j])

    central = [z for z in range(n) if z not in (lattice.bottom_index, lattice.top_index)
               and all(join(meet(t, z), meet(t, orth[z])) == t for t in range(n))]
    found = sorted((z for z in central if not any(y != z and down[z] >> y & 1 for y in central)),
                   key=lambda z: (down[z].bit_count(), z))
    if len(found) < 2:
        return [], [], []
    members = [[i for i in range(n) if down[z] >> i & 1] for z in found]
    coordinates = [tuple(m.index(meet(t, z)) for z, m in zip(found, members))
                   for t in range(n)]
    orths = [[m.index(meet(orth[x], z)) for x in m] for z, m in zip(found, members)]
    if len(set(coordinates)) != n or prod(map(len, members)) != n:
        return [], [], []
    for t, c in enumerate(coordinates):
        joined = lattice.bottom_index
        for m, k in zip(members, c):
            joined = join(joined, m[k])
        if joined != t or coordinates[orth[t]] != tuple(o[k] for o, k in zip(orths, c)):
            return [], [], []
    return members, coordinates, orths


def rank_colours_by_up_sets(lattice, ups, downs):
    """The isomorphism search's root colours as they were taken while the
    lattice kept its up-sets: the down-set size, the up-set size, the
    numbers of lower and of upper covers, and the down-set size of the
    orthocomplement, the sizes counted one comparison at a time."""
    n = len(lattice)
    below = [sum(lattice.leq_index(j, i) for j in range(n)) for i in range(n)]
    above = [sum(lattice.leq_index(i, j) for j in range(n)) for i in range(n)]
    return list(zip(below, above, map(len, downs), map(len, ups),
                    [below[o] for o in lattice.orth_map]))


# --- constructors by description ------------------------------------------------


def _built(name, elements, pairs, orth):
    from orthomeasure import LatticeDescription, build_lattice

    return build_lattice(LatticeDescription(name, tuple(elements), tuple(pairs), orth))


def boolean_by_description(n):
    """``boolean(n)`` from its covers m < m | bit."""
    masks = sorted(range(2 ** n), key=lambda m: (m.bit_count(), m))
    full = 2 ** n - 1
    name = ["".join("1" if m >> i & 1 else "0" for i in range(n)) for m in range(full + 1)]
    pairs = [(name[m], name[m | 1 << i]) for m in masks for i in range(n) if not m >> i & 1]
    return _built(f"boolean({n})", [name[m] for m in masks], pairs,
                  {name[m]: name[m ^ full] for m in masks})


def mo_by_description(n):
    """``mo(n)`` from 0 < a < 1 for every atom a, and 0 < 1."""
    atoms = [x for i in range(1, n + 1) for x in (f"a{i}", f"a{i}'")]
    pairs = [("0", a) for a in atoms] + [(a, "1") for a in atoms] + [("0", "1")]
    orth = {"0": "1", "1": "0"}
    for i in range(1, n + 1):
        orth[f"a{i}"], orth[f"a{i}'"] = f"a{i}'", f"a{i}"
    return _built(f"mo({n})", ("0", *atoms, "1"), pairs, orth)


def benzene_by_description():
    """``benzene()`` from its two chains 0 < a < b < 1 and 0 < b' < a' < 1."""
    pairs = (("0", "a"), ("a", "b"), ("b", "1"), ("0", "b'"), ("b'", "a'"), ("a'", "1"))
    orth = {"0": "1", "1": "0", "a": "a'", "a'": "a", "b": "b'", "b'": "b"}
    return _built("benzene", ("0", "a", "b", "b'", "a'", "1"), pairs, orth)


def subspace_lattice_by_description(q, n, form):
    """``subspace_lattice(q, n, form)`` from its closed-form names: the
    chain 0 < 1 for n = 1, and 0 < line < 1 for the q + 1 lines of F_q^2;
    raises IsotropicFormError on the first isotropic vector with leading
    entry 1, in lexicographic order."""
    from orthomeasure.errors import IsotropicFormError

    coeffs = [c % q for c in form]
    for v in product(range(q), repeat=n):
        if next((x for x in v if x), None) == 1 and sum(
                c * x * x for c, x in zip(coeffs, v)) % q == 0:
            raise IsotropicFormError(f"isotropic vector {v} over F_{q}")
    lines = [(0, 1), *((1, x) for x in range(q))] if n == 2 else []
    names = [f"<{p0},{p1}>" for p0, p1 in lines]
    orth = {"0": "1", "1": "0"}
    for name, (p0, p1) in zip(names, lines):
        u, v = coeffs[1] * p1 % q, -coeffs[0] * p0 % q
        orth[name] = f"<1,{v * pow(u, q - 2, q) % q}>" if u else "<0,1>"
    pairs = (*(("0", e) for e in names), ("0", "1"), *((e, "1") for e in names))
    return _built(f"subspaces(F_{q}^{n})", ("0", *names, "1"), pairs, orth)


def product_by_description(a, b):
    """``product(a, b)`` from the covers (x, y) < (x', y) and
    (x, y) < (x, y') of the factors' covers."""
    names = {(x, y): f"({x},{y})" for x in a.elements for y in b.elements}
    covers_a, covers_b = a.cover_masks(), b.cover_masks()
    pairs = []
    for i, x in enumerate(a.elements):
        for j, y in enumerate(b.elements):
            pairs += [(names[x, y], names[a.elements[k], y]) for k in _set_bits(covers_a[i])]
            pairs += [(names[x, y], names[x, b.elements[k]]) for k in _set_bits(covers_b[j])]
    orth = {names[x, y]: names[a.orthocomplement(x), b.orthocomplement(y)]
            for x in a.elements for y in b.elements}
    return _built(f"product({a.name},{b.name})", names.values(), pairs, orth)


def horizontal_sum_by_description(a, b):
    """``horizontal_sum(a, b)`` from each summand's covers, its bottom and
    top renamed "0" and "1", and 0 < 1."""
    elements, pairs, orth = ["0"], [("0", "1")], {"0": "1", "1": "0"}
    for side, lat in (("a", a), ("b", b)):
        glued = [f"{side}:{e}" for e in lat.elements]
        glued[lat.bottom_index], glued[lat.top_index] = "0", "1"
        elements += [glued[i] for i in range(len(lat))
                     if i not in (lat.bottom_index, lat.top_index)]
        for i, up in enumerate(lat.cover_masks()):
            pairs += [(glued[i], glued[j]) for j in _set_bits(up)]
        orth.update((glued[i], glued[lat.orth_map[i]]) for i in range(len(lat))
                    if i not in (lat.bottom_index, lat.top_index))
    return _built(f"hsum({a.name},{b.name})", [*elements, "1"], pairs, orth)


def _set_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]
