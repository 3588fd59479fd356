"""Independent pure-python oracles used to check the vectorized paths.

Everything here works on plain list-of-list tables with naive loops; no
numpy and no package internals, so a disagreement points at a real bug.
`leq_bruteforce` and `orthogonal` take a StarRing and loop over its
multiplication table the same way.
"""

from __future__ import annotations

from itertools import product


def zn_tables(n: int):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    star = list(range(n))
    return add, mul, star, 1 % n


def product_tables(t1, t2):
    a1, m1, s1, o1 = t1
    a2, m2, s2, o2 = t2
    n2 = len(a2)
    n = len(a1) * n2
    enc = lambda x, y: x * n2 + y
    dec = lambda i: divmod(i, n2)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    star = [0] * n
    for i in range(n):
        x1, x2 = dec(i)
        star[i] = enc(s1[x1], s2[x2])
        for j in range(n):
            y1, y2 = dec(j)
            add[i][j] = enc(a1[x1][y1], a2[x2][y2])
            mul[i][j] = enc(m1[x1][y1], m2[x2][y2])
    return add, mul, star, enc(o1, o2)


def mat2_tables(p: int):
    """2x2 matrices over Z_p; row-major digits, first entry most significant."""
    n = p**4

    def dec(i):
        d = []
        for _ in range(4):
            d.append(i % p)
            i //= p
        return tuple(reversed(d))

    def enc(d):
        v = 0
        for x in d:
            v = v * p + x
        return v

    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    star = [0] * n
    for i in range(n):
        a = dec(i)
        star[i] = enc((a[0], a[2], a[1], a[3]))
        for j in range(n):
            b = dec(j)
            add[i][j] = enc(tuple((a[t] + b[t]) % p for t in range(4)))
            mul[i][j] = enc(
                (
                    (a[0] * b[0] + a[1] * b[2]) % p,
                    (a[0] * b[1] + a[1] * b[3]) % p,
                    (a[2] * b[0] + a[3] * b[2]) % p,
                    (a[2] * b[1] + a[3] * b[3]) % p,
                )
            )
    return add, mul, star, enc((1, 0, 0, 1))


def matrix_tables(t, k: int):
    """k x k matrices over the commutative ring with tables t, star =
    entrywise star then transpose; row-major digits, first entry most
    significant (``mat2_tables(p)`` is ``matrix_tables(zn_tables(p), 2)``)."""
    add, mul, star, one = t
    p, cells = len(add), k * k
    n = p**cells

    def dec(i):
        d = []
        for _ in range(cells):
            d.append(i % p)
            i //= p
        return d[::-1]

    def enc(d):
        v = 0
        for x in d:
            v = v * p + x
        return v

    def entry(a, b, i, j):
        s = 0
        for l in range(k):
            s = add[s][mul[a[i * k + l]][b[l * k + j]]]
        return s

    digits = [dec(i) for i in range(n)]
    cell_ids = [(i, j) for i in range(k) for j in range(k)]
    add_t = [[enc([add[x][y] for x, y in zip(a, b)]) for b in digits] for a in digits]
    mul_t = [[enc([entry(a, b, i, j) for i, j in cell_ids]) for b in digits] for a in digits]
    star_t = [enc([star[a[j * k + i]] for i, j in cell_ids]) for a in digits]
    return add_t, mul_t, star_t, enc([one if i == j else 0 for i, j in cell_ids])


def mat2_index(p: int, a00: int, a01: int, a10: int, a11: int) -> int:
    v = 0
    for x in (a00, a01, a10, a11):
        v = v * p + x
    return v


def ring_tables(ring):
    """Plain-list tables of a StarRing, for feeding the oracles below."""
    add = [[int(v) for v in row] for row in ring.addition]
    mul = [[int(v) for v in row] for row in ring.multiplication]
    star = [int(v) for v in ring.involution]
    return add, mul, star, ring.one


def oracle_violations(t):
    """``(axiom, witness)`` for each failed ring/involution axiom, in the
    package's order, with the lexicographically first witness. Distributive
    witnesses are (multiplier, y, z); ``star-multiplicative`` is (x, y) with
    (xy)* != y*x*."""
    add, mul, star, one = t
    elems = range(len(add))
    axioms = (
        ("add-identity", 1, lambda x: add[0][x] == x),
        ("add-commutative", 2, lambda x, y: add[x][y] == add[y][x]),
        (
            "add-associative",
            3,
            lambda x, y, z: add[add[x][y]][z] == add[x][add[y][z]],
        ),
        ("add-inverse", 1, lambda x: any(add[x][y] == 0 for y in elems)),
        (
            "mul-associative",
            3,
            lambda x, y, z: mul[mul[x][y]][z] == mul[x][mul[y][z]],
        ),
        ("left-unit", 1, lambda x: mul[one][x] == x),
        ("right-unit", 1, lambda x: mul[x][one] == x),
        (
            "left-distributive",
            3,
            lambda x, y, z: mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]],
        ),
        (
            "right-distributive",
            3,
            lambda x, y, z: mul[add[y][z]][x] == add[mul[y][x]][mul[z][x]],
        ),
        ("star-additive", 2, lambda x, y: star[add[x][y]] == add[star[x]][star[y]]),
        (
            "star-multiplicative",
            2,
            lambda x, y: star[mul[x][y]] == mul[star[y]][star[x]],
        ),
        ("star-involutive", 1, lambda x: star[star[x]] == x),
    )
    bad = []
    for name, arity, holds in axioms:
        for w in product(elems, repeat=arity):
            if not holds(*w):
                bad.append((name, w))
                break
    return bad


def oracle_idempotents(t):
    add, mul, star, one = t
    return sorted(e for e in range(len(add)) if mul[e][e] == e)


def oracle_projections(t):
    add, mul, star, one = t
    return sorted(e for e in oracle_idempotents(t) if star[e] == e)


def oracle_central_projections(t):
    add, mul, star, one = t
    n = len(add)
    return sorted(
        e
        for e in oracle_projections(t)
        if all(mul[e][x] == mul[x][e] for x in range(n))
    )


def oracle_cover(t, x):
    """Least central projection h with h·x = x, scanned from scratch."""
    mul = t[1]
    cands = [h for h in oracle_central_projections(t) if mul[h][x] == x]
    least = [h for h in cands if all(mul[h][k] == h for k in cands)]
    return least[0] if least else None


def oracle_leq(t, a, b):
    add, mul, star, one = t
    return all(mul[mul[a][r]][b] == mul[mul[a][r]][a] for r in range(len(add)))


def leq_bruteforce(ring, a, b):
    """a <= b in a StarRing, scanned over every r of its own tables."""
    mul = ring.multiplication
    return all(mul[mul[a][r]][b] == mul[mul[a][r]][a] for r in range(ring.order))


def orthogonal(ring, a, b):
    """a ⊥ b in a StarRing: a·r·b = 0 for every r of its own tables."""
    mul = ring.multiplication
    return all(mul[mul[a][r]][b] == 0 for r in range(ring.order))


def oracle_star_leq(t, a, b):
    """The starred variant of the Conrad relation: a*·r·b = a*·r·a for every r."""
    add, mul, star, one = t
    x = star[a]
    return all(mul[mul[x][r]][b] == mul[mul[x][r]][a] for r in range(len(add)))


def oracle_orthogonal(t, a, b):
    add, mul, star, one = t
    return all(mul[mul[a][r]][b] == 0 for r in range(len(add)))


def oracle_right_annihilator(t, B):
    mul = t[1]
    n = len(mul)
    return sorted(x for x in range(n) if all(mul[b][x] == 0 for b in B))


def oracle_leq_pairs(t):
    n = len(t[0])
    return {(a, b) for a in range(n) for b in range(n) if oracle_leq(t, a, b)}


def oracle_covering_edges(t):
    pairs = oracle_leq_pairs(t)
    strict = {(a, b) for a, b in pairs if a != b}
    return sorted(
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in range(len(t[0])))
    )


def oracle_glb(pairs, elems, a, b):
    lower = [d for d in elems if (d, a) in pairs and (d, b) in pairs]
    great = [d for d in lower if all((e, d) in pairs for e in lower)]
    return great[0] if great else None


def oracle_lub(pairs, elems, a, b):
    upper = [d for d in elems if (a, d) in pairs and (b, d) in pairs]
    least = [d for d in upper if all((d, e) in pairs for e in upper)]
    return least[0] if least else None


def is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def oracle_segment(t, m, leq=None, orthogonal=None, sub=None):
    """The initial segment [0, m] as ``SegmentPoset.to_json_dict`` gives it,
    less the label. Checks run in the package's order and the first failure
    is the witness; a segment glb/lub is the first bound, in element order,
    that lies above/below every other bound.

    ``leq(a, b)``, ``orthogonal(a, b)`` and the table ``sub[x][y] = x - y``
    default to the exhaustive relations and the ring's subtraction; other
    values check the package on relations that are not the ring's own."""
    add, mul, star, one = t
    n = len(add)
    leq = leq or (lambda a, b: oracle_leq(t, a, b))
    orthogonal = orthogonal or (lambda a, b: oracle_orthogonal(t, a, b))
    elems = [a for a in range(n) if leq(a, m)]
    pairs = {(a, b) for a in elems for b in elems if leq(a, b)}
    if sub is None:
        neg = [next(y for y in range(n) if add[x][y] == 0) for x in range(n)]
        c = {a: add[m][neg[a]] for a in elems}
    else:
        c = {a: sub[m][a] for a in elems}
    out = {
        "top": m,
        "elements": elems,
        "leq": [[(a, b) in pairs for b in elems] for a in elems],
        "complement": [c[a] for a in elems],
    }

    def verdict(orthoc, orthom, local, failure):
        axiom, parts = failure or (None, None)
        witness = {"axiom": axiom, "elements": list(parts)} if failure else None
        out.update(
            orthocomplemented=orthoc, orthomodular=orthom, locality=local, witness=witness
        )
        return out

    outside = [a for a in elems if c[a] not in elems]
    if outside:
        return verdict(False, False, False, ("complement-in-segment", outside[:1]))

    def lub(a, b):
        return oracle_lub(pairs, elems, a, b)

    def orthocomplement_failures():
        for a in elems:
            if oracle_glb(pairs, elems, a, c[a]) != 0:
                yield "complement-meet-zero", (a,)
            if lub(a, c[a]) != m:
                yield "complement-join-top", (a,)
        for a in elems:
            if c[c[a]] != a:
                yield "complement-involution", (a,)
        for a, b in product(elems, repeat=2):
            if (a, b) in pairs and (c[b], c[a]) not in pairs:
                yield "complement-antitone", (a, b)

    def orthomodular_failures():
        for a, b in product(elems, repeat=2):
            if (a, c[b]) in pairs and lub(a, b) is None:
                yield "orthogonal-join-exists", (a, b)
        for a, b in product(elems, repeat=2):
            if (a, b) in pairs and not any(
                (x, c[a]) in pairs and lub(a, x) == b for x in elems
            ):
                yield "orthomodular-decomposition", (a, b)

    def locality_failures():
        for a, b in product(elems, repeat=2):
            if ((a, c[b]) in pairs) != orthogonal(a, b):
                yield "segment-locality", (a, b)

    failure = next(orthocomplement_failures(), None)
    orthoc = failure is None
    if orthoc:
        failure = next(orthomodular_failures(), None)
    orthom = orthoc and failure is None
    local = next(locality_failures(), None)
    return verdict(orthoc, orthom, local is None, failure or local)


def oracle_generator(t, ann, kind):
    """The projection e with eR (``kind`` "right") or Re ("left") equal to
    the set ``ann``, or None; the first in element order."""
    mul = t[1]
    n = len(mul)
    for e in oracle_projections(t):
        if kind == "right":
            ideal = {mul[e][r] for r in range(n)}
        else:
            ideal = {mul[r][e] for r in range(n)}
        if ideal == set(ann):
            return e
    return None


def oracle_annihilator_generators(t):
    """``(right, left)``: for each a, the projection generating r({a}) and
    the one generating l({a}), or None."""
    mul = t[1]
    n = len(mul)
    right = [oracle_generator(t, oracle_right_annihilator(t, [a]), "right") for a in range(n)]
    left = [
        oracle_generator(t, [x for x in range(n) if mul[x][a] == 0], "left")
        for a in range(n)
    ]
    return right, left


def oracle_classification(t):
    """``(witnesses, generators)``: the first witness against semiprime,
    Rickart * and p.q.-Baer *, keyed as ``classify`` keys them, and the
    projection generating each r(aR) when the ring is p.q.-Baer *."""
    mul = t[1]
    n = len(mul)
    witnesses = {}
    for a in range(1, n):
        if all(mul[mul[a][r]][a] == 0 for r in range(n)):
            witnesses["semiprime"] = (a,)
            break
    right, _ = oracle_annihilator_generators(t)
    if None in right:
        witnesses["rickart_star"] = (right.index(None),)
    generators = []
    for a in range(n):
        ann = [x for x in range(n) if all(mul[mul[a][r]][x] == 0 for r in range(n))]
        generators.append(oracle_generator(t, ann, "right"))
    if None in generators:
        witnesses["pq_baer_star"] = (generators.index(None),)
        return witnesses, None
    return witnesses, tuple(generators)


def _product(mul, *xs):
    v = xs[0]
    for x in xs[1:]:
        v = mul[v][x]
    return v


def oracle_cub_star_terms(t, covers, a, b):
    """The terms of the cub-star identities that fail at the pair (a, b):
    "eq1" to "eq4" when a*rb = C(a)b*rb, a*rb = C(b)a*ra, arb* = C(a)brb*
    or arb* = C(b)ara* fails for some r, "sa1" and "sa2" when a*b or ab*
    is not self-adjoint. ``covers[x]`` is taken as C(x)."""
    add, mul, star, one = t
    sa, sb, ca, cb = star[a], star[b], covers[a], covers[b]
    rs = range(len(add))
    failing = {
        "eq1": any(_product(mul, sa, r, b) != _product(mul, ca, sb, r, b) for r in rs),
        "eq2": any(_product(mul, sa, r, b) != _product(mul, cb, sa, r, a) for r in rs),
        "eq3": any(_product(mul, a, r, sb) != _product(mul, ca, b, r, sb) for r in rs),
        "eq4": any(_product(mul, a, r, sb) != _product(mul, cb, a, r, sa) for r in rs),
        "sa1": star[mul[sa][b]] != mul[sa][b],
        "sa2": star[mul[a][sb]] != mul[a][sb],
    }
    return {term for term, fails in failing.items() if fails}


def oracle_cub_star_identities(t, covers):
    """The first pair (a, b), row-major, with a common upper bound at which
    some term of ``oracle_cub_star_terms`` fails; None if no pair fails."""
    n = len(t[0])
    pairs = oracle_leq_pairs(t)
    for a in range(n):
        for b in range(n):
            if any((a, c) in pairs and (b, c) in pairs for c in range(n)):
                if oracle_cub_star_terms(t, covers, a, b):
                    return a, b
    return None


def oracle_cancellation_failures(t, ortho):
    """Every triple (x, y, z), row-major, with x ⊥ y, x ⊥ z, a least upper
    bound x∨z, y <= x∨z and not y <= z. ``ortho`` is the set of pairs taken
    as orthogonal."""
    n = len(t[0])
    elems = range(n)
    pairs = oracle_leq_pairs(t)
    joins = {(x, z): oracle_lub(pairs, elems, x, z) for x, z in ortho}
    for x in elems:
        for y in elems:
            if (x, y) not in ortho:
                continue
            for z in elems:
                if (x, z) not in ortho or (y, z) in pairs:
                    continue
                j = joins[x, z]
                if j is not None and (y, j) in pairs:
                    yield x, y, z


def oracle_cancellation(t, ortho):
    """The first failing triple of ``oracle_cancellation_failures``, or None."""
    return next(oracle_cancellation_failures(t, ortho), None)


def oracle_pair_tables(n, pairs):
    """(meet, join) at every pair (a, b) of range(n) with a common upper
    bound under the partial order ``pairs``, as ``pair_tables`` holds them:
    the glb and the lub, -1 where there is none."""
    elems = range(n)
    out = {}
    for a, b in product(elems, repeat=2):
        if any((a, d) in pairs and (b, d) in pairs for d in elems):
            bounds = oracle_glb(pairs, elems, a, b), oracle_lub(pairs, elems, a, b)
            out[a, b] = tuple(-1 if v is None else v for v in bounds)
    return out


def oracle_meet_join(t, pairs, covers):
    """``(witness, note)`` for the first failing term of the meet-join
    theorem, or None, under the partial order ``pairs`` and the covers
    ``covers[x]`` = C(x). The terms, each over all pairs (a, b) with a
    common upper bound, row-major: a glb and a lub exist (pseudo-lattice);
    the glb is a·C(b) (meet-formula) and b·C(a) (meet-formula-symmetric);
    the lub is (a+b) - a·C(b) (join-formula), a + b·(1-C(a))
    (join-corollary) and a·(1-C(b)) + b (join-corollary-symmetric)."""
    add, mul = t[0], t[1]
    elems = range(len(add))
    neg = [next(y for y in elems if add[x][y] == 0) for x in elems]
    one = next(e for e in elems if all(mul[e][x] == x for x in elems))

    def sub(x, y):
        return add[x][neg[y]]

    bounds = oracle_pair_tables(len(add), pairs)  # row-major
    for (a, b), glb_lub in bounds.items():
        if -1 in glb_lub:
            return (a, b), "pseudo-lattice"
    terms = (
        ("meet-formula", 0, lambda a, b: mul[a][covers[b]]),
        ("meet-formula-symmetric", 0, lambda a, b: mul[b][covers[a]]),
        ("join-formula", 1, lambda a, b: sub(add[a][b], mul[a][covers[b]])),
        ("join-corollary", 1, lambda a, b: add[a][mul[b][sub(one, covers[a])]]),
        ("join-corollary-symmetric", 1, lambda a, b: add[mul[a][sub(one, covers[b])]][b]),
    )
    for note, side, value in terms:
        for (a, b), glb_lub in bounds.items():
            if glb_lub[side] != value(a, b):
                return (a, b), note
    return None


def oracle_order_diagnostics(n, leq):
    """The first witness against reflexivity, antisymmetry and transitivity
    of the relation ``leq(a, b)`` on range(n), row-major, or None each."""
    elems = range(n)
    reflexive = next(((a,) for a in elems if not leq(a, a)), None)
    antisymmetric = next(
        ((a, b) for a, b in product(elems, repeat=2) if a != b and leq(a, b) and leq(b, a)),
        None,
    )
    transitive = next(
        (
            (a, b, c)
            for a, b, c in product(elems, repeat=3)
            if leq(a, b) and leq(b, c) and not leq(a, c)
        ),
        None,
    )
    return reflexive, antisymmetric, transitive


def oracle_orthogonality_axioms(n, leq, ortho):
    """``(witness, note)`` for the first failing orthogonality axiom, in the
    package's order (symmetry, descends, zero-orthogonal), or None.
    ``leq(a, b)`` and ``ortho(a, b)`` are the relations checked."""
    elems = range(n)
    for a, b in product(elems, repeat=2):
        if ortho(a, b) != ortho(b, a):
            return (a, b), "symmetry"
    for x, y, z in product(elems, repeat=3):
        if leq(x, y) and ortho(y, z) and not ortho(x, z):
            return (x, y, z), "descends"
    for x in elems:
        if not ortho(0, x):
            return (0, x), "zero-orthogonal"
    return None


def oracle_problem2_failures(t, leq, include_left=False):
    """Every (a, b, c), row-major, with a <= c, b <= c and aR ∩ bR = {0}
    (and Ra ∩ Rb = {0} with ``include_left``) but not a+b <= c.
    ``leq(a, b)`` is the relation checked."""
    add, mul, star, one = t
    n = len(add)
    right = [{mul[a][r] for r in range(n)} for a in range(n)]
    left = [{mul[r][a] for r in range(n)} for a in range(n)]
    for a, b in product(range(n), repeat=2):
        if right[a] & right[b] != {0} or include_left and left[a] & left[b] != {0}:
            continue
        for c in range(n):
            if leq(a, c) and leq(b, c) and not leq(add[a][b], c):
                yield a, b, c


def oracle_problem2(t, leq, include_left=False):
    """The first triple of ``oracle_problem2_failures``, or None."""
    return next(oracle_problem2_failures(t, leq, include_left), None)


def oracle_cover_uniqueness(t, ortho, covers):
    """The first (x, e), ordered by the central projection e and then by
    x, where x·e = x, e·y = 0 for every y with ``ortho(x, y)`` (xRy = 0),
    and ``covers[x]`` is not e; None if there is none."""
    add, mul, star, one = t
    n = len(add)
    for e in oracle_central_projections(t):
        for x in range(n):
            if mul[x][e] == x and covers[x] != e:
                if all(mul[e][y] == 0 for y in range(n) if ortho(x, y)):
                    return x, e
    return None


def oracle_annihilator_identity(t, ortho, covers):
    """``(witness, note)`` for the first x, then set, then y at which r(xR)
    differs from r(eR), l(Rx), l(Re), (1-e)R, R(1-e) or {y : ey = 0}, with
    e = ``covers[x]``; None if they all agree. ``ortho(a, b)`` stands for
    aRb = 0."""
    add, mul, star, one = t
    n = len(add)
    neg = [next(y for y in range(n) if add[x][y] == 0) for x in range(n)]
    for x in range(n):
        e = covers[x]
        f = add[one][neg[e]]
        others = (
            ("r(eR)", lambda y: ortho(e, y)),
            ("l(Rx)", lambda y: ortho(y, x)),
            ("l(Re)", lambda y: ortho(y, e)),
            ("(1-e)R", lambda y: y in {mul[f][r] for r in range(n)}),
            ("R(1-e)", lambda y: y in {mul[r][f] for r in range(n)}),
            ("ey=0", lambda y: mul[e][y] == 0),
        )
        for tag, member in others:
            for y in range(n):
                if ortho(x, y) != member(y):
                    return (x, y), f"r(xR) != {tag}"
    return None


def oracle_cover_remark(t, leq, covers):
    """``(witness, note)`` for the first failing cover identity, in the
    package's order, or None: C(e) = e and C(e·x) = e·C(x) for central
    projections e, C(x*) = C(x), ``leq`` agreeing with e = e·f on the
    central projections, and e = e·f being antisymmetric and transitive.
    ``covers[x]`` is taken as C(x)."""
    add, mul, star, one = t
    n = len(add)
    cps = oracle_central_projections(t)
    below = lambda e, f: mul[e][f] == e
    checks = (
        ("cover-of-central-projection", ((e,) for e in cps if covers[e] != e)),
        (
            "cover-scaling",
            ((e, x) for e in cps for x in range(n) if covers[mul[e][x]] != mul[e][covers[x]]),
        ),
        ("cover-star", ((x,) for x in range(n) if covers[star[x]] != covers[x])),
        (
            "central-projection-order",
            ((e, f) for e in cps for f in cps if leq(e, f) != below(e, f)),
        ),
        (
            "central-projection-antisymmetry",
            ((e, f) for e in cps for f in cps if e != f and below(e, f) and below(f, e)),
        ),
        (
            "central-projection-transitivity",
            (
                (e, g)
                for e in cps
                for g in cps
                if not below(e, g) and any(below(e, f) and below(f, g) for f in cps)
            ),
        ),
    )
    for note, witnesses in checks:
        w = next(witnesses, None)
        if w:
            return w, note
    return None


def _minus(add):
    """x - y as a function, from the addition table alone."""
    elems = range(len(add))
    neg = [next(y for y in elems if add[x][y] == 0) for x in elems]
    return lambda x, y: add[x][neg[y]]


def oracle_order_equivalence(t, ortho, covers):
    """``(witness, note)`` for the first pair (a, b), row-major, at which
    the Conrad relation differs from its starred form (bruteforce-vs-star),
    then the first at which it differs from the cover form a = C(a)·b
    (bruteforce-vs-cover); None if neither. a <= b is taken as
    ``ortho(a, b - a)`` and the starred form as ``ortho(a*, b - a)``: by
    distributivity, a·r·b = a·r·a and a*·r·b = a*·r·a for every r.
    ``covers[x]`` is taken as C(x)."""
    add, mul, star, one = t
    sub = _minus(add)
    terms = (
        ("bruteforce-vs-star", lambda a, b: ortho(star[a], sub(b, a))),
        ("bruteforce-vs-cover", lambda a, b: mul[covers[a]][b] == a),
    )
    for note, other in terms:
        for a, b in product(range(len(add)), repeat=2):
            if ortho(a, sub(b, a)) != other(a, b):
                return (a, b), note
    return None


def oracle_ortho_decomposition(t, ortho, join):
    """The first pair (a, b), row-major, with a <= b, taken as
    ``ortho(a, b - a)``, whose b is not ``join(a, b - a)``, the lub of a
    and b - a (-1 for none); None if there is none."""
    add = t[0]
    sub = _minus(add)
    for a, b in product(range(len(add)), repeat=2):
        if ortho(a, sub(b, a)) and join(a, sub(b, a)) != b:
            return a, b
    return None


def oracle_subtractivity_forward(t, leq, covers):
    """``(witness, note)`` for the first failing term of the forward
    subtractivity theorem, in the package's order, or None. Each term runs
    over all pairs a <= b of ``leq(a, b)``, row-major: C(b - a) =
    C(b) - C(a) (cover-subtraction), C(a)·C(b) = C(a) (cover-monotone),
    a = a·C(b) (a-equals-a-cover-b) and a = b·C(a) (a-equals-b-cover-a).
    ``covers[x]`` is taken as C(x)."""
    add, mul, star, one = t
    sub = _minus(add)
    C = covers
    terms = (
        ("cover-subtraction", lambda a, b: C[sub(b, a)] == sub(C[b], C[a])),
        ("cover-monotone", lambda a, b: mul[C[a]][C[b]] == C[a]),
        ("a-equals-a-cover-b", lambda a, b: mul[a][C[b]] == a),
        ("a-equals-b-cover-a", lambda a, b: mul[b][C[a]] == a),
    )
    for note, holds in terms:
        for a, b in product(range(len(add)), repeat=2):
            if leq(a, b) and not holds(a, b):
                return (a, b), note
    return None


def oracle_subtractivity_biconditional(t, leq, covers):
    """The first pair (a, b), row-major, at which ``leq(a, b)`` differs
    from C(b - a) = C(b) - C(a), or None. ``covers[x]`` is taken as C(x)."""
    sub = _minus(t[0])
    for a, b in product(range(len(t[0])), repeat=2):
        if leq(a, b) != (covers[sub(b, a)] == sub(covers[b], covers[a])):
            return a, b
    return None
