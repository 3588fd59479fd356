"""Independent pure-python oracles used to check the vectorized paths.

Everything here works on plain list-of-list tables with naive loops; no
numpy and no package internals, so a disagreement points at a real bug.
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


def oracle_segment(t, m):
    """The initial segment [0, m] as ``SegmentPoset.to_json_dict`` gives it,
    less the label. Checks run in the package's order and the first failure
    is the witness; a segment glb/lub is the first bound, in element order,
    that lies above/below every other bound."""
    add, mul, star, one = t
    n = len(add)
    elems = [a for a in range(n) if oracle_leq(t, a, m)]
    pairs = {(a, b) for a in elems for b in elems if oracle_leq(t, a, b)}
    neg = [next(y for y in range(n) if add[x][y] == 0) for x in range(n)]
    c = {a: add[m][neg[a]] for a in elems}
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
            if ((a, c[b]) in pairs) != oracle_orthogonal(t, a, b):
                yield "segment-locality", (a, b)

    failure = next(orthocomplement_failures(), None)
    orthoc = failure is None
    if orthoc:
        failure = next(orthomodular_failures(), None)
    orthom = orthoc and failure is None
    local = next(locality_failures(), None)
    return verdict(orthoc, orthom, local is None, failure or local)
