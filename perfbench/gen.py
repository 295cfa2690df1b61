"""Seeded corpus generators for the benchmark workloads.

Every instance is a manifold JSON object in the format ``tautfol`` reads.
Member ``i`` of a workload's pool is drawn from its own
``random.Random("<workload>:<i>")``, so the pool is fixed and any subset of it
can be regenerated without drawing the rest.  The census pool also holds the
``CENSUS_REGRESSIONS`` members.  A run's ``--seed`` chooses
which pool members it uses and in which order (``run.select``).

Random draws are kept only when their first Betti number matches the role
(0 for closed graphs, 1 for solid tori).  The Betti number comes from an
exact fraction-free (Bareiss) rank of the H_1 presentation written out here,
so generation never calls into the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# A run draws CORPUS_SIZE[w] members of a pool of POOL_SIZE[w] random draws.
POOL_SIZE = {"census": 240, "snf-chain": 120, "deep-chain": 120, "oracle": 120}
CORPUS_SIZE = {"census": 180, "snf-chain": 96, "deep-chain": 60, "oracle": 96}
WORKLOADS = tuple(POOL_SIZE)


# ---------------------------------------------------------------------------
# Exact rank and the first Betti number
# ---------------------------------------------------------------------------


def bareiss_rank(rows):
    """Rank of an integer matrix (list of rows) by fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    width = len(m[0])
    rank = 0
    prev = 1
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, len(m)):
            f = m[i][col]
            m[i] = [(p * m[i][t] - f * m[rank][t]) // prev for t in range(width)]
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank


def h1_relations(manifold):
    """(generator index, relation rows) of the standard H_1 presentation.

    Per piece: fibre h, cone classes x_i, boundary sections d_j, crosscap
    classes z_k; relations a_i x_i + beta_i h, the section relation
    b h + sum x_i + sum d_j + 2 sum z_k, 2h over a non-orientable base, and
    two relations per edge identifying the glued (fibre, section) frames.
    """
    index = {}

    def gen(*key):
        return index.setdefault(key, len(index))

    pieces = manifold["pieces"]
    for p in pieces:
        gen("h", p["id"])
        for i in range(len(p["cones"])):
            gen("x", p["id"], i)
        for j in range(p["boundary"]):
            gen("d", p["id"], j)
        for k in range(p["base"]["crosscaps"]):
            gen("z", p["id"], k)
    rels = []

    def rel(coeffs):
        row = [0] * len(index)
        for key, c in coeffs:
            row[index[key]] += c
        rels.append(row)

    for p in pieces:
        pid = p["id"]
        for i, (a, beta) in enumerate(p["cones"]):
            rel([(("x", pid, i), a), (("h", pid), beta)])
        rel([(("h", pid), p["b"])]
            + [(("x", pid, i), 1) for i in range(len(p["cones"]))]
            + [(("d", pid, j), 1) for j in range(p["boundary"])]
            + [(("z", pid, k), 2) for k in range(p["base"]["crosscaps"])])
        if not p["base"]["orientable"]:
            rel([(("h", pid), 2)])
    for e in manifold["edges"]:
        (fp, fb), (tp, tb) = e["from"], e["to"]
        (a, b), (c, d) = e["matrix"]
        rel([(("h", fp), 1), (("h", tp), -a), (("d", tp, tb), c)])
        rel([(("d", fp, fb), 1), (("h", tp), b), (("d", tp, tb), -d)])
    return index, rels


def betti(manifold):
    index, rels = h1_relations(manifold)
    return len(index) - bareiss_rank(rels)


# ---------------------------------------------------------------------------
# Random pieces, gluings and trees
# ---------------------------------------------------------------------------


def _cones(rng, count, a_max):
    out = []
    for _ in range(count):
        a = rng.randint(2, a_max)
        out.append([a, rng.choice([x for x in range(1, a) if math.gcd(a, x) == 1])])
    return out


def _piece(ident, cones, b, boundary, crosscaps=0):
    return {"id": ident, "base": {"orientable": crosscaps == 0, "crosscaps": crosscaps},
            "cones": cones, "b": b, "boundary": boundary}


def _gluing(rng, emax):
    """Integer matrix of determinant -1 with entries in [-emax, emax]."""
    while True:
        a, b, c = (rng.randint(-emax, emax) for _ in range(3))
        if a == 0:
            if b * c == 1:
                return [[0, b], [c, rng.randint(-emax, emax)]]
            continue
        num = b * c - 1
        if num % a == 0 and abs(num // a) <= emax:
            return [[a, b], [c, num // a]]


def _tree(rng, count, role, piece_of, matrix_of):
    """Random tree on ``count`` pieces; piece 0 carries the dangling torus
    of a solid torus.  ``piece_of(ident, boundary)`` makes each piece."""
    parents = [None] + [rng.randrange(i) for i in range(1, count)]
    children = [sum(1 for p in parents if p == i) for i in range(count)]
    first = [0 if (i == 0 and role == "closed") else 1 for i in range(count)]
    pieces = [piece_of(f"p{i}", children[i] + first[i]) for i in range(count)]
    used = list(first)
    edges = []
    for i in range(1, count):
        par = parents[i]
        edges.append({"from": [f"p{i}", 0], "to": [f"p{par}", used[par]],
                      "matrix": matrix_of()})
        used[par] += 1
    return {"role": role, "pieces": pieces, "edges": edges}


def census_tree(rng, role, pieces, b_max, e_max):
    """Random tree of ``pieces`` = (least, most) pieces with up to 3 cones of
    order <= 5 per piece, crosscap-1 bases with probability 1/4, b in
    [-b_max, b_max] and gluing entries in [-e_max, e_max]."""
    while True:
        count = rng.randint(*pieces)

        def piece_of(ident, boundary):
            crosscaps = 1 if rng.random() < 0.25 else 0
            return _piece(ident, _cones(rng, rng.randint(0, 3), 5),
                          rng.randint(-b_max, b_max), boundary, crosscaps)

        m = _tree(rng, count, role, piece_of, lambda: _gluing(rng, e_max))
        if betti(m) == (0 if role == "closed" else 1):
            return m


def census_instance(rng):
    """Random closed tree (2-6 pieces) or solid torus (1-6 pieces) whose
    gluing entries and b are bounded by R, log-uniform in [5, 100]."""
    role = "closed" if rng.random() < 0.5 else "solid-torus"
    r_bound = round(5 * 20 ** rng.random())
    return census_tree(rng, role, (2 if role == "closed" else 1, 6), r_bound, r_bound)


def chain_instance(rng, count, role):
    """Plumbing chain: every edge [[0,1],[1,0]], b in [-4, -2], 1-2 cones of
    order <= 5 per piece.  A solid chain dangles from piece 0."""
    while True:
        pieces = []
        for i in range(count):
            ends = (i > 0) + (i < count - 1) + (i == 0 and role == "solid-torus")
            pieces.append(_piece(f"p{i}", _cones(rng, rng.randint(1, 2), 5),
                                 rng.randint(-4, -2), ends))
        edges = []
        for i in range(1, count):
            to_bdry = 1 if (i - 1 == 0 and role == "solid-torus") or i - 1 > 0 else 0
            edges.append({"from": [f"p{i}", 0], "to": [f"p{i - 1}", to_bdry],
                          "matrix": [[0, 1], [1, 0]]})
        m = {"role": role, "pieces": pieces, "edges": edges}
        if betti(m) == (0 if role == "closed" else 1):
            return m


def oracle_instance(rng):
    """One-piece solid torus with 2-3 cones, b in [-2, 2], cone orders <= 7
    with lcm at most ORACLE_LCM_MAX."""
    while True:
        cones = _cones(rng, rng.randint(2, 3), 7)
        if math.lcm(*(a for a, _ in cones)) <= ORACLE_LCM_MAX:
            return {"role": "solid-torus",
                    "pieces": [_piece("p0", cones, rng.randint(-2, 2), 1)],
                    "edges": []}


ORACLE_LCM_MAX = 12
SNF_CHAIN_PIECES = (8, 16)
DEEP_CHAIN_PIECES = (8, 24)


def small_census_closed(seed):
    """Closed tree of the small-integer census: 2-4 pieces, gluing entries
    bounded by 5, b in [-2, 2]."""
    return census_tree(random.Random(seed), "closed", (2, 4), 2, 5)


# Seeds in 0-1499 of ``small_census_closed`` whose default ``ctf`` raised
# DecisionError when expected.json was recorded (3 of 1500).  They are census
# pool members, so that defect is represented in every census corpus.
CENSUS_REGRESSIONS = (584, 955, 1355)


def pool_names(workload):
    names = [f"{workload}-{i:04d}" for i in range(POOL_SIZE[workload])]
    if workload == "census":
        names += [f"census-small-{seed:04d}" for seed in CENSUS_REGRESSIONS]
    return names


def pool_instance(name):
    """The pool member called ``name`` (see ``pool_names``)."""
    workload, _, i = name.rpartition("-")
    i = int(i)
    if workload == "census-small":
        return small_census_closed(i)
    rng = random.Random(f"{workload}:{i}")
    if workload == "census":
        m = census_instance(rng)
    elif workload == "snf-chain":
        role = "closed" if i % 2 == 0 else "solid-torus"
        m = chain_instance(rng, rng.randint(*SNF_CHAIN_PIECES), role)
    elif workload == "deep-chain":
        m = chain_instance(rng, rng.randint(*DEEP_CHAIN_PIECES), "solid-torus")
    elif workload == "oracle":
        m = oracle_instance(rng)
    else:
        raise ValueError(f"unknown pool member {name!r}")
    return m


def encode(manifold):
    return (json.dumps(manifold, sort_keys=True, indent=1) + "\n").encode()


def sha(data):
    return hashlib.sha256(data).hexdigest()


def digest(items):
    """sha256 over (name, bytes) pairs, order-sensitive."""
    h = hashlib.sha256()
    for name, data in items:
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()
