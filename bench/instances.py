"""Seeded instance sets of the dimatch benchmark.

Every graph is built here, from the seed or from fixed parameters, with no
generator of the program under test, so a change to the program cannot
change its inputs.  The same seed gives the same instance set.
Each instance carries the answer the benchmark expects:

* ``found``: the graph has a d.i.m. (analytic, or planted by construction);
* ``none``: the graph has none (analytic);
* ``oracle``: decided in setup by the exact oracle, cross-checked by the
  benchmark's own enumeration (graphs on at most 7 vertices);
* ``s115-free`` / ``witness``: expected answer of ``check-s115``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOADS = ("branch-flood", "wide-branch", "batch", "s115-check")


@dataclass
class Instance:
    family: str          # graph family, e.g. "cycle" or "hub"
    rung: str            # size class inside the family (growth ladder step)
    mode: str            # dimatch mode: "solve" or "check-s115"
    n: int
    edges: tuple[tuple[int, int], ...]
    expect: str          # found | none | oracle | s115-free | witness

    @property
    def m(self) -> int:
        return len(self.edges)

    def text(self) -> str:
        """The instance in dimatch's edge-list format."""
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for (u, v) in self.edges)
        return "\n".join(lines) + "\n"


@dataclass
class Workload:
    name: str
    instances: list[Instance]
    growth_families: tuple[str, ...]   # families whose rungs form a ladder

    def digest(self) -> str:
        h = hashlib.sha256()
        for inst in self.instances:
            h.update(f"{inst.mode}|{inst.expect}|".encode())
            h.update(inst.text().encode())
        return h.hexdigest()[:16]


# -- graph families ----------------------------------------------------------

def _canon(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) if u < v else (v, u) for (u, v) in pairs))


def relabel(rng: random.Random, n: int, pairs):
    """The same graph under a seeded random vertex numbering."""
    perm = list(range(n))
    rng.shuffle(perm)
    return _canon((perm[u], perm[v]) for (u, v) in pairs)


def cycle(n: int):
    return _canon((i, (i + 1) % n) for i in range(n))


def path(n: int):
    return _canon((i, i + 1) for i in range(n - 1))


def complete_bipartite(k: int):
    return _canon((i, k + j) for i in range(k) for j in range(k))


def hub(rng: random.Random, k: int) -> tuple[int, tuple]:
    """The hub family: an edge xy = (0, 1), x adjacent to 2, k second-level
    singletons on 2 and a private block of 2 or 3 vertices on each.
    Decided by its first branch, in the block machinery (case n4-empty)."""
    pairs = [(0, 1), (0, 2)]
    us = list(range(3, 3 + k))
    pairs += [(2, u) for u in us]
    nxt = 3 + k
    for u in us:
        for _ in range(rng.choice((2, 3))):
            pairs.append((u, nxt))
            nxt += 1
    return nxt, _canon(pairs)


def diamonds(k: int):
    """k disjoint diamonds; their mid edges form the only d.i.m.  Kept in
    their canonical numbering: under random labels the preprocessing scan
    order, and so its cost, changes by a quarter from one draw to another."""
    pairs = []
    for i in range(k):
        a = 4 * i
        pairs += [(a, a + 1), (a, a + 2), (a + 1, a + 2),
                  (a + 1, a + 3), (a + 2, a + 3)]
    return 4 * k, _canon(pairs)


def _connected(n: int, pairs) -> bool:
    adj = [[] for _ in range(n)]
    for (u, v) in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def small_connected(rng: random.Random, n: int = 7):
    """A connected labeled graph on n vertices (rejection sampling)."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        p = rng.uniform(0.2, 0.7)
        pairs = [e for e in all_pairs if rng.random() < p]
        if _connected(n, pairs):
            return _canon(pairs)


def planted_dim(rng: random.Random, n: int):
    """Disjoint matched pairs B, an independent set W, and random edges only
    between B and W: the pairs always form a d.i.m.  Returns the edges and
    the planted pairs."""
    npairs = max(1, int(n * rng.uniform(0.4, 0.6)) // 2)
    perm = list(range(n))
    rng.shuffle(perm)
    blacks, whites = perm[:2 * npairs], perm[2 * npairs:]
    matching = _canon((blacks[2 * i], blacks[2 * i + 1])
                      for i in range(npairs))
    pairs = set(matching)
    top = rng.choice((2, 3, 3, 4))
    for w in whites:
        for b in rng.sample(blacks, rng.randint(1, top)):
            pairs.add((w, b))
    return _canon(pairs), matching


# the spider S_{1,1,5}: center 0, legs 1 and 2, long leg 3-4-5-6-7
S115_EDGES = ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def planted_s115(rng: random.Random, n: int):
    """A sparse random graph with an induced S_{1,1,5} on 8 of its vertices.
    Returns the edges and the spider's vertices."""
    pairs = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 3.0 / n}
    spot = rng.sample(range(n), 8)
    inside = set(spot)
    pairs = {(u, v) for (u, v) in pairs if not (u in inside and v in inside)}
    pairs |= {(spot[a], spot[b]) for (a, b) in S115_EDGES}
    return _canon(pairs), tuple(spot)


# -- workloads ---------------------------------------------------------------

def _solve(family, rung, n, edges, expect):
    return Instance(family, str(rung), "solve", n, edges, expect)


def _branch_flood(rng, smoke):
    """Cycles C_n with n not divisible by 3 on a ladder, plus K_{k,k}:
    no d.i.m., so every branch is tried and fails."""
    out = []
    for base in ((10, 31) if smoke else (100, 301, 1000)):
        n = base + rng.randint(0, 1)          # n = 1 or 2 mod 3
        out.append(_solve("cycle", base, n, relabel(rng, n, cycle(n)), "none"))
    for k in ((4, 6) if smoke else (20, 40)):
        out.append(_solve("kkk", k, 2 * k,
                          relabel(rng, 2 * k, complete_bipartite(k)), "none"))
    return Workload("branch-flood", out, ("cycle",))


def _wide_branch(rng, smoke):
    """Large graphs decided with at most two branches."""
    out = []
    for k in ((5, 15, 50) if smoke else (100, 300, 1000)):
        n, edges = hub(rng, k)
        out.append(_solve("hub", k, n, edges, "found"))
    for k in ((5, 15, 50) if smoke else (100, 300, 1000)):
        n, edges = diamonds(k)
        out.append(_solve("diamonds", k, n, edges, "found"))
    n = 99 if smoke else 9999
    out.append(_solve("cycle3", n, n, cycle(n), "found"))
    n = 100 if smoke else 10000
    out.append(_solve("path", n, n, path(n), "found"))
    return Workload("wide-branch", out, ("hub", "diamonds"))


# Out of the class, the cost of one planted instance depends on which
# branch happens to succeed first: one draw of 300 instances can take 50%
# longer than another, and so can the same draw under new vertex labels.
# The planted set is therefore drawn from this fixed seed; the run's seed
# draws the small graphs and the request order.
PLANTED_SEED = 0


def _batch(rng, smoke):
    """Many small oracle-decided graphs and medium planted instances."""
    small, planted = (40, 6) if smoke else (2000, 300)
    lo, hi = (30, 60) if smoke else (150, 300)
    out = [_solve("batch", "7", 7, small_connected(rng), "oracle")
           for _ in range(small)]
    pool = random.Random(f"batch-planted:{PLANTED_SEED}")
    for _ in range(planted):
        n = pool.randint(lo, hi)
        out.append(_solve("batch", "planted", n, planted_dim(pool, n)[0],
                          "found"))
    rng.shuffle(out)
    return Workload("batch", out, ("batch",))


def _s115_check(rng, smoke):
    """check-s115 on K_{k,k} (no witness, exhaustive search) plus planted
    spiders (witness found)."""
    out = []
    for k in ((3, 5, 7) if smoke else (7, 14, 20)):
        out.append(Instance("kkk", str(k), "check-s115", 2 * k,
                            relabel(rng, 2 * k, complete_bipartite(k)),
                            "s115-free"))
    for _ in range(2 if smoke else 200):
        n = rng.randint(20, 40) if smoke else rng.randint(40, 80)
        out.append(Instance("spider", "planted", "check-s115", n,
                            planted_s115(rng, n)[0], "witness"))
    rng.shuffle(out)
    return Workload("s115-check", out, ("kkk",))


_WORKLOAD_SETS = {"branch-flood": _branch_flood, "wide-branch": _wide_branch,
                  "batch": _batch, "s115-check": _s115_check}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The instance set of one workload; the same seed gives the same set."""
    rng = random.Random(f"{name}:{seed}")
    return _WORKLOAD_SETS[name](rng, smoke)
