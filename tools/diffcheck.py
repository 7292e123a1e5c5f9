#!/usr/bin/env python3
"""Differential check of two dimatch source trees.

    python3 tools/diffcheck.py SRC_A SRC_B

SRC_A and SRC_B are directories holding the `dimatch` package, such as
the `src/` of two checkouts.  One subprocess per tree imports dimatch from
its directory and answers the same seeded requests through
`dimatch.cli.run(RunConfig(mode, fmt="json", ...))`, or with
`fmt="text"` where the request kind ends in `text`:

* `solve` and `check-s115` on every graph of thirteen pools: G(n,p) and
  planted graphs with n = 2-12, sparse graphs with n = 30-100, disjoint
  unions of P6, layered hubs (an edge xy, a vertex on x, 2-9
  second-level singletons on that vertex with a block of 1-3 vertices
  each, random cross edges between blocks, pendant far vertices and far
  triangles), dense graphs: G(n,p) with n = 15-40 and p = 0.3-0.7,
  K_{k,k} with k = 5-30 minus 0-3 edges, and the benchmark's hub with
  k <= 100 whose leaves carry 0-3 tails of 1-5 vertices (half of the
  unions, hubs and dense graphs relabeled at random), sparse planted
  graphs with n = 100-250 in the shape of the benchmark's batch graphs,
  block trees: a hub whose 5-300 blocks are joined by a matching of
  cross edges along a random path or tree, some blocks with a free
  member, and block graphs: a hub whose 5-300 blocks of 2-4 members
  each hold a planted black, which sends 1-2 cross edges to white
  members of other blocks, pattern unions: disjoint diamonds,
  butterflies, triangle fans and P6s with n = 50-400 plus random links,
  where preprocessing does most of the work (half of the block trees,
  block graphs and pattern unions relabeled), adversarial: the fan
  chain for d = 1-15 and `G24`, S_{1,1,5}-free graphs that took the
  exact search exponential or 3.67 nodes per vertex before propagation
  whitened a vertex with two black neighbors, each relabeled at random,
  and `G24B`, an S_{1,1,5}-free graph with no false twins and no d.i.m.
  that takes the search 26 nodes, as given and under 3 relabelings,
  and triangle hubs: high-degree vertices on few triangles, K_{k,k}
  with k = 15-40 plus 0-3 chords, and a hub whose leaves carry 0-4
  pendant triangles and 1-3 chords, n = 30-80 (half relabeled), and
  large: 20 graphs at the benchmark's scale, P_n and C_n with
  n = 9,999-10,001, the benchmark's hub with k = 1,000-3,000 blocks,
  1,000-3,000 disjoint diamonds and K_{k,k} with k = 20-100 (half
  relabeled), which run in about 2 s per tree;
* `solve --xy` (`solve(g, xy=...)`) on every edge of a prefix of each pool
  but `large`;
* `malformed`: `solve` on a seeded corruption of the text of each graph of
  a prefix of each pool: a dropped or extra token, a non-integer token,
  an id out of range or negative, a self-loop, a reversed duplicate, a
  header edge count off by one, a comment (on its own line, or trailing
  a pair line, which is rejected), blank lines, CRLF line ends (no
  byte-order mark, which trees before the bulk parse reject), or a
  spelling that JSON reads apart from `int()`: a token swapped for
  `01`, `-0`, `1e2`, `true`, `NaN`, `[1]`, `0,1` or `"1"`, or a lone
  `\r` or `\t` put into a pair line;
* `oracle` (JSON) and `oracle text`, `compare text` and
  `check-s115 text` on the first 200 graphs of `gnp` and of `planted`,
  so that every mode is asked in both formats;
* `generate` (`random_s115_free`) for a fixed list of seeded sizes and
  edge probabilities, n = 10-40 and p = 0.1-0.3.

`stats.case_seconds` (wall-clock timings) is dropped from each answer.
`check-s115`, `oracle`, every text request, `generate` and rejected
`malformed` answers (exit 2) must match exactly, so `check-s115` must
name the same witness, the oracle the same d.i.m., and a rejected text
must get the same error message.  `solve` answers, and those to a
`malformed` text that both trees accept, must agree in exit code and
`result`; where their certificates differ, both must pass SRC_A's
`verify_dim` (and contain the requested xy) on the graph, or on the one
SRC_A's `cli.parse_graph` reads from the text.  Three status
differences are accepted, as SRC_B may decide what SRC_A could not; on
a graph where SRC_A's `check-s115` finds no witness, SRC_A's answer was
a solver defect, and the form is counted apart as "in class":

* `solve` (or an accepted `malformed` text) hypothesis-violated in A,
  found in B, with a certificate that verifies;
* `solve` hypothesis-violated in A, none in B, confirmed by SRC_A's
  `brute_force_dim` within its default budget;
* `solve --xy` none in A, found in B, with a certificate that verifies
  and contains xy.

Prints the counts per pool and request kind (with the witnesses
`check-s115` names and the texts `malformed` rejects), then the total of
each difference class: status, unverified certificate, accepted status,
certificate, detail and stats-only, and for each class with a
difference its count per request kind (such as `detail: solve 26,
solve --xy 401, malformed 2`); then, for each class with a
difference, its first three differing requests: the pool, the request
kind (with xy for `solve --xy`), the graph's index in the pool, and each
differing key with its value in A and in B (`exit` for the exit code,
`stats.KEY` for each `stats` key, and of two certificates only the edges
missing from the other); then how many of each accepted form,
and for the stats-only differences how many differ in each `stats` key.
Last, per pool, the worst `stats.subsolver_nodes / n` of the `solve`
answers of SRC_A and SRC_B side by side, on the graphs SRC_A's
`check-s115` calls S115-free and on the others, with each tree's total
`subsolver_nodes` on the S115-free graphs, then those totals over all
pools.

Each worker answers its requests with the cyclic garbage collector off,
and after the last one counts with `gc.collect()` the unreachable
objects they left: `dimatch.cli.run` pauses the collector for each
request on the promise that no request leaves a reference cycle.  The
script prints both trees' counts.
Exits 1 on a status difference that is not accepted, an unverified
certificate, unreachable objects left by SRC_B's requests, or a pool on
whose S115-free graphs SRC_B's total `subsolver_nodes` exceeds SRC_A's,
with one line naming each such pool.  Given one
tree, the script is the worker: it prints that tree's answers, one JSON
line per request, then `["unreachable", COUNT]`.  Standard library only.
"""

import gc
import json
import os
import random
import subprocess
import sys
import tempfile

SEED = 0
# pool name -> (graphs, how many of them also get solve --xy per edge)
POOLS = {"gnp": (1600, 800), "planted": (1600, 800), "sparse": (120, 30),
         "p6-unions": (24, 6), "layered": (1000, 100), "dense": (300, 0),
         "sparse-planted": (200, 5), "block-trees": (60, 5),
         "block-graphs": (60, 5), "pattern-unions": (200, 5),
         "adversarial": (24, 5), "triangle-hubs": (80, 5), "large": (20, 0)}
GENERATE = 200                  # generate requests
EVERY_MODE = 200                # gnp and planted graphs asked every mode
MODE_REQUESTS = (("oracle", {"mode": "oracle"}),
                 ("oracle text", {"mode": "oracle", "fmt": "text"}),
                 ("compare text", {"mode": "compare", "fmt": "text"}),
                 ("check-s115 text", {"mode": "check-s115", "fmt": "text"}))
MALFORMED = 20                  # corrupted texts per pool
CORRUPTIONS = ("drop", "extra", "word", "range", "negative", "loop",
               "duplicate", "header", "comment", "blank", "crlf", "json")


def _graph(rng, pool, i):
    """(n, edges) of the pool's graph number i."""
    if pool == "gnp":
        n, p = rng.randint(2, 12), rng.uniform(0.15, 0.6)
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)
                   if rng.random() < p]
    if pool == "planted":
        return planted(rng, rng.randint(2, 12))
    if pool == "sparse":
        n = rng.randint(30, 100)
        p = rng.uniform(1.0, 3.0) / n
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)
                   if rng.random() < p]
    if pool == "layered":
        return _layered(rng)
    if pool == "dense":
        return _dense(rng)
    if pool == "sparse-planted":
        return _sparse_planted(rng)
    if pool == "block-trees":
        return _block_trees(rng)
    if pool == "block-graphs":
        return _block_graphs(rng)
    if pool == "pattern-unions":
        return _pattern_unions(rng)
    if pool == "adversarial":
        return _adversarial(rng, i)
    if pool == "triangle-hubs":
        return _triangle_hubs(rng)
    if pool == "large":
        return _large(rng, i)
    k = rng.randint(2, 150)
    n = 6 * k
    label = rng.sample(range(n), n) if rng.random() < 0.5 else list(range(n))
    return n, [(label[6 * i + j], label[6 * i + j + 1])
               for i in range(k) for j in range(5)]


def planted(rng, n):
    """(n, edges) of a graph with a planted d.i.m.: matched pairs B, an
    independent rest W and random B-W edges.  Not bench.instances.planted_dim:
    that one fails for most n < 10 and never leaves a white vertex isolated.
    """
    vs = rng.sample(range(n), n)
    k = rng.randint(1, n // 2)
    pairs, whites = vs[:2 * k], vs[2 * k:]
    p = rng.uniform(0.1, 0.6)
    edges = [(pairs[i], pairs[i + 1]) for i in range(0, 2 * k, 2)]
    edges += [(b, w) for b in pairs for w in whites if rng.random() < p]
    return n, edges


def fan_chain(d):
    """(n, edges) of the fan chain, n = 9 + 4d: x = 0, y = 1, w = 2 on x,
    G = 3 on w with a gadget on 4-8 (paths G, 5, 4 and G, 7, 8 and a leaf
    6), and d fans, each a vertex c on w with a triangle c, a, a' and a
    path c, z, G.  It has no false twins, no induced S_{1,1,5} and no
    d.i.m.  In the branch xy = (0, 1) every c and G turn black, so every
    z has two black neighbors; unless propagation whitens z, the fans
    and the gadget stay one undecided part, and the exact search takes
    6 * 2^d - 2 nodes."""
    edges = [(0, 1), (0, 2), (2, 3), (3, 5), (3, 6), (3, 7), (4, 5), (7, 8)]
    n = 9
    for _ in range(d):
        c, a, a2, z = range(n, n + 4)
        edges += [(2, c), (c, a), (c, a2), (a, a2), (c, z), (z, 3)]
        n += 4
    return n, edges


# an S_{1,1,5}-free graph on 24 vertices found by a random hill-climb on
# subsolver nodes per vertex: vertex 19 has four pendant neighbors, and
# each of their covering branches refuted the part around 12 and 22 anew
G24 = ((0, 19), (1, 7), (1, 16), (2, 19), (3, 8), (3, 16), (4, 12), (5, 21),
       (5, 22), (6, 22), (6, 23), (7, 10), (7, 16), (8, 10), (8, 16), (9, 21),
       (9, 22), (11, 12), (12, 14), (12, 17), (12, 18), (12, 20), (13, 19),
       (14, 22), (15, 19), (17, 19), (17, 22), (22, 23))

# an S_{1,1,5}-free graph on 24 vertices with no d.i.m. and no false
# twins, found by a hill-climb on subsolver nodes per vertex: its search
# takes 26 nodes
G24B = ((0, 3), (0, 6), (0, 8), (0, 11), (0, 16), (0, 21), (1, 2), (1, 4),
        (1, 5), (1, 6), (1, 15), (1, 19), (1, 23), (2, 8), (2, 11), (3, 19),
        (3, 22), (3, 23), (4, 6), (4, 8), (4, 11), (4, 12), (4, 16), (5, 8),
        (5, 11), (5, 16), (6, 13), (6, 22), (7, 14), (7, 17), (8, 22),
        (9, 11), (9, 19), (10, 18), (10, 20), (11, 13), (11, 15), (11, 19),
        (11, 20), (11, 22), (11, 23), (12, 19), (12, 23), (14, 17), (16, 19),
        (16, 22), (16, 23), (17, 20), (18, 20), (19, 21), (21, 23))


def _adversarial(rng, i):
    """The fan chain with d = i + 1 for i < 15, then `G24` for i < 20,
    then `G24B`: S_{1,1,5}-free graphs that once cost the exact search far
    more nodes per vertex than the random pools, relabeled at random but
    `G24B` at i = 20.  The oracle confirms that the fan chain has no
    d.i.m. up to d = 15 (about 1.4 s there), not at d = 20."""
    n, edges = fan_chain(i + 1) if i < 15 else (24, G24 if i < 20 else G24B)
    if i == 20:
        return n, list(edges)
    label = rng.sample(range(n), n)
    return n, [(label[u], label[v]) for u, v in edges]


def _sparse_planted(rng):
    """(n, edges) in the shape of bench.instances.planted_dim: matched
    pairs holding 40-60% of the vertices, and whites that each join 1 to
    2-4 random blacks."""
    n = rng.randint(100, 250)
    vs = rng.sample(range(n), n)
    k = max(1, int(n * rng.uniform(0.4, 0.6)) // 2)
    blacks, whites = vs[:2 * k], vs[2 * k:]
    edges = [(blacks[i], blacks[i + 1]) for i in range(0, 2 * k, 2)]
    top = rng.choice((2, 3, 3, 4))
    for w in whites:
        edges += [(w, b) for b in rng.sample(blacks, rng.randint(1, top))]
    return n, edges


def _layered(rng):
    """A hub around xy = (0, 1): vertex 2 on x carries the second-level
    singletons, each with its block; far vertices hang off block members."""
    k = rng.randint(2, 9)
    us = list(range(3, 3 + k))
    edges = [(0, 1), (0, 2)] + [(2, u) for u in us]
    blocks, n = [], 3 + k
    for u in us:
        size = rng.randint(1, 3)
        blocks.append(list(range(n, n + size)))
        edges += [(u, t) for t in blocks[-1]]
        n += size
    p = rng.choice((0.0, 0.03, 0.1, 0.2))
    edges += [(t, w) for i, bi in enumerate(blocks) for bj in blocks[i + 1:]
              for t in bi for w in bj if rng.random() < p]
    members = [t for blk in blocks for t in blk]
    for _ in range(rng.randint(0, 2)):          # pendant far vertex
        edges.append((rng.choice(members), n))
        n += 1
    for _ in range(rng.randint(0, 3)):          # far triangle
        z, b, c = n, n + 1, n + 2
        edges += [(rng.choice(members), z), (z, b), (z, c), (b, c)]
        if rng.random() < 0.5:
            edges.append((rng.choice(members), b))
        n += 3
    if rng.random() < 0.5:
        label = rng.sample(range(n), n)
        edges = [(label[u], label[v]) for u, v in edges]
    return n, edges


def block_tree(parents, free=()):
    """A hub around xy = (0, 1) whose blocks form a tree: vertex 2 on x
    carries k = len(parents) + 1 second-level singletons, each with its
    block; block i > 0 joins block parents[i - 1] < i by one cross edge
    between members that no other cross edge uses, so the cross edges are
    a matching.  A block has max(2, its tree degree) members, plus one
    without cross edges if its index is in `free`."""
    k = len(parents) + 1
    degree = [0] * k
    for i, p in enumerate(parents, 1):
        degree[i] += 1
        degree[p] += 1
    edges = [(0, 1), (0, 2)] + [(2, 3 + i) for i in range(k)]
    blocks, n = [], 3 + k
    for i in range(k):
        size = max(2, degree[i]) + (i in free)
        blocks.append(list(range(n, n + size)))
        edges += [(3 + i, t) for t in blocks[-1]]
        n += size
    used = [0] * k
    for i, p in enumerate(parents, 1):
        edges.append((blocks[p][used[p]], blocks[i][used[i]]))
        used[p] += 1
        used[i] += 1
    return n, edges


def _block_trees(rng):
    """`block_tree` with 5-300 blocks along a random path or tree, some
    with a free member, relabeled at random half of the time."""
    k = rng.randint(5, 300)
    if rng.random() < 0.5:
        parents = list(range(k - 1))
    else:
        parents = [rng.randrange(i) for i in range(1, k)]
    share = rng.choice((0.0, 0.2, 0.5))
    n, edges = block_tree(parents, {i for i in range(k)
                                    if rng.random() < share})
    if rng.random() < 0.5:
        label = rng.sample(range(n), n)
        edges = [(label[u], label[v]) for u, v in edges]
    return n, edges


def block_graph(rng, k):
    """A hub around xy = (0, 1) with a planted d.i.m.: vertex 2 on x
    carries k second-level singletons, each with a block of 2-4 members
    whose first member is its planted mate.  Each such black sends 1-2
    cross edges to white members of other blocks, so the planted d.i.m.
    stays while the blocks form contact cycles and cross paths of three.
    No block sends to one that sends to it: two cross edges between two
    blocks let normalization whiten the rest of both, and that cascade
    decides the graph before any search."""
    edges = [(0, 1), (0, 2)] + [(2, 3 + i) for i in range(k)]
    blocks, n = [], 3 + k
    for i in range(k):
        size = rng.randint(2, 4)
        blocks.append(list(range(n, n + size)))
        edges += [(3 + i, t) for t in blocks[-1]]
        n += size
    senders = [set() for _ in range(k)]
    for i, blk in enumerate(blocks):
        options = [j for j in range(k) if j != i and j not in senders[i]]
        for j in rng.sample(options, min(len(options), rng.randint(1, 2))):
            senders[j].add(i)
            edges.append((blk[0], rng.choice(blocks[j][1:])))
    return n, edges


def _block_graphs(rng):
    """`block_graph` with 5-300 blocks, relabeled at random half of the
    time."""
    n, edges = block_graph(rng, rng.randint(5, 300))
    if rng.random() < 0.5:
        label = rng.sample(range(n), n)
        edges = [(label[u], label[v]) for u, v in edges]
    return n, edges


def _pattern_unions(rng):
    """Disjoint diamonds, butterflies, triangle fans (a vertex joined to
    every vertex of a path of 2-6 vertices) and P6s until n reaches
    50-400, plus up to three random links between any two vertices,
    relabeled at random half of the time.  A fan on four or more path
    vertices holds two diamonds whose mid-edges meet, which has no
    d.i.m., so fans make up 0, 2 or 5% of the parts."""
    target = rng.randint(50, 400)
    fans = rng.choice((0.0, 0.02, 0.05))
    edges, n = [], 0
    while n < target:
        kind = "fan" if rng.random() < fans else \
            rng.choice(("diamond", "butterfly", "p6"))
        if kind == "diamond":
            size, part = 4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2)]
        elif kind == "butterfly":
            size, part = 5, [(0, 1), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)]
        elif kind == "fan":
            size = 1 + rng.randint(2, 6)
            part = [(0, i) for i in range(1, size)]
            part += [(i, i + 1) for i in range(1, size - 1)]
        else:
            size, part = 6, [(i, i + 1) for i in range(5)]
        edges += [(n + u, n + v) for u, v in part]
        n += size
    have = {(min(e), max(e)) for e in edges}
    for _ in range(rng.randint(0, 3)):
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in have:
            have.add((u, v))
            edges.append((u, v))
    if rng.random() < 0.5:
        label = rng.sample(range(n), n)
        edges = [(label[u], label[v]) for u, v in edges]
    return n, edges


def _triangle_hubs(rng):
    """High-degree vertices on few triangles, with n = 30-80: K_{k,k}
    plus 0-3 chords inside its sides, or a hub, a vertex joined to
    every leaf, whose leaves carry 0-4 pendant triangles and are joined
    by 1-3 chords; relabeled at random half of the time."""
    if rng.random() < 0.5:
        k = rng.randint(15, 40)
        n, edges = 2 * k, [(i, k + j) for i in range(k) for j in range(k)]
        side = rng.randrange(2) * k
        edges += sorted({tuple(sorted(rng.sample(range(side, side + k), 2)))
                         for _ in range(rng.randint(0, 3))})
    else:
        n = rng.randint(30, 80)
        leaves = n - 1 - 2 * rng.randint(0, 4)
        edges = [(0, v) for v in range(1, leaves + 1)]
        for z in range(leaves + 1, n, 2):       # a pendant triangle
            tip = rng.randint(1, leaves)
            edges += [(tip, z), (tip, z + 1), (z, z + 1)]
        edges += sorted({tuple(sorted(rng.sample(range(1, leaves + 1), 2)))
                         for _ in range(rng.randint(1, 3))})
    if rng.random() < 0.5:
        label = rng.sample(range(n), n)
        edges = [(label[u], label[v]) for u, v in edges]
    return n, edges


# the `large` pool, one graph per entry: (family, size)
LARGE = (("path", 9999), ("path", 10000), ("path", 10001),
         ("cycle", 9999), ("cycle", 10000), ("cycle", 10001),
         ("hub", 1000), ("hub", 1400), ("hub", 1800), ("hub", 2200),
         ("hub", 2600), ("hub", 3000),
         ("diamonds", 1000), ("diamonds", 2000), ("diamonds", 2500),
         ("diamonds", 3000),
         ("kkk", 20), ("kkk", 40), ("kkk", 70), ("kkk", 100))


def _large(rng, i):
    """Graph i of the benchmark-scale pool `LARGE`: P_n and C_n with
    n = 9,999-10,001 (each residue mod 3), the benchmark's hub (an edge
    xy, a vertex on x and k = 1,000-3,000 singletons on it, each with a
    block of 2-3 vertices), k = 1,000-3,000 disjoint diamonds and K_{k,k}
    with k = 20-100; every odd-numbered one relabeled at random."""
    family, k = LARGE[i]
    if family == "path":
        n, edges = k, [(v, v + 1) for v in range(k - 1)]
    elif family == "cycle":
        n, edges = k, [(v, (v + 1) % k) for v in range(k)]
    elif family == "hub":
        edges, n = [(0, 1), (0, 2)], 3 + k
        for u in range(3, 3 + k):
            edges.append((2, u))
            for _ in range(rng.choice((2, 3))):
                edges.append((u, n))
                n += 1
    elif family == "diamonds":
        n, edges = 4 * k, [(4 * j + a, 4 * j + b) for j in range(k)
                           for a, b in ((0, 1), (0, 2), (1, 2), (1, 3),
                                        (2, 3))]
    else:
        n, edges = 2 * k, [(a, k + b) for a in range(k) for b in range(k)]
    if i % 2:
        label = rng.sample(range(n), n)
        edges = [(label[u], label[v]) for u, v in edges]
    return n, edges


def _dense(rng):
    """G(n,p), K_{k,k} minus a few edges, or a hub with tails: the walk
    prefilter of the S115 search passes a center of the hub only where a
    tail of two or more vertices hangs off a leaf."""
    kind = rng.choice(("gnp", "kkk", "hub"))
    if kind == "gnp":
        n, p = rng.randint(15, 40), rng.uniform(0.3, 0.7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
    elif kind == "kkk":
        k = rng.randint(5, 30)
        n, edges = 2 * k, [(i, k + j) for i in range(k) for j in range(k)]
        for e in rng.sample(edges, rng.randint(0, 3)):
            edges.remove(e)
    else:
        k = rng.randint(2, 100)
        edges, leaves, n = [(0, 1), (0, 2)], [], 3 + k
        for u in range(3, 3 + k):
            edges.append((2, u))
            for _ in range(rng.choice((2, 3))):
                edges.append((u, n))
                leaves.append(n)
                n += 1
        for tip in rng.sample(leaves, rng.randint(0, 3)):
            for _ in range(rng.randint(1, 5)):
                edges.append((tip, n))
                tip, n = n, n + 1
    if rng.random() < 0.5:
        label = rng.sample(range(n), n)
        edges = [(label[u], label[v]) for u, v in edges]
    return n, edges


def _text(graph):
    """The graph in dimatch's edge-list format."""
    n, edges = graph
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _corrupt(rng, graph):
    """The graph's text with one seeded corruption (see CORRUPTIONS)."""
    n, edges = graph
    lines = _text(graph).splitlines()
    form = rng.choice(CORRUPTIONS)
    i = rng.randrange(1, len(lines)) if edges else 0    # the line to corrupt
    u, v = edges[i - 1] if edges else (0, 1)
    if form == "drop":
        lines[i] = lines[i].split()[rng.randrange(2)]
    elif form == "extra":
        lines[i] += f" {rng.randrange(max(n, 1))}"
    elif form == "word":
        word = rng.choice(["x", "1.5", "0x1", "--1", "1e2", "#"])
        lines[i] = rng.choice([f"{u} {word}", f"{word} {v}"])
    elif form == "range":
        lines[i] = f"{u} {n + rng.randrange(3)}"
    elif form == "negative":
        lines[i] = f"{-rng.randint(1, 3)} {v}"
    elif form == "loop":
        lines[i] = f"{u} {u}"
    elif form == "duplicate":
        lines.insert(rng.randint(1, len(lines)), f"{v} {u}")
        lines[0] = f"{n} {len(edges) + 1}"
    elif form == "header":
        lines[0] = f"{n} {len(edges) + rng.choice((-1, 1))}"
    elif form == "comment" and rng.random() < 0.3:
        lines[i] += " # trailing"
    elif form in ("comment", "blank"):
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(
                ["# c", "#", "  # 1 2", "#0 1"] if form == "comment"
                else ["", "  ", "\t"]))
    elif form == "json":
        word = rng.choice(["01", "-0", "1e2", "true", "NaN", "[1]", "0,1",
                           '"1"', "\r", "\t"])
        if word in ("\r", "\t"):
            at = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:at] + word + lines[i][at:]
        else:
            lines[i] = rng.choice([f"{u} {word}", f"{word} {v}"])
    return ("\r\n" if form == "crlf" else "\n").join(lines) + "\n"


def _requests():
    """Yield (pool, graph index, request kind, RunConfig fields, graph)
    in a fixed order; the fields name no format for a JSON request.  The
    graph is (n, edges), the text of a `malformed` request, or None for
    `generate`."""
    for pool, (count, prefix) in POOLS.items():
        rng = random.Random(f"{SEED}:{pool}")
        bad = random.Random(f"{SEED}:{pool}:malformed")
        for i in range(count):
            graph = _graph(rng, pool, i)
            yield pool, i, "solve", {"mode": "solve"}, graph
            yield pool, i, "check-s115", {"mode": "check-s115"}, graph
            if i < MALFORMED:
                yield (pool, i, "malformed", {"mode": "solve"},
                       _corrupt(bad, graph))
            if pool in ("gnp", "planted") and i < EVERY_MODE:
                for kind, fields in MODE_REQUESTS:
                    yield pool, i, kind, fields, graph
            if i < prefix:
                for e in sorted((min(e), max(e)) for e in graph[1]):
                    yield (pool, i, "solve --xy",
                           {"mode": "solve", "xy": e}, graph)
    rng = random.Random(f"{SEED}:generate")
    for i in range(GENERATE):
        fields = {"mode": "generate", "n": rng.randint(10, 40),
                  "p": round(rng.uniform(0.1, 0.3), 3), "seed": i}
        yield "generate", i, "generate", fields, None


def worker(src):
    """Print one JSON line per request, answered by the dimatch in src."""
    sys.path.insert(0, os.path.abspath(src))
    from dimatch import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        sys.exit(f"imported dimatch from {cli.__file__}, not {src}")
    gc.collect()
    gc.disable()                # what the requests leave stays to be counted
    for _, _, kind, fields, graph in _requests():
        text = _text(graph) if isinstance(graph, tuple) else graph
        try:
            code, out = cli.run(cli.RunConfig(**{"fmt": "json", **fields}),
                                text)
            if "fmt" in fields or kind == "generate" \
                    or code == cli.EXIT_INPUT:                  # not JSON
                obj = out
            else:
                obj = json.loads(out)
                obj.get("stats", {}).pop("case_seconds", None)
            line = json.dumps([code, obj], sort_keys=True)
        except Exception as err:        # a crash is an answer too
            line = json.dumps(["raised", repr(err)])
        print(line)
    print(json.dumps(["unreachable", gc.collect()]))


# difference classes, most severe first; the first two fail the check
CLASSES = ("status", "unverified", "accepted", "certificate", "detail",
           "stats-only")
SHOWN = 3   # differing requests printed per class


def _classify(kind, a, b):
    """The class of a difference between two answers [code, obj] to one
    request.  `solve` answers, and those to an accepted `malformed`
    text, with the same exit code and `result` may differ in `edges`
    (checked by the caller), `detail` and `stats`; every other
    difference, and any in `check-s115`, `generate` or a rejected text,
    is a status difference."""
    if kind not in ("solve", "solve --xy", "malformed") or a[0] != b[0] \
            or not all(isinstance(x[1], dict) for x in (a, b)):
        return "status"
    keys = {k for k in a[1].keys() | b[1].keys() if a[1].get(k) != b[1].get(k)}
    if keys - {"edges", "detail", "stats"}:
        return "status"
    if "edges" in keys:
        return "certificate"
    return "detail" if "detail" in keys else "stats-only"


def _differing(a, b):
    """Each key in which two answers [code, obj] differ, with its value in
    each: `exit` for the code, `stats.KEY` per stats key, `answer` for a
    whole answer that is not a JSON object."""
    if not all(isinstance(x[1], dict) for x in (a, b)):
        return {"answer": (a, b)}
    oa, ob = a[1], b[1]
    sa, sb = oa.get("stats", {}), ob.get("stats", {})
    pairs = [(k, oa.get(k), ob.get(k)) for k in oa.keys() | ob.keys()
             if k != "stats"]
    pairs += [("stats." + k, sa.get(k), sb.get(k))
              for k in sa.keys() | sb.keys()]
    keys = {"exit": (a[0], b[0])} if a[0] != b[0] else {}
    for k, va, vb in sorted(pairs, key=lambda p: p[0]):
        if va != vb:
            keys[k] = (va, vb)
    return keys


def _shown(key, va, vb, width=160):
    """One differing key with both values as JSON, each cut to `width`;
    of two certificates, only the edges missing from the other."""
    only = ""
    if key == "edges" and isinstance(va, list) and isinstance(vb, list):
        va, vb = [x for x in va if x not in vb], [x for x in vb if x not in va]
        only = " only"
    texts = [json.dumps(x) for x in (va, vb)]
    texts = [t if len(t) <= width else t[:width - 3] + "..." for t in texts]
    return f"{key} A{only}={texts[0]} B{only}={texts[1]}"


def main(src_a, src_b):
    outs, procs = [], []
    for src in (src_a, src_b):
        fh = tempfile.TemporaryFile("w+")
        # this script with a single tree argument is the worker
        procs.append(subprocess.Popen([sys.executable, __file__, src],
                                      stdout=fh))
        outs.append(fh)
    for proc in procs:
        if proc.wait() != 0:
            sys.exit(f"a worker exited with {proc.returncode}")
    answers = []
    for fh in outs:
        fh.seek(0)
        answers.append(fh.readlines())
        fh.close()
    # each worker's last line counts the unreachable objects it left
    left = [json.loads(lines.pop())[1] for lines in answers]
    reqs = list(_requests())
    lines_a, lines_b = answers
    if not len(reqs) == len(lines_a) == len(lines_b):
        sys.exit(f"{len(reqs)} requests, answers {len(lines_a)} and "
                 f"{len(lines_b)}")
    sys.path.insert(0, os.path.abspath(src_a))
    from dimatch import (BudgetExceeded, DimCertificate, brute_force_dim,
                         build_graph, cli, verify_dim)

    def graph_of(graph):
        """The Graph of (n, edges), or of an accepted malformed text."""
        return cli.parse_graph(graph) if isinstance(graph, str) \
            else build_graph(*graph)

    def verifies(graph, xy, edges):
        try:
            cert = DimCertificate(frozenset(map(tuple, edges)))
        except ValueError:              # not a matching
            return False
        return (verify_dim(graph_of(graph), cert)
                and (xy is None or tuple(xy) in cert.edges))

    def has_no_dim(graph):
        try:
            return not brute_force_dim(graph_of(graph)).exists
        except BudgetExceeded:
            return False

    def accepted_form(kind, graph, xy, ja, jb):
        """The name of the accepted form of a status difference, or None."""
        ra, rb = (j[1].get("result") if isinstance(j[1], dict) else None
                  for j in (ja, jb))
        if kind in ("solve", "malformed") and ra == "hypothesis-violated":
            if rb == "found" and verifies(graph, None, jb[1]["edges"]):
                return "hypothesis-violated -> found"
            if rb == "none" and has_no_dim(graph):
                return "hypothesis-violated -> none (oracle)"
        if kind == "solve --xy" and ra == "none" and rb == "found" \
                and verifies(graph, xy, jb[1]["edges"]):
            return "--xy none -> found"
        return None

    # the graphs on which A's check-s115 names a witness
    witnessed = {(pool, i) for (pool, i, kind, _, _), a in zip(reqs, lines_a)
                 if kind == "check-s115" and json.loads(a)[0] == 3}
    # per (pool, kind): runs, graphs, witnesses or rejected texts, then one
    # count per difference class
    counts, shown, stats_keys, forms = {}, {}, {}, {}
    for (pool, i, kind, fields, graph), a, b in zip(reqs, lines_a, lines_b):
        row = counts.setdefault((pool, kind),
                                [0, set(), 0] + [0] * len(CLASSES))
        row[0] += 1
        row[1].add(i)
        # check-s115 exits 3 on a witness, and solve 2 on an input error
        row[2] += json.loads(a)[0] == {"check-s115": 3, "check-s115 text": 3,
                                       "malformed": 2}.get(kind)
        if a == b:
            continue
        ja, jb = json.loads(a), json.loads(b)
        cls = _classify(kind, ja, jb)
        if cls == "certificate" and not all(
                verifies(graph, fields.get("xy"), obj[1]["edges"])
                for obj in (ja, jb)):
            cls = "unverified"
        if cls == "status":
            form = accepted_form(kind, graph, fields.get("xy"), ja, jb)
            if form is not None:
                cls = "accepted"
                if (pool, i) not in witnessed:  # A's answer was a defect
                    form += ", in class"
                forms[form] = forms.get(form, 0) + 1
        keys = _differing(ja, jb)
        if cls == "stats-only":
            for k in keys:
                k = k.removeprefix("stats.")
                stats_keys[k] = stats_keys.get(k, 0) + 1
        row[3 + CLASSES.index(cls)] += 1
        if len(shown.setdefault(cls, [])) < SHOWN:
            shown[cls].append((pool, i, kind, fields.get("xy"), keys))
    for (pool, kind), (runs, graphs, witnesses, *diffs) in counts.items():
        extra = {"check-s115": f" ({witnesses} witnesses)",
                 "check-s115 text": f" ({witnesses} witnesses)",
                 "malformed": f" ({witnesses} rejected)"}.get(kind, "")
        print(f"{pool:14} {kind:15} {runs:7} runs on {len(graphs):5} "
              f"graphs, {sum(diffs)} differ{extra}")
    totals = [sum(row[3 + j] for row in counts.values())
              for j in range(len(CLASSES))]
    print(f"total: {sum(r[0] for r in counts.values())} runs, "
          + ", ".join(f"{t} {c}" for c, t in zip(CLASSES, totals)))
    for j, cls in enumerate(CLASSES):
        if not totals[j]:
            continue
        by_kind = {}
        for (_, kind), row in counts.items():
            by_kind[kind] = by_kind.get(kind, 0) + row[3 + j]
        print(f"{cls}: " + ", ".join(f"{kind} {c}" for kind, c
                                     in by_kind.items() if c))
    for cls in CLASSES:
        for pool, i, kind, xy, keys in shown.get(cls, ()):
            where = f" xy={tuple(xy)}" if xy is not None else ""
            print(f"  {cls}: {pool} #{i} {kind}{where}: " + "; ".join(
                _shown(k, va, vb) for k, (va, vb) in keys.items()))
    if forms:
        print("accepted status differences: " + ", ".join(
            f"{c} {f}" for f, c in sorted(forms.items())))
    if stats_keys:
        print("stats-only, by stats key: " + ", ".join(
            f"{k} {c}" for k, c in sorted(stats_keys.items())))
    # A's check-s115 exits 0 on an S115-free graph
    free = {(pool, i) for (pool, i, kind, _, _), a in zip(reqs, lines_a)
            if kind == "check-s115" and json.loads(a)[0] == 0}
    # per tree: (pool, S115-free) -> worst nodes per vertex, and
    # pool -> total nodes on the S115-free graphs
    worst, total = ({}, {}), ({}, {})
    for (pool, i, kind, _, graph), a, b in zip(reqs, lines_a, lines_b):
        if kind != "solve":
            continue
        for t, line in enumerate((a, b)):
            obj = json.loads(line)[1]
            if not isinstance(obj, dict):
                continue
            key = (pool, (pool, i) in free)
            nodes = obj.get("stats", {}).get("subsolver_nodes", 0)
            worst[t][key] = max(worst[t].get(key, 0.0), nodes / graph[0])
            if key[1]:
                total[t][pool] = total[t].get(pool, 0) + nodes
    for pool in POOLS:
        cells = [" / ".join(f"{w[pool, f]:.2f}" if (pool, f) in w else "-"
                            for w in worst) for f in (True, False)]
        print(f"{pool:14} worst subsolver nodes per vertex, A / B: "
              f"{cells[0]} S115-free, {cells[1]} the rest; nodes on the "
              f"S115-free graphs {total[0].get(pool, 0)} / "
              f"{total[1].get(pool, 0)}")
    print("subsolver nodes on the S115-free graphs, A / B: "
          f"{sum(total[0].values())} / {sum(total[1].values())}")
    print(f"unreachable objects left by the requests, A / B: {left[0]} / "
          f"{left[1]}")
    grown = [pool for pool in POOLS
             if total[1].get(pool, 0) > total[0].get(pool, 0)]
    for pool in grown:
        print(f"{pool}: subsolver nodes on the S115-free graphs grew, "
              f"A / B: {total[0].get(pool, 0)} / {total[1][pool]}")
    return 1 if any(totals[:2]) or left[1] or grown else 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        worker(sys.argv[1])
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
