"""Answer checks of the dimatch benchmark, independent of the program.

A d.i.m. is checked through its vertex coloring: the matched vertices
induce a perfect matching (each has exactly one matched neighbor, its
partner) and the unmatched vertices are independent.  The same
characterisation gives a brute-force decision for graphs on few vertices.
"""

from __future__ import annotations

import json
from collections import deque


class WrongAnswer(Exception):
    """The program returned an answer the benchmark proves wrong."""


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_dim(n: int, edges, matching) -> bool:
    """True iff `matching` is a dominating induced matching of the graph."""
    adj = _adjacency(n, edges)
    mate = [-1] * n
    for (u, v) in matching:
        if not (0 <= u < n and 0 <= v < n) or v not in adj[u]:
            return False
        if mate[u] >= 0 or mate[v] >= 0:
            return False
        mate[u], mate[v] = v, u
    for (u, v) in edges:
        matched = (mate[u] >= 0) + (mate[v] >= 0)
        if matched == 0:
            return False                  # two adjacent unmatched vertices
        if matched == 2 and mate[u] != v:
            return False                  # an edge joins two matching edges
    return True


def has_dim_small(n: int, edges) -> bool:
    """Exact decision by enumerating every set of matched vertices."""
    masks = [0] * n
    for (u, v) in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    full = (1 << n) - 1
    for black in range(1 << n):
        white = full & ~black
        if all(not (masks[v] & white) for v in range(n) if white >> v & 1) \
                and all((masks[v] & black).bit_count() == 1
                        for v in range(n) if black >> v & 1):
            return True
    return False


def is_s115(n: int, edges, verts) -> bool:
    """True iff `verts` induce S_{1,1,5}, in whatever order they are listed."""
    if len(verts) != 8 or len(set(verts)) != 8 \
            or not all(0 <= v < n for v in verts):
        return False
    adj = _adjacency(n, edges)
    inside = set(verts)
    sub = {v: adj[v] & inside for v in verts}
    if sum(len(s) for s in sub.values()) != 2 * 7:
        return False
    centers = [v for v in verts if len(sub[v]) == 3]
    if len(centers) != 1 or any(len(s) > 3 for s in sub.values()):
        return False
    dist = {centers[0]: 0}
    queue = deque(centers)
    while queue:
        v = queue.popleft()
        for w in sub[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    if len(dist) != 8:
        return False                      # 7 edges, disconnected: a cycle
    leaves = sorted(dist[v] for v in verts if len(sub[v]) == 1)
    return leaves == [1, 1, 5]


def check_answer(inst, exit_code: int, output: str) -> str:
    """The program's answer to `inst`; raises WrongAnswer when it is wrong.

    Returns the result field: "found", "none", "hypothesis-violated",
    "s115-free" or "witness".  `inst.expect` must already be resolved
    (no "oracle" left).
    """
    try:
        obj = json.loads(output)
    except ValueError:
        raise WrongAnswer(f"exit {exit_code}, output is not JSON: "
                          f"{output[:80]!r}")
    result = obj.get("result")
    if inst.mode == "check-s115":
        if result == "witness":
            verts = [int(t) for t in obj.get("detail", "").split()]
            if not is_s115(inst.n, inst.edges, verts):
                raise WrongAnswer(f"witness {verts} is not an induced S115")
        elif result != "s115-free":
            raise WrongAnswer(f"unexpected check-s115 result {result!r}")
        if result != inst.expect:
            raise WrongAnswer(f"answered {result}, expected {inst.expect}")
        return result
    if result == "found":
        cert = [tuple(e) for e in obj.get("edges") or ()]
        if not is_dim(inst.n, inst.edges, cert):
            raise WrongAnswer("found certificate is not a d.i.m.")
        if inst.expect == "none":
            raise WrongAnswer("found a d.i.m. where none exists")
    elif result == "none":
        if inst.expect == "found":
            raise WrongAnswer("answered none on a graph with a d.i.m.")
    elif result != "hypothesis-violated":
        raise WrongAnswer(f"unexpected solve result {result!r}")
    return result
