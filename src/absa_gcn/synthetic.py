"""Random dependency trees: uniform Prüfer sequences decoded into parent pointers.

The gradient check (``absa_gcn.gradcheck``) draws its example's tree here.
"""

from __future__ import annotations

import numpy as np


def prufer_to_edges(sequence: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over labels 0..n-1 into the n-1 tree edges."""
    if n < 2:
        return []
    if len(sequence) != n - 2:
        raise ValueError(f"sequence length {len(sequence)} != n-2 for n={n}")
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    for v in sequence:
        for u in range(n):
            if degree[u] == 1:
                edges.append((u, v))
                degree[u] -= 1
                degree[v] -= 1
                break
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return edges


def random_tree_heads(n: int, rng: np.random.Generator) -> list[int]:
    """Parent pointers of a uniform random labeled tree, rooted at a random node."""
    if n == 1:
        return [-1]
    if n == 2:
        root = int(rng.integers(2))
        return [-1, 0] if root == 0 else [1, -1]
    sequence = [int(v) for v in rng.integers(0, n, size=n - 2)]
    edges = prufer_to_edges(sequence, n)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    root = int(rng.integers(n))
    heads = [-1] * n
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                heads[v] = u
                stack.append(v)
    return heads
