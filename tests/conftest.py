"""Shared independent oracles: plain-numpy forward pass, graph helpers and the binary frame.

Everything here deliberately avoids the package's tensor machinery so the
tests compare two unrelated computation routes. ``resident_bytes`` reads the
process's resident set, which sees memory that ``tracemalloc`` does not:
pages of an anonymous map, and zero pages a first write maps.
``split_frame``/``join_frame`` take apart and build a checkpoint or an
embedding cache by hand, without the package's frame reader and writer.
"""

import json
import os

import numpy as np


def resident_bytes() -> int:
    """The process's resident set in bytes, from ``/proc/self/statm`` (Linux only)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def split_frame(data: bytes):
    """Magic, parsed JSON header and block bytes of a checkpoint or an embedding cache."""
    length = int.from_bytes(data[8:16], "little")
    return data[:8], json.loads(data[16 : 16 + length]), data[16 + length :]


def join_frame(magic: bytes, header, body: bytes, header_bytes=None) -> bytes:
    """``magic``, a true length field, ``header`` as unpadded JSON (or ``header_bytes``), then ``body``."""
    header_bytes = json.dumps(header).encode("utf-8") if header_bytes is None else header_bytes
    return magic + len(header_bytes).to_bytes(8, "little") + header_bytes + body


def softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def dense_adjacency(ex, include_self_loop=True):
    """Row-normalized undirected adjacency with optional self-loops."""
    n = ex.n
    A = np.zeros((n, n))
    for i, h in enumerate(ex.heads):
        if h != -1:
            A[i, h] = A[h, i] = 1.0
    if include_self_loop:
        A += np.eye(n)
    else:
        for i in range(n):
            if A[i].sum() == 0.0:
                A[i, i] = 1.0
    return A / A.sum(axis=1, keepdims=True)


def neighbor_sets(tree):
    """Each token's neighbourhood in a ``DependencyTree``, as a tuple of token ids."""
    hoods = tree.neighborhoods
    return tuple(tuple(group.tolist()) for group in np.split(hoods.members, np.cumsum(hoods.sizes)[:-1]))


def floyd_warshall_distances(ex):
    """All-pairs shortest paths, reduced to min distance into the aspect span."""
    n = ex.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, h in enumerate(ex.heads):
        if h != -1:
            dist[i, h] = dist[h, i] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist[:, ex.aspect_from : ex.aspect_to].min(axis=1)


def oracle_losses(ex, state, hp):
    """Plain-numpy reimplementation of the model's whole forward pass."""
    p = {name: t.data for name, t in state.tensors.items()}
    vectors = state.table.vectors.data
    E = vectors[[state.table.row_index(t) for t in ex.tokens]]
    aspect = E[ex.aspect_from : ex.aspect_to].mean(axis=0)
    sentence = np.tanh(p["w_sent"] @ E.max(axis=0) + p["b_sent"])

    A = dense_adjacency(ex, hp.include_self_loop)
    hidden = []
    H = E
    for l in range(hp.layers):
        H = np.maximum(0.0, A @ H @ p[f"w_gcn_{l}"].T + p[f"b_gcn_{l}"])
        hidden.append(H)

    if hp.gate_on:
        gates = [sigmoid_np(p[f"w_gate_{l}"] @ aspect + p[f"b_gate_{l}"]) for l in range(hp.layers)]
    else:
        gates = [np.ones(hp.hidden) for _ in range(hp.layers)]
    regulated = [h * g for h, g in zip(hidden, gates)]
    pooled = [r.max(axis=0) for r in regulated]

    L = hp.layers
    div = 0.0
    if hp.div_on and hp.gate_on and L >= 2:
        pairs = [(l, lp) for l in range(L) for lp in range(L) if lp != l]
        if hp.gatediv_baseline:
            div = sum(float(gates[l] @ gates[lp]) for l, lp in pairs) / (L * (L - 1))
        else:
            div = sum(
                float(pooled[l] @ (hidden[l] * gates[lp]).max(axis=0)) for l, lp in pairs
            ) / (L * (L - 1))

    overall = np.concatenate([sentence, pooled[-1]])
    syn = softmax_np(-floyd_warshall_distances(ex))
    overall_sig = sigmoid_np(p["w_score_overall"] @ overall + p["b_score_overall"])
    token_sig = sigmoid_np(regulated[-1] @ p["w_score_token"].T + p["b_score_token"])
    mod = softmax_np(token_sig @ overall_sig)
    const = 0.0
    if hp.con_on:
        const = float(
            np.sum(syn * (np.log(np.maximum(syn, 1e-12)) - np.log(np.maximum(mod, 1e-12))))
        )

    cls_hidden = np.maximum(0.0, p["w_cls_hidden"] @ overall + p["b_cls_hidden"])
    probs = softmax_np(p["w_cls_out"] @ cls_hidden + p["b_cls_out"])
    pred = -float(np.log(max(probs[ex.label_index], 1e-12)))
    total = div + hp.alpha * const + hp.beta * pred
    return {
        "div": div,
        "const": const,
        "pred": pred,
        "total": total,
        "probs": probs,
        "mod": mod,
        "syn": syn,
    }
