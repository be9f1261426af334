"""Plain-numpy forward pass of the gated tree-GCN, used as the benchmark's oracle.

It reads the trained parameters as arrays and recomputes one example's loss
terms, class probabilities and importance scores with a dense row-normalised
adjacency and Floyd-Warshall tree distances. It shares no code with
``absa_gcn.tensor`` or ``absa_gcn.data.build_tree``, so agreement between the
two routes is evidence that the program computes what the method says.
"""

from __future__ import annotations

import numpy as np

PROB_FLOOR = 1e-12


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def dense_adjacency(heads, include_self_loop: bool) -> np.ndarray:
    """Row-normalised undirected adjacency of the parent links."""
    n = len(heads)
    a = np.zeros((n, n))
    for i, h in enumerate(heads):
        if h != -1:
            a[i, h] = a[h, i] = 1.0
    if include_self_loop:
        a += np.eye(n)
    else:
        for i in range(n):
            if a[i].sum() == 0.0:
                a[i, i] = 1.0
    return a / a.sum(axis=1, keepdims=True)


def aspect_distances(heads, aspect_from: int, aspect_to: int) -> np.ndarray:
    """Floyd-Warshall shortest paths, reduced to the distance into the span."""
    n = len(heads)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, h in enumerate(heads):
        if h != -1:
            dist[i, h] = dist[h, i] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist[:, aspect_from:aspect_to].min(axis=1)


def _row(vocabulary: dict, lowercase: dict, unk: int, token: str) -> int:
    if token in vocabulary:
        return vocabulary[token]
    return lowercase.get(token.lower(), unk)


def forward(ex, state) -> dict:
    """Loss terms, class probabilities and both importance distributions."""
    hp = state.hp
    p = {name: t.data for name, t in state.named_tensors()}
    vocabulary = state.table.vocabulary
    lowercase: dict[str, int] = {}
    for word, idx in sorted(vocabulary.items(), key=lambda kv: kv[1]):
        lowercase.setdefault(word.lower(), idx)
    rows = [_row(vocabulary, lowercase, state.table.unk_index, t) for t in ex.tokens]
    emb = state.table.vectors.data[rows]
    aspect = emb[ex.aspect_from : ex.aspect_to].mean(axis=0)
    sentence = np.tanh(p["w_sent"] @ emb.max(axis=0) + p["b_sent"])

    adj = dense_adjacency(ex.heads, hp.include_self_loop)
    hidden = []
    h = emb
    for l in range(hp.layers):
        h = np.maximum(0.0, adj @ h @ p[f"w_gcn_{l}"].T + p[f"b_gcn_{l}"])
        hidden.append(h)
    if hp.gate_on:
        gates = [sigmoid(p[f"w_gate_{l}"] @ aspect + p[f"b_gate_{l}"]) for l in range(hp.layers)]
    else:
        gates = [np.ones(hp.hidden) for _ in range(hp.layers)]
    regulated = [hl * g for hl, g in zip(hidden, gates)]
    pooled = [r.max(axis=0) for r in regulated]

    n_layers = hp.layers
    div = 0.0
    if hp.div_on and hp.gate_on and n_layers >= 2:
        pairs = [(l, lp) for l in range(n_layers) for lp in range(n_layers) if lp != l]
        if hp.gatediv_baseline:
            sims = [float(gates[l] @ gates[lp]) for l, lp in pairs]
        else:
            sims = [float(pooled[l] @ (hidden[l] * gates[lp]).max(axis=0)) for l, lp in pairs]
        div = sum(sims) / len(pairs)

    overall = np.concatenate([sentence, pooled[-1]])
    syn = softmax(-aspect_distances(ex.heads, ex.aspect_from, ex.aspect_to))
    overall_sig = sigmoid(p["w_score_overall"] @ overall + p["b_score_overall"])
    token_sig = sigmoid(regulated[-1] @ p["w_score_token"].T + p["b_score_token"])
    mod = softmax(token_sig @ overall_sig)
    const = 0.0
    if hp.con_on:
        const = float(np.sum(syn * (np.log(np.maximum(syn, PROB_FLOOR)) - np.log(np.maximum(mod, PROB_FLOOR)))))

    cls_hidden = np.maximum(0.0, p["w_cls_hidden"] @ overall + p["b_cls_hidden"])
    probs = softmax(p["w_cls_out"] @ cls_hidden + p["b_cls_out"])
    pred = -float(np.log(max(probs[ex.label_index], PROB_FLOOR)))
    return {
        "div": div,
        "const": const,
        "pred": pred,
        "total": div + hp.alpha * const + hp.beta * pred,
        "probs": probs,
        "mod": mod,
        "syn": syn,
    }
