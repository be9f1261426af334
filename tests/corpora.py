"""Toy corpora whose labels follow from the tree, and random examples, for the tests.

The corpora encode sentiment puzzles whose difficulty is controlled exactly,
so the pipeline can be exercised end to end without licensed review data.
"""

from __future__ import annotations

import numpy as np

from absa_gcn.data import Example
from absa_gcn.synthetic import random_tree_heads

POSITIVE_CUES = ("great", "lovely", "superb", "tasty")
NEGATIVE_CUES = ("awful", "bland", "rude", "noisy")
NEUTRAL_CUES = ("okay", "average", "plain")
ASPECT_WORDS = ("food", "service", "decor", "staff", "price", "menu", "music", "wine")
FILLER_WORDS = ("the", "was", "but", "and", "really", "today", "here")

CUE_POLARITY = {w: "positive" for w in POSITIVE_CUES}
CUE_POLARITY.update({w: "negative" for w in NEGATIVE_CUES})
CUE_POLARITY.update({w: "neutral" for w in NEUTRAL_CUES})


def random_example(rng: np.random.Generator, max_tokens: int = 10, vocab_size: int = 30) -> Example:
    """A structurally valid random example (tokens carry no semantics)."""
    n = int(rng.integers(1, max_tokens + 1))
    heads = random_tree_heads(n, rng)
    tokens = [f"tok{int(rng.integers(vocab_size))}" for _ in range(n)]
    start = int(rng.integers(n))
    end = min(n, start + int(rng.integers(1, 3)))
    label = ("positive", "neutral", "negative")[int(rng.integers(3))]
    return Example(tokens=tokens, heads=heads, aspect_from=start, aspect_to=end, label=label)


def aspect_adjacent_tokens(ex: Example) -> list[str]:
    """Tokens sharing a tree edge with the aspect span (span itself excluded)."""
    span = set(range(ex.aspect_from, ex.aspect_to))
    adjacent = set()
    for i, h in enumerate(ex.heads):
        if h == -1:
            continue
        if i in span and h not in span:
            adjacent.add(h)
        if h in span and i not in span:
            adjacent.add(i)
    return [ex.tokens[i] for i in sorted(adjacent)]


def make_overfit_corpus(n_examples: int = 20, seed: int = 0) -> list[Example]:
    """Sentences whose label is fully determined by the cue next to the aspect.

    Layout: the cue word is the root, the aspect hangs off it as a leaf, and
    filler tokens pad the tree elsewhere, so the aspect's only tree neighbor
    is the cue.
    """
    rng = np.random.default_rng(seed)
    cues = list(POSITIVE_CUES + NEGATIVE_CUES + NEUTRAL_CUES)
    examples = []
    for _ in range(n_examples):
        cue = cues[int(rng.integers(len(cues)))]
        aspect = ASPECT_WORDS[int(rng.integers(len(ASPECT_WORDS)))]
        n_fill = int(rng.integers(2, 5))
        fillers = [FILLER_WORDS[int(rng.integers(len(FILLER_WORDS)))] for _ in range(n_fill)]
        # cue is root (index 0), aspect its child (index 1), fillers chain off the cue
        tokens = [cue, aspect] + fillers
        heads = [-1, 0] + [i + 1 for i in range(n_fill)]  # filler k hangs off previous token
        heads[2] = 0  # first filler attaches to the root
        examples.append(
            Example(tokens=tokens, heads=heads, aspect_from=1, aspect_to=2, label=CUE_POLARITY[cue])
        )
    return examples


def make_contrastive_corpus(n_examples: int, seed: int = 0) -> list[Example]:
    """Two-aspect sentences with opposite labels plus far-away distractor cues.

    Each sentence yields two examples sharing tokens and tree: aspect A sits
    next to a positive (or negative) cue, aspect B next to the opposite one,
    and extra sentiment words dangle several hops away from both aspects to
    mislead any reader that ignores the tree. A model that cannot condition
    on the queried aspect is capped near chance here.
    """
    if n_examples % 2 != 0:
        raise ValueError("n_examples must be even (two aspects per sentence)")
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n_examples // 2):
        first_positive = bool(rng.integers(2))
        cue_a = (POSITIVE_CUES if first_positive else NEGATIVE_CUES)[int(rng.integers(4))]
        cue_b = (NEGATIVE_CUES if first_positive else POSITIVE_CUES)[int(rng.integers(4))]
        aspect_a, aspect_b = rng.choice(len(ASPECT_WORDS), size=2, replace=False)
        aspect_a, aspect_b = ASPECT_WORDS[aspect_a], ASPECT_WORDS[aspect_b]
        distractor = (POSITIVE_CUES + NEGATIVE_CUES)[int(rng.integers(8))]
        filler = [FILLER_WORDS[int(rng.integers(len(FILLER_WORDS)))] for _ in range(3)]

        #        0:root  1:aspA  2:cueA  3:aspB  4:cueB  5:f  6:f  7:distractor
        tokens = [filler[0], aspect_a, cue_a, aspect_b, cue_b, filler[1], filler[2], distractor]
        heads = [-1, 0, 1, 0, 3, 0, 5, 6]
        label_a = CUE_POLARITY[cue_a]
        label_b = CUE_POLARITY[cue_b]
        examples.append(Example(tokens=tokens, heads=heads, aspect_from=1, aspect_to=2, label=label_a))
        examples.append(Example(tokens=tokens, heads=heads, aspect_from=3, aspect_to=4, label=label_b))
    return examples
