"""Workload definitions and input generation for the charseg benchmark.

Every input comes from ``charseg.synth`` over one fixed 60-word lexicon.
The run's ``--seed`` picks one of ``VARIANTS`` input sets (seed modulo
``VARIANTS``). The variants of a workload share token lengths and
whitespace and differ in their words. ``reference.json`` holds the outputs
this code produced on each variant, so any seed can be checked. Importing this module loads
neither numpy nor charseg: ``run.py`` only needs the table.
"""

from __future__ import annotations

VARIANTS = 8
LEXICON_SEED = 0
N_WORDS = 60

# Model sizes named in ROADMAP: the paper size and the acceptance size.
PAPER = {"d_emb": 64, "hidden": 200}
ACCEPTANCE = {"d_emb": 32, "hidden": 64}

# Every workload is a closed loop: one caller, one process, one thread.
# `ops` is the fixed number of operations of a traced run (and of its
# untraced twin), so span counts repeat exactly between runs and commits.
WORKLOADS: dict[str, dict] = {
    # Default regimen at paper size: the encoder and Adamax + clip do most
    # of the work, and the composer runs ~14 short-token LSTM calls per
    # sentence.
    "train-spaced": {
        "kind": "train", "text": "spaced", "config": PAPER,
        "n_train": 12, "n_dev": 6, "n_heldout": 8, "epochs": 2, "ops": 4,
    },
    # Missing-whitespace setting at acceptance size: about one long token
    # per sentence, so the composer and the CRF loss weigh more and the
    # optimizer less.
    "train-fused": {
        "kind": "train", "text": "fused", "config": ACCEPTANCE,
        "n_train": 24, "n_dev": 8, "n_heldout": 8, "epochs": 2, "ops": 8,
        "space_prob": 0.1,
    },
    # Read-only inference at paper size over sentence-length lines: no
    # backward pass and no optimizer; composer tokens repeat across lines.
    "segment-spaced": {
        "kind": "segment", "text": "spaced", "n_lines": 24, "ops": 8,
    },
    # Lines of thousands of characters holding many sentences: the only
    # workload where attention's L x L arrays dominate time and memory.
    "segment-long": {
        "kind": "segment", "text": "long", "n_lines": 2, "min_chars": 1600, "ops": 4,
    },
}

# The checkpoint both segment workloads decode with. It is trained with a
# fixed seed, independent of --seed, and long enough that Viterbi margins
# are wide: with random weights a legitimate 1e-14 reordering could flip a
# near-tied path and fail the exact output check.
CHECKPOINT = {
    "config": {**PAPER, "lr": 0.002, "seed": 0},
    "n_train": 16, "n_dev": 4, "epochs": 6, "sentence_seed": 7,
}

LOSS_RTOL = 1e-6   # per-epoch mean loss; early paper-size losses are ~1e4
DEV_F_ATOL = 1e-9  # dev F is a ratio of tag counts, so it matches exactly


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def lexicon() -> list[str]:
    from charseg import synth

    return synth.make_lexicon(n_words=N_WORDS, seed=LEXICON_SEED)


def _relexicalize(pairs: list, variant: int, salt: int) -> list:
    """Replace every gold token by a lexicon word of the same length.

    Token lengths, whitespace and gold tags stay as in the template, so
    every variant of a workload costs the same work and only the words
    differ. Without this, run-to-run spread is mostly input size.
    """
    import numpy as np
    from charseg.corpus import Sentence

    by_len: dict[int, list[str]] = {}
    for word in lexicon():
        by_len.setdefault(len(word), []).append(word)
    rng = np.random.default_rng([salt, variant])
    out = []
    for sentence, tags in pairs:
        chars = list(sentence.text)
        for a, b in sentence.token_spans:
            words = by_len[b - a]
            chars[a:b] = words[int(rng.integers(len(words)))]
        out.append((Sentence(text="".join(chars), token_spans=sentence.token_spans), tags))
    return out


def train_split(spec: dict, variant: int):
    """Train/dev/held-out split of one variant; held-out lines are what the
    trained model segments."""
    from charseg import synth
    from charseg.corpus import DatasetSplit

    n_train, n_dev = spec["n_train"], spec["n_dev"]
    n = n_train + n_dev + spec["n_heldout"]
    if spec["text"] == "spaced":
        template = synth.labeled_pairs(synth.make_sentences(lexicon(), n, seed=1000))
    else:
        template = synth.make_fused_pairs(lexicon(), n, space_prob=spec["space_prob"], seed=2000)
    pairs = _relexicalize(template, variant, salt=1)
    return DatasetSplit(train=pairs[:n_train], dev=pairs[n_train : n_train + n_dev], test=pairs[n_train + n_dev :])


def segment_lines(spec: dict, variant: int) -> list[str]:
    """Raw input lines of a segment workload."""
    from charseg import synth

    if spec["text"] == "spaced":
        lines = synth.make_sentences(lexicon(), spec["n_lines"], seed=3000)
    else:
        sentences = synth.make_sentences(lexicon(), spec["n_lines"] * spec["min_chars"] // 10, seed=4000)
        lines = [""] * spec["n_lines"]
        i = 0
        for s in sentences:
            if len(lines[i]) >= spec["min_chars"]:
                i += 1
                if i == len(lines):
                    break
            lines[i] = f"{lines[i]} {s}" if lines[i] else s
    pairs = _relexicalize(synth.labeled_pairs(lines), variant, salt=2)
    return [sentence.text for sentence, _ in pairs]


def checkpoint_split():
    from charseg import synth

    return synth.make_split(
        n_train=CHECKPOINT["n_train"], n_dev=CHECKPOINT["n_dev"],
        lexicon_seed=LEXICON_SEED, sentence_seed=CHECKPOINT["sentence_seed"], n_words=N_WORDS,
    )
