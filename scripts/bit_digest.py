#!/usr/bin/env python3
"""Digests of a model's numbers, to show that two commits compute the same
bits.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bit_digest.py

prints one line per case: variant, size (d_emb/hidden) and a sha256 over

- the float64 bits of ``Model.loss`` on fixed sentences, with dropout
  from fixed seeds and without dropout;
- each gradient's name in ``Model.layout`` and the bytes of its slice of
  the gradient vector, so the digest does not depend on what
  ``Model.views`` returns;
- the tag strings ``predict`` returns for those sentences;
- the per-epoch training losses and the bytes of ``theta`` after
  ``train`` for 2 epochs;
- the bytes ``save_model`` writes for the fresh build and for the trained
  model. ``load_model`` of each file must return the same ``theta`` bytes,
  or the script stops with an error.

Five cases train on spaced sentences (``synth.make_split``), one of them
(``bilstm_crf-frozen``) with the CRF start scores frozen at 0; ``sgnws-fused``
trains on sentences whose words run together (``synth.make_fused_pairs``,
a space before about 10% of them), so the token composer runs over long
tokens.

After the digest each line prints ``infer rel``: the worst difference
between the inference emissions and the training forward's, relative to
the largest emission, on the same texts before and after training. It is
not hashed. Inference (``Model.batch_emissions``) runs two batches: the
case's sentences, and two texts of over a thousand characters each
built from them, longer than ``model.BATCH_CHARS``, so they pair up as
two long lines do in ``predict_many``. In both, the LSTM input products
come from GEMMs over chunks of whole packed steps, the sequences run
together, each sigmoid gate is taken as 1/2 + tanh(z/2)/2, and the head
runs once over the batch's rows with attention's value path folded into
the output layer. The long texts take their gate inputs in several
chunks, their dense rows and their attention in several row blocks
(``nncore.block_end``).

``--save FILE`` keeps each case's digest and its raw losses and
gradients. ``--against FILE`` prints, per case, ``digest same`` or
``DIFFERS`` against such a file, and where the arithmetic may round
differently, the worst relative loss difference and the worst gradient
difference relative to the gradient's largest entry; it exits 1 if any
digest differs. To show that a change keeps the bits:

    PYTHONPATH=<parent checkout>/src python3 scripts/bit_digest.py --save parent.npz
    PYTHONPATH=src python3 scripts/bit_digest.py --against parent.npz
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from charseg.corpus import DatasetSplit, tag_ids
from charseg.model import BATCH_CHARS, Model, ModelConfig, load_model, save_model, train
from charseg.nncore import BLOCK_ROWS
from charseg.subword import TokenMemo, build_vocab
from charseg.synth import make_fused_pairs, make_lexicon, make_split

# case -> (ModelConfig overrides, its text: spaced sentences, or fused ones
# whose words run together into long composer tokens)
VARIANTS = {
    "sgnws": ({}, "spaced"),
    "bilstm_crf_char": ({"variant": "bilstm_crf_char"}, "spaced"),
    "lstm_softmax": ({"variant": "lstm_softmax"}, "spaced"),
    "sgnws-2layer": ({"num_layers": 2}, "spaced"),
    "sgnws-fused": ({}, "fused"),
    "bilstm_crf-frozen": ({"variant": "bilstm_crf", "use_start_scores": False}, "spaced"),
}
SIZES = "8/12,32/64,64/200"
N_SENTENCES = 4


def infer_rel(model: Model, texts: list[str]) -> float:
    """Worst max|E_infer - E| / max|E| over texts as one batch and over two
    long texts made of them as another."""
    long_texts = [" ".join(texts * 8), " ".join(texts[::-1] * 7)]
    assert min(map(len, long_texts)) > max(BATCH_CHARS, BLOCK_ROWS)
    worst = 0.0
    for batch in (texts, long_texts):
        for text, E_inf in zip(batch, model.batch_emissions(batch, TokenMemo())):
            E, _ = model.emissions(text)
            worst = max(worst, float(np.max(np.abs(E_inf - E)) / np.max(np.abs(E))))
    return worst


def checkpoint_bytes(model: Model) -> bytes:
    """What save_model writes for model, after checking that load_model
    reads the same theta bytes back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_model(model, path)
        if load_model(path, model.vocab).theta.tobytes() != model.theta.tobytes():
            raise SystemExit("load_model did not return the theta that save_model wrote")
        return path.read_bytes()


def run_case(split, vocab, size: str, overrides: dict) -> tuple[str, np.ndarray, np.ndarray, float]:
    """(digest, losses, concatenated gradients, infer_rel) of one case."""
    d_emb, hidden = (int(v) for v in size.split("/"))
    cfg = ModelConfig(d_emb=d_emb, hidden=hidden, epochs=2, seed=0, **overrides)
    model = Model(cfg, vocab)
    digest = hashlib.sha256(checkpoint_bytes(model))
    losses, grads = [], []
    texts = [sent.text for sent, _ in split.train[:N_SENTENCES]]
    rel = infer_rel(model, texts)
    for k, (sent, tags) in enumerate(split.train[:N_SENTENCES]):
        for seed in (100 + k, None):
            value, G = model.loss(sent.text, tag_ids(tags), seed)
            digest.update(struct.pack("<d", value))
            for name, (sl, _) in model.layout.items():
                digest.update(name.encode() + G[sl].tobytes())
            losses.append(value)
            grads.append(G)
        digest.update(model.predict(sent.text).encode())
    for rec in train(model, split):
        digest.update(struct.pack("<d", rec.train_loss))
    digest.update(model.theta.tobytes())
    digest.update(checkpoint_bytes(model))
    rel = max(rel, infer_rel(model, texts))
    return digest.hexdigest(), np.array(losses), np.concatenate(grads), rel


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default=SIZES, help=f"comma-separated d_emb/hidden pairs (default {SIZES})")
    ap.add_argument("--save", help="write the digests, raw losses and gradients to this .npz file")
    ap.add_argument("--against", help="compare with the digests, losses and gradients in this .npz file")
    args = ap.parse_args()

    lexicon = make_lexicon(n_words=40, seed=5)
    splits = {
        "spaced": make_split(n_train=6, n_dev=3, lexicon_seed=5, sentence_seed=6, n_words=40),
        "fused": DatasetSplit(train=make_fused_pairs(lexicon, 6, space_prob=0.1, seed=7),
                              dev=make_fused_pairs(lexicon, 3, space_prob=0.1, seed=8), test=[]),
    }
    vocabs = {kind: build_vocab([s.text for s, _ in split.train]) for kind, split in splits.items()}
    saved = dict(np.load(args.against)) if args.against else None
    raw = {}
    differs = 0
    for size in args.sizes.split(","):
        for name, (overrides, kind) in VARIANTS.items():
            digest, losses, grads, rel = run_case(splits[kind], vocabs[kind], size, overrides)
            line = f"{name:<17} {size:<7} {digest}  infer rel {rel:.2e}"
            case = f"{name}@{size}"
            raw[case + ".digest"], raw[case + ".loss"], raw[case + ".grad"] = np.array(digest), losses, grads
            if saved is not None:
                same = str(saved[case + ".digest"]) == digest
                differs += not same
                ref_l, ref_g = saved[case + ".loss"], saved[case + ".grad"]
                loss_rel = float(np.max(np.abs(losses - ref_l) / np.abs(ref_l)))
                grad_rel = float(np.max(np.abs(grads - ref_g)) / np.max(np.abs(ref_g)))
                line += f"  {'digest same' if same else 'DIFFERS'}  loss rel {loss_rel:.2e}  grad rel {grad_rel:.2e}"
            print(line, flush=True)
    if args.save:
        np.savez(args.save, **raw)
    if differs:
        print(f"{differs} of {len(raw) // 3} digests differ", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
