"""Tag-level precision/recall/F plus an auxiliary exact-span token score.

The headline numbers are micro-averaged over positions: per tag t,
predicted counts positions predicted t, true counts gold t, correct counts
positions where both agree on t. Degenerate 0/0 ratios are defined as 0.
Reports serialize to JSON lines or TSV with a stable field order and
floats at six decimal places.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .corpus import TAGS, replace_on_success
from .errors import LengthMismatch


@dataclass(frozen=True)
class PRF:
    p: float
    r: float
    f: float


def prf(correct: int, predicted: int, true: int) -> PRF:
    p = correct / predicted if predicted else 0.0
    r = correct / true if true else 0.0
    f = 2.0 * p * r / (p + r) if (p + r) else 0.0
    return PRF(p=p, r=r, f=f)


@dataclass
class TagCounts:
    correct: int = 0
    predicted: int = 0
    true: int = 0

    def prf(self) -> PRF:
        return prf(self.correct, self.predicted, self.true)


@dataclass
class MetricsReport:
    model: str
    n_sentences: int
    n_positions: int
    per_tag: dict[str, TagCounts]
    micro: PRF
    micro_excl_x: PRF
    macro: PRF
    token: PRF | None = None


def _pooled(counts: list[TagCounts]) -> PRF:
    """P/R/F of the counts summed over tags."""
    return prf(*(sum(getattr(c, k) for c in counts) for k in ("correct", "predicted", "true")))


def tag_prf(gold: Sequence[str], pred: Sequence[str], model: str = "") -> MetricsReport:
    """Position-wise comparison of aligned tag strings."""
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    per_tag = {t: TagCounts() for t in TAGS}
    n_positions = 0
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise LengthMismatch(
                f"sentence {i}: {len(g)} gold tags vs {len(p)} predicted", sentence_index=i
            )
        n_positions += len(g)
        for gt, pt in zip(g, p):
            per_tag[gt].true += 1
            per_tag[pt].predicted += 1
            if gt == pt:
                per_tag[gt].correct += 1
    micro = _pooled(list(per_tag.values()))
    micro_excl_x = _pooled([per_tag[t] for t in TAGS if t != "X"])
    per = [per_tag[t].prf() for t in TAGS]
    macro = PRF(
        p=sum(x.p for x in per) / len(per),
        r=sum(x.r for x in per) / len(per),
        f=sum(x.f for x in per) / len(per),
    )
    return MetricsReport(
        model=model,
        n_sentences=len(gold),
        n_positions=n_positions,
        per_tag=per_tag,
        micro=micro,
        micro_excl_x=micro_excl_x,
        macro=macro,
    )


def token_f(
    gold_spans: Iterable[Sequence[tuple[int, int]]],
    pred_spans: Iterable[Sequence[tuple[int, int]]],
) -> PRF:
    """Exact-span token matching over per-sentence span lists."""
    correct = predicted = true = 0
    for g, p in zip(gold_spans, pred_spans):
        gs = set(map(tuple, g))
        ps = set(map(tuple, p))
        correct += len(gs & ps)
        predicted += len(ps)
        true += len(gs)
    return prf(correct, predicted, true)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_TSV_FIELDS = ("kind", "tag", "correct", "predicted", "true", "p", "r", "f",
               "model", "sentences", "positions")


def _f6(x: float) -> str:
    return f"{x:.6f}"


def _rows(report: MetricsReport) -> list[dict]:
    rows = []
    for t in TAGS:
        c = report.per_tag[t]
        m = c.prf()
        rows.append({
            "kind": "per_tag", "tag": t,
            "correct": c.correct, "predicted": c.predicted, "true": c.true,
            "p": _f6(m.p), "r": _f6(m.r), "f": _f6(m.f),
        })
    for kind, m in (("micro", report.micro), ("micro_excl_x", report.micro_excl_x),
                    ("macro", report.macro)):
        rows.append({
            "kind": kind, "p": _f6(m.p), "r": _f6(m.r), "f": _f6(m.f),
            "model": report.model, "sentences": report.n_sentences,
            "positions": report.n_positions,
        })
    if report.token is not None:
        m = report.token
        rows.append({"kind": "token", "p": _f6(m.p), "r": _f6(m.r), "f": _f6(m.f)})
    return rows


def report_emit(report: MetricsReport, out: TextIO | str, fmt: str = "json_lines") -> None:
    """Write the report, to a path through a temp file moved into place;
    byte-stable for a given report and format."""
    if fmt not in ("json_lines", "tsv"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(out, str):
        with replace_on_success(out, "w", encoding="utf-8", newline="\n") as f:
            report_emit(report, f, fmt)
        return
    rows = _rows(report)
    if fmt == "json_lines":
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        out.write("\t".join(_TSV_FIELDS) + "\n")
        for row in rows:
            out.write("\t".join(str(row.get(k, "")) for k in _TSV_FIELDS) + "\n")

