"""Corpus metrics (BLEU4, CIDEr-D) and attention visualization export.

Both metrics take tokenized candidates plus one reference list per
candidate and report scores scaled by 100. CIDEr is the CIDEr-D variant
(clipped tf-idf cosine over 1..4-grams with a gaussian length penalty,
sigma 6.0); its idf statistics come from the evaluation reference set
itself, so scores are corpus-dependent by construction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cycle import AttentionRecord, dump_record
from .data import TripleRecord
from .errors import DataError, DimensionError
from .models import ModelBundle, teacher_forced_records
from .synth import ObjectPlacement

CIDER_SIGMA = 6.0
MAX_NGRAM = 4

Tokens = Sequence[str]


def _validate_corpus(candidates: Sequence[Tokens],
                     references: Sequence[Sequence[Tokens]]) -> None:
    if len(candidates) == 0:
        raise DataError("metric needs at least one candidate")
    if len(candidates) != len(references):
        raise DataError(f"{len(candidates)} candidates vs {len(references)} "
                        "reference lists")
    for refs in references:
        if len(refs) == 0:
            raise DataError("every candidate needs at least one reference")


def _ngram_counts(tokens: Tokens, max_n: int = MAX_NGRAM) -> Counter:
    counts: Counter = Counter()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i:i + n])] += 1
    return counts


def bleu4(candidates: Sequence[Tokens],
          references: Sequence[Sequence[Tokens]]) -> float:
    """Corpus BLEU-4: clipped n-gram precision, uniform 1..4-gram weights,
    brevity penalty against the closest reference length (ties favor the
    shorter reference). Any zero corpus precision zeroes the score."""
    _validate_corpus(candidates, references)
    clipped = [0] * (MAX_NGRAM + 1)
    totals = [0] * (MAX_NGRAM + 1)
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        merged: Counter = Counter()
        for r in refs:
            for g, c in _ngram_counts(r).items():
                merged[g] = max(merged[g], c)
        for g, c in _ngram_counts(cand).items():
            n = len(g)
            totals[n] += c
            clipped[n] += min(c, merged[g])
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, MAX_NGRAM + 1):
        if clipped[n] == 0 or totals[n] == 0:
            return 0.0
        log_sum += math.log(clipped[n] / totals[n])
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_sum / MAX_NGRAM)


def _tfidf(counts: Counter, doc_freq: Mapping, log_corpus: float):
    """Per-n tf-idf vectors and their norms for one sentence."""
    vecs = [dict() for _ in range(MAX_NGRAM)]
    norms = [0.0] * MAX_NGRAM
    for g, tf in counts.items():
        idf = log_corpus - math.log(max(1.0, doc_freq.get(g, 0.0)))
        w = tf * idf
        vecs[len(g) - 1][g] = w
        norms[len(g) - 1] += w * w
    return vecs, [math.sqrt(x) for x in norms]


def cider(candidates: Sequence[Tokens],
          references: Sequence[Sequence[Tokens]]) -> float:
    """CIDEr-D over the corpus, scaled by 100.

    Document frequency counts each image once per n-gram (over the union of
    that image's references); similarity clips candidate weights at the
    reference weight and applies exp(-delta_len^2 / (2 sigma^2))."""
    _validate_corpus(candidates, references)
    doc_freq: Counter = Counter()
    for refs in references:
        seen = set()
        for r in refs:
            seen.update(_ngram_counts(r).keys())
        for g in seen:
            doc_freq[g] += 1
    log_corpus = math.log(len(references))

    scores = []
    for cand, refs in zip(candidates, references):
        cand_vecs, cand_norms = _tfidf(_ngram_counts(cand), doc_freq, log_corpus)
        per_n = np.zeros(MAX_NGRAM)
        for r in refs:
            ref_vecs, ref_norms = _tfidf(_ngram_counts(r), doc_freq, log_corpus)
            penalty = math.exp(-((len(cand) - len(r)) ** 2) / (2.0 * CIDER_SIGMA ** 2))
            for n in range(MAX_NGRAM):
                dot = sum(min(w, ref_vecs[n].get(g, 0.0)) * ref_vecs[n].get(g, 0.0)
                          for g, w in cand_vecs[n].items())
                if cand_norms[n] > 0.0 and ref_norms[n] > 0.0:
                    per_n[n] += penalty * dot / (cand_norms[n] * ref_norms[n])
        scores.append(float(per_n.mean()) / len(refs))
    return 100.0 * float(np.mean(scores))


@dataclass(frozen=True)
class MetricReport:
    """One row of the results table."""

    model_name: str
    cider: float
    bleu4: float
    count: int


def render_report(reports: Sequence[MetricReport]) -> str:
    lines = [
        "caption metrics (CIDEr variant: CIDEr-D, sigma 6.0, corpus idf; scores x100)",
        f"{'model':<20} {'CIDEr':>10} {'BLEU4':>10} {'n':>6}",
    ]
    for r in reports:
        lines.append(f"{r.model_name:<20} {r.cider:>10.2f} {r.bleu4:>10.2f} "
                     f"{r.count:>6d}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Attention visualization
# ---------------------------------------------------------------------------

def _to_pgm(row: np.ndarray, rows: int, cols: int) -> bytes:
    """Grayscale portable pixmap of one attention row; the most attended
    region renders white."""
    grid = row.reshape(rows, cols)
    peak = grid.max()
    pixels = np.zeros_like(grid) if peak <= 0 else grid / peak
    body = np.round(255.0 * pixels).astype(np.uint8)
    return f"P5\n{cols} {rows}\n255\n".encode() + body.tobytes()


def export_attention_heatmaps(record: AttentionRecord, de_tokens: Sequence[str],
                              grid_rows: int, grid_cols: int,
                              out_dir: Path | str, image_id: str) -> list[Path]:
    """Write one PGM per German token (its region attention reshaped onto the
    grid) plus the full record as a round-trippable text dump."""
    m, regions = record.de_to_regions.shape
    if grid_rows * grid_cols != regions:
        raise DataError(f"grid {grid_rows}x{grid_cols} does not cover {regions} regions")
    if len(de_tokens) != m:
        raise DimensionError(f"{len(de_tokens)} tokens vs {m} attention rows")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for t in range(m):
        path = out / f"{image_id}.de{t:02d}.pgm"
        path.write_bytes(_to_pgm(record.de_to_regions[t], grid_rows, grid_cols))
        written.append(path)
    dump_path = out / f"{image_id}.attn.txt"
    dump_path.write_text(dump_record(record), encoding="utf-8")
    written.append(dump_path)
    legend = out / f"{image_id}.tokens.txt"
    legend.write_text("".join(f"de{t:02d} {tok}\n" for t, tok in enumerate(de_tokens)),
                      encoding="utf-8")
    written.append(legend)
    return written


# ---------------------------------------------------------------------------
# Ground-truth alignment probing (synthetic corpora)
# ---------------------------------------------------------------------------

def alignment_score(bundle: ModelBundle, triples: Sequence[TripleRecord],
                    alignments: Mapping[str, Sequence[ObjectPlacement]]) -> float:
    """Mean attention mass that German object words place on their true region.

    Captions are teacher-forced (the fair way to compare two models on the
    same words), all aligned triples in one batch; the German attention row
    at each planted object position is read off and its mass at the
    ground-truth region collected.
    """
    aligned = [t for t in triples if alignments.get(t.image_id)]
    masses = []
    for triple, record in zip(aligned, teacher_forced_records(bundle, aligned)):
        for obj in alignments[triple.image_id]:
            if obj.de_pos >= record.de_to_regions.shape[0] \
                    or obj.region >= record.de_to_regions.shape[1]:
                raise DataError(f"alignment for {triple.image_id} is out of range")
            masses.append(record.de_to_regions[obj.de_pos, obj.region])
    if not masses:
        raise DataError("no aligned object words found")
    return float(np.mean(masses))
