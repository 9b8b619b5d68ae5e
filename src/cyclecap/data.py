"""Dataset plumbing: vocabularies, feature grids, triples, and file formats.

On-disk formats
---------------
Manifest: one JSON object per line with keys ``image_id``, ``features``
(path relative to the manifest file), ``en`` and ``de`` (space-separated
tokens).

Feature file: magic ``CYCF``, version u16 = 1, u32 region count L, u32
feature dim D, then L*D little-endian float64 values, row-major.

Vocabulary file: plain text, one token per line; the token on line k
(0-based) has id k + 4, since ids 0..3 are reserved for PAD/BOS/EOS/UNK.
"""

from __future__ import annotations

import json
import logging
import string
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, FormatError, NumericError

log = logging.getLogger(__name__)

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

FEATURE_MAGIC = b"CYCF"
FEATURE_VERSION = 1

MAX_CAPTION_TOKENS = 50

_PUNCT = set(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Whitespace split, lowercase, strip punctuation; drops empty leftovers.

    Punctuation-only tokens disappear entirely. Lowercasing is a local choice
    for vocabulary compactness; compound words stay opaque (no subword
    splitting).
    """
    out = []
    for raw in text.split():
        token = raw.lower().strip(string.punctuation)
        if token and not all(ch in _PUNCT for ch in token):
            out.append(token)
    return out


@dataclass(frozen=True)
class FeatureGrid:
    """L region feature vectors of dimension D for one image."""

    values: np.ndarray  # (L, D) float64

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataError(f"feature grid must be (L>=1, D>=1), got {v.shape}")
        if not np.isfinite(v).all():
            raise NumericError("feature grid contains non-finite values")

    @property
    def regions(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def check_feature_dim(image_id: str, grid: FeatureGrid, feature_dim: int) -> None:
    """A model projects (and a batch stacks) grids of one feature dim; a grid
    of another is a DataError naming its image and both dims."""
    if grid.dim != feature_dim:
        raise DataError(f"image {image_id!r} has feature dim {grid.dim}, "
                        f"expected {feature_dim}")


class Vocabulary:
    """Token/id bijection with four reserved ids (PAD=0, BOS=1, EOS=2, UNK=3)."""

    def __init__(self, tokens: Sequence[str]):
        for t in tokens:
            if t in RESERVED_TOKENS:
                raise DataError(f"reserved token {t!r} cannot enter the vocabulary")
        if len(set(tokens)) != len(tokens):
            raise DataError("duplicate tokens in vocabulary")
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}

    @classmethod
    def build(cls, corpus: Iterable[Sequence[str]], min_freq: int = 5) -> "Vocabulary":
        """Count tokens over tokenized captions and keep those at or above min_freq.

        Ids are assigned by descending count, ties broken lexicographically,
        so the mapping is deterministic for a given corpus.
        """
        if min_freq < 1:
            raise DataError(f"min_freq must be >= 1, got {min_freq}")
        counts: Counter[str] = Counter()
        seen_any = False
        for caption in corpus:
            seen_any = True
            for token in caption:
                if token and not all(ch in _PUNCT for ch in token):
                    counts[token] += 1
        if not seen_any:
            raise DataError("cannot build a vocabulary from an empty corpus")
        kept = sorted((t for t, c in counts.items() if c >= min_freq),
                      key=lambda t: (-counts[t], t))
        return cls(kept)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """Wrap in BOS/EOS; unknown tokens map to UNK."""
        ids = [self.token_to_id.get(t, UNK_ID) for t in tokens]
        return [BOS_ID] + ids + [EOS_ID]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Inverse of encode: drops PAD/BOS/EOS, keeps UNK as its marker token."""
        out = []
        for i in ids:
            if i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            if not 0 <= i < len(self.id_to_token):
                raise DataError(f"token id {i} out of range")
            out.append(self.id_to_token[i])
        return out

    def save(self, path: Path | str) -> None:
        body = "".join(t + "\n" for t in self.id_to_token[4:])
        Path(path).write_text(body, encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "Vocabulary":
        """One token per line, as ``save`` writes them. A blank line, a
        duplicate or reserved token, or bytes that are not UTF-8 are a
        FormatError at ``path:line``."""
        raw = Path(path).read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise FormatError(f"{path}:{line}: not UTF-8") from exc
        first_line: dict[str, int] = {}
        for lineno, token in enumerate(text.splitlines(), 1):
            if not token.strip():
                raise FormatError(f"{path}:{lineno}: blank line")
            if token in RESERVED_TOKENS:
                raise FormatError(f"{path}:{lineno}: token {token!r} is reserved")
            if token in first_line:
                raise FormatError(f"{path}:{lineno}: token {token!r} repeats "
                                  f"line {first_line[token]}")
            first_line[token] = lineno
        return cls(list(first_line))


def _check_caption(ids: Sequence[int], what: str) -> None:
    """A record's caption ids: BOS, 1 to MAX_CAPTION_TOKENS tokens, EOS;
    ``what`` names the caption in the DataError."""
    if len(ids) < 3:
        raise DataError(f"{what} is empty")
    if ids[0] != BOS_ID or ids[-1] != EOS_ID:
        raise DataError(f"{what} must be BOS..EOS")
    if len(ids) - 2 > MAX_CAPTION_TOKENS:
        raise DataError(f"{what} exceeds {MAX_CAPTION_TOKENS} tokens")


@dataclass(frozen=True)
class TripleRecord:
    """One training example: image features plus encoded EN and DE captions.

    Both id sequences start with BOS and end with EOS. The teacher-forcing
    step counts (`en_steps`, `de_steps`) exclude BOS, which is never a
    prediction target; EOS is predicted and therefore counted.
    """

    image_id: str
    features: FeatureGrid
    en_ids: tuple[int, ...]
    de_ids: tuple[int, ...]

    def __post_init__(self):
        _check_caption(self.en_ids, f"en caption of {self.image_id!r}")
        _check_caption(self.de_ids, f"de caption of {self.image_id!r}")

    @property
    def en_steps(self) -> int:
        return len(self.en_ids) - 1

    @property
    def de_steps(self) -> int:
        return len(self.de_ids) - 1


@dataclass(frozen=True)
class PairRecord:
    """An image-caption pair for single-decoder training (either language)."""

    image_id: str
    features: FeatureGrid
    ids: tuple[int, ...]

    def __post_init__(self):
        _check_caption(self.ids, f"caption of {self.image_id!r}")

    @property
    def steps(self) -> int:
        return len(self.ids) - 1


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    features_path: str
    en_tokens: tuple[str, ...]
    de_tokens: tuple[str, ...]


def save_features(grid: FeatureGrid, path: Path | str) -> None:
    payload = np.ascontiguousarray(grid.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<HII", FEATURE_VERSION, grid.regions, grid.dim))
        fh.write(payload.tobytes())


def load_features(path: Path | str) -> FeatureGrid:
    raw = Path(path).read_bytes()
    if raw[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic at offset 0: {raw[:4]!r}")
    header_end = 4 + struct.calcsize("<HII")
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated header at offset {len(raw)}")
    version, regions, dim = struct.unpack("<HII", raw[4:header_end])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    expected = header_end + regions * dim * 8
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload ends at offset {len(raw)}, expected {expected}")
    values = np.frombuffer(raw[header_end:], dtype="<f8").reshape(regions, dim)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise NumericError(f"{path}: non-finite feature values")
    return FeatureGrid(values)


def write_manifest(entries: Iterable[ManifestEntry], path: Path | str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps({
                "image_id": e.image_id,
                "features": e.features_path,
                "en": " ".join(e.en_tokens),
                "de": " ".join(e.de_tokens),
            }, sort_keys=True) + "\n")


def read_jsonl(path: Path | str) -> list[tuple[str, dict]]:
    """One (``path:line``, object) pair per non-blank line of a JSON-lines
    file; a line that is not a JSON object is a FormatError naming it. Lines
    end at ``\\n`` only: JSON text may hold other line breaks, such as U+0085
    or U+2028, that ``str.splitlines`` would also break at."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at offset {exc.start}") from exc
    rows = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise FormatError(f"{where}: not JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise FormatError(f"{where}: expected a JSON object, "
                              f"got {type(obj).__name__}")
        rows.append((where, obj))
    return rows


def text_field(obj: dict, key: str, where: str) -> str:
    """``obj[key]``, which must be a string; otherwise a FormatError at
    ``where``."""
    if key not in obj:
        raise FormatError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, str):
        raise FormatError(f"{where}: field {key!r} must be a string, "
                          f"got {type(value).__name__}")
    return value


def read_manifest(path: Path | str) -> list[ManifestEntry]:
    """The entries of a manifest. An ``image_id`` names output files, such
    as ``attn-export``'s ``attn/<image_id>.pgm``, so an id that could leave
    their directory (empty, ``.``, ``..``, or holding ``/``, ``\\`` or NUL)
    is a FormatError at ``path:line``."""
    entries = []
    for where, obj in read_jsonl(path):
        image_id = text_field(obj, "image_id", where)
        if image_id in ("", ".", "..") or any(c in image_id for c in "/\\\0"):
            raise FormatError(f"{where}: image_id {image_id!r} is not a plain "
                              f"file name")
        entries.append(ManifestEntry(
            image_id=image_id,
            features_path=text_field(obj, "features", where),
            en_tokens=tuple(tokenize(text_field(obj, "en", where))),
            de_tokens=tuple(tokenize(text_field(obj, "de", where))),
        ))
    return entries


def _usable(entries: Sequence[ManifestEntry], fields: Sequence[str],
            manifest_dir: Path | str
            ) -> Iterable[tuple[ManifestEntry, FeatureGrid]]:
    """(entry, feature grid) for each entry whose captions in ``fields`` are
    all usable; an entry with an empty or overlong one is skipped with a
    warning. Each feature file is loaded once."""
    root = Path(manifest_dir)
    grids: dict[str, FeatureGrid] = {}
    for e in entries:
        captions = [getattr(e, f"{f}_tokens") for f in fields]
        if not all(captions):
            log.warning("skipping %s: empty caption", e.image_id)
            continue
        if any(len(c) > MAX_CAPTION_TOKENS for c in captions):
            log.warning("skipping %s: caption exceeds %d tokens",
                        e.image_id, MAX_CAPTION_TOKENS)
            continue
        if e.features_path not in grids:
            grids[e.features_path] = load_features(root / e.features_path)
        yield e, grids[e.features_path]


def encode_triples(entries: Sequence[ManifestEntry],
                   en_vocab: Vocabulary,
                   de_vocab: Vocabulary,
                   manifest_dir: Path | str) -> list[TripleRecord]:
    """Resolve features and encode captions; unusable entries are skipped with
    a warning (empty caption, overlong caption)."""
    return [TripleRecord(image_id=e.image_id, features=grid,
                         en_ids=tuple(en_vocab.encode(e.en_tokens)),
                         de_ids=tuple(de_vocab.encode(e.de_tokens)))
            for e, grid in _usable(entries, ("en", "de"), manifest_dir)]


def encode_pairs(entries: Sequence[ManifestEntry], vocab: Vocabulary,
                 manifest_dir: Path | str, field: str = "en") -> list[PairRecord]:
    """Image-caption pairs for one language; same skipping rules as triples,
    applied to that language's caption only."""
    if field not in ("en", "de"):
        raise DataError(f"caption field must be 'en' or 'de', got {field!r}")
    return [PairRecord(image_id=e.image_id, features=grid,
                       ids=tuple(vocab.encode(getattr(e, f"{field}_tokens"))))
            for e, grid in _usable(entries, (field,), manifest_dir)]


def pairs_from_triples(triples: Sequence[TripleRecord], field: str = "en") -> list[PairRecord]:
    if field not in ("en", "de"):
        raise DataError(f"caption field must be 'en' or 'de', got {field!r}")
    return [PairRecord(image_id=t.image_id, features=t.features,
                       ids=t.en_ids if field == "en" else t.de_ids)
            for t in triples]


# ---------------------------------------------------------------------------
# Padded batches
# ---------------------------------------------------------------------------

def _pad_ids(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) ids padded with PAD to the longest sequence, and the (B, T)
    boolean mask of real ids."""
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=bool)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
        mask[i, :len(s)] = True
    return ids, mask


def _pad_grids(grids: Sequence[FeatureGrid]) -> tuple[np.ndarray, np.ndarray]:
    """(B, L, D) features padded with zero rows to the most regions, and the
    (B, L) boolean mask of real regions. All grids must share D."""
    dims = {g.dim for g in grids}
    if len(dims) != 1:
        raise DataError(f"cannot batch feature grids of dims {sorted(dims)}")
    width = max(g.regions for g in grids)
    features = np.zeros((len(grids), width, dims.pop()))
    mask = np.zeros((len(grids), width), dtype=bool)
    for i, g in enumerate(grids):
        features[i, :g.regions] = g.values
        mask[i, :g.regions] = True
    return features, mask


@dataclass(frozen=True)
class Batch:
    """B records padded to common shapes, with masks of their real entries.

    ``en_ids`` holds the caption of the first-stage decoder: a pair's ids or
    a triple's English ids. ``de_ids`` is None for a batch of pairs. Each
    id matrix is BOS..EOS per row, then PAD; its mask is True on BOS..EOS.
    Padded regions are zero rows. The masks, not the padding values, say
    what is real, so no padded value can reach a loss.
    """

    features: np.ndarray            # (B, L, D)
    region_mask: np.ndarray         # (B, L)
    en_ids: np.ndarray              # (B, N + 1)
    en_mask: np.ndarray             # (B, N + 1)
    de_ids: np.ndarray | None = None    # (B, M + 1)
    de_mask: np.ndarray | None = None   # (B, M + 1)

    def __len__(self) -> int:
        return len(self.features)


def make_batch(records: Sequence[PairRecord | TripleRecord]) -> Batch:
    """Pad pairs or triples into one batch, in the order given."""
    if not records:
        raise DataError("cannot batch zero records")
    features, region_mask = _pad_grids([r.features for r in records])
    if isinstance(records[0], PairRecord):
        en_ids, en_mask = _pad_ids([r.ids for r in records])
        return Batch(features, region_mask, en_ids, en_mask)
    en_ids, en_mask = _pad_ids([r.en_ids for r in records])
    de_ids, de_mask = _pad_ids([r.de_ids for r in records])
    return Batch(features, region_mask, en_ids, en_mask, de_ids, de_mask)
