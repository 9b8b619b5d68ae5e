"""Seeded synthetic corpus generator with known region/word alignment.

Each image gets a handful of "objects". An object occupies one region of the
feature grid with a characteristic direction vector; its English word appears
in the English caption and its German word in the German caption. Because we
planted the objects ourselves, the ground-truth word-to-region alignment is
known exactly and is emitted alongside the corpus for evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FeatureGrid, ManifestEntry, read_jsonl, save_features, write_manifest
from .errors import ConfigError

EN_OBJECT_WORDS = ("dog", "cat", "car", "tree", "bird", "house", "boat", "horse",
                   "fish", "lamp")
DE_OBJECT_WORDS = ("hund", "katze", "auto", "baum", "vogel", "haus", "boot", "pferd",
                   "fisch", "lampe")
EN_FILLERS = ("a", "the", "small", "big", "there", "is", "near", "and")
DE_FILLERS = ("ein", "das", "klein", "gross", "da", "ist", "bei", "und")

SIGNAL_SCALE = 1.5
NOISE_SCALE = 0.25


@dataclass(frozen=True)
class SynthSpec:
    """Generation parameters; the corpus is a pure function of this spec."""

    seed: int
    n_images: int
    regions: int = 16
    feature_dim: int = 32
    n_object_types: int = 6
    objects_per_image: int = 1
    extra_fillers: tuple[int, int] = (0, 2)  # inclusive range appended per caption

    def __post_init__(self):
        if min(self.n_images, self.regions, self.feature_dim,
               self.n_object_types, self.objects_per_image) < 1:
            raise ConfigError("all synthesis counts must be positive")
        if self.objects_per_image > self.regions:
            raise ConfigError(
                f"{self.objects_per_image} objects cannot fit {self.regions} regions")
        if self.objects_per_image > self.n_object_types:
            raise ConfigError(f"{self.objects_per_image} objects per image exceed "
                              f"{self.n_object_types} object types")
        if self.n_object_types > len(EN_OBJECT_WORDS):
            raise ConfigError(f"at most {len(EN_OBJECT_WORDS)} object types supported")
        if self.extra_fillers[0] < 0 or self.extra_fillers[0] > self.extra_fillers[1]:
            raise ConfigError(f"bad filler range {self.extra_fillers}")


@dataclass(frozen=True)
class ObjectPlacement:
    """Ground-truth alignment for one planted object."""

    object_type: int
    region: int
    en_word: str
    de_word: str
    en_pos: int  # 0-based token position in the caption (targets share the index)
    de_pos: int


@dataclass(frozen=True)
class SynthImage:
    image_id: str
    grid: FeatureGrid
    en_tokens: tuple[str, ...]
    de_tokens: tuple[str, ...]
    objects: tuple[ObjectPlacement, ...]


def generate(spec: SynthSpec) -> list[SynthImage]:
    rng = np.random.default_rng(spec.seed)
    directions = rng.standard_normal((spec.n_object_types, spec.feature_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    images = []
    for idx in range(spec.n_images):
        types = rng.choice(spec.n_object_types, size=spec.objects_per_image,
                           replace=False)
        regions = rng.choice(spec.regions, size=spec.objects_per_image, replace=False)
        values = NOISE_SCALE * rng.standard_normal((spec.regions, spec.feature_dim))
        for t, r in zip(types, regions):
            values[r] += SIGNAL_SCALE * directions[t]

        en, de, placements = [], [], []
        for t, r in zip(types, regions):
            en.append(str(rng.choice(EN_FILLERS)))
            en.append(EN_OBJECT_WORDS[t])
            de.append(str(rng.choice(DE_FILLERS)))
            de.append(DE_OBJECT_WORDS[t])
            placements.append((int(t), int(r), len(en) - 1, len(de) - 1))
        for _ in range(rng.integers(spec.extra_fillers[0], spec.extra_fillers[1] + 1)):
            en.append(str(rng.choice(EN_FILLERS)))
            de.append(str(rng.choice(DE_FILLERS)))

        images.append(SynthImage(
            image_id=f"synth{idx:04d}",
            grid=FeatureGrid(values),
            en_tokens=tuple(en),
            de_tokens=tuple(de),
            objects=tuple(ObjectPlacement(
                object_type=t, region=r,
                en_word=EN_OBJECT_WORDS[t], de_word=DE_OBJECT_WORDS[t],
                en_pos=ep, de_pos=dp,
            ) for t, r, ep, dp in placements),
        ))
    return images


def write_corpus(images: list[SynthImage], out_dir: Path | str) -> None:
    """Write features/, manifest.jsonl, and alignments.jsonl under out_dir."""
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    entries = []
    for img in images:
        rel = f"features/{img.image_id}.feat"
        save_features(img.grid, out / rel)
        entries.append(ManifestEntry(
            image_id=img.image_id, features_path=rel,
            en_tokens=img.en_tokens, de_tokens=img.de_tokens,
        ))
    write_manifest(entries, out / "manifest.jsonl")
    with open(out / "alignments.jsonl", "w", encoding="utf-8") as fh:
        for img in images:
            fh.write(json.dumps({
                "image_id": img.image_id,
                "objects": [{
                    "object_type": o.object_type, "region": o.region,
                    "en_word": o.en_word, "de_word": o.de_word,
                    "en_pos": o.en_pos, "de_pos": o.de_pos,
                } for o in img.objects],
            }, sort_keys=True) + "\n")


def read_alignments(path: Path | str) -> dict[str, list[ObjectPlacement]]:
    out: dict[str, list[ObjectPlacement]] = {}
    for _, obj in read_jsonl(path):
        out[obj["image_id"]] = [ObjectPlacement(
            object_type=o["object_type"], region=o["region"],
            en_word=o["en_word"], de_word=o["de_word"],
            en_pos=o["en_pos"], de_pos=o["de_pos"],
        ) for o in obj["objects"]]
    return out
