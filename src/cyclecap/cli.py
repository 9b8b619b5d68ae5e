"""Operator surface: one subcommand per pipeline stage.

``SUBCOMMANDS`` holds each subcommand's tuple of ``Option`` entries, the one
place to add a setting: it builds the parser, types every value, names the
input paths and fills ``TrainConfig``. A setting's key is its flag with
``-`` replaced by ``_``. A subcommand takes only the settings its run reads:
``--seed`` only where a run draws random numbers, model sizes only on
``pretrain`` (``train`` takes them from its ``--part1`` checkpoint).

Every run resolves its settings (defaults, then the --config YAML file,
then explicit flags), checks them (``SETTINGS_CHECKS``), and only then
writes exactly one ``manifest.json`` into its --out-dir, recording those
settings plus content hashes of the input files taken before the run,
and can be replayed byte-for-byte with ``--from-manifest``. A replay takes
its settings from the manifest alone: --config or a setting flag beside it
is a config error. It re-hashes the recorded input files first: one that
changed or went missing since the run is an io error (exit 5) naming the
file and both digests. The inputs recorded are the required options' files
and the vocabulary files ``train``, ``infer`` and ``attn-export`` read
beside their checkpoint (``VOCAB_BESIDE``), those that exist when the run
starts.

A value is read with its option's type wherever it comes from: a flag
(usage error, exit 2), a config file (exit 2) or a manifest (exit 5).
``--seed`` is a non-negative int; ``synth-data``'s five counts,
``--beam-size``, ``--max-len``, ``--grid-rows``, ``--grid-cols``,
``--trials``, ``--limit`` and ``--min-freq`` are positive ints. Other
ranges (``TrainConfig.check``, ``SynthSpec``'s cross-field limits) stay
with the library code that uses the value, and are config errors too.

Exit codes by error category: 2 config, 3 data, 4 numeric, 5 io (every
OSError included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable

import yaml

from . import checks, evaluation, synth
from .data import (FeatureGrid, ManifestEntry, TripleRecord, Vocabulary,
                   check_feature_dim, encode_pairs, encode_triples, load_features,
                   read_jsonl, read_manifest, text_field)
from .errors import (ConfigError, CycleCapError, DataError, FormatError,
                     NumericError)
from .inference import beam_decode, caption_image
from .models import (ModelBundle, load_bundle, load_captioner, load_model,
                     save_bundle, save_captioner, teacher_forced_records)
from .training import TrainConfig, pretrain_part1, train_part2

EXIT_CODES = {"config": 2, "data": 3, "numeric": 4, "io": 5}


def _int_from(low: int, name: str) -> Callable[[str], int]:
    """An int type that rejects values below ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{value} is below {low}")
        return value
    parse.__name__ = name
    return parse


non_negative_int = _int_from(0, "non-negative int")
positive_int = _int_from(1, "positive int")


@dataclass(frozen=True)
class Option:
    """One setting of a subcommand. ``type`` reads its value from a flag, a
    config file or a manifest; ``bool`` makes it an on/off flag. ``required``
    marks an input path, whose content hash the run manifest records."""

    flag: str
    type: Callable
    default: object
    help: str
    required: bool = False

    @property
    def key(self) -> str:
        return self.flag.replace("-", "_")

    def read(self, value, path, error: type[CycleCapError]):
        """``value`` from the file at ``path``, coerced as the flag would
        coerce the same text; None stays only where the default is None."""
        if value is None and self.default is None:
            return None
        if self.type is bool:
            if isinstance(value, bool):
                return value
        elif value is not None and not isinstance(value, (bool, dict, list)):
            try:
                return self.type(str(value))
            except ValueError:
                pass
        raise error(f"{path}: setting {self.key!r} must be "
                    f"{self.type.__name__}, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclecap",
        description="Two-stage multilingual captioning with attention-cycle "
                    "consistency.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, options) in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--out-dir", required=True, help="run output directory")
        sub.add_argument("--config", default=None,
                         help="YAML key/value file; flags override its values")
        sub.add_argument("--from-manifest", default=None,
                         help="replay a previous run's settings verbatim")
        # every setting parses to None unless given, so an explicit flag shows
        for opt in options:
            if opt.type is bool:
                kind, shown = {"action": "store_const", "const": True}, "off"
            else:
                kind, shown = {"type": opt.type}, opt.default
            sub.add_argument(f"--{opt.flag}", default=None, **kind,
                             help=opt.help if opt.required
                             else f"{opt.help} (default: {shown})")
    return parser


# Removed settings, each with the value whose behaviour remains. A config or
# manifest may still hold that value (of its type: 0 is not false); any
# other is a ConfigError.
RETIRED = {"squared_cycle": False, "dims": "tiny"}


def _refuse_retired(values: dict, path) -> None:
    for key, kept in RETIRED.items():
        value = values.get(key, kept)
        if type(value) is not type(kept) or value != kept:
            raise ConfigError(f"{path}: setting {key!r} was removed; only "
                              f"{json.dumps(kept)} is accepted, got {value!r}")


def _resolve_settings(args: argparse.Namespace, options: tuple[Option, ...]) -> dict:
    """defaults < config file < explicit flags, as a flat dict. A config key
    that no subcommand has an option for is a ConfigError; one that only
    other subcommands read is ignored."""
    config = {}
    if args.config:
        path = args.config
        try:
            loaded = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ConfigError(f"{path}: not a readable YAML file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a key/value tree")
        config = {str(k).replace("-", "_"): v for k, v in loaded.items()}
        _refuse_retired(config, path)
        known = {opt.key for _, _, opts in SUBCOMMANDS.values() for opt in opts}
        unknown = sorted(set(config) - known - set(RETIRED))
        if unknown:
            raise ConfigError(f"{path}: no subcommand has a setting "
                              f"{', '.join(map(repr, unknown))}")
    settings = {}
    for opt in options:
        value = getattr(args, opt.key)
        if value is not None:
            settings[opt.key] = value
        elif opt.key in config:
            settings[opt.key] = opt.read(config[opt.key], args.config, ConfigError)
        else:
            settings[opt.key] = opt.default
    return settings


def _digest(path: Path) -> str:
    """An input file's sha256, or "missing"."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


def _check_inputs(path, stored: dict) -> None:
    """Re-hash every input file a run manifest records; one that changed or
    went missing since is a FormatError naming the file and both digests.
    A manifest without ``inputs`` is taken as it is."""
    inputs = stored.get("inputs", {})
    if not isinstance(inputs, dict) or not all(isinstance(v, str)
                                               for v in inputs.values()):
        raise FormatError(f"{path}: 'inputs' must map input paths to digests, "
                          f"got {inputs!r}")
    for name, recorded in inputs.items():
        now = _digest(Path(name))
        if now != recorded:
            raise FormatError(f"{path}: input {name} has changed since the run: "
                              f"recorded {recorded}, now {now}")


def _replayed_settings(args: argparse.Namespace,
                       options: tuple[Option, ...]) -> dict:
    """The settings recorded in the ``--from-manifest`` file, which must hold
    every option of the subcommand; keys of removed options are kept as
    recorded (``RETIRED`` ones only at the value that remains). Its recorded
    input files must still hash as they did. --config or a setting flag
    beside it is a ConfigError."""
    given = [f"--{opt.flag}" for opt in options if getattr(args, opt.key) is not None]
    if args.config:
        given.insert(0, "--config")
    if given:
        raise ConfigError(f"{', '.join(given)} cannot be combined with "
                          "--from-manifest: a replay takes its settings from "
                          "the manifest alone")
    path = args.from_manifest
    try:
        stored = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise FormatError(f"{path}: not a JSON run manifest: {exc}") from exc
    if not isinstance(stored, dict):
        raise FormatError(f"{path}: expected a JSON object, "
                          f"got {type(stored).__name__}")
    if stored.get("subcommand") != args.subcommand:
        raise ConfigError(
            f"{path}: manifest records subcommand {stored.get('subcommand')!r}, "
            f"not {args.subcommand!r}")
    settings = stored.get("settings")
    if not isinstance(settings, dict):
        raise FormatError(f"{path}: missing the 'settings' object")
    _refuse_retired(settings, path)
    missing = [opt.key for opt in options if opt.key not in settings]
    if missing:
        raise FormatError(f"{path}: settings lack {', '.join(map(repr, missing))}")
    _check_inputs(path, stored)
    return {**settings, **{opt.key: opt.read(settings[opt.key], path, FormatError)
                           for opt in options}}


def write_run_manifest(subcommand: str, settings: dict, out_dir: Path) -> None:
    inputs = {}
    for opt in SUBCOMMANDS[subcommand][2]:
        if opt.required and settings.get(opt.key):
            p = Path(settings[opt.key])
            inputs[str(p)] = _digest(p)
    key, langs = VOCAB_BESIDE.get(subcommand, (None, ()))
    for lang in langs:
        p = _vocab_path(Path(settings[key]), lang)
        if p.is_file():
            inputs[str(p)] = _digest(p)
    payload = {"subcommand": subcommand, "settings": settings, "inputs": inputs}
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _train_config(settings: dict) -> TrainConfig:
    """The settings named like ``TrainConfig`` fields (``lambda`` is
    ``cycle_weight``), range-checked by ``TrainConfig.check``."""
    keys = {f.name: f.name for f in fields(TrainConfig)} | {"cycle_weight": "lambda"}
    cfg = TrainConfig(**{name: settings[key] for name, key in keys.items()
                         if key in settings})
    cfg.check()
    return cfg


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _language(settings: dict, key: str) -> str:
    """The caption language a setting names: en or de, else a ConfigError."""
    value = settings[key]
    if value not in ("en", "de"):
        raise ConfigError(f"{key.replace('_', '-')} must be en or de, got {value!r}")
    return value


def run_synth_data(settings: dict, out_dir: Path) -> None:
    spec = synth.SynthSpec(**settings)  # the options are SynthSpec's fields
    synth.write_corpus(synth.generate(spec), out_dir)
    print(f"wrote {spec.n_images} images under {out_dir}")


def run_pretrain(settings: dict, out_dir: Path) -> None:
    manifest = Path(settings["manifest"])
    field = _language(settings, "caption_field")
    entries = read_manifest(manifest)
    corpus = [e.en_tokens if field == "en" else e.de_tokens for e in entries]
    vocab = Vocabulary.build(corpus, min_freq=settings["min_freq"])
    pairs = encode_pairs(entries, vocab, manifest.parent, field)
    if not pairs:
        raise DataError("no usable pairs in manifest")
    cfg = _train_config(settings)
    model, report = pretrain_part1(pairs, vocab, pairs[0].features.dim, cfg)
    save_captioner(model, out_dir / "part1.ckpt")
    vocab.save(out_dir / f"vocab_{field}.txt")
    report.write(out_dir / "report.jsonl")
    last = report.epochs[-1]
    print(f"pretrained {len(pairs)} pairs, {last.epoch} epochs, "
          f"final nll/token {last.nll_per_token:.4f}")


def run_train(settings: dict, out_dir: Path) -> None:
    manifest = Path(settings["manifest"])
    part1_path = Path(settings["part1"])
    captioner = load_captioner(part1_path)
    en_vocab = _vocab_beside(part1_path, "en", captioner.dims.en_vocab)
    entries = read_manifest(manifest)
    de_vocab = Vocabulary.build([e.de_tokens for e in entries],
                                min_freq=settings["min_freq"])
    triples = encode_triples(entries, en_vocab, de_vocab, manifest.parent)
    if not triples:
        raise DataError("no usable triples in manifest")
    cfg = _train_config(settings)
    bundle, report = train_part2(triples, captioner, en_vocab, de_vocab, cfg)
    save_bundle(bundle, out_dir / "bundle.ckpt")
    en_vocab.save(out_dir / "vocab_en.txt")
    de_vocab.save(out_dir / "vocab_de.txt")
    report.write(out_dir / "report.jsonl")
    last = report.epochs[-1]
    cyc = f", cycle {last.cycle:.4f}" if last.cycle is not None else ""
    print(f"trained {len(triples)} triples, {last.epoch} epochs, "
          f"final nll/token {last.nll_per_token:.4f}{cyc}")


# subcommand: (the setting naming its checkpoint, the languages whose
# vocabulary file it may read beside it). A run manifest records those that
# exist: which ones ``infer`` reads depends on the checkpoint's kind, and a
# run that needs a missing one fails.
VOCAB_BESIDE = {"train": ("part1", ("en",)),
                "infer": ("checkpoint", ("en", "de")),
                "attn-export": ("checkpoint", ("en", "de"))}


def _vocab_path(ckpt: Path, lang: str) -> Path:
    return ckpt.parent / f"vocab_{lang}.txt"


def _vocab_beside(ckpt: Path, lang: str, size: int) -> Vocabulary:
    """``vocab_<lang>.txt`` next to ``ckpt``, which must hold the ``size`` ids
    the checkpoint was trained with."""
    path = _vocab_path(ckpt, lang)
    try:
        vocab = Vocabulary.load(path)
    except FileNotFoundError as exc:
        raise FormatError(f"{path}: no vocabulary file beside {ckpt}") from exc
    if len(vocab) != size:
        raise FormatError(f"{path}: {len(vocab)} ids, but {ckpt} has {size}")
    return vocab


def _load_grid(manifest: Path, entry: ManifestEntry, feature_dim: int) -> FeatureGrid:
    """A manifest entry's feature grid, checked against the model's dim."""
    grid = load_features(manifest.parent / entry.features_path)
    check_feature_dim(entry.image_id, grid, feature_dim)
    return grid


def _one_per_image(entries: list[ManifestEntry]) -> list[ManifestEntry]:
    """Each image's first manifest row, in first-appearance order: a
    manifest may caption an image on several rows, and an image is decoded
    or exported once."""
    first: dict[str, ManifestEntry] = {}
    for e in entries:
        first.setdefault(e.image_id, e)
    return list(first.values())


def run_infer(settings: dict, out_dir: Path) -> None:
    field = _language(settings, "caption_field")
    ckpt = Path(settings["checkpoint"])
    model = load_model(ckpt)
    manifest = Path(settings["manifest"])
    entries = _one_per_image(read_manifest(manifest))
    beam_size, max_len = settings["beam_size"], settings["max_len"]

    if isinstance(model, ModelBundle):
        en_vocab = _vocab_beside(ckpt, "en", model.dims.en_vocab)
        de_vocab = _vocab_beside(ckpt, "de", model.dims.de_vocab)

        def decode(entry):
            grid = _load_grid(manifest, entry, model.dims.feature_dim)
            res = caption_image(model, grid, beam_size=beam_size, max_len=max_len)
            return {"image_id": entry.image_id,
                    "en": " ".join(en_vocab.decode(res.en_ids)),
                    "de": " ".join(de_vocab.decode(res.de_ids)),
                    "en_truncated": res.en_truncated,
                    "de_truncated": res.de_truncated}
    else:
        decoder = model.decoder
        vocab = _vocab_beside(ckpt, field, model.dims.en_vocab)

        def decode(entry):
            grid = _load_grid(manifest, entry, model.dims.feature_dim)
            keys, state = decoder.start([model.project(grid.values[None])])
            res = beam_decode(partial(decoder.step, keys), state,
                              beam_size=beam_size, max_len=max_len)
            rec = {"image_id": entry.image_id, "en": "", "de": "",
                   "en_truncated": False, "de_truncated": False}
            rec[field] = " ".join(vocab.decode(res.tokens))
            rec[f"{field}_truncated"] = res.truncated
            return rec

    rows = [decode(e) for e in entries]
    with open(out_dir / "captions.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"decoded {len(rows)} images -> {out_dir / 'captions.jsonl'}")


def run_eval(settings: dict, out_dir: Path) -> None:
    field = _language(settings, "field")
    refs_by_id = {}     # every non-empty caption of an image, in manifest order
    for e in read_manifest(Path(settings["manifest"])):
        if caption := getattr(e, f"{field}_tokens"):
            refs_by_id.setdefault(e.image_id, []).append(list(caption))
    candidates, references, scored = [], [], set()
    for where, row in read_jsonl(settings["candidates"]):
        image_id = text_field(row, "image_id", where)
        if not refs_by_id.get(image_id):
            raise DataError(f"candidate {image_id!r} has no {field} reference "
                            f"caption in the manifest")
        candidates.append(text_field(row, field, where).split())
        if image_id in scored:
            raise DataError(f"{where}: a second candidate for image {image_id!r}; "
                            f"each image is scored once")
        scored.add(image_id)
        references.append(refs_by_id[image_id])
    if not candidates:
        raise DataError("no candidates to score")
    report = evaluation.MetricReport(
        model_name=settings["model_name"],
        cider=evaluation.cider(candidates, references),
        bleu4=evaluation.bleu4(candidates, references),
        count=len(candidates))
    table = evaluation.render_report([report])
    (out_dir / "report.txt").write_text(table, encoding="utf-8")
    (out_dir / "metrics.json").write_text(json.dumps({
        "model": report.model_name, "cider": report.cider,
        "bleu4": report.bleu4, "count": report.count}, sort_keys=True) + "\n",
        encoding="utf-8")
    print(table, end="")


def run_attn_export(settings: dict, out_dir: Path) -> None:
    ckpt = Path(settings["checkpoint"])
    bundle = load_bundle(ckpt)
    en_vocab = _vocab_beside(ckpt, "en", bundle.dims.en_vocab)
    de_vocab = _vocab_beside(ckpt, "de", bundle.dims.de_vocab)
    manifest = Path(settings["manifest"])
    entries = _one_per_image(read_manifest(manifest))
    if settings["limit"] is not None:
        entries = entries[:settings["limit"]]
    rows, cols = settings["grid_rows"], settings["grid_cols"]
    grids = [_load_grid(manifest, e, bundle.dims.feature_dim) for e in entries]
    for e, grid in zip(entries, grids):   # before any decode or export
        if rows * cols != grid.regions:
            raise DataError(f"grid {rows}x{cols} does not cover the {grid.regions} "
                            f"regions of image {e.image_id!r}")
    if settings["use_gold_captions"]:
        triples = [TripleRecord(e.image_id, grid, tuple(en_vocab.encode(e.en_tokens)),
                                tuple(de_vocab.encode(e.de_tokens)))
                   for e, grid in zip(entries, grids)]
        records = teacher_forced_records(bundle, triples)
        de_ids = [t.de_ids[1:] for t in triples]
    else:
        results = [caption_image(bundle, grid, beam_size=settings["beam_size"],
                                 max_len=settings["max_len"]) for grid in grids]
        records = [res.record for res in results]
        de_ids = [res.de_ids for res in results]
    for entry, record, ids in zip(entries, records, de_ids):
        de_tokens = [de_vocab.id_to_token[i] for i in ids]
        evaluation.export_attention_heatmaps(record, de_tokens, rows, cols,
                                             out_dir / "attn", entry.image_id)
    print(f"exported attention for {len(entries)} images under {out_dir / 'attn'}")


def run_gradcheck(settings: dict, out_dir: Path) -> None:
    results = checks.gradient_suite(settings["seed"])
    lines = [f"{r.name:<28} max rel err {r.max_error:.3e} "
             f"{'ok' if r.ok(checks.GRAD_TOL) else 'FAILED'}" for r in results]
    worst = max(r.max_error for r in results)
    lines.append(f"{'worst':<28} {worst:.3e} (tolerance {checks.GRAD_TOL:.0e})")
    body = "\n".join(lines) + "\n"
    (out_dir / "gradcheck.txt").write_text(body, encoding="utf-8")
    print(body, end="")
    if any(not r.ok(checks.GRAD_TOL) for r in results):
        raise NumericError("gradient check failed")


def run_oracle_check(settings: dict, out_dir: Path) -> None:
    summary = checks.oracle_suite(settings["seed"], settings["trials"])
    body = summary.render()
    (out_dir / "oracle.txt").write_text(body, encoding="utf-8")
    print(body, end="")
    if not summary.ok:
        raise NumericError("oracle check failed")


SEED = (Option("seed", non_negative_int, 0, "master RNG seed"),)
TRAIN = (
    Option("learning-rate", float, 4e-4, "Adam learning rate"),
    Option("batch-size", int, 32, "records per optimizer step"),
    Option("max-epochs", int, 50, "maximum training epochs"),
    Option("patience", int, 20, "early-stop patience on validation CIDEr"),
    Option("dropout", float, 0.5, "dropout rate in training mode"),
    Option("validate-every", int, 1, "epochs between validation decodes"),
    Option("target-nll", float, None,
           "stop once per-token train loss drops below this"),
)
SIZES = (
    Option("proj-dim", int, 64, "projected image feature size"),
    Option("embed-dim", int, 64, "word embedding size"),
    Option("hidden-dim", int, 64, "recurrent hidden size"),
    Option("attn-dim", int, 64, "attention scorer hidden size"),
)
MANIFEST = Option("manifest", str, None, "dataset manifest (jsonl)", True)
MIN_FREQ = Option("min-freq", positive_int, 5, "vocabulary frequency cutoff")

# subcommand: (runner, help, options)
SUBCOMMANDS: dict[str, tuple[Callable, str, tuple[Option, ...]]] = {
    "synth-data": (run_synth_data, "generate a synthetic aligned corpus",
                   SEED + (
        Option("n-images", positive_int, 16, "number of images"),
        Option("regions", positive_int, 16, "feature grid regions per image"),
        Option("feature-dim", positive_int, 32, "feature vector size per region"),
        Option("n-object-types", positive_int, 6, "distinct object words"),
        Option("objects-per-image", positive_int, 1, "planted objects per image"),
    )),
    "pretrain": (run_pretrain, "train the stage-one captioner", SEED + (
        MANIFEST,
        Option("caption-field", str, "en",
               "which caption field to train on (en, or de for the "
               "single-stage baseline)"),
        MIN_FREQ,
    ) + TRAIN + SIZES),
    "train": (run_train, "train the German stage against a pretrained captioner",
              SEED + (
        MANIFEST,
        Option("part1", str, None, "stage-one checkpoint (sizes; vocab file alongside)",
               True),
        Option("lambda", float, 1.0, "cycle-consistency loss weight"),
        Option("freeze-part1", bool, False, "keep stage-one parameters fixed"),
        MIN_FREQ,
    ) + TRAIN),
    "infer": (run_infer, "decode captions for a manifest", (
        Option("checkpoint", str, None, "bundle or captioner checkpoint", True),
        MANIFEST,
        Option("beam-size", positive_int, 3, "beam width"),
        Option("max-len", positive_int, 50, "generated-token cap, EOS included"),
        Option("caption-field", str, "en",
               "output field for captioner-only checkpoints"),
    )),
    "eval": (run_eval, "score decoded captions", (
        Option("candidates", str, None, "captions.jsonl from infer", True),
        Option("manifest", str, None, "reference manifest", True),
        Option("field", str, "de", "caption field to score"),
        Option("model-name", str, "model", "label for the report row"),
    )),
    "attn-export": (run_attn_export, "export attention heatmaps", (
        Option("checkpoint", str, None, "bundle checkpoint", True),
        MANIFEST,
        Option("grid-rows", positive_int, 4, "heatmap rows (rows*cols = regions)"),
        Option("grid-cols", positive_int, 4, "heatmap cols"),
        Option("beam-size", positive_int, 3, "beam width"),
        Option("max-len", positive_int, 50, "generated-token cap, EOS included"),
        Option("limit", positive_int, None, "export at most this many images"),
        Option("use-gold-captions", bool, False,
               "teacher-force ground truth instead of decoding"),
    )),
    "gradcheck": (run_gradcheck, "finite-difference gradient suite", SEED),
    "oracle-check": (run_oracle_check,
                     "composed-attention and chain-identity verification", SEED + (
        Option("trials", positive_int, 100, "random factorized joints to test"),
    )),
}


# subcommand: the check its settings pass before the manifest is written, so
# that a refused run leaves none behind: the ranges library code checks
# (``SynthSpec``, ``TrainConfig.check``) and the caption languages. Each run
# still makes the same check where it uses the value.
SETTINGS_CHECKS: dict[str, Callable[[dict], object]] = {
    "synth-data": lambda s: synth.SynthSpec(**s),
    "pretrain": lambda s: (_language(s, "caption_field"), _train_config(s)),
    "train": _train_config,
    "infer": partial(_language, key="caption_field"),
    "eval": partial(_language, key="field"),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run, _, options = SUBCOMMANDS[args.subcommand]
    try:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.from_manifest:
            settings = _replayed_settings(args, options)
        else:
            settings = _resolve_settings(args, options)
        for opt in options:
            if opt.required and not settings[opt.key]:
                raise ConfigError(f"--{opt.flag} is required for {args.subcommand}")
        run_settings = {opt.key: settings[opt.key] for opt in options}
        if check := SETTINGS_CHECKS.get(args.subcommand):
            check(run_settings)
        write_run_manifest(args.subcommand, settings, out_dir)
        run(run_settings, out_dir)
        return 0
    except CycleCapError as exc:
        category = getattr(exc, "category", "config")
        print(f"error[{category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(category, 2)
    except OSError as exc:  # a missing file, a directory where a file belongs...
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_CODES["io"]


if __name__ == "__main__":
    sys.exit(main())
