"""Operator surface: one subcommand per pipeline stage.

``SUBCOMMANDS`` holds each subcommand's tuple of ``Option`` entries, the one
place to add a setting: it builds the parser, types every value, names the
input paths and fills ``TrainConfig``. A setting's key is its flag with
``-`` replaced by ``_``.

Every run resolves its settings (defaults, then the --config YAML file,
then explicit flags), writes exactly one ``manifest.json`` into its
--out-dir recording those settings plus content hashes of the input files,
and can be replayed byte-for-byte with ``--from-manifest``. A replay takes
its settings from the manifest alone: --config or a setting flag beside it
is a config error.

A value is read with its option's type wherever it comes from: a flag
(usage error, exit 2), a config file (exit 2) or a manifest (exit 5).
``--seed`` is a non-negative int, ``--trials`` and ``--limit`` positive
ints; other range checks stay with the library code that uses the value.

Exit codes by error category: 2 config, 3 data, 4 numeric, 5 io (every
OSError included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import yaml

from . import checks, evaluation, synth
from .data import (FeatureGrid, ManifestEntry, TripleRecord, Vocabulary,
                   check_feature_dim, encode_pairs, encode_triples, load_features,
                   read_jsonl, read_manifest, text_field)
from .errors import (ConfigError, CycleCapError, DataError, FormatError,
                     NumericError)
from .inference import beam_decode, caption_image, decoder_step_fn
from .models import (ModelBundle, load_bundle, load_captioner, load_model,
                     save_bundle, save_captioner, teacher_forced_record)
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


# Removed on/off settings. A config or manifest may still hold one switched
# off, which is the behaviour that remains; switched on it is a ConfigError.
RETIRED = ("squared_cycle",)


def _refuse_retired(values: dict, path) -> None:
    for key in RETIRED:
        if values.get(key, False) is not False:
            raise ConfigError(f"{path}: setting {key!r} was removed; only "
                              f"false is accepted, got {values[key]!r}")


def _resolve_settings(args: argparse.Namespace, options: tuple[Option, ...]) -> dict:
    """defaults < config file < explicit flags, as a flat dict."""
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _replayed_settings(args: argparse.Namespace,
                       options: tuple[Option, ...]) -> dict:
    """The settings recorded in the ``--from-manifest`` file, which must hold
    every option of the subcommand; keys of removed options are kept as
    recorded (``RETIRED`` ones only when off). --config or a setting flag
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
    return {**settings, **{opt.key: opt.read(settings[opt.key], path, FormatError)
                           for opt in options}}


def write_run_manifest(subcommand: str, settings: dict, out_dir: Path) -> None:
    inputs = {}
    for opt in SUBCOMMANDS[subcommand][2]:
        if opt.required and settings.get(opt.key):
            p = Path(settings[opt.key])
            inputs[str(p)] = _sha256(p) if p.is_file() else "missing"
    payload = {"subcommand": subcommand, "settings": settings, "inputs": inputs}
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _train_config(settings: dict) -> TrainConfig:
    """The settings named like ``TrainConfig`` fields (``lambda`` is
    ``cycle_weight``), range-checked by ``TrainConfig.check``."""
    named = {"cycle_weight" if k == "lambda" else k: v for k, v in settings.items()}
    cfg = TrainConfig(**{f.name: named[f.name] for f in fields(TrainConfig)
                         if f.name in named})
    cfg.check()
    return cfg


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def run_synth_data(settings: dict, out_dir: Path) -> None:
    spec = synth.SynthSpec(**settings)  # the options are SynthSpec's fields
    synth.write_corpus(synth.generate(spec), out_dir)
    print(f"wrote {spec.n_images} images under {out_dir}")


def run_pretrain(settings: dict, out_dir: Path) -> None:
    manifest = Path(settings["manifest"])
    field = settings["caption_field"]
    if field not in ("en", "de"):
        raise ConfigError(f"caption-field must be en or de, got {field!r}")
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
    en_vocab_path = part1_path.parent / "vocab_en.txt"
    if not en_vocab_path.is_file():
        raise DataError(f"no vocab_en.txt next to {part1_path}; stage two needs "
                        "an English stage-one run")
    en_vocab = Vocabulary.load(en_vocab_path)
    captioner = load_captioner(part1_path)
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


def _vocab_beside(ckpt: Path, lang: str, size: int) -> Vocabulary:
    """``vocab_<lang>.txt`` next to ``ckpt``, which must hold the ``size`` ids
    the checkpoint was trained with."""
    path = ckpt.parent / f"vocab_{lang}.txt"
    vocab = Vocabulary.load(path)
    if len(vocab) != size:
        raise FormatError(f"{path}: {len(vocab)} ids, but {ckpt} has {size}")
    return vocab


def _load_grid(manifest: Path, entry: ManifestEntry, feature_dim: int) -> FeatureGrid:
    """A manifest entry's feature grid, checked against the model's dim."""
    grid = load_features(manifest.parent / entry.features_path)
    check_feature_dim(entry.image_id, grid, feature_dim)
    return grid


def run_infer(settings: dict, out_dir: Path) -> None:
    ckpt = Path(settings["checkpoint"])
    model = load_model(ckpt)
    manifest = Path(settings["manifest"])
    entries = read_manifest(manifest)
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
        field = settings["caption_field"]
        decoder = model.decoder
        if not (ckpt.parent / f"vocab_{field}.txt").is_file():
            raise DataError(f"no vocab_{field}.txt next to {ckpt}")
        vocab = _vocab_beside(ckpt, field, model.dims.en_vocab)

        def decode(entry):
            grid = _load_grid(manifest, entry, model.dims.feature_dim)
            keys, state = decoder.start([model.project(grid.values[None])])
            res = beam_decode(decoder_step_fn(decoder, keys), state,
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
    field = settings["field"]
    if field not in ("en", "de"):
        raise ConfigError(f"field must be en or de, got {field!r}")
    refs_by_id = {}
    for e in read_manifest(Path(settings["manifest"])):
        refs_by_id[e.image_id] = list(e.en_tokens if field == "en" else e.de_tokens)
    candidates, references = [], []
    for where, row in read_jsonl(settings["candidates"]):
        image_id = text_field(row, "image_id", where)
        if image_id not in refs_by_id:
            raise DataError(f"candidate {image_id!r} missing from the manifest")
        candidates.append(text_field(row, field, where).split())
        references.append([refs_by_id[image_id]])
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
    entries = read_manifest(manifest)
    if settings["limit"] is not None:
        entries = entries[:settings["limit"]]
    rows, cols = settings["grid_rows"], settings["grid_cols"]
    for entry in entries:
        grid = _load_grid(manifest, entry, bundle.dims.feature_dim)
        if settings["use_gold_captions"]:
            triple = TripleRecord(entry.image_id, grid,
                                  tuple(en_vocab.encode(entry.en_tokens)),
                                  tuple(de_vocab.encode(entry.de_tokens)))
            record = teacher_forced_record(bundle, triple)
            de_tokens = [de_vocab.id_to_token[i] for i in triple.de_ids[1:]]
        else:
            res = caption_image(bundle, grid, beam_size=settings["beam_size"],
                                max_len=settings["max_len"])
            record = res.record
            de_tokens = [de_vocab.id_to_token[i] for i in res.de_ids]
        evaluation.export_attention_heatmaps(record, de_tokens, rows, cols,
                                             out_dir / "attn", entry.image_id)
    print(f"exported attention for {len(entries)} images under {out_dir / 'attn'}")


def run_gradcheck(settings: dict, out_dir: Path) -> None:
    results = checks.gradient_suite(settings["dims"], settings["seed"])
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
    Option("proj-dim", int, 64, "projected image feature size"),
    Option("embed-dim", int, 64, "word embedding size"),
    Option("hidden-dim", int, 64, "recurrent hidden size"),
    Option("attn-dim", int, 64, "attention scorer hidden size"),
    Option("validate-every", int, 1, "epochs between validation decodes"),
    Option("target-nll", float, None,
           "stop once per-token train loss drops below this"),
)
MANIFEST = Option("manifest", str, None, "dataset manifest (jsonl)", True)
MIN_FREQ = Option("min-freq", int, 5, "vocabulary frequency cutoff")

# subcommand: (runner, help, options)
SUBCOMMANDS: dict[str, tuple[Callable, str, tuple[Option, ...]]] = {
    "synth-data": (run_synth_data, "generate a synthetic aligned corpus",
                   SEED + (
        Option("n-images", int, 16, "number of images"),
        Option("regions", int, 16, "feature grid regions per image"),
        Option("feature-dim", int, 32, "feature vector size per region"),
        Option("n-object-types", int, 6, "distinct object words"),
        Option("objects-per-image", int, 1, "planted objects per image"),
    )),
    "pretrain": (run_pretrain, "train the stage-one captioner", SEED + (
        MANIFEST,
        Option("caption-field", str, "en",
               "which caption field to train on (en, or de for the "
               "single-stage baseline)"),
        MIN_FREQ,
    ) + TRAIN),
    "train": (run_train, "train the German stage against a pretrained captioner",
              SEED + (
        MANIFEST,
        Option("part1", str, None, "stage-one checkpoint (vocab file alongside)",
               True),
        Option("lambda", float, 1.0, "cycle-consistency loss weight"),
        Option("freeze-part1", bool, False, "keep stage-one parameters fixed"),
        MIN_FREQ,
    ) + TRAIN),
    "infer": (run_infer, "decode captions for a manifest", SEED + (
        Option("checkpoint", str, None, "bundle or captioner checkpoint", True),
        MANIFEST,
        Option("beam-size", int, 3, "beam width"),
        Option("max-len", int, 50, "generated-token cap, EOS included"),
        Option("caption-field", str, "en",
               "output field for captioner-only checkpoints"),
    )),
    "eval": (run_eval, "score decoded captions", SEED + (
        Option("candidates", str, None, "captions.jsonl from infer", True),
        Option("manifest", str, None, "reference manifest", True),
        Option("field", str, "de", "caption field to score"),
        Option("model-name", str, "model", "label for the report row"),
    )),
    "attn-export": (run_attn_export, "export attention heatmaps", SEED + (
        Option("checkpoint", str, None, "bundle checkpoint", True),
        MANIFEST,
        Option("grid-rows", int, 4, "heatmap rows (rows*cols = regions)"),
        Option("grid-cols", int, 4, "heatmap cols"),
        Option("beam-size", int, 3, "beam width"),
        Option("max-len", int, 50, "generated-token cap"),
        Option("limit", positive_int, None, "export at most this many images"),
        Option("use-gold-captions", bool, False,
               "teacher-force ground truth instead of decoding"),
    )),
    "gradcheck": (run_gradcheck, "finite-difference gradient suite", SEED + (
        Option("dims", str, "tiny", "preset size (tiny or small)"),
    )),
    "oracle-check": (run_oracle_check,
                     "composed-attention and chain-identity verification", SEED + (
        Option("trials", positive_int, 100, "random factorized joints to test"),
    )),
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
        write_run_manifest(args.subcommand, settings, out_dir)
        run({opt.key: settings[opt.key] for opt in options}, out_dir)
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
