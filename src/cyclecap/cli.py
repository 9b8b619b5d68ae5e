"""Operator surface: one subcommand per pipeline stage.

Every run resolves its settings (built-in defaults, then the --config YAML
file, then explicit flags), writes exactly one ``manifest.json`` into its
--out-dir recording those settings plus content hashes of the input files,
and can be replayed byte-for-byte with ``--from-manifest``.

Exit codes by error category: 2 config, 3 data, 4 numeric, 5 io.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import checks, evaluation, synth
from .cycle import AttentionRecord
from .data import (Vocabulary, encode_pairs, encode_triples, load_features,
                   read_jsonl, read_manifest, text_field)
from .errors import (ConfigError, CycleCapError, DataError, FormatError,
                     NumericError)
from .inference import beam_decode, caption_image, captioner_step_fn
from .models import (load_bundle, load_captioner, load_checkpoint, save_bundle,
                     save_captioner, teacher_forced_record)
from .training import TrainConfig, pretrain_part1, train_part2

EXIT_CODES = {"config": 2, "data": 3, "numeric": 4, "io": 5}

REQUIRED = {"pretrain": ("manifest",), "train": ("manifest", "part1"),
            "infer": ("checkpoint", "manifest"),
            "eval": ("candidates", "manifest"),
            "attn-export": ("checkpoint", "manifest")}

TRAIN_OPTS = [
    ("learning-rate", float, 4e-4, "Adam learning rate"),
    ("batch-size", int, 32, "records per optimizer step"),
    ("max-epochs", int, 50, "maximum training epochs"),
    ("patience", int, 20, "early-stop patience on validation CIDEr"),
    ("dropout", float, 0.5, "dropout rate in training mode"),
    ("proj-dim", int, 64, "projected image feature size"),
    ("embed-dim", int, 64, "word embedding size"),
    ("hidden-dim", int, 64, "recurrent hidden size"),
    ("attn-dim", int, 64, "attention scorer hidden size"),
    ("validate-every", int, 1, "epochs between validation decodes"),
    ("target-nll", float, None, "stop once per-token train loss drops below this"),
]


def _add_opt(sub, name, typ, default, help_text, **kwargs):
    sub.add_argument(f"--{name}", type=typ, default=None,
                     help=f"{help_text} (default: {default})", **kwargs)
    key = name.replace('-', '_')
    sub.set_defaults(**{f"_default_{key}": default, f"_type_{key}": typ})


def _add_flag(sub, name, help_text):
    sub.add_argument(f"--{name}", action="store_const", const=True, default=None,
                     help=f"{help_text} (default: off)")
    key = name.replace('-', '_')
    sub.set_defaults(**{f"_default_{key}": False, f"_type_{key}": bool})


def _add_train_opts(sub):
    for name, typ, default, help_text in TRAIN_OPTS:
        _add_opt(sub, name, typ, default, help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclecap",
        description="Two-stage multilingual captioning with attention-cycle "
                    "consistency.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def common(sub):
        sub.add_argument("--out-dir", required=True, help="run output directory")
        sub.add_argument("--config", default=None,
                         help="YAML key/value file; flags override its values")
        sub.add_argument("--from-manifest", default=None,
                         help="replay a previous run's settings verbatim")
        _add_opt(sub, "seed", int, 0, "master RNG seed")

    sub = subs.add_parser("synth-data", help="generate a synthetic aligned corpus")
    common(sub)
    _add_opt(sub, "n-images", int, 16, "number of images")
    _add_opt(sub, "regions", int, 16, "feature grid regions per image")
    _add_opt(sub, "feature-dim", int, 32, "feature vector size per region")
    _add_opt(sub, "n-object-types", int, 6, "distinct object words")
    _add_opt(sub, "objects-per-image", int, 1, "planted objects per image")

    sub = subs.add_parser("pretrain", help="train the stage-one captioner")
    common(sub)
    sub.add_argument("--manifest", help="dataset manifest (jsonl)")
    _add_opt(sub, "caption-field", str, "en",
             "which caption field to train on (en, or de for the single-stage "
             "baseline)")
    _add_opt(sub, "min-freq", int, 5, "vocabulary frequency cutoff")
    _add_train_opts(sub)

    sub = subs.add_parser("train", help="train the German stage against a "
                                        "pretrained captioner")
    common(sub)
    sub.add_argument("--manifest", help="dataset manifest (jsonl)")
    sub.add_argument("--part1", help="stage-one checkpoint (vocab file alongside)")
    _add_opt(sub, "lambda", float, 1.0, "cycle-consistency loss weight")
    _add_flag(sub, "squared-cycle", "use the squared consistency norm")
    _add_flag(sub, "freeze-part1", "keep stage-one parameters fixed")
    _add_opt(sub, "min-freq", int, 5, "vocabulary frequency cutoff")
    _add_train_opts(sub)

    sub = subs.add_parser("infer", help="decode captions for a manifest")
    common(sub)
    sub.add_argument("--checkpoint", help="bundle or captioner checkpoint")
    sub.add_argument("--manifest", help="dataset manifest (jsonl)")
    _add_opt(sub, "beam-size", int, 3, "beam width")
    _add_opt(sub, "max-len", int, 50, "generated-token cap, EOS included")
    _add_opt(sub, "caption-field", str, "en",
             "output field for captioner-only checkpoints")

    sub = subs.add_parser("eval", help="score decoded captions")
    common(sub)
    sub.add_argument("--candidates", help="captions.jsonl from infer")
    sub.add_argument("--manifest", help="reference manifest")
    _add_opt(sub, "field", str, "de", "caption field to score")
    _add_opt(sub, "model-name", str, "model", "label for the report row")

    sub = subs.add_parser("attn-export", help="export attention heatmaps")
    common(sub)
    sub.add_argument("--checkpoint", help="bundle checkpoint")
    sub.add_argument("--manifest", help="dataset manifest (jsonl)")
    _add_opt(sub, "grid-rows", int, 4, "heatmap rows (rows*cols = regions)")
    _add_opt(sub, "grid-cols", int, 4, "heatmap cols")
    _add_opt(sub, "beam-size", int, 3, "beam width")
    _add_opt(sub, "max-len", int, 50, "generated-token cap")
    _add_opt(sub, "limit", int, None, "export at most this many images")
    _add_flag(sub, "use-gold-captions", "teacher-force ground truth instead of "
                                        "decoding")

    sub = subs.add_parser("gradcheck", help="finite-difference gradient suite")
    common(sub)
    _add_opt(sub, "dims", str, "tiny", "preset size (tiny or small)")

    sub = subs.add_parser("oracle-check", help="composed-attention and "
                                               "chain-identity verification")
    common(sub)
    _add_opt(sub, "trials", int, 100, "random factorized joints to test")

    return parser


def _setting_keys(ns: dict) -> list[str]:
    """The parsed arguments that are run settings."""
    return [k for k in ns if k not in ("subcommand", "out_dir", "config",
                                       "from_manifest")
            and not k.startswith("_")]


def _typed(ns: dict, key: str, value, path, error: type[CycleCapError]):
    """A setting read from a file, coerced as its flag would coerce the same
    text: with the option's declared type, a bool for an on/off flag, a
    string for a path. None stays only where the default is None."""
    typ = ns.get(f"_type_{key}", str)
    if value is None and ns.get(f"_default_{key}") is None:
        return None
    if typ is bool:
        if isinstance(value, bool):
            return value
    elif value is not None and not isinstance(value, (bool, dict, list)):
        try:
            return typ(str(value))
        except ValueError:
            pass
    raise error(f"{path}: setting {key!r} must be {typ.__name__}, got {value!r}")


def _resolve_settings(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, as a flat dict."""
    ns = vars(args)
    config_values = {}
    if ns.get("config"):
        path = ns["config"]
        try:
            loaded = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ConfigError(f"{path}: not a readable YAML file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a key/value tree")
        config_values = {str(k).replace("-", "_"): v for k, v in loaded.items()}
    settings = {}
    for key in _setting_keys(ns):
        value = ns[key]
        default = ns.get(f"_default_{key}", value)
        if value is not None:
            settings[key] = value
        elif key in config_values:
            settings[key] = _typed(ns, key, config_values[key], ns["config"],
                                   ConfigError)
        else:
            settings[key] = default
    return settings


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _replayed_settings(args: argparse.Namespace) -> dict:
    """The settings recorded in the ``--from-manifest`` file. Every setting
    of the subcommand must be present; keys of removed options are ignored."""
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
    ns = vars(args)
    missing = [k for k in _setting_keys(ns) if k not in settings]
    if missing:
        raise FormatError(f"{path}: settings lack {', '.join(map(repr, missing))}")
    return {**settings, **{k: _typed(ns, k, settings[k], path, FormatError)
                           for k in _setting_keys(ns)}}


def _input_paths(subcommand: str, settings: dict) -> list[str]:
    return [settings[k] for k in REQUIRED.get(subcommand, ()) if settings.get(k)]


def write_run_manifest(subcommand: str, settings: dict, out_dir: Path) -> None:
    inputs = {}
    for raw in _input_paths(subcommand, settings):
        p = Path(raw)
        inputs[str(p)] = _sha256(p) if p.is_file() else "missing"
    payload = {"subcommand": subcommand, "settings": settings, "inputs": inputs}
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _train_config(settings: dict, **overrides) -> TrainConfig:
    cfg = TrainConfig(
        learning_rate=settings["learning_rate"],
        batch_size=settings["batch_size"],
        max_epochs=settings["max_epochs"],
        patience=settings["patience"],
        dropout=settings["dropout"],
        seed=settings["seed"],
        proj_dim=settings["proj_dim"],
        embed_dim=settings["embed_dim"],
        hidden_dim=settings["hidden_dim"],
        attn_dim=settings["attn_dim"],
        validate_every=settings["validate_every"],
        target_nll=settings["target_nll"],
        **overrides,
    )
    cfg.check()
    return cfg


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def run_synth_data(settings: dict, out_dir: Path) -> None:
    spec = synth.SynthSpec(
        seed=settings["seed"], n_images=settings["n_images"],
        regions=settings["regions"], feature_dim=settings["feature_dim"],
        n_object_types=settings["n_object_types"],
        objects_per_image=settings["objects_per_image"])
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
    cfg = _train_config(settings,
                        cycle_weight=settings["lambda"],
                        squared_cycle=settings["squared_cycle"],
                        freeze_part1=settings["freeze_part1"])
    bundle, report = train_part2(triples, captioner, en_vocab, de_vocab, cfg)
    save_bundle(bundle, out_dir / "bundle.ckpt")
    en_vocab.save(out_dir / "vocab_en.txt")
    de_vocab.save(out_dir / "vocab_de.txt")
    report.write(out_dir / "report.jsonl")
    last = report.epochs[-1]
    cyc = f", cycle {last.cycle:.4f}" if last.cycle is not None else ""
    print(f"trained {len(triples)} triples, {last.epoch} epochs, "
          f"final nll/token {last.nll_per_token:.4f}{cyc}")


def _decode_single(captioner, grid, beam_size, max_len):
    keys = captioner.project(grid)
    dec = captioner.decoder
    return beam_decode(captioner_step_fn(dec, keys), dec.initial_state(keys),
                       beam_size=beam_size, max_len=max_len)


def run_infer(settings: dict, out_dir: Path) -> None:
    ckpt = Path(settings["checkpoint"])
    kind, _, _ = load_checkpoint(ckpt)
    manifest = Path(settings["manifest"])
    entries = read_manifest(manifest)
    beam_size, max_len = settings["beam_size"], settings["max_len"]

    if kind == "bundle":
        bundle = load_bundle(ckpt)
        en_vocab = Vocabulary.load(ckpt.parent / "vocab_en.txt")
        de_vocab = Vocabulary.load(ckpt.parent / "vocab_de.txt")

        def decode(entry):
            grid = load_features(manifest.parent / entry.features_path)
            res = caption_image(bundle, grid, beam_size=beam_size, max_len=max_len)
            return {"image_id": entry.image_id,
                    "en": " ".join(en_vocab.decode(res.en_ids)),
                    "de": " ".join(de_vocab.decode(res.de_ids)),
                    "en_truncated": res.en_truncated,
                    "de_truncated": res.de_truncated,
                    "fallback": res.used_fallback}
    elif kind == "captioner":
        field = settings["caption_field"]
        captioner = load_captioner(ckpt)
        vocab_path = ckpt.parent / f"vocab_{field}.txt"
        if not vocab_path.is_file():
            raise DataError(f"no {vocab_path.name} next to {ckpt}")
        vocab = Vocabulary.load(vocab_path)

        def decode(entry):
            grid = load_features(manifest.parent / entry.features_path)
            res = _decode_single(captioner, grid, beam_size, max_len)
            rec = {"image_id": entry.image_id, "en": "", "de": "",
                   "en_truncated": False, "de_truncated": False, "fallback": False}
            rec[field] = " ".join(vocab.decode(res.tokens))
            rec[f"{field}_truncated"] = res.truncated
            return rec
    else:
        raise FormatError(f"{ckpt}: unknown checkpoint kind {kind!r}")

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
    bundle = load_bundle(Path(settings["checkpoint"]))
    ckpt = Path(settings["checkpoint"])
    en_vocab = Vocabulary.load(ckpt.parent / "vocab_en.txt")
    de_vocab = Vocabulary.load(ckpt.parent / "vocab_de.txt")
    manifest = Path(settings["manifest"])
    entries = read_manifest(manifest)
    if settings["limit"] is not None:
        entries = entries[:settings["limit"]]
    rows, cols = settings["grid_rows"], settings["grid_cols"]
    count = 0
    for entry in entries:
        grid = load_features(manifest.parent / entry.features_path)
        if settings["use_gold_captions"]:
            en_ids = tuple(en_vocab.encode(entry.en_tokens))
            de_ids = tuple(de_vocab.encode(entry.de_tokens))
            record = teacher_forced_record(bundle, grid, en_ids, de_ids)
            de_tokens = [de_vocab.id_to_token[i] for i in de_ids[1:]]
        else:
            res = caption_image(bundle, grid, beam_size=settings["beam_size"],
                                max_len=settings["max_len"])
            record = res.record
            de_tokens = [de_vocab.id_to_token[i] for i in res.de_ids]
        evaluation.export_attention_heatmaps(record, de_tokens, rows, cols,
                                             out_dir / "attn", entry.image_id)
        count += 1
    print(f"exported attention for {count} images under {out_dir / 'attn'}")


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


RUNNERS = {
    "synth-data": run_synth_data,
    "pretrain": run_pretrain,
    "train": run_train,
    "infer": run_infer,
    "eval": run_eval,
    "attn-export": run_attn_export,
    "gradcheck": run_gradcheck,
    "oracle-check": run_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.from_manifest:
            settings = _replayed_settings(args)
        else:
            settings = _resolve_settings(args)
        for key in REQUIRED.get(args.subcommand, ()):
            if not settings.get(key):
                raise ConfigError(f"--{key} is required for {args.subcommand}")
        write_run_manifest(args.subcommand, settings, out_dir)
        RUNNERS[args.subcommand](settings, out_dir)
        return 0
    except CycleCapError as exc:
        category = getattr(exc, "category", "config")
        print(f"error[{category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(category, 2)
    except FileNotFoundError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_CODES["io"]


if __name__ == "__main__":
    sys.exit(main())
