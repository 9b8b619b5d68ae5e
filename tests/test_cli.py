import hashlib
import json
import shutil
import struct
from collections.abc import Mapping
from dataclasses import MISSING, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from cyclecap import checks, cli, evaluation, synth
from cyclecap.cli import SUBCOMMANDS, main, write_run_manifest
from cyclecap.data import FeatureGrid, RESERVED_TOKENS, load_features, save_features
from cyclecap.models import load_bundle, load_captioner, save_bundle
from cyclecap.tensor import parameters
from cyclecap.training import TrainConfig

from conftest import FUZZ, bit_flips, truncations


def run(*argv):
    return main(list(argv))


TINY_TRAIN = ["--min-freq", "1", "--max-epochs", "2", "--patience", "2",
              "--dropout", "0.0", "--batch-size", "8", "--learning-rate", "2e-3",
              "--validate-every", "5"]
# stage one's sizes; train builds stage two at the sizes of its --part1
TINY_SIZES = ["--proj-dim", "16", "--embed-dim", "16", "--hidden-dim", "16",
              "--attn-dim", "16"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth-data -> pretrain -> train once per module; commands build on it."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("synth-data", "--out-dir", str(data), "--seed", "7",
               "--n-images", "8") == 0
    part1 = root / "part1"
    assert run("pretrain", "--manifest", str(data / "manifest.jsonl"),
               "--out-dir", str(part1), "--seed", "3", *TINY_TRAIN, *TINY_SIZES) == 0
    part2 = root / "part2"
    assert run("train", "--manifest", str(data / "manifest.jsonl"),
               "--part1", str(part1 / "part1.ckpt"),
               "--out-dir", str(part2), "--seed", "3", "--lambda", "1.0",
               *TINY_TRAIN) == 0
    return root


def test_synth_data_outputs(pipeline):
    data = pipeline / "data"
    assert (data / "manifest.jsonl").is_file()
    assert (data / "alignments.jsonl").is_file()
    assert (data / "manifest.json").is_file()  # run manifest
    assert len(list((data / "features").glob("*.feat"))) == 8


def test_pretrain_outputs(pipeline):
    part1 = pipeline / "part1"
    assert (part1 / "part1.ckpt").is_file()
    assert (part1 / "vocab_en.txt").is_file()
    report = (part1 / "report.jsonl").read_text().splitlines()
    assert json.loads(report[0])["phase"] == "part1"


def test_train_outputs(pipeline):
    part2 = pipeline / "part2"
    assert (part2 / "bundle.ckpt").is_file()
    assert (part2 / "vocab_en.txt").is_file()
    assert (part2 / "vocab_de.txt").is_file()
    # trained with no size flag, at the sizes of the 16-wide part 1
    dims = load_bundle(part2 / "bundle.ckpt").dims
    part1_dims = load_captioner(pipeline / "part1" / "part1.ckpt").dims
    assert dims == replace(part1_dims, de_vocab=dims.de_vocab)
    assert dims.hidden_dim == 16


def test_infer_and_eval(pipeline, tmp_path):
    data = pipeline / "data"
    decoded = tmp_path / "decoded"
    assert run("infer", "--checkpoint", str(pipeline / "part2" / "bundle.ckpt"),
               "--manifest", str(data / "manifest.jsonl"),
               "--out-dir", str(decoded), "--beam-size", "2", "--max-len", "10") == 0
    rows = [json.loads(l) for l in
            (decoded / "captions.jsonl").read_text().splitlines()]
    assert len(rows) == 8
    assert set(rows[0]) == {"image_id", "en", "de", "en_truncated",
                            "de_truncated"}

    scored = tmp_path / "scored"
    assert run("eval", "--candidates", str(decoded / "captions.jsonl"),
               "--manifest", str(data / "manifest.jsonl"), "--field", "de",
               "--model-name", "cycle-attn", "--out-dir", str(scored)) == 0
    table = (scored / "report.txt").read_text()
    assert "cycle-attn" in table and "CIDEr" in table
    metrics = json.loads((scored / "metrics.json").read_text())
    assert metrics["count"] == 8


def test_eval_scores_against_every_reference_of_an_image(tmp_path, capsys):
    rows = [("a", "ein hund"), ("a", "der hund rennt"), ("b", "!!!"),
            ("c", "eine katze sitzt")]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps({"image_id": i, "features": f"{i}.feat",
                                            "en": "x", "de": de}) + "\n"
                                for i, de in rows), encoding="utf-8")
    candidates = tmp_path / "captions.jsonl"

    def score(*rows):
        candidates.write_text("".join(json.dumps({"image_id": i, "de": de}) + "\n"
                                      for i, de in rows), encoding="utf-8")
        capsys.readouterr()
        return run("eval", "--candidates", str(candidates), "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / "scored"))

    assert score(("a", "ein hund"), ("c", "eine katze")) == 0
    cider = json.loads((tmp_path / "scored" / "metrics.json").read_text())["cider"]
    said = [["ein", "hund"], ["eine", "katze"]]
    c_refs = [["eine", "katze", "sitzt"]]
    both = evaluation.cider(said, [[["ein", "hund"], ["der", "hund", "rennt"]], c_refs])
    assert cider == both != evaluation.cider(said, [[["der", "hund", "rennt"]], c_refs])
    # image b's only caption is empty: it has no reference to score against
    assert score(("b", "ein hund")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: ") and "'b' has no de reference" in err


def test_attn_export(pipeline, tmp_path):
    data = pipeline / "data"
    out = tmp_path / "attn"
    assert run("attn-export", "--checkpoint",
               str(pipeline / "part2" / "bundle.ckpt"),
               "--manifest", str(data / "manifest.jsonl"),
               "--out-dir", str(out), "--limit", "2",
               "--use-gold-captions") == 0
    pgms = list((out / "attn").glob("*.pgm"))
    dumps = list((out / "attn").glob("*.attn.txt"))
    assert pgms and len(dumps) == 2
    body = dumps[0].read_text().splitlines()
    assert body[0] == "attention-record v1"


def test_attn_export_names_the_image_of_an_empty_gold_caption(pipeline, tmp_path,
                                                              capsys):
    data = pipeline / "data"
    row = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    manifest = data / "punctuation-only.jsonl"
    manifest.write_text(json.dumps({**row, "en": "!!!"}) + "\n", encoding="utf-8")
    assert run("attn-export", "--checkpoint", str(pipeline / "part2" / "bundle.ckpt"),
               "--manifest", str(manifest), "--out-dir", str(tmp_path),
               "--use-gold-captions") == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: ") and "Traceback" not in err
    assert f"en caption of {row['image_id']!r} is empty" in err


def test_attn_export_checks_the_grid_before_decoding(pipeline, tmp_path, capsys,
                                                  monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "caption_image", lambda *a, **k: calls.append(a))
    data = pipeline / "data"
    first = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    assert run("attn-export", "--checkpoint", str(pipeline / "part2" / "bundle.ckpt"),
               "--manifest", str(data / "manifest.jsonl"), "--out-dir", str(tmp_path),
               "--grid-rows", "3", "--grid-cols", "5") == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: ") and "does not cover the 16 regions" in err
    assert repr(first["image_id"]) in err and calls == []


def test_attn_export_refuses_a_negative_grid(pipeline, tmp_path, capsys):
    # (-4) x (-4) covers the 16 regions, but no heatmap has negative sides
    data = pipeline / "data"
    common = ["--checkpoint", str(pipeline / "part2" / "bundle.ckpt"),
              "--manifest", str(data / "manifest.jsonl"), "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        run("attn-export", *common, "--grid-rows", "-4", "--grid-cols", "-4")
    assert exc.value.code == 2
    assert "argument --grid-rows: invalid" in capsys.readouterr().err
    cfg = tmp_path / "grid.yaml"
    cfg.write_text("grid-rows: -4\ngrid-cols: -4\n", encoding="utf-8")
    assert run("attn-export", *common, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and "Traceback" not in err
    assert not (tmp_path / "attn").exists()


def test_attn_export_refuses_an_image_id_that_leaves_the_out_dir(pipeline, tmp_path,
                                                                   capsys):
    data = pipeline / "data"
    row = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({**row, "image_id": "../../escaped",
                                    "features": str(data / row["features"])}) + "\n",
                        encoding="utf-8")
    out = tmp_path / "out" / "run"
    assert run("attn-export", "--checkpoint", str(pipeline / "part2" / "bundle.ckpt"),
               "--manifest", str(manifest), "--out-dir", str(out),
               "--use-gold-captions") == 5
    err = capsys.readouterr().err
    assert err.startswith("error[io]: ") and f"{manifest}:1" in err
    outside = [p for p in tmp_path.rglob("*") if p != manifest and out not in p.parents
               and p not in (out, out.parent)]
    assert outside == []


def test_captioner_only_inference(pipeline, tmp_path):
    # the single-stage baseline: pretrain on German captions, then infer
    data = pipeline / "data"
    soft = tmp_path / "soft-attn"
    assert run("pretrain", "--manifest", str(data / "manifest.jsonl"),
               "--caption-field", "de", "--out-dir", str(soft), "--seed", "3",
               *TINY_TRAIN, *TINY_SIZES) == 0
    decoded = tmp_path / "decoded"
    assert run("infer", "--checkpoint", str(soft / "part1.ckpt"),
               "--manifest", str(data / "manifest.jsonl"),
               "--caption-field", "de", "--out-dir", str(decoded),
               "--beam-size", "1", "--max-len", "8") == 0
    rows = [json.loads(l) for l in
            (decoded / "captions.jsonl").read_text().splitlines()]
    assert rows[0]["en"] == ""


def test_oracle_check(tmp_path, capsys):
    assert run("oracle-check", "--out-dir", str(tmp_path), "--trials", "25") == 0
    out = capsys.readouterr().out
    assert "0.75" in out
    assert (tmp_path / "oracle.txt").is_file()


def test_gradcheck_tiny(tmp_path, capsys):
    assert run("gradcheck", "--out-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "worst" in out
    assert "FAILED" not in out


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("oracle-check", "--no-such-flag")
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err  # usage lists the valid flags


@pytest.mark.parametrize("subcommand, flag, value", [
    *((sub, "--seed", "-1") for sub, (_, _, options) in SUBCOMMANDS.items()
      if any(opt.flag == "seed" for opt in options)),
    ("oracle-check", "--trials", "0"),
    ("attn-export", "--limit", "0"),
    ("attn-export", "--limit", "-1"),
    ("pretrain", "--min-freq", "0"),
    ("train", "--min-freq", "-3"),
    *(("synth-data", f"--{count}", "0") for count in ("n-images", "regions", "feature-dim",
                                                      "n-object-types", "objects-per-image")),
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, subcommand, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(subcommand, "--out-dir", str(tmp_path), flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err and "Traceback" not in err


@pytest.mark.parametrize("subcommand, flag", [
    *(("train", f"--{size}-dim") for size in ("proj", "embed", "hidden", "attn")),
    *((sub, "--seed") for sub in ("infer", "eval", "attn-export")),
])
def test_flag_the_run_would_not_read_is_usage_error(tmp_path, capsys, subcommand,
                                                    flag):
    with pytest.raises(SystemExit) as exc:
        run(subcommand, "--out-dir", str(tmp_path), flag, "16")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 16" in capsys.readouterr().err


def test_every_option_default_is_its_library_field_default():
    # the options repeat the defaults of the fields they fill, so a run
    # without flags is the library call without arguments
    compared = 0
    for subcommand, spec in (("pretrain", TrainConfig), ("train", TrainConfig),
                             ("synth-data", synth.SynthSpec)):
        defaults = {f.name: f.default for f in fields(spec) if f.default is not MISSING}
        for opt in SUBCOMMANDS[subcommand][2]:
            name = "cycle_weight" if opt.key == "lambda" else opt.key
            if name in defaults:
                expected = defaults[name]
                assert (type(opt.default), opt.default) == (type(expected), expected), \
                    (subcommand, opt.flag)
                compared += 1
    assert compared == 12 + 10 + 4


class ReadRecorder(Mapping):
    """A settings mapping that records which keys a runner reads."""

    def __init__(self, values: dict):
        self.values, self.read = values, set()

    def __getitem__(self, key):
        self.read.add(key)
        return self.values[key]

    def __contains__(self, key):  # Mapping's would read the value
        return key in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def test_every_subcommand_reads_every_option(pipeline, tmp_path, monkeypatch):
    # an option no run reads is a setting no run can vary
    monkeypatch.setattr(checks, "gradient_suite",
                        lambda seed: [checks.GradCheckResult("stub")])
    monkeypatch.setattr(checks, "oracle_suite",
                        lambda seed, trials: SimpleNamespace(ok=True, render=str))
    recorded = {sub: json.loads((pipeline / run_dir / "manifest.json")
                                .read_text())["settings"]
                for sub, run_dir in (("synth-data", "data"), ("pretrain", "part1"),
                                     ("train", "part2"))}
    given = {"checkpoint": str(pipeline / "part2" / "bundle.ckpt"),
             "manifest": str(pipeline / "data" / "manifest.jsonl"),
             "candidates": str(tmp_path / "infer" / "captions.jsonl"),
             "max_len": 3, "limit": 2}
    for name, (runner, _, options) in SUBCOMMANDS.items():  # infer before eval
        values = {opt.key: recorded.get(name, given).get(opt.key, opt.default)
                  for opt in options}
        settings = ReadRecorder(values)
        (tmp_path / name).mkdir()
        runner(settings, tmp_path / name)
        assert settings.read == set(values), (name, set(values) - settings.read)


def test_error_categories(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert run("pretrain", "--manifest", str(missing),
               "--out-dir", str(tmp_path / "x")) == 5  # io
    assert run("eval", "--candidates", str(missing), "--manifest", str(missing),
               "--field", "fr", "--out-dir", str(tmp_path / "y")) == 2  # config

    # a --config file that is not YAML, or not UTF-8
    for name, body in (("broken.yaml", b"a: [1,\n"), ("latin1.yaml", b"seed: \xff\n")):
        cfg = tmp_path / name
        cfg.write_bytes(body)
        capsys.readouterr()
        assert run("synth-data", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "z")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and str(cfg) in err
        assert "Traceback" not in err

    # a --config value below its option's range
    for subcommand, body, extra in (
            ("synth-data", "seed: -1\n", []),
            ("synth-data", "n_images: 0\n", []),
            ("oracle-check", "trials: 0\n", []),
            ("attn-export", "limit: -1\n", ["--checkpoint", "c", "--manifest", "m"]),
            ("pretrain", "min_freq: 0\n", ["--manifest", "m"])):
        cfg = tmp_path / f"{subcommand}.yaml"
        cfg.write_text(body, encoding="utf-8")
        assert run(subcommand, "--config", str(cfg), *extra,
                   "--out-dir", str(tmp_path / subcommand)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "Traceback" not in err
        assert str(cfg) in err and repr(body.split(":")[0]) in err

    # synth-data limits between settings, which no option type can express
    for flags, message in ((["--objects-per-image", "7"], "exceed 6 object types"),
                           (["--objects-per-image", "3", "--regions", "2"], "cannot fit"),
                           (["--n-object-types", "11"], "at most 10 object types")):
        assert run("synth-data", *flags, "--out-dir", str(tmp_path / "synth")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("subcommand, flags, message", [
    ("synth-data", ["--objects-per-image", "7"], "exceed 6 object types"),
    ("pretrain", ["--max-epochs", "2", "--patience", "5"],
     "need 0 <= patience <= max_epochs"),
    ("pretrain", ["--caption-field", "fr"], "caption-field must be en or de"),
    ("train", ["--lambda", "-1"], "cycle_weight must be non-negative"),
    ("infer", ["--caption-field", "fr"], "caption-field must be en or de"),
])
def test_a_refused_run_leaves_no_manifest(pipeline, tmp_path, capsys, subcommand, flags,
                                          message):
    # settings are checked before the manifest records them: a run refused
    # for its settings leaves no record of a run that never happened
    inputs = {"pretrain": ["--manifest", str(pipeline / "data" / "manifest.jsonl")],
              "train": ["--manifest", str(pipeline / "data" / "manifest.jsonl"),
                        "--part1", str(pipeline / "part1" / "part1.ckpt")],
              "infer": ["--manifest", str(pipeline / "data" / "manifest.jsonl"),
                        "--checkpoint", str(pipeline / "part2" / "bundle.ckpt")]}
    out = tmp_path / "out"
    assert run(subcommand, *inputs.get(subcommand, []), *flags, "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and message in err
    assert not (out / "manifest.json").exists()


def assert_clean_io_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error[io]: ")
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


def test_malformed_inputs_exit_with_their_category(pipeline, tmp_path, capsys):
    data = pipeline / "data"
    manifest = data / "manifest.jsonl"

    bad_ckpt = tmp_path / "bad.ckpt"
    blob = (pipeline / "part2" / "bundle.ckpt").read_bytes()
    (header_len,) = struct.unpack("<I", blob[6:10])
    header = b"{" + b" " * (header_len - 1)  # same length, not JSON
    bad_ckpt.write_bytes(blob[:10] + header + blob[10 + header_len:])
    assert run("infer", "--checkpoint", str(bad_ckpt), "--manifest", str(manifest),
               "--out-dir", str(tmp_path / "infer")) == 5
    assert_clean_io_error(capsys, str(bad_ckpt), "not JSON")

    # a checkpoint written in the per-gate format of version 1
    old_ckpt = tmp_path / "v1.ckpt"
    old_ckpt.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
    assert run("infer", "--checkpoint", str(old_ckpt), "--manifest", str(manifest),
               "--out-dir", str(tmp_path / "infer-v1")) == 5
    assert_clean_io_error(capsys, str(old_ckpt), "version 1")

    rows = manifest.read_text(encoding="utf-8").splitlines()
    broken = json.loads(rows[1])
    broken["en"] = ["a", "list"]
    bad_manifest = tmp_path / "manifest.jsonl"
    bad_manifest.write_text("\n".join([rows[0], json.dumps(broken)]) + "\n",
                            encoding="utf-8")
    assert run("pretrain", "--manifest", str(bad_manifest),
               "--out-dir", str(tmp_path / "pretrain")) == 5
    assert_clean_io_error(capsys, f"{bad_manifest}:2", "'en'")
    no_features = tmp_path / "no-features.jsonl"
    no_features.write_text(json.dumps({**broken, "en": "a dog", "features": None})
                           + "\n", encoding="utf-8")
    assert run("infer", "--checkpoint", str(pipeline / "part2" / "bundle.ckpt"),
               "--manifest", str(no_features),
               "--out-dir", str(tmp_path / "infer-no-features")) == 5
    assert_clean_io_error(capsys, f"{no_features}:1", "'features'")

    candidates = tmp_path / "captions.jsonl"
    first = json.loads(rows[0])
    candidates.write_text(json.dumps({"image_id": first["image_id"],
                                      "de": "ein hund"}) + "\n"
                          + json.dumps({"image_id": first["image_id"],
                                        "en": "a dog"}) + "\n", encoding="utf-8")
    assert run("eval", "--candidates", str(candidates), "--manifest", str(manifest),
               "--field", "de", "--out-dir", str(tmp_path / "eval")) == 5
    assert_clean_io_error(capsys, f"{candidates}:2", "'de'")

    # a feature grid whose dim the model does not read, at decode time
    feature_dim = load_bundle(pipeline / "part2" / "bundle.ckpt").dims.feature_dim
    save_features(FeatureGrid(np.ones((9, feature_dim + 1))), tmp_path / "wide.feat")
    wide = tmp_path / "wide.jsonl"
    wide.write_text(json.dumps({**first, "features": "wide.feat"}) + "\n",
                    encoding="utf-8")
    for subcommand, ckpt, extra in (
            ("infer", pipeline / "part2" / "bundle.ckpt", []),
            ("infer", pipeline / "part1" / "part1.ckpt", []),
            ("attn-export", pipeline / "part2" / "bundle.ckpt", []),
            ("attn-export", pipeline / "part2" / "bundle.ckpt", ["--use-gold-captions"])):
        assert run(subcommand, "--checkpoint", str(ckpt), "--manifest", str(wide),
                   "--out-dir", str(tmp_path / "wide"), *extra) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and "Traceback" not in err
        assert repr(first["image_id"]) in err
        assert f"feature dim {feature_dim + 1}, expected {feature_dim}" in err

    # --from-manifest files that are not a run manifest
    stored = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    no_seed = {**stored, "settings": {k: v for k, v in stored["settings"].items()
                                      if k != "seed"}}
    for name, body, fragment in (
            ("text.json", b"not json", "not a JSON run manifest"),
            ("latin1.json", b'{"a": "\xff"}', "not a JSON run manifest"),
            ("list.json", b"[1, 2]", "expected a JSON object"),
            ("no-settings.json", b'{"subcommand": "synth-data"}', "'settings'"),
            ("empty-settings.json",
             b'{"subcommand": "synth-data", "settings": {}}', "'seed'"),
            ("no-seed.json", json.dumps(no_seed).encode(), "'seed'")):
        replay = tmp_path / name
        replay.write_bytes(body)
        assert run("synth-data", "--from-manifest", str(replay),
                   "--out-dir", str(tmp_path / "replay")) == 5
        assert_clean_io_error(capsys, str(replay), fragment)

    # a setting whose value its option's type rejects
    bad_seed = tmp_path / "bad-seed.json"
    bad_seed.write_text(json.dumps({**stored, "settings": {**stored["settings"],
                                                           "seed": "x"}}),
                        encoding="utf-8")
    assert run("synth-data", "--from-manifest", str(bad_seed),
               "--out-dir", str(tmp_path / "replay")) == 5
    assert_clean_io_error(capsys, str(bad_seed), "'seed'")
    cfg = tmp_path / "bad-seed.yaml"
    cfg.write_text("seed: x\n", encoding="utf-8")
    assert run("synth-data", "--config", str(cfg),
               "--out-dir", str(tmp_path / "configured")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and "Traceback" not in err
    assert str(cfg) in err and "'seed'" in err

    # a setting below its option's range
    for subcommand, key, value in (("synth-data", "seed", -1),
                                   ("oracle-check", "trials", 0),
                                   ("attn-export", "limit", -1),
                                   ("pretrain", "min_freq", 0)):
        replay = replay_manifest(tmp_path / f"{subcommand}.json", subcommand,
                                 **{key: value})
        assert run(subcommand, "--from-manifest", str(replay),
                   "--out-dir", str(tmp_path / "replay")) == 5
        assert_clean_io_error(capsys, str(replay), repr(key))

    # a corpus whose grids do not share one feature dim: batching stacks
    # the grids, so the odd one out is a data error naming the image
    mixed_rows = [json.loads(r) for r in rows[:4]]
    dim = load_features(data / mixed_rows[0]["features"]).dim
    save_features(FeatureGrid(np.ones((9, dim // 2))), tmp_path / "odd.feat")
    odd_id = mixed_rows[1]["image_id"]
    mixed_rows[1]["features"] = str(tmp_path / "odd.feat")
    for r in mixed_rows[:1] + mixed_rows[2:]:
        r["features"] = str(data / r["features"])
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(json.dumps(r) + "\n" for r in mixed_rows), encoding="utf-8")
    assert run("pretrain", "--manifest", str(mixed), "--min-freq", "1",
               "--out-dir", str(tmp_path / "mixed-pretrain")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: ") and "Traceback" not in err
    assert repr(odd_id) in err and str(dim // 2) in err and str(dim) in err

    # an OSError other than a missing file: a file where the output directory
    # belongs, a directory where an input file belongs
    assert run("synth-data", "--out-dir", str(manifest)) == 5
    assert_clean_io_error(capsys, str(manifest), "File exists")
    assert run("pretrain", "--manifest", str(data),
               "--out-dir", str(tmp_path / "pretrain-dir")) == 5
    assert_clean_io_error(capsys, str(data), "Is a directory")
    assert run("infer", "--checkpoint", str(pipeline / "part2"),
               "--manifest", str(manifest), "--out-dir", str(tmp_path / "infer-dir")) == 5
    assert_clean_io_error(capsys, str(pipeline / "part2"), "Is a directory")

    # decode settings out of range: a usage error for a flag, a config
    # error for a config file, before any image is decoded
    bundle_ckpt = str(pipeline / "part2" / "bundle.ckpt")
    decode_out = tmp_path / "decode-settings"
    for subcommand in ("infer", "attn-export"):
        for flag, value in (("--beam-size", "0"), ("--max-len", "0"),
                            ("--beam-size", "-2"), ("--max-len", "-1")):
            with pytest.raises(SystemExit) as exc:
                run(subcommand, "--checkpoint", bundle_ckpt, "--manifest", str(manifest),
                    "--out-dir", str(decode_out), flag, value)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: invalid" in err and "Traceback" not in err
        cfg = tmp_path / f"{subcommand}-beam.yaml"
        cfg.write_text("beam-size: 0\n", encoding="utf-8")
        assert run(subcommand, "--checkpoint", bundle_ckpt, "--manifest", str(manifest),
                   "--config", str(cfg), "--out-dir", str(decode_out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "'beam_size'" in err
    assert not (decode_out / "captions.jsonl").exists()

    # a caption field other than en or de, with a captioner or a bundle
    for ckpt, field in ((pipeline / "part1" / "part1.ckpt", "fr"),
                        (pipeline / "part2" / "bundle.ckpt", "zz")):
        assert run("infer", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                   "--caption-field", field, "--out-dir", str(decode_out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "Traceback" not in err
        assert f"caption-field must be en or de, got {field!r}" in err


@pytest.mark.parametrize("subcommand, run_dir, ckpt, vocab", [
    ("train", "part1", "--part1", "vocab_en.txt"),
    ("infer", "part1", "--checkpoint", "vocab_en.txt"),
    ("infer", "part2", "--checkpoint", "vocab_en.txt"),
    ("infer", "part2", "--checkpoint", "vocab_de.txt"),
    ("attn-export", "part2", "--checkpoint", "vocab_de.txt"),
])
@pytest.mark.parametrize("fault", ["missing", "one id short"])
def test_vocabulary_beside_a_checkpoint_is_checked_alike(pipeline, tmp_path, capsys,
                                                         subcommand, run_dir, ckpt,
                                                         vocab, fault):
    copy = shutil.copytree(pipeline / run_dir, tmp_path / run_dir)
    if fault == "missing":
        (copy / vocab).unlink()
    else:
        tokens = (copy / vocab).read_text(encoding="utf-8").splitlines()
        (copy / vocab).write_text("".join(t + "\n" for t in tokens[:-1]),
                                  encoding="utf-8")
    checkpoint = copy / ("part1.ckpt" if run_dir == "part1" else "bundle.ckpt")
    assert run(subcommand, ckpt, str(checkpoint),
               "--manifest", str(pipeline / "data" / "manifest.jsonl"),
               "--out-dir", str(tmp_path / "out")) == 5
    assert_clean_io_error(capsys, str(copy / vocab), str(checkpoint))
    assert not (tmp_path / "out" / "bundle.ckpt").exists()


def replay_manifest(path: Path, subcommand: str, **settings) -> Path:
    """A run manifest for ``subcommand`` with its default settings, then
    ``settings``."""
    defaults = {opt.key: opt.default for opt in SUBCOMMANDS[subcommand][2]}
    path.write_text(json.dumps({"subcommand": subcommand,
                                "settings": {**defaults, **settings}}),
                    encoding="utf-8")
    return path


def test_from_manifest_takes_settings_from_the_manifest_alone(pipeline, tmp_path,
                                                              capsys):
    stored = str(pipeline / "data" / "manifest.json")
    cfg = tmp_path / "run.yaml"
    cfg.write_text("n-images: 2\n", encoding="utf-8")
    for extra, named in ((["--n-images", "2"], "--n-images"),
                         (["--config", str(cfg)], "--config"),
                         (["--seed", "0"], "--seed")):
        out = tmp_path / named.strip("-")
        assert run("synth-data", "--from-manifest", stored, *extra,
                   "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "Traceback" not in err
        assert named in err and "--from-manifest" in err
        assert not (out / "manifest.jsonl").exists()  # nothing generated


def test_shipped_configs_name_known_options():
    # an unknown config key is a config error at run time, so catch typos here
    known = {opt.key for _, _, options in SUBCOMMANDS.values() for opt in options}
    shipped = sorted(Path(__file__).parents[1].glob("configs/*.yaml"))
    assert shipped
    for path in shipped:
        keys = {str(k).replace("-", "_")
                for k in yaml.safe_load(path.read_text(encoding="utf-8"))}
        assert keys <= known, (path.name, sorted(keys - known))


def test_unknown_config_key_is_config_error(pipeline, tmp_path, capsys):
    # a misspelled key would otherwise leave its setting at the default; a
    # key only another subcommand reads stays ignored
    common = ["--manifest", str(pipeline / "data" / "manifest.jsonl"),
              "--part1", str(pipeline / "part1" / "part1.ckpt"), *TINY_TRAIN]
    typo, other = tmp_path / "typo.yaml", tmp_path / "other.yaml"
    typo.write_text("lamda: 0.0\n", encoding="utf-8")
    other.write_text("beam_size: 3\n", encoding="utf-8")
    capsys.readouterr()
    assert run("train", "--config", str(typo), *common,
               "--out-dir", str(tmp_path / "typo")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and "Traceback" not in err
    assert "'lamda'" in err and str(typo) in err
    assert not (tmp_path / "typo" / "bundle.ckpt").exists()
    assert run("train", "--config", str(other), *common,
               "--out-dir", str(tmp_path / "other")) == 0
    assert (tmp_path / "other" / "bundle.ckpt").is_file()


def test_pretrain_refuses_a_vocabulary_with_no_word(pipeline, tmp_path, capsys):
    manifest = str(pipeline / "data" / "manifest.jsonl")
    for field in ("en", "de"):
        out = tmp_path / field
        capsys.readouterr()
        assert run("pretrain", "--manifest", manifest, "--caption-field", field,
                   "--out-dir", str(out), *TINY_TRAIN, "--min-freq", "1000") == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and "vocabulary" in err
        assert not (out / "part1.ckpt").exists()


def test_config_file_feeds_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"n-images": 3, "seed": 9}), encoding="utf-8")
    out = tmp_path / "data"
    assert run("synth-data", "--config", str(cfg), "--out-dir", str(out),
               "--seed", "11") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["settings"]["n_images"] == 3   # from config
    assert manifest["settings"]["seed"] == 11      # flag wins


def compare_trees(a: Path, b: Path):
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        if rel.name == "manifest.json":
            continue  # records settings, not run outputs
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def with_stale_keys(manifest: Path, to: Path, **stale) -> Path:
    """A copy of the run manifest whose settings also hold ``stale``."""
    stored = json.loads(manifest.read_text())
    stored["settings"].update(stale)
    to.write_text(json.dumps(stored), encoding="utf-8")
    return to


def test_from_manifest_reruns_byte_identically(pipeline, tmp_path):
    part2 = pipeline / "part2"
    # manifests written before options were removed carry them: --threads,
    # --squared-cycle, train's model sizes and --seed on infer
    stale = with_stale_keys(part2 / "manifest.json", tmp_path / "stale-train.json",
                            threads=1, squared_cycle=False, proj_dim=64,
                            embed_dim=8, hidden_dim=16, attn_dim=12)
    for i, replayed in enumerate((part2 / "manifest.json", stale)):
        rerun = tmp_path / f"part2-rerun{i}"
        assert run("train", "--from-manifest", str(replayed),
                   "--out-dir", str(rerun)) == 0
        compare_trees(part2, rerun)

    decoded = tmp_path / "decoded"
    assert run("infer", "--checkpoint", str(part2 / "bundle.ckpt"),
               "--manifest", str(pipeline / "data" / "manifest.jsonl"),
               "--beam-size", "2", "--max-len", "5", "--out-dir", str(decoded)) == 0
    stale = with_stale_keys(decoded / "manifest.json", tmp_path / "stale-infer.json",
                            seed=1)
    assert run("infer", "--from-manifest", str(stale),
               "--out-dir", str(tmp_path / "decoded-rerun")) == 0
    compare_trees(decoded, tmp_path / "decoded-rerun")
    assert json.loads((tmp_path / "decoded-rerun" / "manifest.json")
                      .read_text())["settings"]["seed"] == 1  # kept as recorded
    # a manifest that records no input hashes replays unchecked
    stored = json.loads((decoded / "manifest.json").read_text())
    del stored["inputs"]
    unhashed = tmp_path / "unhashed-infer.json"
    unhashed.write_text(json.dumps(stored), encoding="utf-8")
    assert run("infer", "--from-manifest", str(unhashed),
               "--out-dir", str(tmp_path / "decoded-unhashed")) == 0
    compare_trees(decoded, tmp_path / "decoded-unhashed")


REQUIRED_INPUTS = [pytest.param(name, opt.key, id=f"{name}-{opt.flag}")
                   for name, (_, _, options) in SUBCOMMANDS.items()
                   for opt in options if opt.required]


@pytest.mark.parametrize("subcommand, key", REQUIRED_INPUTS)
@pytest.mark.parametrize("fault", ["overwritten", "missing"])
def test_replay_refuses_an_input_changed_since_the_run(pipeline, tmp_path, capsys,
                                                       subcommand, key, fault):
    options = SUBCOMMANDS[subcommand][2]
    settings = {opt.key: opt.default for opt in options}
    for opt in options:
        if opt.required:
            settings[opt.key] = str(shutil.copy(pipeline / "data" / "manifest.jsonl",
                                                tmp_path / f"{opt.key}.input"))
    write_run_manifest(subcommand, settings, tmp_path)
    changed = Path(settings[key])
    recorded = hashlib.sha256(changed.read_bytes()).hexdigest()
    if fault == "missing":
        changed.unlink()
        now = "missing"
    else:
        changed.write_bytes(b"{}\n")
        now = hashlib.sha256(b"{}\n").hexdigest()
    out = tmp_path / "replay"
    assert run(subcommand, "--from-manifest", str(tmp_path / "manifest.json"),
               "--out-dir", str(out)) == 5
    assert_clean_io_error(capsys, str(changed), recorded, now)
    assert not (out / "manifest.json").exists()


def test_replay_refuses_a_vocabulary_changed_since_the_run(pipeline, tmp_path, capsys):
    # train, infer and attn-export read vocabulary files beside a checkpoint,
    # which no option names; their run manifests record them all the same
    part1 = tmp_path / "part1"
    shutil.copytree(pipeline / "part1", part1)
    part2 = tmp_path / "part2"
    assert run("train", "--manifest", str(pipeline / "data" / "manifest.jsonl"),
               "--part1", str(part1 / "part1.ckpt"), "--out-dir", str(part2),
               "--seed", "3", *TINY_TRAIN) == 0
    vocab = part1 / "vocab_en.txt"
    recorded = hashlib.sha256(vocab.read_bytes()).hexdigest()
    assert json.loads((part2 / "manifest.json").read_text())["inputs"][str(vocab)] == recorded
    for subcommand, ckpt, langs in (("infer", part2 / "bundle.ckpt", ("en", "de")),
                                    ("infer", part1 / "part1.ckpt", ("en",)),
                                    ("attn-export", part2 / "bundle.ckpt", ("en", "de"))):
        settings = {opt.key: opt.default for opt in SUBCOMMANDS[subcommand][2]}
        settings.update(checkpoint=str(ckpt), manifest=str(pipeline / "data" / "manifest.jsonl"))
        write_run_manifest(subcommand, settings, tmp_path)
        inputs = json.loads((tmp_path / "manifest.json").read_text())["inputs"]
        assert sorted(inputs) == sorted([settings["checkpoint"], settings["manifest"],
                                         *(str(ckpt.parent / f"vocab_{lang}.txt")
                                           for lang in langs)]), subcommand
    lines = vocab.read_text(encoding="utf-8").splitlines()
    vocab.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    now = hashlib.sha256(vocab.read_bytes()).hexdigest()
    capsys.readouterr()
    out = tmp_path / "replay"
    assert run("train", "--from-manifest", str(part2 / "manifest.json"),
               "--out-dir", str(out)) == 5
    assert_clean_io_error(capsys, str(vocab), recorded, now)
    assert not (out / "bundle.ckpt").exists()


def test_eval_replay_after_its_candidates_changed_is_io_error(pipeline, tmp_path,
                                                              capsys):
    # such a replay used to score the new file: exit 0 with CIDEr 0.0
    data = pipeline / "data"
    assert run("infer", "--checkpoint", str(pipeline / "part2" / "bundle.ckpt"),
               "--manifest", str(data / "manifest.jsonl"), "--beam-size", "1",
               "--max-len", "5", "--out-dir", str(tmp_path / "decoded")) == 0
    candidates = tmp_path / "decoded" / "captions.jsonl"
    scored = tmp_path / "scored"
    assert run("eval", "--candidates", str(candidates),
               "--manifest", str(data / "manifest.jsonl"), "--out-dir", str(scored)) == 0
    original = candidates.read_bytes()
    rows = [json.loads(line) for line in original.splitlines()]
    candidates.write_text("".join(json.dumps({**r, "de": ""}) + "\n" for r in rows),
                          encoding="utf-8")
    capsys.readouterr()
    assert run("eval", "--from-manifest", str(scored / "manifest.json"),
               "--out-dir", str(tmp_path / "rescored")) == 5
    assert_clean_io_error(capsys, str(candidates),
                          hashlib.sha256(original).hexdigest(),
                          hashlib.sha256(candidates.read_bytes()).hexdigest())
    assert not (tmp_path / "rescored" / "metrics.json").exists()
    candidates.write_bytes(original)
    assert run("eval", "--from-manifest", str(scored / "manifest.json"),
               "--out-dir", str(tmp_path / "rescored")) == 0
    compare_trees(scored, tmp_path / "rescored")



@pytest.mark.parametrize("flag, value", [("lambda", "nan"), ("lambda", "inf"),
                                         ("learning-rate", "nan"), ("target-nll", "nan")])
def test_non_finite_training_setting_is_config_error(pipeline, tmp_path, capsys, flag,
                                                     value):
    # NaN compares false with everything, so no range check would catch it
    data = pipeline / "data"
    inputs = ["--manifest", str(data / "manifest.jsonl"),
              "--part1", str(pipeline / "part1" / "part1.ckpt")]
    # a flag would override the config file's value
    others = [x for pair in zip(TINY_TRAIN[::2], TINY_TRAIN[1::2])
              if pair[0] != f"--{flag}" for x in pair]
    cfg = tmp_path / "settings.yaml"
    cfg.write_text(f"{flag}: {value}\n", encoding="utf-8")
    for i, source in enumerate(([f"--{flag}", value], ["--config", str(cfg)])):
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        assert run("train", *inputs, "--out-dir", str(out), *others, *source) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "Traceback" not in err
        assert flag.replace("-", "_").replace("lambda", "cycle_weight") in err
        assert not (out / "bundle.ckpt").exists()


def test_removed_squared_cycle_switched_on_is_config_error(pipeline, tmp_path,
                                                           capsys):
    stored = json.loads((pipeline / "part2" / "manifest.json").read_text())
    stored["settings"]["squared_cycle"] = True
    replay = tmp_path / "squared.json"
    replay.write_text(json.dumps(stored), encoding="utf-8")
    cfg = tmp_path / "squared.yaml"
    cfg.write_text("squared-cycle: true\n", encoding="utf-8")
    for source in (["--from-manifest", str(replay)],
                   ["--config", str(cfg), "--manifest", "m", "--part1", "p"]):
        capsys.readouterr()
        assert run("train", *source, "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "Traceback" not in err
        assert source[1] in err and "'squared_cycle'" in err
    assert not (tmp_path / "out" / "bundle.ckpt").exists()


@pytest.mark.parametrize("key, value, code", [
    ("dims", "tiny", 0), ("dims", "small", 2), ("dims", 0, 2),
    ("squared_cycle", False, 0), ("squared_cycle", 0, 2),
])
def test_removed_setting_is_accepted_only_at_its_remaining_value(tmp_path, capsys,
                                                                 monkeypatch, key, value,
                                                                 code):
    # gradcheck runs one set of sizes, the tiny ones, and stage two the plain
    # norm: any other value of a removed setting would replay as those
    monkeypatch.setattr(checks, "gradient_suite",
                        lambda seed: [checks.GradCheckResult("stub")])
    assert run("gradcheck", "--out-dir", str(tmp_path / "gc")) == 0
    stored = json.loads((tmp_path / "gc" / "manifest.json").read_text())
    stored["settings"][key] = value
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(stored), encoding="utf-8")
    cfg = tmp_path / "retired.yaml"
    cfg.write_text(f"{key}: {json.dumps(value)}\n", encoding="utf-8")
    for i, source in enumerate((["--from-manifest", str(replay)], ["--config", str(cfg)])):
        capsys.readouterr()
        assert run("gradcheck", *source, "--out-dir", str(tmp_path / f"out{i}")) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error[config]: ") and "Traceback" not in err
            assert source[1] in err and repr(key) in err


def test_infer_reads_the_checkpoint_once(pipeline, tmp_path, monkeypatch):
    from cyclecap import models
    reads = []
    original = models.load_checkpoint

    def counted(path):
        reads.append(path)
        return original(path)

    monkeypatch.setattr(models, "load_checkpoint", counted)
    data = pipeline / "data"
    for ckpt in (pipeline / "part2" / "bundle.ckpt", pipeline / "part1" / "part1.ckpt"):
        reads.clear()
        assert run("infer", "--checkpoint", str(ckpt),
                   "--manifest", str(data / "manifest.jsonl"),
                   "--out-dir", str(tmp_path / ckpt.stem), "--beam-size", "1",
                   "--max-len", "3") == 0
        assert reads == [ckpt]


# --- fuzzing through the command line -------------------------------------------
# Each mutation below always leaves its input malformed, so every run must end
# in a typed error: exit 2-5, an ``error[...]`` line and no traceback.

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
BAD_SETTING = (st.lists(st.integers(), max_size=2)
               | st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=1)
               | st.text(alphabet="xyz", min_size=1, max_size=3))
# a run manifest's ``inputs`` must map paths to digest strings
BAD_INPUTS = (st.none() | st.booleans() | st.integers() | st.text(max_size=3)
              | st.lists(st.text(max_size=2), max_size=2)
              | st.dictionaries(st.text(max_size=3),
                                st.none() | st.integers() | st.lists(st.text(), max_size=1),
                                min_size=1, max_size=2))


def run_typed_failure(capsys, *argv) -> int:
    capsys.readouterr()
    code = run(*argv)
    err = capsys.readouterr().err
    assert code in (2, 3, 4, 5), (code, err)
    assert err.startswith("error[") and "Traceback" not in err
    return code


def first_features(pipeline) -> bytes:
    return sorted((pipeline / "data" / "features").glob("*.feat"))[0].read_bytes()


def infer_one_image(capsys, bundle_dir: Path, work: Path, features: bytes) -> int:
    (work / "img.feat").write_bytes(features)
    manifest = work / "one.jsonl"
    manifest.write_text(json.dumps({"image_id": "img", "features": "img.feat",
                                    "en": "a dog", "de": "ein hund"}) + "\n",
                        encoding="utf-8")
    return run_typed_failure(capsys, "infer", "--checkpoint",
                             str(bundle_dir / "bundle.ckpt"), "--manifest",
                             str(manifest), "--beam-size", "1", "--max-len", "3",
                             "--out-dir", str(work / "decoded"))


def copy_bundle_dir(pipeline, to: Path) -> Path:
    to.mkdir(exist_ok=True)
    for name in ("bundle.ckpt", "vocab_en.txt", "vocab_de.txt"):
        shutil.copy(pipeline / "part2" / name, to / name)
    return to


@FUZZ
@given(data=st.data())
def test_fuzzed_feature_file_is_typed_error(pipeline, tmp_path, capsys, data):
    blob = first_features(pipeline)
    header = 14  # magic, version, region count, feature size
    non_finite = st.builds(
        lambda i, v: blob[:i] + struct.pack("<d", v) + blob[i + 8:],
        st.sampled_from(range(header, len(blob), 8)), NON_FINITE)
    mutated = data.draw(truncations(blob) | bit_flips(blob, range(header))
                        | non_finite)
    infer_one_image(capsys, pipeline / "part2", tmp_path, mutated)


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_is_typed_error(pipeline, tmp_path, capsys, data):
    bundle_dir = copy_bundle_dir(pipeline, tmp_path / "bundle")
    blob = (pipeline / "part2" / "bundle.ckpt").read_bytes()
    (header_len,) = struct.unpack("<I", blob[6:10])
    # magic, version, header length, JSON header and entry count
    structure = range(10 + header_len + 4)
    kind = data.draw(st.sampled_from(["truncate", "flip", "non-finite"]))
    if kind == "non-finite":
        bundle = load_bundle(bundle_dir / "bundle.ckpt")
        params = parameters(bundle)
        params[data.draw(st.sampled_from(sorted(params)))].data.flat[0] = \
            data.draw(NON_FINITE)
        save_bundle(bundle, bundle_dir / "bundle.ckpt")
    else:
        (bundle_dir / "bundle.ckpt").write_bytes(data.draw(
            truncations(blob) if kind == "truncate" else bit_flips(blob, structure)))
    infer_one_image(capsys, bundle_dir, tmp_path, first_features(pipeline))


@FUZZ
@given(data=st.data())
def test_fuzzed_vocabulary_file_is_typed_error(pipeline, tmp_path, capsys, data):
    bundle_dir = copy_bundle_dir(pipeline, tmp_path / "bundle")
    blob = (bundle_dir / "vocab_de.txt").read_bytes()
    lines = blob.decode().splitlines(keepends=True)
    inserted = st.builds(lambda at, line: "".join(lines[:at] + [line] + lines[at:]),
                         st.integers(0, len(lines)),
                         st.sampled_from(["\n", lines[0], f"{RESERVED_TOKENS[3]}\n"]))
    dropped = st.integers(0, len(lines) - 1).map(
        lambda at: "".join(lines[:at] + lines[at + 1:]))
    mutated = data.draw(bit_flips(blob, bits=[7])
                        | (inserted | dropped).map(str.encode))
    (bundle_dir / "vocab_de.txt").write_bytes(mutated)
    infer_one_image(capsys, bundle_dir, tmp_path, first_features(pipeline))


@FUZZ
@given(data=st.data())
def test_fuzzed_manifest_is_typed_error(pipeline, tmp_path, capsys, data):
    blob = (pipeline / "data" / "manifest.jsonl").read_bytes()
    starts = [0] + [i + 1 for i, b in enumerate(blob) if b == ord("\n")][:-1]
    ends = [i - 1 for i, b in enumerate(blob) if b == ord("\n")]  # each '}'
    inside_a_row = [n for s, e in zip(starts, ends) for n in range(s + 1, e)]
    rows = [json.loads(line) for line in blob.splitlines()]
    retyped = st.builds(
        lambda i, field, value: b"".join(
            json.dumps({**r, field: value} if j == i else r).encode() + b"\n"
            for j, r in enumerate(rows)),
        st.integers(0, len(rows) - 1), st.sampled_from(["en", "de"]),
        st.none() | st.integers() | st.lists(st.text(max_size=2), max_size=2))
    mutated = data.draw(truncations(blob, inside_a_row)
                        | bit_flips(blob, bits=[7])
                        | bit_flips(blob, starts + ends)
                        | retyped)
    (tmp_path / "manifest.jsonl").write_bytes(mutated)
    assert run_typed_failure(
        capsys, "eval", "--candidates", str(tmp_path / "captions.jsonl"),
        "--manifest", str(tmp_path / "manifest.jsonl"),
        "--out-dir", str(tmp_path / "scores")) == 5


@FUZZ
@given(data=st.data())
def test_fuzzed_setting_value_is_typed_error(pipeline, tmp_path, capsys, data):
    source = data.draw(st.sampled_from(["config", "data", "part2"]))
    if source == "config":
        subcommand = data.draw(st.sampled_from(["synth-data", "oracle-check"]))
    else:
        stored = json.loads((pipeline / source / "manifest.json").read_text())
        subcommand = stored["subcommand"]
    opt = data.draw(st.sampled_from([o for o in SUBCOMMANDS[subcommand][2]
                                     if o.type is not str]))
    value = data.draw(BAD_SETTING if opt.type is bool
                      else BAD_SETTING | st.booleans())
    if source == "config":
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({opt.flag: value}), encoding="utf-8")
        argv, expected = ["--config", str(cfg)], 2
    else:
        if data.draw(st.booleans()):
            stored["inputs"] = data.draw(BAD_INPUTS)
        else:
            stored["settings"][opt.key] = value
        replay = tmp_path / "manifest.json"
        replay.write_text(json.dumps(stored), encoding="utf-8")
        argv, expected = ["--from-manifest", str(replay)], 5
    assert run_typed_failure(capsys, subcommand, *argv,
                             "--out-dir", str(tmp_path / "out")) == expected
