import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from cyclecap.cli import SUBCOMMANDS, main
from cyclecap.data import FeatureGrid, RESERVED_TOKENS, load_features, save_features
from cyclecap.models import load_bundle, save_bundle

from conftest import FUZZ, bit_flips, truncations


def run(*argv):
    return main(list(argv))


TINY_TRAIN = ["--min-freq", "1", "--max-epochs", "2", "--patience", "2",
              "--dropout", "0.0", "--batch-size", "8", "--learning-rate", "2e-3",
              "--proj-dim", "16", "--embed-dim", "16", "--hidden-dim", "16",
              "--attn-dim", "16", "--validate-every", "5"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth-data -> pretrain -> train once per module; commands build on it."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("synth-data", "--out-dir", str(data), "--seed", "7",
               "--n-images", "8") == 0
    part1 = root / "part1"
    assert run("pretrain", "--manifest", str(data / "manifest.jsonl"),
               "--out-dir", str(part1), "--seed", "3", *TINY_TRAIN) == 0
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


def test_captioner_only_inference(pipeline, tmp_path):
    # the single-stage baseline: pretrain on German captions, then infer
    data = pipeline / "data"
    soft = tmp_path / "soft-attn"
    assert run("pretrain", "--manifest", str(data / "manifest.jsonl"),
               "--caption-field", "de", "--out-dir", str(soft), "--seed", "3",
               *TINY_TRAIN) == 0
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
    assert run("gradcheck", "--out-dir", str(tmp_path), "--dims", "tiny") == 0
    out = capsys.readouterr().out
    assert "worst" in out
    assert "FAILED" not in out


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("oracle-check", "--no-such-flag")
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err  # usage lists the valid flags


@pytest.mark.parametrize("subcommand, flag, value", [
    *((sub, "--seed", "-1") for sub in SUBCOMMANDS),
    ("oracle-check", "--trials", "0"),
    ("attn-export", "--limit", "0"),
    ("attn-export", "--limit", "-1"),
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, subcommand, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(subcommand, "--out-dir", str(tmp_path), flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err and "Traceback" not in err


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
            ("oracle-check", "trials: 0\n", []),
            ("attn-export", "limit: -1\n", ["--checkpoint", "c", "--manifest", "m"])):
        cfg = tmp_path / f"{subcommand}.yaml"
        cfg.write_text(body, encoding="utf-8")
        assert run(subcommand, "--config", str(cfg), *extra,
                   "--out-dir", str(tmp_path / subcommand)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "Traceback" not in err
        assert str(cfg) in err and repr(body.split(":")[0]) in err


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
                                   ("attn-export", "limit", -1)):
        replay = replay_manifest(tmp_path / f"{subcommand}.json", subcommand,
                                 **{key: value})
        assert run(subcommand, "--from-manifest", str(replay),
                   "--out-dir", str(tmp_path / "replay")) == 5
        assert_clean_io_error(capsys, str(replay), repr(key))

    # a vocabulary file one token short of the checkpoint's vocabulary
    short = copy_bundle_dir(pipeline, tmp_path / "short-vocab")
    tokens = (short / "vocab_de.txt").read_text(encoding="utf-8").splitlines()
    (short / "vocab_de.txt").write_text("".join(t + "\n" for t in tokens[:-1]),
                                        encoding="utf-8")
    for subcommand in ("infer", "attn-export"):
        assert run(subcommand, "--checkpoint", str(short / "bundle.ckpt"),
                   "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / f"short-{subcommand}")) == 5
        assert_clean_io_error(capsys, str(short / "vocab_de.txt"), "ids")

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
    # a config key no option reads is ignored at run time, so catch typos here
    known = {opt.key for _, _, options in SUBCOMMANDS.values() for opt in options}
    shipped = sorted(Path(__file__).parents[1].glob("configs/*.yaml"))
    assert shipped
    for path in shipped:
        keys = {str(k).replace("-", "_")
                for k in yaml.safe_load(path.read_text(encoding="utf-8"))}
        assert keys <= known, (path.name, sorted(keys - known))


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


def test_from_manifest_reruns_byte_identically(pipeline, tmp_path):
    part2 = pipeline / "part2"
    # manifests written before the --threads and --squared-cycle options were
    # removed carry them
    stored = json.loads((part2 / "manifest.json").read_text())
    stored["settings"]["threads"] = 1
    stored["settings"]["squared_cycle"] = False
    with_threads = tmp_path / "threads-manifest.json"
    with_threads.write_text(json.dumps(stored), encoding="utf-8")
    for i, replayed in enumerate((part2 / "manifest.json", with_threads)):
        rerun = tmp_path / f"part2-rerun{i}"
        assert run("train", "--from-manifest", str(replayed),
                   "--out-dir", str(rerun)) == 0
        compare_trees(part2, rerun)



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
        params = bundle.named_parameters()
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
        stored["settings"][opt.key] = value
        replay = tmp_path / "manifest.json"
        replay.write_text(json.dumps(stored), encoding="utf-8")
        argv, expected = ["--from-manifest", str(replay)], 5
    assert run_typed_failure(capsys, subcommand, *argv,
                             "--out-dir", str(tmp_path / "out")) == expected
