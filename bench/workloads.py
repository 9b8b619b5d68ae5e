"""The benchmark's two workloads and the phases each run goes through.

Both run in one process with one caller in a closed loop: each call starts
when the previous one has returned. Every input is a function of the seed.

Phases: setup (synthesize the corpus, write it, read it back), pretrain
(a stage-one job), train (a stage-two job, lambda 1), decode (a round that
captions every image at beam 3 and beam 1 with the bundle), score
(``cyclecap eval`` plus the alignment probe). A pass runs set-up, one
stage-one and one stage-two job to make the bundle, then the jobs and decode
rounds of ``CYCLE`` over and over until its time is up, and scores last.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from cyclecap import cli, data, evaluation, inference, models, synth, training
from cyclecap.errors import CycleCapError


@dataclass(frozen=True)
class Workload:
    name: str
    n_images: int
    objects_per_image: int
    extra_fillers: tuple[int, int]
    # epochs of one stage-one and of one stage-two job
    pretrain_epochs: int
    train_epochs: int
    batch_size: int
    learning_rate: float
    dropout: float
    freeze_part1: bool
    # pipeline trains through ``cyclecap pretrain``/``cyclecap train``, which
    # validate on the whole corpus; train-long calls the training functions
    # with a one-record validation set so validation stays a negligible share.
    through_cli: bool
    # Generated-token caps when decoding, dealt to the images in turn.
    max_lens: tuple[int, ...]


WORKLOADS = {
    # The README sequence as a user runs it. The bundle is trained until it
    # overfits, so captions end in EOS at reference length like real traffic.
    # Part 1 is frozen: unfrozen at this learning rate, lambda 1 flattens the
    # attention to about uniform and the German captions stop being exact.
    "pipeline": Workload(
        name="pipeline", n_images=16, objects_per_image=2, extra_fillers=(0, 2),
        pretrain_epochs=60, train_epochs=50, batch_size=16, learning_rate=1e-2,
        dropout=0.0, freeze_part1=True, through_cli=True, max_lens=(50,)),
    # Long captions: tape length, caption-attention keys N and the M x N
    # cycle matrices grow with caption length; backward reaches all three
    # networks and Adam updates every parameter; lengths vary within a batch.
    # Stage two starts from a short stage-one job, whose captioner has only
    # learned word frequencies; the cost of the taped graph does not depend
    # on the weights, so short jobs cost per record what long ones do and
    # can be repeated across the run.
    # Models trained this little have not learned where captions end: where
    # they emit EOS, and so how many steps a decode takes, would be a property
    # of the seed. So the caps end the captions, as EOS does in a trained
    # model: 1 to 5 tokens, which most seeds' models fill before emitting
    # EOS, so the work hardly depends on the seed. The caps differ between
    # images as caption lengths do; five caps over 32 images put the 50th
    # and 75th percentiles inside one cap's group of latencies rather than
    # on the edge between two. Short decodes are the opposite mix to
    # pipeline's 50-step beams.
    "train-long": Workload(
        name="train-long", n_images=32, objects_per_image=4, extra_fillers=(0, 10),
        pretrain_epochs=4, train_epochs=2, batch_size=32, learning_rate=1e-2,
        dropout=0.5, freeze_part1=False, through_cli=False,
        max_lens=(1, 2, 3, 4, 5)),
}


# After the first stage-one and stage-two jobs have made the bundle, a pass
# repeats this cycle until its time is up. The host's speed drifts over tens
# of seconds; interleaved, every metric's samples spread over the whole run
# instead of one block of it that has the speed of that block.
CYCLE = ("decode", "pretrain", "decode", "train")

# A pass decodes at least this many images per beam width, so that p75 has
# at least 10 samples beyond it.
MIN_DECODES = 40


class CheckFailed(Exception):
    """A correctness check or a program call failed; the run is not valid."""


@dataclass
class Corpus:
    root: Path
    manifest: Path
    en_vocab: data.Vocabulary
    de_vocab: data.Vocabulary
    triples: list[data.TripleRecord]
    alignments: dict


def synthesize(w: Workload, seed: int) -> list[synth.SynthImage]:
    """The workload's images, with a fixed total caption length.

    Training cost grows faster than linearly with caption length, so filler
    counts drawn independently per image would make records/s a property of
    the seed. Instead the counts are spread evenly over ``extra_fillers`` and
    dealt to the images in a seeded order; the features, objects, words and
    which image gets which length still come from the seed.
    """
    spec = synth.SynthSpec(seed=seed, n_images=w.n_images,
                           objects_per_image=w.objects_per_image,
                           extra_fillers=(0, 0))
    images = synth.generate(spec)
    lo, hi = w.extra_fillers
    counts = [lo + round(i * (hi - lo) / max(1, w.n_images - 1))
              for i in range(w.n_images)]
    rng = np.random.default_rng([seed, 1])
    rng.shuffle(counts)
    out = []
    for img, k in zip(images, counts):
        en = [str(t) for t in rng.choice(synth.EN_FILLERS, size=k)]
        de = [str(t) for t in rng.choice(synth.DE_FILLERS, size=k)]
        out.append(replace(img, en_tokens=img.en_tokens + tuple(en),
                           de_tokens=img.de_tokens + tuple(de)))
    return out


def make_corpus(w: Workload, seed: int, root: Path) -> Corpus:
    """Synthesize the workload's corpus, write it under ``root`` and read it
    back the way the command line does."""
    synth.write_corpus(synthesize(w, seed), root)
    manifest = root / "manifest.jsonl"
    entries = data.read_manifest(manifest)
    en_vocab = data.Vocabulary.build([e.en_tokens for e in entries], min_freq=1)
    de_vocab = data.Vocabulary.build([e.de_tokens for e in entries], min_freq=1)
    triples = data.encode_triples(entries, en_vocab, de_vocab, root)
    alignments = synth.read_alignments(root / "alignments.jsonl")
    return Corpus(root, manifest, en_vocab, de_vocab, triples, alignments)


@dataclass
class PassResult:
    """What one pass over a workload measured and produced."""

    # phase -> summed wall time of its spans
    walls: dict[str, float] = field(default_factory=dict)
    # (phase, start, end) of every phase span, in order
    phases: list[tuple[str, float, float]] = field(default_factory=list)
    # the jobs and decode rounds run after set-up, in order
    plan: list[str] = field(default_factory=list)
    # stage -> records x epochs of all its jobs
    records: dict[str, int] = field(default_factory=lambda: {"pretrain": 0, "train": 0})
    steps: int = 0
    # beam width -> (start, end) of every decode, in the order they ran
    decode_spans: dict[int, list[tuple[float, float]]] = field(
        default_factory=lambda: {3: [], 1: []})
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def decodes(self) -> int:
        return sum(len(v) for v in self.decode_spans.values())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*args) -> None:
    code = cli.main([str(a) for a in args])
    if code != 0:
        raise CheckFailed(f"cyclecap {args[0]} exited with code {code}")


def _steps(records: int, batch_size: int, epochs: int) -> int:
    return epochs * math.ceil(records / batch_size)


def _epochs(report: Path) -> list[dict]:
    lines = report.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines[1:]]


class _Pass:
    """Runs the jobs and decode rounds of one pass and keeps what they made.

    Every stage-one job starts from scratch and every stage-two job from the
    first stage-one checkpoint, so repeated jobs must write identical
    checkpoints; every decode round uses the first stage-two bundle.
    """

    def __init__(self, w: Workload, seed: int, corpus: Corpus, out: Path, tracer,
                 res: PassResult) -> None:
        self.w, self.seed, self.corpus, self.out = w, seed, corpus, out
        self.tracer, self.res = tracer, res
        self.pairs = data.pairs_from_triples(corpus.triples)
        self.walls: dict[str, float] = {}
        self.part1: Path | None = None
        self.bundle_path: Path | None = None
        self.bundle = None
        self.captions: dict[str, dict] = {}
        # stage -> epoch reports of its first job
        self.epochs: dict[str, list[dict]] = {}

    def run(self, kind: str) -> None:
        t0 = time.perf_counter()
        with self.tracer.phase_span(kind):
            {"pretrain": self._pretrain, "train": self._train,
             "decode": self._decode}[kind]()
        self.walls[kind] = time.perf_counter() - t0
        self.res.plan.append(kind)

    def _config(self, epochs: int) -> training.TrainConfig:
        w = self.w
        return training.TrainConfig(
            learning_rate=w.learning_rate, batch_size=w.batch_size, dropout=w.dropout,
            seed=self.seed, max_epochs=epochs, patience=epochs, validate_every=epochs)

    def _cli_options(self, epochs: int) -> list:
        w = self.w
        return ["--manifest", self.corpus.manifest, "--min-freq", 1,
                "--dropout", w.dropout, "--learning-rate", w.learning_rate,
                "--batch-size", w.batch_size, "--seed", self.seed,
                "--max-epochs", epochs, "--patience", epochs, "--validate-every", epochs]

    def _pretrain(self) -> None:
        """``cyclecap pretrain``, or on train-long ``pretrain_part1`` with a
        one-record validation set so validation stays a negligible share."""
        w, c, epochs = self.w, self.corpus, self.w.pretrain_epochs
        out = self.out / f"part1-{self.res.plan.count('pretrain')}"
        if w.through_cli:
            _cli("pretrain", "--out-dir", out, *self._cli_options(epochs))
        else:
            captioner, report = training.pretrain_part1(
                self.pairs, c.en_vocab, c.triples[0].features.dim,
                self._config(epochs), val_pairs=self.pairs[:1])
            out.mkdir(parents=True)
            models.save_captioner(captioner, out / "part1.ckpt")
            report.write(out / "report.jsonl")
        self._finish_job("pretrain", out, out / "part1.ckpt", "part1_ckpt", epochs)
        self.part1 = self.part1 or out / "part1.ckpt"

    def _train(self) -> None:
        """``cyclecap train`` at lambda 1, or on train-long ``train_part2``
        with a one-record validation set."""
        w, c, epochs = self.w, self.corpus, self.w.train_epochs
        out = self.out / f"part2-{self.res.plan.count('train')}"
        if w.through_cli:
            _cli("train", "--out-dir", out, "--part1", self.part1, "--lambda", 1,
                 *(["--freeze-part1"] if w.freeze_part1 else []),
                 *self._cli_options(epochs))
        else:
            cfg = replace(self._config(epochs), cycle_weight=1.0,
                          freeze_part1=w.freeze_part1)
            bundle, report = training.train_part2(
                c.triples, models.load_captioner(self.part1), c.en_vocab, c.de_vocab,
                cfg, val_triples=c.triples[:1])
            out.mkdir(parents=True)
            models.save_bundle(bundle, out / "bundle.ckpt")
            report.write(out / "report.jsonl")
        self._finish_job("train", out, out / "bundle.ckpt", "bundle_ckpt", epochs)
        self.bundle_path = self.bundle_path or out / "bundle.ckpt"

    def _finish_job(self, stage: str, out: Path, ckpt: Path, name: str,
                    epochs: int) -> None:
        n = self.w.n_images
        self.res.records[stage] += n * epochs
        self.res.steps += _steps(n, self.w.batch_size, epochs)
        self.epochs.setdefault(stage, _epochs(out / "report.jsonl"))
        digest = _sha256(ckpt)
        if self.res.digests.setdefault(name, digest) != digest:
            self.res.failures.append(f"determinism: {out.name} wrote another "
                                     f"checkpoint than the first {stage} job")

    def _decode(self) -> None:
        """One round: caption every image at beam 3 and then beam 1, checking
        that every round decodes the same tokens."""
        if self.bundle is None:
            self.bundle = models.load_bundle(self.bundle_path)
        w, res = self.w, self.res
        for i, rec in enumerate(self.corpus.triples):
            max_len = w.max_lens[i % len(w.max_lens)]
            got = {}
            for beam in (3, 1):
                self.tracer.request = rec.image_id
                t0 = time.perf_counter()
                out = inference.caption_image(self.bundle, rec.features,
                                              beam_size=beam, max_len=max_len)
                res.decode_spans[beam].append((t0, time.perf_counter()))
                got[f"beam{beam}"] = [list(out.en_ids), list(out.de_ids)]
            if self.captions.setdefault(rec.image_id, got) != got:
                res.failures.append(f"{rec.image_id}: a repeated decode differed")
        self.tracer.request = self.tracer.phase


def _run_until(p: _Pass, deadline: float) -> None:
    """The first stage-one and stage-two jobs make the bundle; then ``CYCLE``
    repeats until ``deadline``, skipping a job that would not end before it,
    and stops at a decode round once ``MIN_DECODES`` images were decoded at
    each beam width."""
    p.run("pretrain")
    p.run("train")
    for kind in itertools.cycle(CYCLE):
        now = time.perf_counter()
        if kind == "decode":
            if now >= deadline and len(p.res.decode_spans[3]) >= MIN_DECODES:
                return
        elif now + p.walls[kind] > deadline:
            continue
        p.run(kind)


def _score(corpus: Corpus, bundle, captions: dict, out: Path, res: PassResult) -> None:
    de_vocab = corpus.de_vocab
    with open(out / "captions.jsonl", "w", encoding="utf-8") as fh:
        for image_id, got in captions.items():
            en_ids, de_ids = got["beam3"]
            fh.write(json.dumps({
                "image_id": image_id,
                "en": " ".join(corpus.en_vocab.decode(en_ids)),
                "de": " ".join(de_vocab.decode(de_ids))}, sort_keys=True) + "\n")
    _cli("eval", "--out-dir", out / "scores", "--candidates", out / "captions.jsonl",
         "--manifest", corpus.manifest, "--field", "de", "--model-name", "cycle-attn")
    scores = json.loads((out / "scores" / "metrics.json").read_text(encoding="utf-8"))
    res.quality["cider"] = scores["cider"]
    res.quality["bleu4"] = scores["bleu4"]
    res.quality["alignment"] = evaluation.alignment_score(
        bundle, corpus.triples, corpus.alignments)
    res.quality["exact_de"] = sum(
        list(rec.de_ids[1:]) == captions[rec.image_id]["beam3"][1]
        for rec in corpus.triples)
    for beam in ("beam3", "beam1"):
        for lang, k in (("en", 0), ("de", 1)):
            res.quality[f"{beam}_{lang}_tokens"] = float(np.mean(
                [len(got[beam][k]) for got in captions.values()]))


def _check(w: Workload, corpus: Corpus, epochs: dict[str, list[dict]],
           res: PassResult) -> None:
    if any(not math.isfinite(e["nll_per_token"])
           or (e["cycle"] is not None and not math.isfinite(e["cycle"]))
           for stage in epochs.values() for e in stage):
        res.failures.append("a training epoch reported a non-finite loss")
    if w.name != "pipeline":
        return
    q = res.quality
    need = len(corpus.triples) - 1
    if q["exact_de"] < need:
        res.failures.append(f"beam-3 German captions match the reference on "
                            f"{q['exact_de']} images, need {need}")
    uniform = 1.0 / corpus.triples[0].features.regions
    if not q["alignment"] >= 2.0 * uniform:
        res.failures.append(f"alignment {q['alignment']:.4f} is below twice "
                            f"uniform ({2.0 * uniform:.4f})")
    cycles = [e["cycle"] for e in epochs["train"]]
    if not cycles[-1] < cycles[0]:
        res.failures.append(f"stage-two cycle loss did not fall "
                            f"({cycles[0]:.4f} -> {cycles[-1]:.4f})")


def run_pass(w: Workload, seed: int, out: Path, tracer, *,
             deadline: float | None = None, plan: list[str] | None = None) -> PassResult:
    """One pass over the workload: until ``deadline``, or the jobs and decode
    rounds of ``plan`` (an earlier pass's ``plan``), in order. Program errors
    (``CycleCapError``) and failed checks are collected in ``failures``
    rather than raised."""
    res = PassResult()
    try:
        with tracer.phase_span("setup"):
            corpus = make_corpus(w, seed, out / "data")
        p = _Pass(w, seed, corpus, out, tracer, res)
        if plan is None:
            _run_until(p, deadline)
        else:
            for kind in plan:
                p.run(kind)
        with tracer.phase_span("score"):
            _score(corpus, p.bundle, p.captions, out, res)
        res.digests["captions"] = hashlib.sha256(
            json.dumps(p.captions, sort_keys=True).encode()).hexdigest()
        _check(w, corpus, p.epochs, res)
    except (CycleCapError, CheckFailed) as exc:
        res.failures.append(f"{type(exc).__name__}: {exc}")
    res.walls = tracer.phase_walls()
    res.phases = tracer.phase_spans()
    return res
