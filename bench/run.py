#!/usr/bin/env python3
"""Seeded benchmark for cyclecap: one workload per run, result as JSON.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
untraced for half the time and then traced with the same jobs and decode
rounds, and prints the per-layer metrics, the per-phase self-time tables and
the tracing overhead. The last line of standard output
is the JSON result. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_run"
# Fresh set-up processes per run: half before the timed pass, half after it,
# so that their median does not hang on a few seconds of the host's speed.
SETUP_REPEATS = 10
# A decode lasts 1 to 200 ms; its host speed is taken from the probes that
# started within this many seconds of it (about 20 of them).
DECODE_MARGIN_S = 0.25


def load_program():
    """Import cyclecap from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import cyclecap
    except ImportError as exc:
        sys.exit(f"bench: cannot import cyclecap from {SRC}: {exc}")
    if Path(cyclecap.__file__).resolve().parent != SRC / "cyclecap":
        sys.exit(f"bench: cyclecap was imported from {cyclecap.__file__}, "
                 f"not from {SRC}")
    return cyclecap


def source_digest() -> str:
    """sha256 over the program's and the benchmark's source files: the key for
    determinism digests, since the checkout need not be a git repository."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "cyclecap").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | str:
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "commit": commit,
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def measure_setup(workload: str, seed: int, work: Path, repeats: int) -> list[float]:
    """Wall time of fresh processes that import cyclecap and write the
    workload's corpus: interpreter start to exit.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, so the wait
    blocks and a timer kills a child that hangs instead."""
    times = []
    for k in range(repeats):
        out = work / f"setup{k}"
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "run.py"), "--setup-only",
                                 str(out), "--workload", workload, "--seed", str(seed)])
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
        shutil.rmtree(out)
    return times


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def check_digests(workload: str, seed: int, digests: dict, failures: list) -> None:
    """Runs of the same source and seed must produce identical artefacts. The
    first run that passed every other check becomes the reference."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    key = f"{source_digest()}/{workload}/{seed}"
    if key in known:
        for name, value in digests.items():
            if known[key].get(name) != value:
                failures.append(f"determinism: {name} differs from an earlier run "
                                f"of the same source and seed")
        return
    if failures:
        return
    known[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def end_to_end(res, setup_times: list[float], probe) -> dict:
    """Rates are records x epochs over the reference seconds of a stage's
    jobs, whose wall time includes validation and checkpoint writing; latency
    percentiles are taken over the reference milliseconds of every decode of
    every image (see ``hostspeed``). ``setup_s`` is wall time."""
    def rate(stage: str) -> float:
        return res.records[stage] / sum(probe.reference_seconds(start, end)
                                        for phase, start, end in res.phases
                                        if phase == stage)

    beam3, beam1 = ([probe.reference_seconds(start, end, DECODE_MARGIN_S) * 1e3
                     for start, end in res.decode_spans[beam]] for beam in (3, 1))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pretrain_records_per_s": (rate("pretrain"), "records/ref-s"),
        "train_records_per_s": (rate("train"), "records/ref-s"),
        "decode_beam3_ms_p50": (statistics.median(beam3), "ref-ms"),
        "decode_beam3_ms_p75": (percentile(beam3, 75), "ref-ms"),
        "decode_beam1_ms_p50": (statistics.median(beam1), "ref-ms"),
    }


def wall_clock(res) -> str:
    """The end-to-end figures in unscaled wall time, for the record."""
    beam3, beam1 = ([(end - start) * 1e3 for start, end in res.decode_spans[beam]]
                    for beam in (3, 1))
    return (f"pretrain {res.records['pretrain'] / res.walls['pretrain']:.4g} records/s, "
            f"train {res.records['train'] / res.walls['train']:.4g} records/s, "
            f"decode beam 3 p50 {statistics.median(beam3):.4g} ms, "
            f"p75 {percentile(beam3, 75):.4g} ms, "
            f"beam 1 p50 {statistics.median(beam1):.4g} ms")


# (span name, unit of its per-call self time)
LAYERS = (
    ("tensor.backward", "ms"),
    ("cells.lstm_step", "us"),
    ("cells.gru_step", "us"),
    ("attention.en_to_regions", "us"),
    ("attention.de_to_regions", "us"),
    ("attention.de_to_en", "us"),
    ("models.project", "us"),
    ("models.encode", "us"),
    ("models.soft_step", "us"),
    ("models.dual_step", "us"),
    ("models.log_softmax", "us"),
    ("models.checkpoint_io", "ms"),
    ("cycle.loss_graph", "us"),
    ("training.nll_loss", "us"),
    ("training.step", "ms"),
    ("training.validate", "ms"),
    ("optim.adam_step", "ms"),
    ("optim.zero_grad", "ms"),
    ("inference.caption_image", "ms"),
    ("inference.beam_decode", "ms"),
    ("evaluation.cider", "ms"),
    ("evaluation.alignment_score", "ms"),
    ("data.load_features", "us"),
    ("data.read_manifest", "ms"),
    ("synth.generate", "ms"),
    ("cli.main", "ms"),
)
SCALE = {"ms": 1e3, "us": 1e6}


def per_layer(tracer, untraced_walls: dict) -> dict:
    """Per-layer metrics of a traced pass. Self times are per call, except
    ``inference.beam_decode``, which is per image decoded in the decode phase;
    the ``inference`` ratios also come from the decode phase."""
    table = tracer.layer_table()
    totals: dict[str, list] = {}
    for rows in table.values():
        for name, (calls, secs) in rows.items():
            t = totals.setdefault(name, [0, 0.0])
            t[0] += calls
            t[1] += secs
    out = {}
    for name, unit in LAYERS:
        calls, secs = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_{unit}"] = (secs * SCALE[unit] / calls if calls else 0.0, unit)
    counts = tracer.counts
    records = sum(v for (_, k), v in counts.items() if k == "tape_records")
    ops = sum(v for (_, k), v in counts.items() if k == "tape_ops")
    out["tensor.tape_ops_per_record"] = (ops / records if records else 0.0, "count")
    images = table["decode"].get("inference.caption_image", (0, 0.0))[0]
    steps = counts[("decode", "decoder_steps")]
    bd_secs = table["decode"].get("inference.beam_decode", (0, 0.0))[1]
    out["inference.beam_decode.self_ms"] = (bd_secs * 1e3 / images if images else 0.0, "ms")
    out["inference.decoder_steps_per_image"] = (steps / images if images else 0.0, "count")
    out["inference.useful_step_ratio"] = (
        counts[("decode", "hypothesis_tokens")] / steps if steps else 0.0, "ratio")
    traced, untraced = sum(tracer.phase_walls().values()), sum(untraced_walls.values())
    out["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    return out


def print_samples(w, res, setup_times: list[float]) -> None:
    print(f"setup: {len(setup_times)} fresh processes, "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    print("order: " + " ".join(res.plan))
    for phase in ("pretrain", "train"):
        print(f"{phase}: {res.plan.count(phase)} jobs, {res.records[phase]} records "
              f"x epochs in {res.walls[phase]:.3f} s")
    n = len(res.decode_spans[3])
    print(f"decode: {res.plan.count('decode')} rounds over {w.n_images} images at "
          f"beam 3 and beam 1, {n} samples per beam width "
          f"(p75 has {n - int(0.75 * n)} beyond it)")


def print_layer_tables(tracer, untraced_walls: dict) -> None:
    table = tracer.layer_table()
    walls = tracer.phase_walls()
    for phase, rows in table.items():
        print(f"phase {phase}: traced wall {walls[phase] * 1e3:.1f} ms, untraced "
              f"{untraced_walls[phase] * 1e3:.1f} ms, tracing overhead "
              f"{(walls[phase] - untraced_walls[phase]) * 1e3:+.1f} ms")
        ordered = sorted(rows.items(), key=lambda kv: -kv[1][1])
        for name, (calls, secs) in ordered:
            label = "remainder (in no layer span)" if name == "remainder" else name
            print(f"  {label:<32} calls {calls:>9}  self {secs * 1e3:>11.2f} ms  "
                  f"{100.0 * secs / walls[phase]:5.1f}%")
        total = sum(secs for _, secs in rows.values())
        print(f"  {'layers + remainder':<32} {'':>15}  {total * 1e3:>16.2f} ms "
              f"(= traced wall {walls[phase] * 1e3:.2f} ms)")
    print("waiting: no waiting (one single-threaded process, one closed-loop caller)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_program()
    import hostspeed
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.make_corpus(w, args.seed, Path(args.setup_only))
        return 0

    def timed_pass(out: Path, traced: bool, **until):
        tracer = spans.Tracer()
        if traced:
            tracer.install()
        try:
            return workloads.run_pass(w, args.seed, out, tracer, **until), tracer
        finally:
            tracer.uninstall()

    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{w.name}-s{args.seed}-p{os.getpid()}"
    work.mkdir()
    try:
        print("machine: " + json.dumps(machine_record(), sort_keys=True))
        failures: list[str] = []
        if args.trace == 0:
            setup_times = measure_setup(w.name, args.seed, work, SETUP_REPEATS // 2)
            with hostspeed.HostProbe() as probe:
                res, _ = timed_pass(work / "pass", False,
                                    deadline=time.perf_counter() + args.seconds)
            setup_times += measure_setup(w.name, args.seed, work, SETUP_REPEATS // 2)
            print("host: " + probe.summary())
            failures += res.failures
            attempted = res.steps + res.decodes
        else:
            plain, _ = timed_pass(work / "plain", False,
                                  deadline=time.perf_counter() + args.seconds / 2)
            res, tracer = timed_pass(work / "traced", True, plan=plain.plan)
            failures += plain.failures + res.failures
            if plain.digests != res.digests:
                failures.append("determinism: the traced pass produced other "
                                "artefacts than the untraced pass")
            attempted = plain.steps + plain.decodes + res.steps + res.decodes
            print_layer_tables(tracer, plain.walls)
            tracer.write(STATE / f"spans-{w.name}-s{args.seed}.jsonl.gz")
        if res.digests:
            print("digests: " + json.dumps(res.digests, sort_keys=True))
            check_digests(w.name, args.seed, res.digests, failures)
        metrics = {}
        if not failures and args.trace == 0:
            metrics = end_to_end(res, setup_times, probe)
            print_samples(w, res, setup_times)
            print("wall clock, unscaled: " + wall_clock(res))
        elif not failures:
            metrics = per_layer(tracer, plain.walls)
        print("quality: " + json.dumps(res.quality, sort_keys=True))
        print("phases: " + ", ".join(f"{k} {v:.3f} s" for k, v in res.walls.items()))
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
        for failure in failures:
            print(f"FAILED: {failure}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": 0 if correct else max(attempted, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
