"""Wrapper coverage for the traced run.

A refactor that merges or renames a wrapped function must break the trace
loudly instead of reporting zeros. Run from the root of a checkout:

    python3 -m pytest bench/test_spans.py
"""

import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_program()

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# Repeats each job, so the determinism check across jobs and the summing of
# repeated phases are exercised too.
PLAN = ["pretrain", "train", "decode", "pretrain", "decode", "train"]


def _tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], n_images=3, pretrain_epochs=1,
                   train_epochs=1, batch_size=2)


def _site(module_name, class_name, attr):
    module = importlib.import_module(module_name)
    owner = getattr(module, class_name) if class_name else module
    return owner.__dict__[attr]


def test_every_wrapper_records_calls_and_is_removed(tmp_path):
    originals = {site[:3]: _site(*site[:3]) for site in spans.PATCH_SITES}
    tracer = spans.Tracer()
    tracer.install()
    try:
        with hostspeed.HostProbe() as probe:
            results = [workloads.run_pass(_tiny(name), 5, tmp_path / name, tracer,
                                          plan=PLAN)
                       for name in sorted(workloads.WORKLOADS)]
    finally:
        tracer.uninstall()

    for res in results:
        assert res.digests, f"pass stopped early: {res.failures}"
    sites = [spans.site_name(*site[:3]) for site in spans.PATCH_SITES]
    silent = [site for site in sites if tracer.calls_by_site[site] == 0]
    assert not silent, f"wrapped names that recorded no calls: {silent}"
    metrics = run.per_layer(tracer, tracer.phase_walls())
    zero = [name for name, (value, _) in metrics.items()
            if name.endswith(".calls") and value == 0]
    assert not zero, f"layers without calls: {zero}"

    still = [site for site, fn in originals.items() if _site(*site) is not fn]
    assert not still, f"wrappers still installed: {still}"

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    end_to_end = run.end_to_end(results[0], [1.0], probe)
    assert set(end_to_end) == {m["name"] for m in declared["end_to_end"]}


def test_self_times_and_remainder_add_up_to_phase_walls(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.run_pass(_tiny("train-long"), 3, tmp_path, tracer, plan=PLAN)
    finally:
        tracer.uninstall()
    walls = tracer.phase_walls()
    for phase, rows in tracer.layer_table().items():
        total = sum(secs for _, secs in rows.values())
        assert abs(total - walls[phase]) <= 1e-9 * max(1.0, walls[phase]), phase


def test_reference_seconds_scale_by_probe_speed_and_drop_probe_time():
    probe = hostspeed.HostProbe()
    ref = hostspeed.REFERENCE_S
    # The host ran the probe at half the reference speed, then at full speed.
    probe.starts = [0.0, 0.5, 1.0, 1.5]
    probe.durations = [2 * ref, 2 * ref, ref, ref]
    assert probe.reference_seconds(0.2, 0.7) == pytest.approx((0.5 - 2 * ref) * 0.5)
    assert probe.reference_seconds(0.9, 1.2) == pytest.approx(0.3 - ref)
    # With a margin the probes on either side count; none is inside.
    assert probe.reference_seconds(1.2, 1.3, margin=0.75) == pytest.approx(
        0.1 * (0.5 + 1 + 1) / 3)
