"""Central finite-difference gradient checking, and the canned
verification suites behind the gradcheck and oracle-check commands.

``check_gradients`` only ever evaluates forward passes, so it stays
independent of the tape machinery it validates. The gradient suite drives
every primitive, every fused op that training records (each GRU direction
and a teacher-forced unroll of each decoder kind, over padding), the
decoders' initial state, the consistency loss, and the composed stage-one
and stage-two losses, at batch sizes 1 and 2, through it. The
oracle suite exercises the hand-worked composed-attention example and the
conditional-independence identity on random factorized joint tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Mapping

import numpy as np

from .cycle import (check_conditional_independence, cycle_loss, cycle_loss_graph,
                    factorized_joint, indirect_attention, record_from_joint,
                    toy_alignment_record)
from .data import FeatureGrid, TripleRecord, make_batch
from .errors import ConfigError
from .models import ImageCaptioner, ModelBundle, ModelDims, init_state, unroll
from .tensor import (Head, Parameter, Tape, Tensor, add, batch_matmul, concat,
                     decoder_unroll, dropout, embedding_lookup, frobenius, gru_unroll,
                     log_softmax, masked_mean, matmul, mul, pick, scale, sub, sum_all,
                     tanh, transpose)
from .training import nll_loss, stage2_loss_graph

PRESETS = {
    "tiny": dict(hidden=4, embed=4, attn=4, proj=4, regions=3, feature_dim=3,
                 vocab=8, seq=3),
    "small": dict(hidden=8, embed=8, attn=8, proj=8, regions=6, feature_dim=5,
                  vocab=12, seq=5),
}

GRAD_TOL = 1e-3


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst elementwise |a-b| / max(|a|, |b|, floor)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


@dataclass
class GradCheckResult:
    """Per-parameter worst relative errors for one checked graph."""

    name: str
    errors: dict[str, float] = field(default_factory=dict)

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    def ok(self, tol: float = GRAD_TOL) -> bool:
        return self.max_error < tol


def check_gradients(name: str,
                    build_loss: Callable[[], Tensor],
                    params: Mapping[str, Parameter],
                    h: float = 1e-5) -> GradCheckResult:
    """Compare taped gradients against central differences, element by
    element of every parameter. ``build_loss`` must rebuild the graph from
    scratch on every call and be deterministic (seed any dropout rng inside
    the closure)."""
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    taped = {k: p.grad.copy() for k, p in params.items()}

    result = GradCheckResult(name)
    for key, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            down = build_loss().item()
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * h)
        result.errors[key] = max_rel_error(taped[key].reshape(-1), fd)
    return result


def _p(rng, shape, name):
    return Parameter(rng.uniform(-0.8, 0.8, size=shape), name)


def _primitive_cases(rng: np.random.Generator):
    """One scalar-valued graph per primitive op, each exercised away from any
    non-smooth point. The masked ops see a padded row, so their zero
    gradients are checked too."""
    a = _p(rng, (3, 4), "a")
    b = _p(rng, (4, 2), "b")
    v = _p(rng, (4,), "v")
    w = _p(rng, (4,), "w")
    m = _p(rng, (3, 4), "m")
    t3 = _p(rng, (2, 3, 4), "t3")   # (B, K, d)
    u3 = _p(rng, (2, 4, 3), "u3")
    x2 = _p(rng, (2, 4), "x2")
    probe = _p(rng, (2, 3), "probe")
    table = _p(rng, (5, 3), "table")
    real = np.array([[True, True, False], [True, True, True]])   # (B, K)

    def seeded_dropout():
        local = np.random.default_rng(123)
        return sum_all(dropout(v, 0.5, local))

    return [
        ("matmul", lambda: sum_all(matmul(a, b)), {"a": a, "b": b}),
        ("matmul-batched", lambda: sum_all(mul(matmul(t3, b), matmul(t3, b))),
         {"t3": t3, "b": b}),
        ("matmul-vector", lambda: sum_all(mul(matmul(t3, v), matmul(t3, w))),
         {"t3": t3, "v": v, "w": w}),
        ("batch_matmul", lambda: sum_all(mul(batch_matmul(t3, u3), batch_matmul(t3, u3))),
         {"t3": t3, "u3": u3}),
        ("batch_matmul-rows", lambda: sum_all(mul(batch_matmul(x2, u3), probe)),
         {"x2": x2, "u3": u3, "probe": probe}),
        ("transpose", lambda: sum_all(mul(transpose(t3, (1, 0, 2)), transpose(t3, (1, 0, 2)))),
         {"t3": t3}),
        ("add", lambda: sum_all(add(v, w)), {"v": v, "w": w}),
        ("add-broadcast", lambda: sum_all(add(m, v)), {"m": m, "v": v}),
        ("sub", lambda: sum_all(sub(v, w)), {"v": v, "w": w}),
        ("mul", lambda: sum_all(mul(v, w)), {"v": v, "w": w}),
        ("scale", lambda: sum_all(scale(v, 2.5)), {"v": v}),
        ("concat", lambda: sum_all(mul(concat([v, w]), concat([w, v]))),
         {"v": v, "w": w}),
        ("concat-last-axis", lambda: sum_all(mul(concat([m, a]), concat([a, m]))),
         {"m": m, "a": a}),
        ("log_softmax", lambda: pick(log_softmax(v), 2), {"v": v}),
        ("tanh", lambda: sum_all(mul(tanh(v), w)), {"v": v, "w": w}),
        ("embedding-lookup", lambda: sum_all(embedding_lookup(table, [0, 2, 2, 4])),
         {"table": table}),
        ("embedding-lookup-matrix",
         lambda: sum_all(mul(embedding_lookup(table, [[0, 2], [2, 4]]),
                             embedding_lookup(table, [[1, 2], [3, 0]]))),
         {"table": table}),
        ("dropout", seeded_dropout, {"v": v}),
        ("masked_mean-padded-row", lambda: sum_all(mul(masked_mean(t3, real), x2)),
         {"t3": t3, "x2": x2}),
        ("frobenius-padded-row", lambda: sum_all(frobenius(t3, real)), {"t3": t3}),
        ("pick", lambda: pick(mul(v, w), 3), {"v": v, "w": w}),
        ("pick-masked", lambda: sum_all(mul(pick(t3, [[0, 3, 1], [2, 2, 3]], real), probe)),
         {"t3": t3, "probe": probe}),
    ]


def _fused_cases(rng: np.random.Generator, p: dict):
    """One scalar-valued graph per fused training op, over a batch of two
    records, each reading its outputs through random probes: one
    ``gru_unroll`` per direction, and one ``decoder_unroll`` per decoder
    kind, the soft decoder's head over regions and the dual decoder's second
    head over caption states. Record 0's last step, and in each unroll head
    its last key, is padding, masked out."""
    hidden, embed, attn, steps, keys = p["hidden"], p["embed"], p["attn"], p["seq"], \
        p["regions"]
    mask = np.ones((2, keys), dtype=bool)
    mask[0, -1] = False
    gru = [_p(rng, (steps, 2, embed), "embedded"), _p(rng, (embed, 3 * hidden), "w"),
           _p(rng, (hidden, 3 * hidden), "u"), _p(rng, (3 * hidden,), "b")]
    probe_gru = _p(rng, (2, steps, hidden), "probe_states")
    step_mask = np.ones((2, steps), dtype=bool)
    step_mask[0, -1] = False
    cases = [(f"gru_unroll{tag}",
              lambda reverse=reverse: sum_all(mul(
                  gru_unroll(*gru, step_mask, reverse=reverse), probe_gru)),
              {x.name: x for x in gru})
             for tag, reverse in (("", False), ("-reverse", True))]
    for kind, key_dims in (("soft", [p["proj"]]), ("dual", [p["proj"], 2 * hidden])):
        operands = [_p(rng, (steps, 2, embed), "embedded"), _p(rng, (2, hidden), "h0"),
                    _p(rng, (2, hidden), "c0"),
                    _p(rng, (sum(key_dims) + embed + hidden, 4 * hidden), "w"),
                    _p(rng, (4 * hidden,), "b")]
        heads = [Head(_p(rng, (keys, 2, attn), f"projected{k}"),
                      _p(rng, (2, keys, d), f"rows{k}"), mask,
                      _p(rng, (hidden, attn), f"w_query_t{k}"),
                      _p(rng, (attn,), f"combine{k}"))
                 for k, d in enumerate(key_dims)]
        probes = [_p(rng, (steps, 2, hidden), "probe_states")] + [
            _p(rng, (2, steps, keys), "probe_weights") for _ in key_dims]

        def unroll_loss(operands=operands, heads=heads, probes=probes):
            outs = decoder_unroll(*operands, heads, step_mask)
            return reduce(add, [sum_all(mul(o, pr))
                                for o, pr in zip(outs, probes, strict=True)])

        params = {x.name: x for x in operands}
        params.update((x.name, x) for head in heads for x in head
                      if isinstance(x, Parameter))
        cases.append((f"decoder_unroll-{kind}", unroll_loss, params))
    return cases


def _make_triple(rng: np.random.Generator, p: dict, regions: int, seq: int,
                 image_id: str) -> TripleRecord:
    grid = FeatureGrid(rng.standard_normal((regions, p["feature_dim"])))
    en = [1] + [int(x) for x in rng.integers(4, p["vocab"], size=seq)] + [2]
    de = [1] + [int(x) for x in rng.integers(4, p["vocab"], size=seq)] + [2]
    return TripleRecord(image_id=image_id, features=grid,
                        en_ids=tuple(en), de_ids=tuple(de))


def gradient_suite(preset: str = "tiny", seed: int = 0) -> list[GradCheckResult]:
    """Run every gradient check at the given preset, each over every element
    of its parameters. Cells and attention step a batch of two records; the
    composed graphs run at B = 1 and at B = 2, whose records differ in
    caption lengths and region counts, so padding is differentiated too."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown gradcheck preset {preset!r}; "
                          f"choose from {sorted(PRESETS)}")
    p = PRESETS[preset]
    rng = np.random.default_rng(seed)
    results = []

    for name, build, params in _primitive_cases(rng):
        results.append(check_gradients(f"primitive/{name}", build, params))

    keys = Parameter(rng.standard_normal((2, p["regions"], p["proj"])), "keys")
    key_mask = np.ones((2, p["regions"]), dtype=bool)
    key_mask[0, -1] = False
    initial = [(Parameter(rng.standard_normal((p["proj"], p["hidden"])), f"w{k}"),
                Parameter(rng.standard_normal(p["hidden"]), f"b{k}")) for k in range(2)]
    probe_c = Tensor(rng.standard_normal((2, p["hidden"])))

    def init_loss():
        h, c = init_state(keys, key_mask, initial)
        return add(sum_all(h), sum_all(mul(c, probe_c)))

    params = {x.name: x for pair in initial for x in pair}
    results.append(check_gradients("models/init_state", init_loss,
                                   dict(params, keys=keys)))

    a_de = Parameter(rng.random((2, 3, p["regions"])), "a_de")
    b_mat = Parameter(rng.random((2, 3, 4)), "b_mat")
    a_en = Parameter(rng.random((2, 4, p["regions"])), "a_en")
    de_mask = np.array([[True, True, False], [True, True, True]])

    def cyc_loss():
        return cycle_loss_graph(a_de, b_mat, a_en, de_mask)

    results.append(check_gradients("cycle/frobenius", cyc_loss,
                                   {"a_de": a_de, "b_mat": b_mat, "a_en": a_en}))

    dims = ModelDims(p["feature_dim"], p["vocab"], p["vocab"], p["proj"], p["embed"],
                     p["hidden"], p["attn"])
    triples = [_make_triple(rng, p, p["regions"], p["seq"], "chk0"),
               _make_triple(rng, p, p["regions"] - 1, p["seq"] - 1, "chk1")]
    captioner = ImageCaptioner(dims, seed)
    bundle = ModelBundle(captioner, p["vocab"], seed)
    for tag, batch in (("", make_batch(triples[:1])), ("-b2", make_batch(triples))):

        def captioner_loss(batch=batch):
            decoder = captioner.decoder
            states, (region_rows,) = unroll(
                decoder, decoder.start([captioner.project(batch.features)],
                                       [batch.region_mask]), batch.en_ids)
            loss, _ = nll_loss(decoder.emit(states), batch.en_ids[:, 1:],
                               batch.en_mask[:, 1:])
            return add(loss, sum_all(region_rows))

        results.append(check_gradients(f"models/captioner-nll{tag}", captioner_loss,
                                       captioner.named_parameters()))
        results.append(check_gradients(
            f"training/stage2-composed{tag}",
            lambda batch=batch: stage2_loss_graph(bundle, batch, cycle_weight=1.0),
            bundle.named_parameters()))

    for name, build, params in _fused_cases(rng, p):
        results.append(check_gradients(f"fused/{name}", build, params))
    return results


@dataclass
class OracleSummary:
    """Outcome of the composed-attention and chain-identity verifications."""

    toy_indirect_hund_r2: float
    toy_direct_hund_r2: float
    identity_trials: int
    identity_max_discrepancy: float
    perturbed_flagged: bool
    perturbed_discrepancy: float
    factorized_cycle_loss: float

    @property
    def ok(self) -> bool:
        return (abs(self.toy_indirect_hund_r2 - 0.75) < 1e-12
                and self.identity_max_discrepancy < 1e-12
                and self.perturbed_flagged
                and self.factorized_cycle_loss < 1e-12)

    def render(self) -> str:
        return "\n".join([
            f"toy record: composed attention of 'hund' on region 2 = "
            f"{self.toy_indirect_hund_r2:.12f} (direct {self.toy_direct_hund_r2})",
            f"chain identity over {self.identity_trials} factorized joints: "
            f"max discrepancy {self.identity_max_discrepancy:.3e}",
            f"perturbed non-factorized joint flagged: {self.perturbed_flagged} "
            f"(discrepancy {self.perturbed_discrepancy:.3e})",
            f"cycle loss of a factorized record: {self.factorized_cycle_loss:.3e}",
            f"overall: {'ok' if self.ok else 'FAILED'}",
        ]) + "\n"


def perturb_joint(joint: np.ndarray, rng: np.random.Generator,
                  strength: float = 0.25) -> np.ndarray:
    """Break conditional independence by mixing in random mass, renormalized."""
    noise = rng.random(joint.shape)
    mixed = (1.0 - strength) * joint + strength * noise / noise.sum()
    return mixed / mixed.sum()


def oracle_suite(seed: int = 0, trials: int = 100) -> OracleSummary:
    toy = toy_alignment_record()
    composed = indirect_attention(toy)

    rng = np.random.default_rng(seed)
    worst = 0.0
    last_joint = None
    for _ in range(trials):
        nx = int(rng.integers(2, 7))
        ny = int(rng.integers(2, 6))
        nz = int(rng.integers(2, 5))
        joint = factorized_joint(rng, nx, ny, nz)
        report = check_conditional_independence(joint)
        worst = max(worst, report.max_discrepancy)
        last_joint = joint

    perturbed = check_conditional_independence(perturb_joint(last_joint, rng),
                                               tol=1e-9)
    fact_record = record_from_joint(factorized_joint(rng, 5, 4, 3))
    return OracleSummary(
        toy_indirect_hund_r2=float(composed[0, 1]),
        toy_direct_hund_r2=float(toy.de_to_regions[0, 1]),
        identity_trials=trials,
        identity_max_discrepancy=worst,
        perturbed_flagged=not perturbed.consistent,
        perturbed_discrepancy=perturbed.max_discrepancy,
        factorized_cycle_loss=cycle_loss(fact_record),
    )
