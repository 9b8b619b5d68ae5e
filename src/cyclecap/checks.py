"""Central finite-difference gradient checking, and the canned
verification suites behind the gradcheck and oracle-check commands.

``check_gradients`` differences forward passes only, so it stays
independent of the tape machinery it validates. The gradient suite drives
every op that training records (the image projection, the caption encoder
over padding, a teacher-forced unroll of each decoder kind from its raw key
rows over padding, and the output layer's likelihood under dropout), the
consistency loss, and the composed stage-one and stage-two losses, at batch
sizes 1 and 2, through it. Each graph's outputs are read through fixed
random probes (``_probes``), which seed the taped backward, so that every
output's gradient is checked. The oracle suite exercises the hand-worked
composed-attention example and the conditional-independence identity on
random factorized joint tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .cycle import (check_conditional_independence, cycle_loss, cycle_loss_graph,
                    factorized_joint, indirect_attention, record_from_joint,
                    toy_alignment_record)
from .data import FeatureGrid, TripleRecord, make_batch
from .models import (CaptionEncoder, ImageCaptioner, ImageProjection, ModelBundle, ModelDims,
                     unroll)
from .tensor import HeadKeys, Parameter, Tape, Tensor, decoder_unroll, parameters
from .training import nll_loss, stage2_loss_graph

# the sizes every gradient check runs at
SIZES = dict(hidden=4, embed=4, attn=4, proj=4, regions=3, feature_dim=3, vocab=8, seq=3)

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


def _probes(shapes: Sequence[tuple[int, ...]], seed: int = 7) -> list[np.ndarray]:
    """One fixed random probe array per output shape, uniform in [-1, 1)
    and drawn from ``seed``, so every rebuild of a graph reads it through
    the same probes."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, size=shape) for shape in shapes]


def check_gradients(name: str,
                    build: Callable[[], Tensor | Sequence[Tensor]],
                    params: Mapping[str, Parameter],
                    h: float = 1e-5) -> GradCheckResult:
    """Compare taped gradients against central differences, element by
    element of every parameter, of the sum of ``build()``'s outputs (one
    Tensor or a sequence of them) each read through its ``_probes`` array:
    the taped backward takes the probes as its seeds, and the differences
    read the same probed sum in plain numpy. ``build`` must rebuild the
    graph from scratch on every call and be deterministic (seed any dropout
    rng inside the closure)."""
    def outputs() -> list[Tensor]:
        out = build()
        return [out] if isinstance(out, Tensor) else list(out)

    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        outs = outputs()
        probes = _probes([o.shape for o in outs])
        tape.backward(list(zip(outs, probes)))
    taped = {k: p.grad.copy() for k, p in params.items()}

    def probed() -> float:
        return sum(float((pr * o.data).sum()) for o, pr in zip(outputs(), probes))

    result = GradCheckResult(name)
    for key, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = probed()
            flat[i] = orig - h
            down = probed()
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * h)
        result.errors[key] = max_rel_error(taped[key].reshape(-1), fd)
    return result


def _p(rng, shape, name):
    return Parameter(rng.uniform(-0.8, 0.8, size=shape), name)


def _fused_cases(rng: np.random.Generator, p: dict):
    """One graph per training op, over a batch of two records: the image
    projection; the caption encoder, both GRU directions from the embedding
    table; one ``decoder_unroll`` per decoder kind, from the embedding
    table, the initial-state projections and each head's raw key rows and
    scorer, the soft decoder's head over regions and the dual decoder's
    second head over caption states; and the output layer's likelihood
    (``training.nll_loss``) under dropout. Record 0's last region (all
    zero), its last step, and in each unroll head its last key, is padding,
    masked out."""
    hidden, embed, attn, steps, keys, vocab = p["hidden"], p["embed"], p["attn"], \
        p["seq"], p["regions"], p["vocab"]
    mask = np.ones((2, keys), dtype=bool)
    mask[0, -1] = False
    step_mask = np.ones((2, steps), dtype=bool)
    step_mask[0, -1] = False
    dims = ModelDims(p["feature_dim"], vocab, proj_dim=p["proj"], embed_dim=embed,
                     hidden_dim=hidden)
    proj = ImageProjection(rng, dims.feature_dim, dims.proj_dim, "proj")
    features = rng.standard_normal((2, keys, dims.feature_dim))
    features[0, -1] = 0.0
    encoder = CaptionEncoder(rng, vocab, dims, "encoder")
    ids = rng.integers(0, vocab, size=(2, steps))
    cases = [("project", lambda: proj.project(features), parameters(proj)),
             ("encode", lambda: encoder.encode(ids, step_mask), parameters(encoder))]
    for kind, key_dims in (("soft", [p["proj"]]), ("dual", [p["proj"], 2 * hidden])):
        table = _p(rng, (vocab, embed), "table")
        initial = [(_p(rng, (key_dims[0], hidden), f"w_{half}"), _p(rng, (hidden,), f"b_{half}"))
                   for half in ("h0", "c0")]
        lstm = [_p(rng, (sum(key_dims) + embed + hidden, 4 * hidden), "w"),
                _p(rng, (4 * hidden,), "b")]
        heads = [HeadKeys(_p(rng, (2, keys, d), f"rows{k}"), mask,
                          _p(rng, (d, attn), f"w_key{k}"), _p(rng, (attn,), f"b{k}"),
                          _p(rng, (attn, hidden), f"w_query{k}"), _p(rng, (attn,), f"combine{k}"))
                 for k, d in enumerate(key_dims)]

        def unroll_loss(table=table, initial=initial, lstm=lstm, heads=heads):
            return decoder_unroll(table, ids, initial, *lstm, heads, step_mask)

        cases.append((f"decoder_unroll-{kind}", unroll_loss,
                      parameters(table, lstm, initial, heads)))
    states = _p(rng, (steps, 2, hidden), "states")
    w_out, b_out = _p(rng, (hidden, vocab), "w_out"), _p(rng, (vocab,), "b_out")

    def nll():
        loss, _ = nll_loss(states, w_out, b_out, ids, step_mask, 0.5,
                           np.random.default_rng(123))
        return loss

    cases.append(("nll-dropout", nll, parameters(states, w_out, b_out)))
    return cases


def _make_triple(rng: np.random.Generator, p: dict, regions: int, seq: int,
                 image_id: str) -> TripleRecord:
    grid = FeatureGrid(rng.standard_normal((regions, p["feature_dim"])))
    en = [1] + [int(x) for x in rng.integers(4, p["vocab"], size=seq)] + [2]
    de = [1] + [int(x) for x in rng.integers(4, p["vocab"], size=seq)] + [2]
    return TripleRecord(image_id=image_id, features=grid,
                        en_ids=tuple(en), de_ids=tuple(de))


def gradient_suite(seed: int = 0) -> list[GradCheckResult]:
    """Run every gradient check at ``SIZES``, each over every element of its
    parameters. The fused ops run over a batch of two records; the
    composed graphs run at B = 1 and at B = 2, whose records differ in
    caption lengths and region counts, so padding is differentiated too."""
    p = SIZES
    rng = np.random.default_rng(seed)
    results = []

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
            states, region_rows = unroll(decoder, [captioner.project(batch.features)],
                                         [batch.region_mask], batch.en_ids)
            loss, _ = nll_loss(states, decoder.w_out, decoder.b_out, batch.en_ids[:, 1:],
                               batch.en_mask[:, 1:])
            return [loss, *region_rows]

        results.append(check_gradients(f"models/captioner-nll{tag}", captioner_loss,
                                       parameters(captioner)))
        results.append(check_gradients(
            f"training/stage2-composed{tag}",
            lambda batch=batch: [out for out, _ in stage2_loss_graph(bundle, batch, 1.0)],
            parameters(bundle)))

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
