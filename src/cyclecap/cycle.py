"""Attention-cycle consistency: direct vs. composed attention and its loss.

A German word attends to image regions directly (one row of the German
word-to-region matrix) and indirectly, by chaining its attention over English
words with each English word's attention over regions. If all three
attentions were perfect the two views would coincide; the training penalty is
the Frobenius distance between them, taped for a whole batch as one record
(``cycle_loss_graph``).

The identity has a probabilistic reading: treating attention rows as
conditional distributions with regions X, English words Y, German words Z,
the composed attention is exactly P(X|Z) = sum_y P(X|y) P(y|Z), which holds
whenever X and Z are conditionally independent given Y. The oracle here
verifies that identity by exact marginalization on explicit joint tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .errors import DataError, DimensionError
from .tensor import Tensor, cycle_distance

ROW_SUM_TOL = 1e-6


def _check_stochastic(name: str, m: np.ndarray) -> None:
    if m.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got shape {m.shape}")
    if not len(m):
        raise DataError(f"{name} has no rows")
    if not np.isfinite(m).all():
        raise DataError(f"{name} has non-finite entries")
    if (m < 0).any():
        raise DataError(f"{name} has negative entries")
    if np.abs(m.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise DataError(f"{name} rows must sum to 1 within {ROW_SUM_TOL}")


@dataclass(frozen=True)
class AttentionRecord:
    """The three attention matrices gathered for one image/caption pair.

    en_to_regions: (N, L) — each English word over image regions.
    de_to_regions: (M, L) — each German word over image regions (direct).
    de_to_en:      (M, N) — each German word over English words.
    All rows are probability distributions.
    """

    en_to_regions: np.ndarray
    de_to_regions: np.ndarray
    de_to_en: np.ndarray

    def __post_init__(self):
        _check_stochastic("en_to_regions", self.en_to_regions)
        _check_stochastic("de_to_regions", self.de_to_regions)
        _check_stochastic("de_to_en", self.de_to_en)
        n, l = self.en_to_regions.shape
        m, l2 = self.de_to_regions.shape
        m2, n2 = self.de_to_en.shape
        if l != l2 or m != m2 or n != n2:
            raise DimensionError(
                f"inconsistent record shapes: en_to_regions {self.en_to_regions.shape}, "
                f"de_to_regions {self.de_to_regions.shape}, de_to_en {self.de_to_en.shape}")


def indirect_attention(record: AttentionRecord) -> np.ndarray:
    """Compose German-to-English with English-to-region attention.

    The product of row-stochastic matrices is row-stochastic, so the result
    is again one distribution over regions per German word.
    """
    return record.de_to_en @ record.en_to_regions


def cycle_loss(record: AttentionRecord) -> float:
    """Frobenius distance between direct and composed region attention.

    Zero exactly when the two matrices agree; the norm uses subgradient 0 at
    that single non-smooth point.
    """
    diff = record.de_to_regions - indirect_attention(record)
    return float(np.sqrt(float((diff * diff).sum())))


def cycle_loss_graph(de_to_regions: Tensor, de_to_en: Tensor,
                     en_to_regions: Tensor, de_mask: np.ndarray) -> Tensor:
    """Taped twin of :func:`cycle_loss` for a batch, as one record
    (``tensor.cycle_distance``): the sum over records of each record's
    Frobenius distance, with subgradient 0 at a zero distance.

    Takes (B, M, L) de_to_regions, (B, M, N) de_to_en and (B, N, L)
    en_to_regions with the (B, M) mask of real German steps. Padded regions
    and English positions need no mask: attention gives them weight 0, so
    they add nothing to either side.
    """
    return cycle_distance(de_to_regions, de_to_en, en_to_regions, de_mask)


def toy_alignment_record() -> AttentionRecord:
    """Hand-worked four-region example: one German word ("hund") over a
    four-word English caption. Its composed attention on region 2 (index 1)
    is 0.1*0.3 + 0.9*0.8 + 0.0*0.4 + 0.0*0.5 = 0.75, against a direct
    attention of 0.9."""
    en_to_regions = np.array([
        [0.4, 0.3, 0.2, 0.1],
        [0.1, 0.8, 0.05, 0.05],
        [0.3, 0.4, 0.2, 0.1],
        [0.2, 0.5, 0.2, 0.1],
    ])
    de_to_regions = np.array([[0.0, 0.9, 0.0, 0.1]])
    de_to_en = np.array([[0.1, 0.9, 0.0, 0.0]])
    return AttentionRecord(en_to_regions=en_to_regions,
                           de_to_regions=de_to_regions,
                           de_to_en=de_to_en)


# ---------------------------------------------------------------------------
# Conditional-independence oracle over explicit joint tables
# ---------------------------------------------------------------------------

@dataclass
class IndependenceReport:
    """Result of checking P(X|Z) = sum_y P(X|y) P(y|Z) on one joint table."""

    max_discrepancy: float
    consistent: bool
    skipped_events: list[str] = field(default_factory=list)


def factorized_joint(rng: np.random.Generator, nx: int, ny: int, nz: int) -> np.ndarray:
    """Random joint P(x,y,z) = P(y) P(x|y) P(z|y), strictly positive."""
    p_y = rng.random(ny) + 0.1
    p_y /= p_y.sum()
    p_x_given_y = rng.random((ny, nx)) + 0.1
    p_x_given_y /= p_x_given_y.sum(axis=1, keepdims=True)
    p_z_given_y = rng.random((ny, nz)) + 0.1
    p_z_given_y /= p_z_given_y.sum(axis=1, keepdims=True)
    joint = np.einsum("y,yx,yz->xyz", p_y, p_x_given_y, p_z_given_y)
    return joint


def check_conditional_independence(joint: np.ndarray,
                                   tol: float = 1e-9) -> IndependenceReport:
    """Verify the chain identity on an explicit P(X,Y,Z) table, indexed [x,y,z].

    Computes P(X|Z), P(X|Y) and P(Y|Z) by exact marginalization and compares
    P(x|z) with sum_y P(x|y) P(y|z) entrywise. Conditioning events with zero
    probability are reported and skipped rather than failing.
    """
    if joint.ndim != 3:
        raise DimensionError(f"joint must be 3-d [x,y,z], got shape {joint.shape}")
    if (joint < 0).any() or abs(float(joint.sum()) - 1.0) > 1e-9:
        raise DataError("joint is not a normalized probability table")
    p_z = joint.sum(axis=(0, 1))
    p_y = joint.sum(axis=(0, 2))
    p_yz = joint.sum(axis=0)
    p_xy = joint.sum(axis=2)

    skipped = [f"P(z={k})=0" for k in np.flatnonzero(p_z == 0)]
    skipped += [f"P(y={j})=0" for j in np.flatnonzero(p_y == 0)]
    z_ok = p_z > 0
    y_ok = p_y > 0

    p_x_given_z = joint.sum(axis=1)[:, z_ok] / p_z[z_ok]
    p_y_given_z = p_yz[np.ix_(y_ok, z_ok)] / p_z[z_ok]
    p_x_given_y = p_xy[:, y_ok] / p_y[y_ok]
    composed = p_x_given_y @ p_y_given_z

    if composed.size == 0:
        return IndependenceReport(0.0, True, skipped)
    max_disc = float(np.abs(p_x_given_z - composed).max())
    return IndependenceReport(max_disc, max_disc <= tol, skipped)


def record_from_joint(joint: np.ndarray) -> AttentionRecord:
    """Build an attention record from a joint table: German words are Z rows,
    English words Y, regions X. All conditioning events must have positive
    probability. For a factorized joint the cycle loss of the result is zero
    up to rounding."""
    p_z = joint.sum(axis=(0, 1))
    p_y = joint.sum(axis=(0, 2))
    if (p_z == 0).any() or (p_y == 0).any():
        raise DataError("record_from_joint needs strictly positive marginals")
    de_to_regions = (joint.sum(axis=1) / p_z).T          # (Z, X)
    de_to_en = (joint.sum(axis=0) / p_z[None, :]).T      # (Z, Y)
    en_to_regions = (joint.sum(axis=2) / p_y[None, :]).T  # (Y, X)
    return AttentionRecord(en_to_regions=en_to_regions,
                           de_to_regions=de_to_regions,
                           de_to_en=de_to_en)


# ---------------------------------------------------------------------------
# Text export: round-trippable matrix dumps
# ---------------------------------------------------------------------------

_SECTIONS = ("en_to_regions", "de_to_regions", "de_to_en")


def dump_record(record: AttentionRecord) -> str:
    """Serialize the three matrices as text; floats use shortest round-trip
    repr so parse(dump(r)) reproduces every value bit-for-bit."""
    out = StringIO()
    out.write("attention-record v1\n")
    for name in _SECTIONS:
        m = getattr(record, name)
        out.write(f"{name} {m.shape[0]} {m.shape[1]}\n")
        for row in m:
            out.write(" ".join(repr(float(v)) for v in row) + "\n")
    return out.getvalue()


def parse_record(text: str) -> AttentionRecord:
    """Inverse of ``dump_record``; a malformed dump is a DataError naming
    its line."""
    lines = text.splitlines()
    if not lines or lines[0] != "attention-record v1":
        raise DataError("not an attention-record dump")
    pos = 0

    def next_line(what: str) -> list[str]:
        nonlocal pos
        pos += 1
        if pos >= len(lines):
            raise DataError(f"line {pos + 1}: dump ends before {what}")
        return lines[pos].split()

    matrices = {}
    for name in _SECTIONS:
        parts = next_line(f"the {name} header")
        if len(parts) != 3 or parts[0] != name \
                or not (parts[1].isdecimal() and parts[2].isdecimal()):
            raise DataError(f"line {pos + 1}: expected the header '{name} ROWS COLS'")
        rows, cols = int(parts[1]), int(parts[2])
        values = []
        for r in range(rows):
            vals = next_line(f"row {r} of {name}")
            if len(vals) != cols:
                raise DataError(f"line {pos + 1}: row {r} of {name} has "
                                f"{len(vals)} values, wanted {cols}")
            try:
                values.append([float(v) for v in vals])
            except ValueError as exc:
                raise DataError(f"line {pos + 1}: {exc}") from exc
        matrices[name] = np.array(values, dtype=np.float64).reshape(rows, cols)
    return AttentionRecord(**matrices)
