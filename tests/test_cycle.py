import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap.checks import check_gradients, perturb_joint
from cyclecap.cycle import (AttentionRecord, check_conditional_independence,
                            cycle_loss, cycle_loss_graph, dump_record,
                            factorized_joint, indirect_attention, parse_record,
                            record_from_joint, toy_alignment_record)
from cyclecap.errors import DataError, DimensionError
from cyclecap.tensor import Parameter


def stochastic(rng, rows, cols):
    m = rng.random((rows, cols)) + 1e-3
    return m / m.sum(axis=1, keepdims=True)


def random_record(rng, m=3, n=4, l=5):
    return AttentionRecord(en_to_regions=stochastic(rng, n, l),
                           de_to_regions=stochastic(rng, m, l),
                           de_to_en=stochastic(rng, m, n))


def test_toy_example_composed_attention():
    record = toy_alignment_record()
    composed = indirect_attention(record)
    assert composed[0, 1] == pytest.approx(0.75, abs=1e-12)
    assert record.de_to_regions[0, 1] == 0.9


def test_identity_mixing_returns_english_attention():
    rng = np.random.default_rng(0)
    a_en = stochastic(rng, 4, 5)
    record = AttentionRecord(en_to_regions=a_en, de_to_regions=stochastic(rng, 4, 5),
                             de_to_en=np.eye(4))
    np.testing.assert_allclose(indirect_attention(record), a_en, atol=1e-15)


def test_one_hot_mixing_selects_a_row():
    rng = np.random.default_rng(1)
    a_en = stochastic(rng, 4, 5)
    b = np.zeros((2, 4))
    b[0, 2] = 1.0
    b[1, 0] = 1.0
    record = AttentionRecord(en_to_regions=a_en, de_to_regions=stochastic(rng, 2, 5),
                             de_to_en=b)
    composed = indirect_attention(record)
    np.testing.assert_allclose(composed[0], a_en[2], atol=1e-15)
    np.testing.assert_allclose(composed[1], a_en[0], atol=1e-15)


def test_cycle_loss_zero_iff_consistent():
    rng = np.random.default_rng(2)
    a_en = stochastic(rng, 4, 5)
    b = stochastic(rng, 3, 4)
    record = AttentionRecord(en_to_regions=a_en, de_to_regions=b @ a_en, de_to_en=b)
    assert cycle_loss(record) == pytest.approx(0.0, abs=1e-15)
    bumped = AttentionRecord(en_to_regions=a_en,
                             de_to_regions=stochastic(rng, 3, 5), de_to_en=b)
    assert cycle_loss(bumped) > 0.0


def test_cycle_loss_hand_value_sqrt_two():
    record = AttentionRecord(en_to_regions=np.array([[0.0, 1.0]]),
                             de_to_regions=np.array([[1.0, 0.0]]),
                             de_to_en=np.array([[1.0]]))
    assert cycle_loss(record) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_taped_and_plain_losses_agree():
    rng = np.random.default_rng(3)
    record = random_record(rng)
    taped = cycle_loss_graph(Parameter(record.de_to_regions[None], "a"),
                             Parameter(record.de_to_en[None], "b"),
                             Parameter(record.en_to_regions[None], "c"),
                             np.ones((1, len(record.de_to_regions)), dtype=bool))
    assert taped.item() == pytest.approx(cycle_loss(record), rel=1e-14)


def test_cycle_loss_gradients_away_from_zero():
    rng = np.random.default_rng(4)
    record = random_record(rng)
    a_de = Parameter(record.de_to_regions[None], "a_de")
    b = Parameter(record.de_to_en[None], "b")
    a_en = Parameter(record.en_to_regions[None], "a_en")
    real = np.ones((1, len(record.de_to_regions)), dtype=bool)
    result = check_gradients("cycle", lambda: cycle_loss_graph(a_de, b, a_en, real),
                             {"a_de": a_de, "b": b, "a_en": a_en})
    assert result.max_error < 1e-3


def test_shape_mismatch_raises():
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionError):
        AttentionRecord(en_to_regions=stochastic(rng, 4, 5),
                        de_to_regions=stochastic(rng, 3, 5),
                        de_to_en=stochastic(rng, 3, 3))
    with pytest.raises(DataError):
        AttentionRecord(en_to_regions=np.array([[0.9, 0.2]]),
                        de_to_regions=np.array([[1.0, 0.0]]),
                        de_to_en=np.array([[1.0]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5))
def test_composition_preserves_row_stochasticity(seed, m, n, l):
    rng = np.random.default_rng(seed)
    composed = indirect_attention(random_record(rng, m, n, l))
    assert (composed >= 0).all()
    np.testing.assert_allclose(composed.sum(axis=1), 1.0, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_cycle_loss_invariant_under_region_permutation(seed):
    rng = np.random.default_rng(seed)
    record = random_record(rng)
    perm = rng.permutation(record.en_to_regions.shape[1])
    permuted = AttentionRecord(en_to_regions=record.en_to_regions[:, perm],
                               de_to_regions=record.de_to_regions[:, perm],
                               de_to_en=record.de_to_en)
    assert cycle_loss(permuted) == pytest.approx(cycle_loss(record), rel=1e-12)


# --- conditional-independence oracle -----------------------------------------

def test_degenerate_chain_identity_exact():
    # Y determined by Z, X uniform given each y: identity holds exactly
    ny = 3
    joint = np.zeros((2, ny, ny))
    for y in range(ny):
        joint[:, y, y] = 0.5 / ny
    report = check_conditional_independence(joint)
    assert report.consistent
    assert report.max_discrepancy == 0.0


def test_random_factorized_tables_satisfy_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        joint = factorized_joint(rng, 4, 3, 2)
        report = check_conditional_independence(joint)
        assert report.consistent
        assert report.max_discrepancy < 1e-12


def test_perturbed_table_is_flagged():
    rng = np.random.default_rng(7)
    joint = factorized_joint(rng, 4, 3, 2)
    report = check_conditional_independence(perturb_joint(joint, rng))
    assert not report.consistent
    assert report.max_discrepancy > 1e-6


def test_zero_probability_events_reported_and_skipped():
    joint = np.zeros((2, 2, 3))
    joint[:, :, :2] = 0.25 / 2  # z=2 never happens
    report = check_conditional_independence(joint)
    assert report.consistent
    assert any("z=2" in s for s in report.skipped_events)


def test_unnormalized_joint_rejected():
    with pytest.raises(DataError):
        check_conditional_independence(np.full((2, 2, 2), 1.0))


def test_factorized_record_has_zero_cycle_loss():
    rng = np.random.default_rng(8)
    for _ in range(10):
        record = record_from_joint(factorized_joint(rng, 5, 4, 3))
        assert cycle_loss(record) < 1e-12


# --- text export ---------------------------------------------------------------

def test_dump_parse_roundtrip_is_byte_identical():
    record = toy_alignment_record()
    text = dump_record(record)
    parsed = parse_record(text)
    assert dump_record(parsed) == text
    np.testing.assert_array_equal(parsed.en_to_regions, record.en_to_regions)
    np.testing.assert_array_equal(parsed.de_to_regions, record.de_to_regions)
    np.testing.assert_array_equal(parsed.de_to_en, record.de_to_en)


def test_dump_roundtrip_on_awkward_floats():
    rng = np.random.default_rng(9)
    record = random_record(rng, 2, 3, 4)
    assert dump_record(parse_record(dump_record(record))) == dump_record(record)


def test_parse_rejects_garbage():
    with pytest.raises(DataError):
        parse_record("not a dump")


@pytest.mark.parametrize("matrix", [np.array([[np.nan, 1.0]]), np.zeros((0, 2))])
def test_non_finite_or_empty_attention_is_data_error(matrix):
    ok = np.array([[0.5, 0.5]])
    with pytest.raises(DataError):
        AttentionRecord(en_to_regions=matrix, de_to_regions=ok, de_to_en=np.ones((1, 1)))


TOY_DUMP = dump_record(toy_alignment_record()).splitlines()  # 10 lines


def toy_dump_with(line: int, text: str) -> str:
    return "\n".join(TOY_DUMP[:line - 1] + [text] + TOY_DUMP[line:])


@pytest.mark.parametrize("text, line", [
    ("\n".join(TOY_DUMP[:6]), 7),                 # cut before a header
    ("\n".join(TOY_DUMP[:4]), 5),                 # cut inside a matrix
    (toy_dump_with(8, "0.0 half 0.0 0.1"), 8),
    (toy_dump_with(7, "de_to_regions one 4"), 7),
    (toy_dump_with(7, "de_to_regions -1 4"), 7),
], ids=["cut-before-header", "cut-inside-matrix", "word-value", "word-count",
        "negative-count"])
def test_malformed_dump_is_data_error_naming_the_line(text, line):
    with pytest.raises(DataError, match=f"^line {line}: "):
        parse_record(text)
