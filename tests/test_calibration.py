"""Calibration error: hand-derived cases, statistical consistency, CSV round trips."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salt.calibration import (
    bin_predictions,
    confidence_of,
    equal_width_ece,
    read_predictions_csv,
    write_reliability_csv,
)
from salt.diffmodel import ForwardPass
from salt.errors import ContractViolation

from oracles import bin_predictions_masked, softmax


def test_hand_derived_four_sample_case():
    r = bin_predictions(np.array([0.75, 0.75, 0.95, 0.95]), np.array([1, 0, 1, 1]), 10)
    assert r.n == 4
    occupied = [b for b in r.bins if b.count]
    assert [b.count for b in occupied] == [2, 2]
    low, high = occupied
    assert low.mean_confidence == 0.75
    assert low.accuracy == 0.5
    assert low.calib_error == 0.25
    assert high.mean_confidence == 0.95
    assert high.accuracy == 1.0
    # 0.95 is not exactly representable in binary; 1.0 - repr(0.95) is an exact
    # subtraction, so the gap differs from decimal 0.05 by 0.95's representation
    # error (under half an ulp at magnitude 1), and the total inherits it
    assert abs(high.calib_error - 0.05) <= math.ulp(1.0)
    assert abs(r.ece - 0.15) <= math.ulp(0.15)


def test_perfectly_calibrated_and_perfectly_confident():
    r = bin_predictions(np.ones(8), np.ones(8), 10)
    assert r.ece == 0.0
    assert r.bins[-1].count == 8
    assert r.bins[-1].accuracy == 1.0


def test_constant_predictor_ece_is_gap():
    rng = np.random.default_rng(0)
    correct = (rng.uniform(size=40) < 0.7).astype(int)
    conf = np.full(40, 0.625)  # exactly representable
    r = bin_predictions(conf, correct, 10)
    assert r.ece == abs(correct.mean() - 0.625)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 20))
def test_permutation_invariance(seed, m_bins):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    conf = rng.uniform(size=n)
    correct = (rng.uniform(size=n) < conf).astype(int)
    perm = rng.permutation(n)
    a = bin_predictions(conf, correct, m_bins)
    b = bin_predictions(conf[perm], correct[perm], m_bins)
    assert a.ece == pytest.approx(b.ece, abs=1e-12)
    assert [x.count for x in a.bins] == [x.count for x in b.bins]


def test_bin_edges_are_right_closed():
    # a confidence exactly on an interior edge belongs to the lower bin
    r = bin_predictions(np.array([0.2, 0.2000000001]), np.array([1, 1]), 10)
    counts = [b.count for b in r.bins]
    assert counts[1] == 1 and counts[2] == 1
    r0 = bin_predictions(np.array([0.0]), np.array([1]), 10)
    assert r0.bins[0].count == 1  # zero joins the first bin by convention


def test_bernoulli_consistency():
    rng = np.random.default_rng(7)
    n = 20000
    conf = rng.uniform(0.5, 1.0, n)
    correct = (rng.uniform(size=n) < conf).astype(int)
    r = bin_predictions(conf, correct, 10)
    assert r.ece <= 0.03


def test_equal_mass_bins_balance_counts():
    rng = np.random.default_rng(3)
    conf = rng.uniform(0.01, 0.99, 100)
    correct = (rng.uniform(size=100) < conf).astype(int)
    r = bin_predictions(conf, correct, 10, equal_mass=True)
    assert [b.count for b in r.bins] == [10] * 10
    assert r.bins[0].lower == 0.0
    assert r.bins[-1].upper == 1.0
    recombined = sum((b.count / r.n) * b.calib_error for b in r.bins)
    assert recombined == r.ece


def test_recombination_is_exact():
    rng = np.random.default_rng(11)
    conf = rng.uniform(size=500)
    correct = (rng.uniform(size=500) < conf).astype(int)
    r = bin_predictions(conf, correct, 10)
    assert sum((b.count / r.n) * b.calib_error for b in r.bins) == r.ece


def test_reliability_csv_roundtrip_recombines(tmp_path):
    rng = np.random.default_rng(5)
    conf = rng.uniform(size=200)
    correct = (rng.uniform(size=200) < conf).astype(int)
    r = bin_predictions(conf, correct, 10)
    path = tmp_path / "reliability.csv"
    write_reliability_csv(r, str(path))
    import csv as csv_mod

    with open(path, newline="") as fh:
        rows = list(csv_mod.DictReader(fh))
    assert len(rows) == 10
    total = sum(int(row["count"]) for row in rows)
    assert total == 200
    recombined = sum(int(row["count"]) / total * float(row["calib_error"]) for row in rows)
    assert recombined == r.ece  # .17g round-trips doubles exactly


def test_confidence_of_matches_softmax_oracle():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(30, 5))
    got = confidence_of(ForwardPass(logits, []))
    assert np.array_equal(got, softmax(logits).max(axis=1))
    assert confidence_of(ForwardPass(np.zeros((1, 4)), []))[0] == pytest.approx(0.25)
    assert confidence_of(ForwardPass(np.array([[10.0, 0.0]]), []))[0] == pytest.approx(
        1.0, abs=1e-4
    )


@pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
def test_confidence_of_is_the_top_softmax_entry_bit_for_bit(n_classes):
    """1 / S equals softmax(out).max(axis=1) with no tolerance: over tied top
    entries, rows with every entry tied, and logit scales from 1e-3 to 1e3."""
    rng = np.random.default_rng(n_classes)
    for scale in np.logspace(-3, 3, 13):
        z = rng.normal(size=(40, n_classes)) * scale
        top = z.max(axis=1)
        z[:8, 0] = top[:8]
        z[:8, 1] = top[:8]
        z[8:12] = top[8:12, None]
        got = confidence_of(ForwardPass(z, []))
        assert np.array_equal(got, softmax(z).max(axis=1)), scale


def _bits(report):
    stats = [(b.lower, b.upper, b.mean_confidence, b.accuracy, b.calib_error) for b in report.bins]
    return report.n, report.ece.hex(), [b.count for b in report.bins], [tuple(v.hex() for v in s) for s in stats]


@pytest.mark.parametrize("equal_mass", [False, True])
@pytest.mark.parametrize("m_bins", [1, 3, 10, 15])
def test_bin_predictions_matches_the_masked_loop_bit_for_bit(m_bins, equal_mass):
    """The single grouping pass reproduces the per-bin masked means exactly,
    for bool and float flags, with empty bins, ties and values on the edges,
    0 and 1 among them. With equal-width bins the unchecked equal_width_ece,
    which a training run reads every epoch, has the oracle's ece bits."""
    rng = np.random.default_rng(2 * m_bins + equal_mass)
    empty_bins = 0
    for case in range(40):
        n = int(rng.integers(1, 700 if case % 2 else 8))
        if case % 4 == 0:  # a narrow band leaves equal-width bins empty
            lo = rng.uniform(0.0, 0.9)
            conf = rng.uniform(lo, lo + 0.1, size=n)
        elif case % 4 == 1:
            conf = rng.uniform(size=n)
        elif case % 4 == 2:  # repeated values, the bin edges, exactly 0 and exactly 1
            conf = np.concatenate([rng.choice(np.linspace(0.0, 1.0, 2 * m_bins + 1), size=n), [0.0, 1.0]])
        else:  # one value: the equal-mass edges collapse
            conf = np.full(n, rng.uniform())
        correct = rng.uniform(size=conf.size) < conf
        for flags in (correct, correct.astype(np.float64)):
            got = bin_predictions(conf, flags, m_bins, equal_mass)
            want = bin_predictions_masked(conf, flags, m_bins, equal_mass)
            assert _bits(got) == _bits(want), case
            if not equal_mass:
                assert equal_width_ece(conf, flags, m_bins).hex() == want.ece.hex(), case
        empty_bins += sum(b.count == 0 for b in got.bins)
    assert m_bins == 1 or empty_bins > 0


def test_confidence_rejects_regression():
    with pytest.raises(ContractViolation):
        confidence_of(ForwardPass(np.zeros((3, 1)), []))


def test_validation_errors():
    ok = np.array([0.5, 0.5])
    flags = np.array([1, 0])
    with pytest.raises(ContractViolation):
        bin_predictions(np.array([1.2, 0.5]), flags, 10)
    with pytest.raises(ContractViolation):
        bin_predictions(np.array([-0.1, 0.5]), flags, 10)
    with pytest.raises(ContractViolation):
        bin_predictions(np.array([np.nan, 0.5]), flags, 10)
    with pytest.raises(ContractViolation):
        bin_predictions(ok, np.array([1, 2]), 10)
    with pytest.raises(ContractViolation):
        bin_predictions(ok, np.array([1, 0, 1]), 10)
    with pytest.raises(ContractViolation):
        bin_predictions(np.array([]), np.array([]), 10)
    with pytest.raises(ContractViolation):
        bin_predictions(ok, flags, 0)


def test_bin_count_must_be_a_positive_integer():
    """A bool, a fractional float or a string bin count is a ContractViolation
    naming m_bins, not a bare TypeError from deep inside numpy."""
    ok, flags = np.array([0.5, 0.5]), np.array([1, 0])
    for m_bins in (True, 2.5, "3", 0, -1):
        for equal_mass in (False, True):
            with pytest.raises(ContractViolation, match="m_bins"):
                bin_predictions(ok, flags, m_bins, equal_mass)
    assert bin_predictions(ok, flags, np.int64(3)) == bin_predictions(ok, flags, 3)


def test_read_predictions_csv(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("confidence,correct\n0.9,1\n0.4,0\n")
    conf, corr = read_predictions_csv(str(path))
    assert np.array_equal(conf, [0.9, 0.4])
    assert np.array_equal(corr, [1.0, 0.0])

    bad = tmp_path / "bad.csv"
    bad.write_text("confidence,correct\n0.9,1\nnope,0\n")
    with pytest.raises(ContractViolation, match="line 3"):
        read_predictions_csv(str(bad))

    cols = tmp_path / "cols.csv"
    cols.write_text("conf,correct\n0.9,1\n")
    with pytest.raises(ContractViolation):
        read_predictions_csv(str(cols))

    empty = tmp_path / "empty.csv"
    empty.write_text("confidence,correct\n")
    with pytest.raises(ContractViolation):
        read_predictions_csv(str(empty))


def test_validation_names_the_bad_input():
    """One scan checks both inputs; the message names the confidences when
    both are bad, as the two checks in turn did."""
    ok, flags = np.array([0.5, 0.5]), np.array([1, 0])
    bad_conf = r"confidences must lie in \[0, 1\]"
    with pytest.raises(ContractViolation, match=bad_conf):
        bin_predictions(np.array([np.nan, 0.5]), flags, 10)
    with pytest.raises(ContractViolation, match=bad_conf):
        bin_predictions(np.array([1.5, 0.5]), np.array([2, 0]), 10)
    with pytest.raises(ContractViolation, match="correct flags must be 0/1"):
        bin_predictions(ok, np.array([1.0, 0.5]), 10)
