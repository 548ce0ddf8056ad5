"""Order statistics and ``compare`` verdicts on synthetic samples."""

from __future__ import annotations

import json
import statistics

import pytest

from bench.stats import spread, summarize, verdict


def test_summarize_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == (3.5, q1, q3, 6)
    assert summarize([7.0]) == (7.0, 7.0, 7.0, 1)
    with pytest.raises(ValueError):
        summarize([])


def test_spread_is_iqr_over_median():
    assert spread([10.0] * 5) == 0.0
    median, q1, q3, _ = summarize([9.0, 10.0, 11.0, 12.0])
    assert spread([9.0, 10.0, 11.0, 12.0]) == pytest.approx((q3 - q1) / median)


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_within_bound_is_same():
    assert verdict(STEADY, [v * 1.05 for v in STEADY], better="lower", bound=0.1) == "same"


def test_beyond_bound_is_worse_in_the_metrics_direction():
    slower = [v * 1.2 for v in STEADY]
    assert verdict(STEADY, slower, better="lower", bound=0.1) == "worse"
    assert verdict(slower, STEADY, better="higher", bound=0.1) == "worse"


def test_gain_needs_nine_pair_wins_in_ten():
    faster = [v * 0.8 for v in STEADY]
    assert verdict(STEADY, faster, better="lower", bound=0.1) == "better"
    # Two of ten pairs lost: the median moved, but the gain is not shown.
    mostly = [v * 0.95 for v in STEADY[:8]] + [v * 1.02 for v in STEADY[8:]]
    assert verdict(STEADY, mostly, better="lower", bound=0.1) == "same"
    assert verdict(STEADY, [v * 0.95 for v in STEADY], better="lower", bound=0.1) == "better"
    # Too few pairs to claim anything beyond the bound.
    assert verdict(STEADY[:5], faster[:5], better="lower", bound=0.1) == "unresolved"


def test_noisy_side_is_unresolved_unless_fully_separated():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(STEADY, noisy, better="lower", bound=0.1) == "unresolved"
    far_better = [1.0, 3.0, 1.5, 2.5, 2.0, 1.2, 2.8, 1.8, 2.2, 2.0]
    assert verdict(noisy, far_better, better="lower", bound=0.1) == "better"
    assert verdict(far_better, noisy, better="higher", bound=0.1) == "better"


def test_exact_metrics_compare_exactly():
    assert verdict([7, 7], [7, 7], better="lower", bound=0.0, exact=True) == "same"
    assert verdict([7, 7], [7, 8], better="lower", bound=0.0, exact=True) == "worse"


def test_zero_base_uses_absolute_bound():
    assert verdict([0.0] * 10, [0.0] * 10, better="lower", bound=0.0) == "same"
    assert verdict([0.0] * 10, [0.1] * 10, better="lower", bound=0.0) == "worse"


def test_compare_refuses_results_of_another_size_or_seed(tmp_path, capsys):
    from bench.__main__ import main

    paths = []
    for name, size, seed in (("base", "full", 42), ("quick", "quick", 42), ("held_out", "full", 7)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"size": size, "seed": seed, "workloads": {}}))
        paths.append(str(path))
    assert main(["compare", paths[0], paths[0]]) == 0
    assert main(["compare", paths[0], paths[1]]) == 2
    assert main(["compare", paths[0], paths[2]]) == 2
    assert "same size and seed" in capsys.readouterr().err
