"""The campaign digest ignores host time and nothing else."""

from __future__ import annotations

from bench.workloads import normalize_campaign_output, sha256_text

CAMPAIGN = """\
Figure 2: histogram schemes
bins  speedup
----  -------
512   2.41

[figure2] completed in 1.8s

Figure 8: exhaustive verification cost (state-space size and time)
protocol  n_cores  n_ops  states  transitions  time_s   verified  completed
--------  -------  -----  ------  -----------  -------  --------  ---------
MESI      1        0      40      70           0.00236  yes       yes
MEUSI     2        4      22,074  60,144       1.93     yes       yes

[figure8] completed in 2.6s

Table 1: configuration
cores  16
"""


def digest(text: str) -> str:
    return sha256_text(normalize_campaign_output(text))


def test_completed_lines_are_dropped():
    normalized = normalize_campaign_output(CAMPAIGN)
    assert "completed in" not in normalized
    assert digest(CAMPAIGN) == digest(CAMPAIGN.replace("completed in 1.8s", "completed in 14.0s"))


def test_figure8_time_column_is_blanked_whatever_its_width():
    slower = CAMPAIGN.replace("0.00236  yes", "0.0123456  yes").replace("1.93     yes", "12.5     yes")
    assert digest(CAMPAIGN) == digest(slower)
    assert "MESI 1 0 40 70 - yes yes" in normalize_campaign_output(CAMPAIGN)


def test_every_other_field_still_counts():
    for before, after in [
        ("22,074", "22,075"),  # a Figure 8 state count
        ("1        0      40", "1        0      41"),  # a Figure 8 cell left of time_s
        ("2.41", "2.42"),  # another figure's value
        ("cores  16", "cores  32"),  # after the Figure 8 table ends
        ("[figure2] completed in 1.8s", "[figure2] FAILED after 1.8s"),
    ]:
        changed = CAMPAIGN.replace(before, after)
        assert (digest(changed) == digest(CAMPAIGN)) == (changed == CAMPAIGN), before
