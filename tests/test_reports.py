import pytest

from sphertrans.reports import FAIL, PASS, REFINED, InequalityRecord, summarize


def _records(rid, statuses):
    return [InequalityRecord(rid, 0.0, float(k), float(k), status, {"trial": k})
            for k, status in enumerate(statuses)]


class TestSummarize:
    def test_refined_pass_counts_as_pass_and_refined(self):
        entry = summarize(_records("a", [PASS, REFINED, FAIL]), {})["a"]
        assert (entry["trials"], entry["passes"], entry["refined"], entry["fails"]) == (3, 2, 1, 1)
        assert entry["pass_rate"] == pytest.approx(2 / 3)
        assert entry["min_slack"] == 0.0
        assert entry["min_slack_fingerprint"] == {"trial": 0}

    @pytest.mark.parametrize("statuses, required, ok", [
        ([PASS, REFINED], 1.0, True),
        ([PASS, REFINED, FAIL], 1.0, False),
        ([PASS] * 18 + [REFINED, FAIL], 0.95, True),   # 19 of 20: the refined pass counts
        ([PASS] * 17 + [REFINED, FAIL, FAIL], 0.95, False),
    ])
    def test_ok_against_required_rate(self, statuses, required, ok):
        entry = summarize(_records("a", statuses), {"a": required})["a"]
        assert entry["required_pass_rate"] == required
        assert entry["ok"] is ok

    def test_required_rate_defaults_to_one(self):
        summary = summarize(_records("b", [PASS, FAIL]) + _records("a", [REFINED]), {"a": 0.95})
        assert list(summary) == ["a", "b"]
        assert summary["b"]["required_pass_rate"] == 1.0
        assert not summary["b"]["ok"]

    def test_the_first_record_of_minimum_slack_gives_the_fingerprint(self):
        # fuzz --witness replays the trial of this fingerprint
        slacks = [0.5, -1.0, 2.0, -1.0, -1.0]
        records = [InequalityRecord("a", 0.0, s, s, PASS, {"trial": k})
                   for k, s in enumerate(slacks)]
        entry = summarize(records, {})["a"]
        assert entry["min_slack"] == -1.0
        assert entry["min_slack_fingerprint"] == {"trial": 1}

    def test_an_id_of_refined_passes_only(self):
        entry = summarize(_records("a", [REFINED] * 3), {})["a"]
        assert (entry["trials"], entry["passes"], entry["refined"], entry["fails"]) == (3, 3, 3, 0)
        assert entry["pass_rate"] == 1.0
        assert entry["ok"] is True
