"""CLI surface of ``repro modelcheck`` and ``repro repair``."""

import json
import os

from repro.__main__ import main


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestModelcheckCommand:
    def test_single_litmus_case_passes(self, capsys):
        rc = main(["modelcheck", "unflushed-clean", "--json", "--samples", "1"])
        doc = _json_out(capsys)
        assert rc == 0
        assert doc["schema"] == "repro.modelcheck/1"
        assert doc["agree"] is True
        # default design for a litmus target is the full design matrix
        assert doc["designs"] == sorted(
            ["intel-x86", "hops", "strandweaver", "no-persist-queue", "non-atomic"]
        )
        assert all(r["agree"] for r in doc["reports"])

    def test_single_design_restriction(self, capsys):
        rc = main(
            ["modelcheck", "unflushed-clean", "--design", "strandweaver",
             "--json", "--samples", "0"]
        )
        doc = _json_out(capsys)
        assert rc == 0
        assert doc["designs"] == ["strandweaver"]
        assert len(doc["reports"]) == 1

    def test_seeded_mutation_fails_the_gate(self, capsys):
        rc = main(
            ["modelcheck", "unflushed-clean", "--design", "strandweaver",
             "--mutate", "drop-barrier", "--json", "--samples", "0"]
        )
        doc = _json_out(capsys)
        assert rc == 1
        assert doc["agree"] is False
        assert doc["mutation"] == "drop-barrier"
        assert doc["reports"][0]["divergences"]

    def test_text_output_summarises(self, capsys):
        rc = main(
            ["modelcheck", "unflushed-clean", "--design", "strandweaver",
             "--samples", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "modelcheck OK" in out

    def test_workload_target_is_accepted(self, capsys):
        rc = main(
            ["modelcheck", "queue", "--design", "strandweaver",
             "--ops", "2", "--json", "--samples", "0"]
        )
        doc = _json_out(capsys)
        assert rc == 0
        assert doc["reports"][0]["n_stores"] > 0

    def test_unknown_target_is_a_usage_error(self, capsys):
        rc = main(["modelcheck", "no-such-case", "--json"])
        assert rc == 2
        assert "unknown target" in capsys.readouterr().err

    def test_unknown_mutation_is_a_usage_error(self, capsys):
        rc = main(["modelcheck", "unflushed-clean", "--mutate", "bogus"])
        assert rc == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_unknown_design_is_a_usage_error(self, usage_error):
        err = usage_error(["modelcheck", "unflushed-clean", "--design", "tso"])
        assert "'tso'" in err

    def test_missing_target_is_a_usage_error(self, usage_error):
        assert "target" in usage_error(["modelcheck"])


class TestRepairCommand:
    def test_verified_repair_exits_zero(self, capsys):
        rc = main(["repair", "overser-double-clwb", "--json"])
        doc = _json_out(capsys)
        assert rc == 0
        assert doc["schema"] == "repro.repair/1"
        assert doc["verified"] is True
        assert doc["cycles_saved"] is not None and doc["cycles_saved"] > 0

    def test_design_defaults_to_the_cases_native_design(self, capsys):
        rc = main(["repair", "overser-b2b-sfence", "--json"])
        doc = _json_out(capsys)
        assert rc == 0
        assert doc["design"] == "intel-x86"

    def test_unrepairable_case_exits_nonzero(self, capsys):
        rc = main(["repair", "race-unlocked", "--json"])
        doc = _json_out(capsys)
        assert rc == 1
        assert doc["verified"] is False
        assert doc["unrepaired"]

    def test_apply_writes_the_repaired_trace(self, capsys, tmp_path):
        out = os.path.join(str(tmp_path), "fixed.json")
        rc = main(["repair", "unflushed-no-clwb", "--apply", out, "--json"])
        assert rc == 0
        _json_out(capsys)  # drain stdout
        doc = json.load(open(out, encoding="utf-8"))
        assert doc["schema"] == "repro.repair/1-trace"
        assert doc["edits"]
        kinds = [op["kind"] for t in doc["threads"] for op in t]
        assert "CLWB" in kinds

    def test_corpus_is_not_a_repair_target(self, capsys):
        rc = main(["repair", "corpus", "--json"])
        assert rc == 2
        assert "unknown repair target" in capsys.readouterr().err

    def test_missing_target_is_a_usage_error(self, usage_error):
        assert "target" in usage_error(["repair"])

