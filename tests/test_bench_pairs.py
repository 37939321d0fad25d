"""tools/bench_pairs.py: the paired-run statistics, and one dry run."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_and_regressions_by_direction():
    lower = bench_pairs.summarize([10.0, 11.0, 12.0, 13.0], [8.0, 12.0, 9.0, 9.5],
                                  "lower", 0.15)
    assert lower["wins"] == 3 and lower["parent_median"] == 11.5
    assert lower["parent_iqr"] == pytest.approx(1.5)
    assert lower["relative_change"] == pytest.approx(9.25 / 11.5 - 1)
    assert not lower["regressed"]
    higher = bench_pairs.summarize([100.0, 100.0], [70.0, 130.0], "higher", 0.2)
    assert higher["wins"] == 1 and not higher["regressed"]
    assert bench_pairs.summarize([100.0], [75.0], "higher", 0.2)["regressed"]


def test_claim_needs_gain_wins_and_a_move_beyond_the_parent_iqr():
    parent = [3.0, 3.1, 3.2, 3.1, 3.0, 3.2, 3.1, 3.0, 3.1, 3.2]
    won = bench_pairs.summarize(parent, [2.2] * 9 + [3.3], "lower", 0.15)
    assert bench_pairs.judge_claim(won, 0.2)["holds"]
    assert not bench_pairs.judge_claim(won, 0.4)["holds"]            # too small a gain
    lost = bench_pairs.summarize(parent, [2.2] * 8 + [3.3] * 2, "lower", 0.15)
    assert not bench_pairs.judge_claim(lost, 0.2)["holds"]           # 8 of 10 wins
    spread = bench_pairs.summarize([1.0, 1.0, 5.0, 5.0], [2.0] * 4, "lower", 0.15)
    assert not bench_pairs.judge_claim(spread, 0.2)["holds"]         # inside the IQR


def test_dry_run_of_one_pair_writes_the_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", ROOT, "--change", ROOT, "--workload", "index_cold",
                             "--pairs", "1", "--seconds", "0.5", "--seed", "2",
                             "--claim", "index_cold.op_p50_ms:0.0", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["env"]) == {"parent", "change"}
    assert report["env"]["parent"]["numpy"] == report["env"]["change"]["numpy"]
    cold = report["workloads"]["index_cold"]
    assert cold["failed"] == {"parent": [0], "change": [0]}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        gated = [m["name"] for m in json.load(fh)["end_to_end"]]
    for name in gated:
        assert len(cold[name]["parent"]) == len(cold[name]["change"]) == 1
        assert cold[name]["wins"] in (0, 1)
    assert report["claim"]["metric"] == "op_p50_ms" and report["claim"]["pairs"] == 1
    assert "claim index_cold.op_p50_ms" in capsys.readouterr().out
