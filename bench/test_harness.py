"""Tier-1 checks of the benchmark harness itself (no timing assertions)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import compare, layers, oracle, procs, run, stats
from bench.workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the "highest percentile with >= 10 beyond" rule -------------------------- #
@pytest.mark.parametrize("n, expected", [
    (5, 50), (19, 50), (99, 50), (100, 90), (199, 90), (200, 95), (999, 95),
    (1000, 99), (50000, 99)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_latency_chunks_are_200_samples_with_ten_beyond_their_p95():
    medians, p95s = stats.latency_chunks(np.arange(450.0))
    assert medians == [99.5, 299.5]                 # the 50-sample tail is dropped
    assert all((np.arange(200.0) + base > p95).sum() == stats.MIN_BEYOND
               for base, p95 in zip((0, 200), p95s))
    medians, p95s = stats.latency_chunks(np.arange(50.0))   # shorter than one
    assert medians == [24.5] and len(p95s) == 1
    assert stats.plain_tail(np.arange(400.0)) == (pytest.approx(379.05), 95)


def test_quiet_quartile_sits_on_the_undisturbed_side():
    rates = [100.0] * 6 + [60.0] * 4        # 40 % of the chunks hit a slow spell
    assert stats.quiet_quartile(rates, "higher") == 100.0
    times = [10.0] * 6 + [17.0] * 4
    assert stats.quiet_quartile(times, "lower") == 10.0
    assert stats.quiet_quartile([1.0, 2.0, 9.0], "lower") == 2.0   # too few: median


def test_chunked_rates_are_per_chunk_and_isolate_one_stall():
    done_at = np.arange(1, 101) * 0.01          # 8 units every 10 ms
    done_at[50:] += 5.0                         # one 5 s stall mid-run
    rates = stats.chunked_rates(done_at, np.full(100, 8), 10)
    assert len(rates) == 9
    assert sorted(rates)[1:] == pytest.approx([800.0] * 8)
    assert stats.quiet_quartile(rates, "higher") == pytest.approx(800.0)


# -- /proc parsers -------------------------------------------------------------- #
STAT = ("4242 (python3 -m (repro) serve) S 17 4242 4242 0 -1 4194304 9000 0 0 "
        "0 731 269 0 0 20 0 3 0 123456 99999999 14000 18446744073709551615 "
        "1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
STATUS = "Name:\tpython3\nVmPeak:\t  900000 kB\nVmHWM:\t   56320 kB\nVmRSS:\t   51200 kB\n"


def test_proc_stat_parser_survives_spaces_and_parens_in_the_command_name():
    assert procs.parse_stat_cpu_ticks(STAT) == 731 + 269
    assert procs.parse_stat_ppid(STAT) == 17


def test_proc_status_parser_reads_the_high_water_mark():
    assert procs.parse_status_kb(STATUS, "VmHWM") == 56320
    with pytest.raises(KeyError):
        procs.parse_status_kb(STATUS, "VmSwap")


def test_proc_readers_work_on_this_process():
    assert procs.cpu_seconds([os.getpid()]) > 0.0
    assert procs.peak_rss_mb([os.getpid()]) > 1.0


# -- names, units and BENCHMARK.json -------------------------------------------- #
def test_every_name_and_unit_fits_the_contract_charset():
    names = [*WORKLOADS, *run.END_TO_END, *layers.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = [spec[0] for spec in run.END_TO_END.values()] \
        + [spec[0] for spec in layers.PER_LAYER.values()]
    assert all(UNIT.match(unit) for unit in units)


def test_benchmark_json_repeats_the_harness_tables():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert manifest["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in manifest["per_layer"]} == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert "setup_s" in run.END_TO_END


def test_harness_imports_nothing_items_2_and_3_will_delete():
    forbidden = ["Fast" + "ForwardPlan", "Incremental" + "ForwardPlan",
                 "Quantized" + "ForwardPlan", "Incremental" + "QuantizedPlan",
                 "MultiStream" + "Runtime", "baselines" + ".registry"]
    for source in BENCH.glob("*.py"):
        text = source.read_text()
        assert not [name for name in forbidden if name in text], source.name


# -- compare.py verdicts -------------------------------------------------------- #
def _ledger(values, failed=0):
    return {"schema": compare.SCHEMA,
            "end_to_end": {"latency_p50_us": {"unit": "us", "better": "lower",
                                              "bound": 0.10}},
            "workloads": {"edge_float": {"runs": [
                {"attempted": 1000, "failed": failed,
                 "metrics": {"latency_p50_us": value}} for value in values]}}}


@pytest.mark.parametrize("new, expected", [
    ([100, 101, 99, 100, 102], "same"),
    ([120, 121, 119, 120, 122], "worse"),
    ([80, 81, 79, 80, 82], "better"),
    ([70, 100, 130, 85, 118], "unresolved"),     # spread wider than the bound
])
def test_compare_verdicts(new, expected):
    rows = compare.compare(_ledger([100, 101, 99, 100, 102]), _ledger(new))
    assert rows[0]["verdict"] == expected


def test_compare_direction_follows_the_metric():
    assert compare.verdict([100.0] * 5, [120.0] * 5, "higher", 0.1) == "better"
    assert compare.verdict([100.0] * 5, [80.0] * 5, "higher", 0.1) == "worse"


def test_compare_exits_nonzero_on_worse_or_more_failures(tmp_path, capsys):
    old, slow, broken = (tmp_path / name for name in
                         ("old.json", "slow.json", "broken.json"))
    old.write_text(json.dumps(_ledger([100, 101, 99])))
    slow.write_text(json.dumps(_ledger([130, 131, 129])))
    broken.write_text(json.dumps(_ledger([100, 101, 99], failed=1)))
    assert compare.main([str(old), str(old)]) == 0
    assert compare.main([str(old), str(slow)]) == 1
    assert compare.main([str(old), str(broken)]) == 1
    assert "failed_ops_share" in capsys.readouterr().out


# -- the oracle rejects a corrupted reference ----------------------------------- #
def test_oracle_counts_missing_extra_and_altered_alarms():
    reference = {("s00", 70, 1.5), ("s01", 90, 2.5)}
    assert oracle.check_alarms(sorted(reference), reference) == 0
    assert oracle.check_alarms([("s00", 70, 1.5)], reference) == 1     # missing
    assert oracle.check_alarms([*reference, ("s02", 5, 9.0)], reference) == 1
    assert oracle.check_alarms([*reference, ("s00", 70, 1.5)], reference) == 1
    corrupted = {("s00", 70, np.nextafter(1.5, 2.0)), ("s01", 90, 2.5)}
    assert oracle.check_alarms(sorted(reference), corrupted) == 2


def test_oracle_scores_are_compared_bit_for_bit_nan_prefix_included():
    scores = np.array([np.nan, np.nan, 0.25, 0.5])
    assert oracle.check_scores(scores, scores.copy()) == 0
    assert oracle.check_scores(scores, np.array([np.nan, 0.1, 0.25, 0.5])) == 1
    nudged = scores.copy()
    nudged[3] = np.nextafter(0.5, 1.0)
    assert oracle.check_scores(scores, nudged) == 1
    assert oracle.check_scores(scores, scores[:3]) == 4


def test_oracle_checks_close_summaries():
    good = {"samples_pushed": 100, "samples_scored": 37, "samples_dropped": 0}
    assert oracle.check_summaries({"s00": good}, {"s00": 100}, 64) == 0
    assert oracle.check_summaries({"s00": dict(good, samples_dropped=1)},
                                  {"s00": 100}, 64) == 1
    assert oracle.check_summaries({}, {"s00": 100}, 64) == 1


# -- a --quick pass over all seven workloads writes a valid ledger -------------- #
def test_quick_run_of_every_workload_writes_a_schema_valid_ledger(tmp_path):
    ledger_path = tmp_path / "ledger.json"
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--seconds", "0.5",
         "--out", str(ledger_path)],
        capture_output=True, text=True, timeout=120.0)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    ledger = compare.load_ledger(ledger_path)
    assert set(ledger["workloads"]) == set(WORKLOADS)
    assert set(ledger["end_to_end"]) == set(run.END_TO_END)
    assert {"nproc", "python", "numpy", "blas", "environment"} \
        <= set(ledger["machine"])
    assert set(run.MALLOC_PINS) <= set(ledger["machine"]["environment"])
    for name, entry in ledger["workloads"].items():
        (only,) = entry["runs"]
        assert set(only["metrics"]) == set(run.END_TO_END), name
        assert all(np.isfinite(value) and value > 0
                   for value in only["metrics"].values()), name
        assert only["failed"] == 0 and only["attempted"] >= 1, name
    assert compare.main([str(ledger_path), str(ledger_path)]) == 0
