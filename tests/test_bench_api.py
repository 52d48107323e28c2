"""The benchmark (bench/) calls collabnet by name: module attributes, the
methods its tracer wraps, and the CLI's commands and options. This runs one
small pass of each workload the way the benchmark does, so that removing a
name it needs fails here and not first in a benchmark run. bench/ is only
read, never changed."""

import sys
from pathlib import Path

import pytest

from collabnet import corpus, syngen

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no __pycache__ in bench/
    monkeypatch.syspath_prepend(str(BENCH))
    import gate
    import passes
    import run
    import spans
    return gate, passes, run, spans


def test_both_workloads_run_traced_on_a_small_input(tmp_path, bench):
    gate, passes, run, spans = bench
    inputs = tmp_path / "input"
    inputs.mkdir()
    cfg = syngen.GenConfig.default(seed=1, n_countries=60, n_papers=600, years=(2008, 2013))
    slices = sorted(gate.tally_truth(run.setup_once(cfg, inputs)))
    ingest = corpus.ingest
    tracer = spans.Tracer()
    tracer.install(passes.TRACED_MODULES)
    try:
        assert corpus.ingest is not ingest
        result = passes.inprocess_pass(inputs / "raw.jsonl", inputs / "map.csv", slices)
        chain = passes.inprocess_chain(tmp_path, slices)
    finally:
        tracer.uninstall()
    assert corpus.ingest is ingest
    assert len(result["snapshots"]) == len(slices) == 12
    assert result["fits"]
    commands = [call["command"] for call in chain["calls"]]
    assert commands == ["ingest"] + ["build"] * 12 + ["stats", "regress", "trends", "trends"]
    assert [call["code"] for call in chain["calls"]] == [0] * 17
    assert {"netbuild.build_network", "metrics.compute_stats", "cli.main"} <= set(
        tracer.self_times())
