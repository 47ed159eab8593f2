"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import hashlib
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def program_bytes(name: str, seed: int) -> list[str]:
    return [case.program.text() for case in workloads.build(name, seed)]


def test_same_seed_same_bytes_other_seed_other_bytes():
    for name in workloads.WORKLOADS:
        first = program_bytes(name, 7)
        assert program_bytes(name, 7) == first
        other = program_bytes(name, 8)
        assert len(other) == len(first)
        assert all(a != b for a, b in zip(first, other))


def test_generated_programs_parse_with_the_stated_sizes():
    from herbrand.program import parse_program

    for name in workloads.WORKLOADS:
        for case in workloads.build(name, 0):
            universe, graph = parse_program(case.program.text())
            assert graph.n == len(case.program.nodes)
    wide = workloads.build("analyze-wide", 0)
    sizes = [len(parse_program(c.program.text())[0].terms) for c in wide]
    assert sizes[0] == 272 and sizes[-1] == 1640


class FakeCli:
    """Stands in for ``herbrand.cli``: case 0 answers right, case 1 exits 2,
    case 2 prints a corrupted report, case 3 raises."""

    def __init__(self, good: str):
        self.good = good

    def main(self, argv):
        case = int(argv[0])
        if case == 3:
            raise RuntimeError("boom")
        print(self.good if case != 2 else self.good.replace("ok", "OK"), end="")
        return 2 if case == 1 else 0


def test_checker_counts_bad_exit_corrupted_stdout_and_crash_as_failures():
    good = reference.verify_text(4, 2)
    expected = [hashlib.sha256(good.encode()).hexdigest()] * 4
    records: Counter = Counter()
    latencies: list[float] = []
    for _ in range(2):
        worker.one_pass(FakeCli(good), [["0"], ["1"], ["2"], ["3"]], records, latencies, [], lambda: None)
    rows = [[i, rc, digest, n] for (i, rc, digest), n in records.items()]
    assert run.count_failures(rows, expected) == (8, 6)
    assert len(latencies) == 8


def test_self_time_is_duration_minus_direct_children():
    # main [0, 10] -> solve [1, 7] -> meet [2, 3], meet [4, 6]; render [8, 9]
    names = ["main", "solve", "meet", "meet", "render"]
    parents = [-1, 0, 1, 1, 0]
    starts = [0.0, 1.0, 2.0, 4.0, 8.0]
    ends = [10.0, 7.0, 3.0, 6.0, 9.0]
    got = tracer.self_times(names, parents, starts, ends)
    assert got == {"main": [1, 3.0], "solve": [1, 3.0], "meet": [2, 3.0], "render": [1, 1.0]}
    assert sum(s for _, s in got.values()) == ends[0] - starts[0]


def test_tracer_records_layers_and_restores_originals(tmp_path):
    import herbrand.cli
    import herbrand.congruence
    import herbrand.dataflow
    import workloads as w

    mop = sys.modules["herbrand.mop"]  # the package rebinds ``herbrand.mop`` to a function

    case = w.build("analyze-deep", 0)[0]
    path = tmp_path / "p.dfg"
    path.write_text(case.program.text())
    def looked_up():
        return (herbrand.cli.main, herbrand.dataflow.meet, mop.meet, herbrand.congruence.meet,
                mop.solve_jacobi, herbrand.congruence.Partition.__init__)

    originals = looked_up()
    t = tracer.Tracer()
    t.install()
    try:
        # every module that imported a traced name sees the wrapper
        assert all(now is not before for now, before in zip(looked_up(), originals))
        records: Counter = Counter()
        worker.one_pass(herbrand.cli, [case.argv(str(path))], records, [], [], lambda: None)
    finally:
        t.uninstall()
    assert looked_up() == originals
    summary = t.summary()
    assert summary["cli.main.calls"] == 1
    assert summary["dataflow.iterations"] > 0
    assert summary["dataflow.composite_step.calls"] == summary["dataflow.iterations"] + 1
    assert summary["transfer.assign_transfer.calls"] > 0
    root = t.ends[0] - t.starts[0]
    assert abs(summary["layers.self_s"] - root) < 1e-9 * max(1, len(t.starts))


def test_tracer_skips_names_that_no_longer_exist(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (("dataflow", "gone", "dataflow.gone"),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert "dataflow.gone" not in t.span_names


def test_frontier_counts_on_a_shared_state_chain(tmp_path):
    import herbrand.cli
    import gen
    import random

    program = gen.shared_chain(random.Random(0), 4)
    path = tmp_path / "chain.dfg"
    path.write_text(program.text())
    t = tracer.Tracer()
    t.install()
    try:
        worker.one_pass(herbrand.cli, [["verify", str(path), "--max-len", "15"]], Counter(), [], [], lambda: None)
    finally:
        t.uninstall()
    summary = t.summary()
    # path lengths 0..8 of a 4-diamond chain hold 1, 2, 2, 4, 4, 8, 8, 16, 16 paths
    assert summary["mop.frontier_entries"] == 61
    assert summary["mop.distinct_states"] < summary["mop.frontier_entries"]


def test_reference_matches_the_digests_recorded_at_the_seed_commit():
    digests = run.load_digests()
    checked = 0
    for name in ("analyze-wide", "analyze-deep"):
        for case in workloads.build(name, 0):
            recorded = digests[run.call_key(case)]
            assert run.sha256(reference.analyze_json(case.program)) == recorded
            checked += 1
    assert checked == 10


def test_reference_verify_text_matches_herbrand(tmp_path):
    import herbrand.cli

    for case in workloads.build("verify-paths", 0)[:1] + workloads.build("verify-paths", 0)[4:5]:
        path = tmp_path / "p.dfg"
        path.write_text(case.program.text())
        records: Counter = Counter()
        worker.one_pass(herbrand.cli, [case.argv(str(path))], records, [], [], lambda: None)
        ((_, rc, digest),) = records
        assert rc == 0
        assert digest == run.expected_digest(case, {})


def test_tail_percentile_leaves_ten_samples_above_at_the_minimum_call_count():
    values = [float(i) for i in range(worker.MIN_CALLS)]
    tail = run.percentile(values, run.TAIL)
    assert sum(v > tail for v in values) >= 10


def test_benchmark_json_lists_exactly_the_metrics_run_prints():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    fake = {"passes": [1.0], "traced_passes": [1.0], "trace": {}, "peak_alloc_bytes": 0}
    printed = {name: unit for name, (_, unit) in run.per_layer(fake).items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == printed
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
