"""Benchmark of the ``herbrand`` command line, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze-wide --seed 1 --seconds 30 --trace 0

Standard library only, single process at a time, one closed-loop client.
Each run starts fresh worker interpreters (``worker.py``): ``SETUP_RUNS``
that only set up, then one that measures. ``--trace 0`` reports the
end-to-end metrics of an untraced worker; ``--trace 1`` reports the
per-layer metrics of a worker that alternates untraced and traced passes.
Every call's exit code and stdout are checked against the known answer.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 10
# The whole run must end within 180 s; a worker that has not ended by then
# is killed and the run fails.
RUN_LIMIT_S = 170.0
# With five programs of distinct cost, the 70th percentile of call latency
# falls in the middle of the fourth program's calls, where a slow moment
# moves it least; at the minimum of 40 calls it leaves 12 calls above it.
TAIL = 0.70
# Timings are scaled to a machine on which the worker's calibration job
# takes this long (see worker.calibration).
NOMINAL_CALIBRATION_S = 0.040

END_TO_END_UNITS = {
    "pass_s": "s",
    "call_p50_ms": "ms",
    "call_p70_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def load_digests() -> dict[str, str]:
    """SHA-256 of ``analyze`` stdout recorded by ``record_digests.py``, keyed
    by the SHA-256 of the call (program text plus arguments)."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        return json.load(f)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call_key(case: workloads.Case) -> str:
    return sha256(case.program.text() + "\0" + " ".join((case.command,) + case.args))


def expected_digest(case: workloads.Case, digests: dict[str, str]) -> str:
    if case.command == "verify":
        max_len = int(case.args[case.args.index("--max-len") + 1])
        return sha256(reference.verify_text(len(case.program.nodes), max_len))
    recorded = digests.get(call_key(case))
    return recorded if recorded is not None else sha256(reference.analyze_json(case.program))


def count_failures(records: list, expected: list[str]) -> tuple[int, int]:
    """(attempted, failed): a call fails unless it exits 0 with the expected
    stdout digest. ``records`` holds ``[case index, exit code, digest, count]``."""
    attempted = failed = 0
    for index, rc, digest, count in records:
        attempted += count
        if rc != 0 or digest != expected[index]:
            failed += count
    return attempted, failed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_worker(mode: str, args: argparse.Namespace, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload, str(args.seed), str(args.seconds)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_factor(result: dict) -> float:
    """Nominal over measured calibration time for the run's calls.

    The calibration job runs right after every call, so its mean time
    follows the machine's speed while the calls ran; scaling the calls'
    times by this factor removes the machine's drift from run to run.
    """
    return NOMINAL_CALIBRATION_S / statistics.mean(result["speed"])


def end_to_end(result: dict, setups: list[dict]) -> dict[str, float]:
    latencies = result["latencies"]
    factor = speed_factor(result)
    return {
        "pass_s": statistics.mean(result["passes"]) * factor,
        "call_p50_ms": statistics.median(latencies) * factor * 1e3,
        "call_p70_ms": percentile(latencies, TAIL) * factor * 1e3,
        "peak_rss_mib": result["peak_rss_mib"],
        # each worker times one calibration job right after its set-up
        "setup_s": statistics.median(w["setup_s"] * NOMINAL_CALIBRATION_S / w["setup_speed"] for w in setups),
    }


# Per-layer figures read straight from the tracer's per-pass totals.
LAYER_UNITS = {
    **{
        f"{layer}.{kind}": unit
        for layer in (
            "transfer.assign_transfer",
            "transfer.nondet_transfer",
            "congruence.Partition",
            "congruence.meet",
        )
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    "transfer.assign_transfer.atom_rhs.self_s": "s",
    "transfer.assign_transfer.pair_rhs.self_s": "s",
    "congruence.partitions_equal.calls": "count",
    "dataflow.composite_step.calls": "count",
    **{
        f"{layer}.self_s": "s"
        for layer in (
            "mop.mop_table",
            "mop.verify_mop_mfp",
            "dataflow.solve",
            "terms.build_universe",
            "program.parse_program",
            "report.emit_report",
            "report.render_json",
            "cli.main",
        )
    },
    "mop.frontier_entries": "count",
    "dataflow.iterations": "count",
}


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    """Per-pass layer figures of the traced passes, with their units.

    A layer a workload never calls reads 0, and so does a ratio whose base
    is 0.
    """
    traced = result["traced_passes"]
    t = Counter({key: value / len(traced) for key, value in result["trace"].items()})
    out = {name: (t[name], unit) for name, unit in LAYER_UNITS.items()}
    frontier, iterations = t["mop.frontier_entries"], t["dataflow.iterations"]
    out["mop.distinct_state_share"] = (t["mop.distinct_states"] / frontier if frontier else 0.0, "ratio")
    out["dataflow.transfers_per_iteration"] = (
        t["dataflow.statement_transfers"] / iterations if iterations else 0.0,
        "count",
    )
    out["trace.peak_alloc_mib"] = (result["peak_alloc_bytes"] / 2**20, "MiB")
    out["trace.overhead_share"] = (statistics.median(traced) / statistics.median(result["passes"]) - 1, "ratio")
    out["trace.attributed_share"] = (t["layers.self_s"] / statistics.mean(traced), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM becomes an exception, on which subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "herbrand", "cli.py")):
        print(f"error: no herbrand sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    cases = workloads.build(args.workload, args.seed)
    digests = load_digests()
    expected = [expected_digest(case, digests) for case in cases]
    try:
        setups = [run_worker("setup", args, deadline) for _ in range(SETUP_RUNS)]
        result = run_worker("trace" if args.trace else "plain", args, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    setups.append(result)
    attempted, failed = count_failures(result["records"], expected)

    if args.trace:
        metrics = per_layer(result)
    else:
        units = END_TO_END_UNITS
        metrics = {name: (value, units[name]) for name, value in end_to_end(result, setups).items()}
    print(f"workload {args.workload} seed {args.seed}: {attempted} calls, {failed} failed"
          f" (fail_share {failed / attempted:.4f}), {len(result['passes'])} untraced passes,"
          f" unscaled median pass {statistics.median(result['passes']):.4f} s,"
          f" speed factor {speed_factor(result):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
