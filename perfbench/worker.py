"""One fresh interpreter of the benchmark.

Usage, from the checkout root: ``python3 perfbench/worker.py MODE WORKLOAD
SEED SECONDS`` with MODE one of

* ``setup``: import ``herbrand``, generate and write the workload's inputs,
  and report the time that took, and the time of one calibration job run
  right after it;
* ``plain``: set up, then call ``herbrand.cli.main`` in a closed loop, one
  call at a time, a whole pass over the workload at a time, until SECONDS
  have passed and at least ``MIN_CALLS`` calls were made;
* ``trace``: the same, alternating untraced passes with passes under the
  layer tracer, then one more pass under ``tracemalloc``.

It prints one JSON line: timings, ``ru_maxrss`` and, for every call, the
exit code and the SHA-256 of its stdout. ``run.py`` checks those. Only
``os``, ``sys`` and ``time`` are imported before set-up is timed, so the
set-up time includes every module ``herbrand`` pulls in.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Enough calls for ten or more above the tail percentile (run.TAIL).
MIN_CALLS = 40
# Stop adding passes after this long even below MIN_CALLS, so the run ends
# well inside its time limit.
HARD_STOP_S = 120.0


def setup(workload: str, seed: int) -> list[list[str]]:
    """Write the workload's programs; return the argv of every call."""
    import workloads

    directory = os.path.join(WORK, workload)
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for i, case in enumerate(workloads.build(workload, seed)):
        path = os.path.join(directory, f"p{i}.dfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(case.program.text())
        argvs.append(case.argv(path))
    return argvs


def one_pass(cli, argvs: list[list[str]], records, latencies: list[float], speed: list[float], calibrate) -> float:
    """Call ``cli.main`` once per argv; return the pass's seconds in calls.

    ``cli.main`` is looked up on every call so that the tracer's wrapper is
    the one called. After each call ``calibrate()`` runs and its time goes
    to ``speed``. ``records`` counts (case index, exit code, stdout SHA-256)
    triples; digests are taken after the pass.
    """
    import contextlib
    import hashlib
    import io

    perf = time.perf_counter
    outcomes = []
    elapsed = 0.0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        t = perf()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed run
            rc = f"exception {type(exc).__name__}"
        latency = perf() - t
        latencies.append(latency)
        elapsed += latency
        outcomes.append((rc, out))
        t = perf()
        calibrate()
        speed.append(perf() - t)
    for i, (rc, out) in enumerate(outcomes):
        records[(i, rc, hashlib.sha256(out.getvalue().encode()).hexdigest())] += 1
    return elapsed


def calibration():
    """A fixed job of the benchmark's own code, timed after every call.

    Its time tracks how fast this machine runs Python at that moment, which
    on a shared machine drifts by half or more within a minute; the program
    under test never changes it (``workloads.calibration_program``).
    """
    import reference
    import workloads

    program = workloads.calibration_program()
    return lambda: reference.analyze_json(program)


def measure(cli, argvs: list[list[str]], calibrate, mode: str, seconds: float) -> dict:
    from collections import Counter

    records: Counter = Counter()
    latencies: list[float] = []
    speed: list[float] = []
    passes: list[float] = []
    result: dict = {}
    begin = time.perf_counter()

    def done() -> bool:
        elapsed = time.perf_counter() - begin
        return elapsed >= HARD_STOP_S or (elapsed >= seconds and len(latencies) >= MIN_CALLS)

    if mode == "plain":
        while not done():
            passes.append(one_pass(cli, argvs, records, latencies, speed, calibrate))
        result["latencies"] = latencies
    else:
        import tracemalloc

        from tracer import Tracer

        tracer = Tracer()
        traced: list[float] = []
        while not done():
            passes.append(one_pass(cli, argvs, records, latencies, speed, calibrate))
            tracer.install()
            try:
                traced.append(one_pass(cli, argvs, records, latencies, speed, calibrate))
            finally:
                tracer.uninstall()
        result["trace"] = tracer.summary()
        result["traced_passes"] = traced
        tracemalloc.start()
        try:
            one_pass(cli, argvs, records, [], [], lambda: None)
            result["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    result["passes"] = passes
    result["speed"] = speed
    result["records"] = [[i, rc, digest, n] for (i, rc, digest), n in records.items()]
    return result


def main() -> None:
    mode, workload, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import herbrand.cli

    argvs = setup(workload, seed)
    output: dict = {"setup_s": time.perf_counter() - t0}
    calibrate = calibration()
    t = time.perf_counter()
    calibrate()
    output["setup_speed"] = time.perf_counter() - t
    if mode != "setup":
        import resource

        output.update(measure(herbrand.cli, argvs, calibrate, mode, seconds))
        # ru_maxrss is in KiB on Linux
        output["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import json

    print(json.dumps(output))


if __name__ == "__main__":
    main()
