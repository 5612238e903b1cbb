"""One benchmark process: set birkhoff up, run one workload's items, report.

Usage: python bench/child.py SPEC_JSON

run.py writes the spec and starts this script in a scrubbed environment.
Set-up is timed from just before `import birkhoff.cli` to the end of one
warm-up item, so nothing the harness imports may come before that import
except the calibrator.  In "setup" mode the process stops there; in
"measure" mode it runs items until `seconds` of timed work (or exactly
`limit` items) and writes every outcome, with its wall and reference
seconds (see calibrate.py), to the result file for run.py's oracles.
"""

import sys
import time


def _call_cli(cli, argv):
    """Run cli.main in-process, capturing stderr; never raises."""
    import contextlib
    import io

    err = io.StringIO()
    outcome = {"rc": None, "error": None}
    with contextlib.redirect_stderr(err):
        try:
            outcome["rc"] = cli.main(argv)
        except SystemExit as stop:
            outcome["rc"] = stop.code if isinstance(stop.code, int) else 2
        except Exception as exc:  # the item fails; the run goes on
            outcome["error"] = f"{type(exc).__name__}: {exc}"
    outcome["stderr"] = err.getvalue()
    return outcome


def _run_calls(call, seconds, limit, recorder, collect=None):
    """Closed loop, one client: item k starts when item k-1 has returned.

    collect(k, outcome) runs after the item, outside its timed interval.
    """
    outcomes = []
    start = time.perf_counter()
    k = 0
    while k < limit if limit is not None else (k == 0 or time.perf_counter() - start < seconds):
        if recorder is not None:
            recorder.item = k
        t = time.perf_counter()
        outcome = call(k)
        outcome["t"] = (t, time.perf_counter())
        if collect is not None:
            collect(k, outcome)
        outcomes.append(outcome)
        k += 1
    return time.perf_counter() - start, outcomes


def read_report(path, rc):
    """The K values and D2 of a normalize report, or the reason they are missing."""
    import json

    if rc != 0:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        return {key: report[key] for key in ("K2200", "K1111", "K0022", "D2")}
    except (OSError, ValueError, KeyError, TypeError) as err:
        return f"unreadable report: {type(err).__name__}: {err}"


def _probe_cross_check(result):
    """Run the model point that trips d2_closed's debug cross-check."""
    from birkhoff import rtbpmodel
    from workloads import CROSS_CHECK_REPRODUCER, OMEGA3

    mu, q, Q, A, w = CROSS_CHECK_REPRODUCER
    probe = {"point": CROSS_CHECK_REPRODUCER, "error": None}
    try:
        probe["status"] = rtbpmodel.stability_verdict(
            rtbpmodel.ModelParams(mu, q, Q, A), w, OMEGA3).status.value
    except Exception as exc:  # the defect under watch
        probe["error"] = f"{type(exc).__name__}: {exc}"
    result["cross_check_probe"] = probe


def scan_dense(spec, cli):
    from workloads import scan_argv

    specs, steps, work = spec["specs"], spec["steps"], spec["work"]

    def warm_up():
        return _call_cli(cli, scan_argv(specs[0], 2, f"{work}/warm-up.csv"))

    def item(k):
        out = f"{work}/scan-{k}.csv"
        outcome = _call_cli(cli, scan_argv(specs[k % len(specs)], steps, out))
        outcome.update(spec_index=k % len(specs), output=out)
        return outcome

    def run(result, recorder):
        result["wall_s"], result["items"] = _run_calls(
            item, spec["seconds"], spec["limit"], recorder)

    return warm_up, run, _probe_cross_check


def normalize_batch(spec, cli):
    pool, work = spec["pool"], spec["work"]

    def argv(src, out):
        return ["normalize", "--input", src, "--output", out]

    def warm_up():
        return _call_cli(cli, argv(pool[0], f"{work}/warm-up.json"))

    out = f"{work}/normalized.json"

    def item(k):
        return _call_cli(cli, argv(pool[k % len(pool)], out))

    def collect(k, outcome):
        # every item overwrites one file: creating thousands would time the
        # file system's directory updates instead of the program
        outcome.update(pool_index=k % len(pool), report=read_report(out, outcome["rc"]))

    def run(result, recorder):
        result["wall_s"], result["items"] = _run_calls(
            item, spec["seconds"], spec["limit"], recorder, collect)

    def probe(result):
        result["malformed"] = [
            dict(_call_cli(cli, argv(path, f"{work}/malformed-out.json")), kind=kind)
            for kind, path in spec["malformed"]]

    return warm_up, run, probe


VERDICT_COLUMNS = (("status", "b"), ("d2", "d"), ("start", "d"), ("end", "d"))


def _read_columns(path, sizes):
    """The verdict columns written chunk by chunk, concatenated."""
    from array import array

    cols = {name: array(code) for name, code in VERDICT_COLUMNS}
    with open(path, "rb") as fh:
        for size in sizes:
            for column in cols.values():
                column.fromfile(fh, size)
    return cols


def verdict_map(spec, cli):
    import math
    from array import array

    from birkhoff import rtbpmodel
    from workloads import OMEGA3, STATUSES, VERDICT_CHUNK, verdict_chunk, verdict_warmup

    seed, seconds, limit = spec["seed"], spec["seconds"], spec["limit"]
    code = {name: i for i, name in enumerate(STATUSES)}
    # a fixed-size run draws its points now, before any tracer is installed:
    # drawing screens each point through the model's coefficients
    drawn = ({} if limit is None else
             {c: verdict_chunk(seed, c)[0] for c in range(-(-limit // VERDICT_CHUNK))})

    def warm_up():
        mu, q, Q, A, w = verdict_warmup(seed)
        rtbpmodel.stability_verdict(rtbpmodel.ModelParams(mu, q, Q, A), w, OMEGA3)

    def run(result, recorder):
        errors, sizes = [], []
        store = f"{spec['work']}/verdicts.bin"
        timed = 0.0
        chunk = 0
        with open(store, "wb") as fh:
            while (chunk * VERDICT_CHUNK < limit if limit is not None
                   else chunk == 0 or timed < seconds):
                points = drawn.get(chunk) or verdict_chunk(seed, chunk)[0]  # untimed
                if limit is not None:
                    points = points[:limit - chunk * VERDICT_CHUNK]
                cols = {name: array(code) for name, code in VERDICT_COLUMNS}
                statuses, d2s, starts, ends = cols.values()
                base = chunk * VERDICT_CHUNK
                started = time.perf_counter()
                for i, (mu, q, Q, A, w) in enumerate(points):
                    if recorder is not None:
                        recorder.item = base + i
                    t = time.perf_counter()
                    try:
                        verdict = rtbpmodel.stability_verdict(
                            rtbpmodel.ModelParams(mu, q, Q, A), w, OMEGA3)
                        status, d2 = code.get(verdict.status.value, -1), verdict.d2
                    except Exception as exc:  # the item fails; the run goes on
                        status, d2 = -1, math.nan
                        errors.append(f"point {base + i}: {type(exc).__name__}: {exc}")
                    ends.append(time.perf_counter())
                    starts.append(t)
                    statuses.append(status)
                    d2s.append(d2)
                timed += time.perf_counter() - started
                # outcomes go to disk chunk by chunk, so memory does not grow
                # with the number of items the run happens to reach
                for column in cols.values():
                    column.tofile(fh)
                sizes.append(len(points))
                chunk += 1
        result.update(wall_s=timed, errors=errors, chunk_size=VERDICT_CHUNK,
                      columns=(store, sizes))

    return warm_up, run, _probe_cross_check


WORKLOAD_RUNNERS = {
    "scan-dense": scan_dense,
    "normalize-batch": normalize_batch,
    "verdict-map": verdict_map,
}


def main(spec_path):
    if not __debug__:
        sys.exit("child.py: run without -O; the determinant cross-check is part "
                 "of what users run")
    from calibrate import Calibrator

    with Calibrator() as cal:
        t0 = time.perf_counter()
        from birkhoff import cli
        t1 = time.perf_counter()

        import json
        import os
        import platform
        import resource

        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        warm_up, run, probe = WORKLOAD_RUNNERS[spec["workload"]](spec, cli)
        t2 = time.perf_counter()
        warm = warm_up()
        t3 = time.perf_counter()
        result = {"warm_up": warm, "python": platform.python_version(), "pid": os.getpid()}

        if spec["mode"] == "measure":
            recorder = undo = None
            if spec["trace"]:
                from tracer import SpanRecorder, install_birkhoff

                recorder = SpanRecorder()
                undo = install_birkhoff(recorder)
            run(result, recorder)
            result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if recorder is not None:
                recorder.uninstall(undo)
                recorder.dump(spec["spans"])
                result.update(span_names=recorder.names, span_count=len(recorder),
                              counts=dict(recorder.counts))
            elif probe is not None:
                probe(result)

    ref = cal.reference_seconds
    result.update(import_s=t1 - t0, warmup_s=t3 - t2,
                  import_ref_s=ref(t0, t1), warmup_ref_s=ref(t2, t3),
                  slowdown=cal.slowdown())
    if "items" in result:
        for item in result["items"]:
            start, end = item.pop("t")
            item.update(s=end - start, ref_s=ref(start, end))
    if "columns" in result:
        cols = _read_columns(*result.pop("columns"))
        pairs = list(zip(cols["start"], cols["end"]))
        result.update(status=cols["status"].tolist(), d2=cols["d2"].tolist(),
                      s=[e - s for s, e in pairs], ref_s=[ref(s, e) for s, e in pairs])

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
