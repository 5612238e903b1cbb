"""Benchmark entry point: one run of one workload, timed end to end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload scan-dense --seed 1 --seconds 10 --trace 0

Workloads: scan-dense, normalize-batch, verdict-map (see bench/README.md).
With --trace 0 the end-to-end metrics are measured with tracing off; with
--trace 1 a traced child over a fixed number of items gives the per-layer
metrics, next to an untraced child that gives the tracing overhead.  Each
measurement runs in a fresh child process, one at a time.  A human-readable
report goes to stdout, the full record to bench/out/, and the last line of
stdout is the JSON result.  The exit code is 0 only when every item passed
its oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

if not (ROOT / "src" / "birkhoff" / "cli.py").is_file():
    sys.exit(f"bench: no birkhoff sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: set-up-only children per --trace 0 run; setup_s is the median over these
#: and the measuring child
SETUP_PROBES = 4

#: every run ends within this many seconds or fails
RUN_DEADLINE_S = 170.0

#: items of the traced child, fixed so that counts repeat exactly per seed
TRACE_ITEMS = {"scan-dense": 1, "normalize-batch": 400, "verdict-map": 32768}

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "items/s",
                    "latency_p50_ms": "ms", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The run could not be measured."""


def source_identity() -> dict:
    """Commit (when the tree is a git checkout) and a digest of src/birkhoff."""
    commit = None
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).exists():
                commit = (git / ref).read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
        else:
            commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "birkhoff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def child_env() -> dict:
    """Environment without PYTHON* or BIRKHOFF_* settings (so the scan runs
    serially and nothing turns on -O), with a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "BIRKHOFF_"))}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env


class Run:
    """Inputs, children and oracles of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = OUT / f"work-{workload}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.children = 0
        self.screened_out = 0
        self.inputs = self._write_inputs()
        self._expected: dict[int, tuple | None] = {}

    def _write_inputs(self) -> dict:
        w = workloads
        if self.workload == "scan-dense":
            specs, self.screened_out = w.scan_specs(self.seed)
            return {"specs": specs, "steps": w.SCAN_STEPS}
        if self.workload == "normalize-batch":
            self.pool = w.normalize_pool(self.seed)
            paths = []
            for i, entry in enumerate(self.pool):
                paths.append(self._dump(f"pool-{i}.json", entry["payload"]))
            malformed = [(kind, self._dump(f"malformed-{i}.json", payload))
                         for i, (kind, payload) in enumerate(w.malformed_payloads(self.seed))]
            return {"pool": paths, "malformed": malformed}
        return {}

    def _dump(self, name: str, payload) -> str:
        path = self.work / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def child(self, mode: str, trace: bool = False, limit: int | None = None) -> dict:
        """Start one child, wait for it, and return its result record."""
        self.children += 1
        spec = dict(self.inputs, workload=self.workload, mode=mode, trace=trace,
                    seed=self.seed, seconds=self.seconds, limit=limit,
                    work=str(self.work),
                    result=str(self.work / f"result-{self.children}.json"),
                    spans=str(OUT / f"spans-{self.workload}.bin"))
        spec_path = self._dump(f"spec-{self.children}.json", spec)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s")
        try:
            proc = subprocess.run(
                [sys.executable, "-s", str(BENCH / "child.py"), spec_path],
                cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"child killed after {err.timeout:.0f} s") from err
        if proc.returncode != 0:
            raise BenchError(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
        with open(spec["result"], encoding="utf-8") as fh:
            return json.load(fh)

    # -- oracles -------------------------------------------------------------

    def evaluate(self, result: dict) -> dict:
        """attempted, failed, first reasons and per-item wall and reference seconds."""
        check = {"scan-dense": self._check_scans, "normalize-batch": self._check_normalized,
                 "verdict-map": self._check_verdicts}[self.workload]
        attempted, failed, reasons = check(result)
        if "items" in result:
            wall = [item["s"] for item in result["items"]]
            ref = [item["ref_s"] for item in result["items"]]
        else:
            wall, ref = result["s"], result["ref_s"]
        passed = attempted - failed
        return {"attempted": attempted, "failed": failed, "reasons": reasons,
                "latencies_s": wall, "latencies_ref_s": ref,
                "items_per_s": passed / sum(ref), "items_per_wall_s": passed / result["wall_s"]}

    def _check_scans(self, result):
        steps = self.inputs["steps"]
        attempted = failed = 0
        reasons = []
        for item in result["items"]:
            attempted += steps
            path = Path(item["output"])
            if item["error"] or item["rc"] != 0 or not path.exists():
                bad, why = steps, [f"exit {item['rc']!r}, {item['error'] or item['stderr'][:200]}"]
            else:
                spec = self.inputs["specs"][item["spec_index"]]
                bad, why = workloads.check_scan(path.read_text(encoding="utf-8"), spec, steps)
            path.unlink(missing_ok=True)
            failed += bad
            reasons += why
        return attempted, failed, reasons[:10]

    def _check_normalized(self, result):
        attempted = failed = 0
        reasons = []
        lie = workloads.lie_forms()
        for item in result["items"]:
            attempted += 1
            index = item["pool_index"]
            entry = self.pool[index]
            if index not in self._expected:
                self._expected[index] = workloads.expected_k(entry, lie)
            why = item["error"] or workloads.check_normalize(
                entry, self._expected[index], item["rc"], item["stderr"], item["report"])
            if why:
                failed += 1
                reasons.append(f"item {attempted - 1} ({entry['kind']}): {why}")
        return attempted, failed, reasons[:10]

    def _check_verdicts(self, result):
        size = result["chunk_size"]
        statuses, d2s = result["status"], result["d2"]
        failed = 0
        reasons = list(result["errors"][:5])
        for chunk, lo in enumerate(range(0, len(statuses), size)):
            points, rejected = workloads.verdict_chunk(self.seed, chunk)
            self.screened_out += rejected
            names = [workloads.STATUSES[c] if c >= 0 else "error"
                     for c in statuses[lo:lo + size]]
            bad, why = workloads.check_verdicts(chunk, points, names, d2s[lo:lo + size])
            failed += bad
            reasons += why
        return len(statuses), failed, reasons[:10]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def setup_seconds(result: dict) -> tuple[float, float]:
    """(reference, wall) seconds of import plus warm-up item."""
    return (result["import_ref_s"] + result["warmup_ref_s"],
            result["import_s"] + result["warmup_s"])


def measure_end_to_end(run: Run) -> tuple[dict, dict, dict]:
    run.child("setup")  # discarded: leaves the bytecode cache warm
    setups = [setup_seconds(run.child("setup")) for _ in range(SETUP_PROBES)]
    result = run.child("measure")
    setups.append(setup_seconds(result))
    verdict = run.evaluate(result)
    values = {
        "setup_s": statistics.median(ref for ref, _ in setups),
        "items_per_s": verdict["items_per_s"],
        "latency_p50_ms": statistics.median(verdict["latencies_ref_s"]) * 1e3,
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    latencies = verdict["latencies_ref_s"]
    extra = {"latency_samples": len(latencies),
             "wall_clock": {
                 "setup_s": statistics.median(wall for _, wall in setups),
                 "items_per_s": verdict["items_per_wall_s"],
                 "latency_p50_ms": statistics.median(verdict["latencies_s"]) * 1e3},
             "host_slowdown": result["slowdown"]}
    tail = stats.tail_percentile(latencies)
    if tail is not None:
        extra[f"latency_{tail[0]}_ms"] = tail[1] * 1e3
    if "cross_check_probe" in result:
        extra["cross_check_probe"] = dict(result["cross_check_probe"],
                                          screened_out=run.screened_out)
    if "malformed" in result:
        extra["malformed_probe"] = [
            {"kind": m["kind"], "rc": m["rc"], "error": m["error"],
             "meets_exit_3_contract": m["rc"] == 3} for m in result["malformed"]]
    return metrics, verdict, extra


def per_layer_names(span_names) -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    names = []
    for span in span_names:
        names += [(f"{span}.self_share", "ratio"), (f"{span}.calls", "count")]
    names += [("rtbpmodel.series_per_item", "calls/item"),
              ("polyalg.poisson_bracket.term_pairs", "count"),
              ("normalform.generator_terms", "count"),
              ("normalform.resonance_errors", "count"),
              ("cli.output_bytes", "B"),
              ("trace.overhead_ratio", "ratio"),
              ("setup.import_s", "s")]
    return names


def measure_per_layer(run: Run) -> tuple[dict, dict, dict]:
    run.child("setup")  # discarded: leaves the bytecode cache warm
    plain = run.evaluate(run.child("measure"))
    result = run.child("measure", trace=True, limit=TRACE_ITEMS[run.workload])
    verdict = run.evaluate(result)
    columns = tracer.load_spans(OUT / f"spans-{run.workload}.bin", result["span_count"])
    totals = tracer.layer_totals(result["span_names"], columns)
    span_names = [target[0] for target in tracer.birkhoff_targets()]
    wall = result["wall_s"]
    counts = result["counts"]
    values = {}
    for span in span_names:
        entry = totals.get(span, {"calls": 0, "self_s": 0.0})
        values[f"{span}.self_share"] = entry["self_s"] / wall
        values[f"{span}.calls"] = entry["calls"]
    series_calls = totals.get("rtbpmodel.coefficient_series", {"calls": 0})["calls"]
    values["rtbpmodel.series_per_item"] = series_calls / verdict["attempted"]
    for name in ("polyalg.poisson_bracket.term_pairs", "normalform.generator_terms",
                 "normalform.resonance_errors", "cli.output_bytes"):
        values[name] = counts.get(name, 0)
    values["trace.overhead_ratio"] = verdict["items_per_s"] / plain["items_per_s"]
    values["setup.import_s"] = result["import_ref_s"]
    units = dict(per_layer_names(span_names))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    extra = {"layers": totals, "untraced": {k: plain[k] for k in ("attempted", "failed", "items_per_s")},
             "spans": result["span_count"]}
    verdict["failed"] += plain["failed"]
    verdict["attempted"] += plain["attempted"]
    verdict["reasons"] = plain["reasons"] + verdict["reasons"]
    return metrics, verdict, extra


def report(args, identity, metrics, verdict, extra) -> dict:
    lines = [f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} python={identity['python']} nproc={identity['nproc']} "
             f"commit={identity['commit']} source={identity['source_sha256']}"]
    for name, m in metrics.items():
        lines.append(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    error_rate = verdict["failed"] / verdict["attempted"]
    lines.append(f"  {'error_rate':44s} {error_rate:>16.6g} "
                 f"ratio ({verdict['failed']} of {verdict['attempted']} items failed)")
    for key, value in extra.items():
        if key.startswith("latency_p"):
            lines.append(f"  {key:44s} {value:>16.6g} ms ({extra['latency_samples']} samples)")
    for key, value in extra.get("wall_clock", {}).items():
        lines.append(f"  {'wall-clock ' + key:44s} {value:>16.6g} {END_TO_END_UNITS[key]}")
    if "host_slowdown" in extra:
        slow = extra["host_slowdown"]
        lines.append(f"  host slowdown (calibration loop / reference): median {slow['median']:.3f}, "
                     f"range {slow['min']:.3f}..{slow['max']:.3f} over {slow['samples']} loops")
    if "cross_check_probe" in extra:
        probe = extra["cross_check_probe"]
        unit = "scan specs" if args.workload == "scan-dense" else "verdict draws"
        lines.append(f"  known defect, d2_closed debug cross-check at {probe['point']}: "
                     f"{probe['error'] or 'no error, status ' + probe['status']}; "
                     f"{probe['screened_out']} {unit} screened out of this run's inputs")
    for probe in extra.get("malformed_probe", []):
        outcome = f"exit {probe['rc']}" if probe["error"] is None else probe["error"]
        lines.append(f"  malformed input ({probe['kind']}): {outcome}; "
                     f"{'meets' if probe['meets_exit_3_contract'] else 'breaks'} the exit-3 contract")
    if "layers" in extra:
        lines.append(f"  {'span':36s} {'calls':>9s} {'self_s':>12s} {'total_s':>12s}")
        for span, t in extra["layers"].items():
            lines.append(f"  {span:36s} {t['calls']:>9d} {t['self_s']:>12.6f} {t['total_s']:>12.6f}")
    for reason in verdict["reasons"]:
        lines.append(f"  FAILED {reason}")
    print("\n".join(lines))
    return {"correct": verdict["failed"] == 0, "attempted": verdict["attempted"],
            "failed": verdict["failed"], "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sizes(run: Run) -> dict:
    if run.workload == "scan-dense":
        return {"rows_per_scan": run.inputs["steps"], "scan_specs": len(run.inputs["specs"])}
    if run.workload == "normalize-batch":
        return {"pool": len(run.pool), "malformed_probe": len(run.inputs["malformed"])}
    return {"chunk": workloads.VERDICT_CHUNK, "special_every": workloads.SPECIAL_EVERY}


def main(argv=None) -> int:
    args = parse_args(argv)
    identity = dict(source_identity(), python=platform.python_version(),
                    nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, verdict, extra = measure(run)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        run.close()
    line = report(args, identity, metrics, verdict, extra)
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, sizes=sizes(run), identity=identity, extra=extra,
                  reasons=verdict["reasons"])
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
