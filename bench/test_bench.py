"""Tests of the benchmark's own arithmetic and oracles.

Run from the repository root: python -m pytest bench -q
"""

import json
import math
import sys
from pathlib import Path
from types import ModuleType

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from birkhoff import cli, rtbpmodel  # noqa: E402


# -- percentiles ---------------------------------------------------------------

def test_nearest_rank():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 99) == 99
    assert stats.nearest_rank(values, 100) == 100
    assert stats.nearest_rank([7.0], 99.9) == 7.0


@pytest.mark.parametrize("n, label", [
    (10_000, "p99.9"), (9_999, "p99"), (1_000, "p99"), (999, "p95"),
    (200, "p95"), (100, "p90"), (40, "p75"), (39, None), (1, None)])
def test_tail_needs_ten_samples_beyond(n, label):
    tail = stats.tail_percentile([float(i) for i in range(n)])
    assert (tail and tail[0]) == label
    if tail:
        p = float(label[1:])
        assert stats.samples_beyond(n, p) >= stats.MIN_BEYOND
        assert sum(1 for i in range(n) if i > tail[1]) == stats.samples_beyond(n, p)


def test_relative_spread():
    assert stats.relative_spread([1.0] * 10) == 0.0
    assert stats.relative_spread([90.0, 95.0, 100.0, 105.0, 110.0]) == pytest.approx(0.15)


# -- reference seconds ---------------------------------------------------------

def test_reference_seconds_scale_by_local_loop_speed():
    cal = calibrate.Calibrator()
    cal.starts.extend([0.0, 10.0, 20.0])
    cal.durations.extend([1.0, 2.0, 1.0])
    ref = calibrate.REFERENCE_LOOP_S
    # the loop at 10 runs inside: its 2 s are dropped, the rest runs at its speed
    assert cal.reference_seconds(0.5, 15.0) == pytest.approx((9.5 / 2.0 + 3.0 / 2.0) * ref)
    # no loop inside: the two neighbours' mean speed
    assert cal.reference_seconds(12.5, 13.0) == pytest.approx(0.5 / 1.5 * ref)
    # work before the loop at 20 runs at its speed, work after it too
    assert cal.reference_seconds(18.0, 22.0) == pytest.approx((2.0 + 1.0) * ref)
    assert cal.slowdown()["samples"] == 3


def test_calibrator_ticks_and_restores_the_signal():
    import signal
    import time

    with calibrate.Calibrator() as cal:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(cal.durations) >= 4
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- spans and self time -------------------------------------------------------

def _columns(spans):
    names = ["root", "a", "b", "c"]
    return names, {
        "name": [names.index(s[0]) for s in spans],
        "parent": [s[1] for s in spans],
        "item": [0] * len(spans),
        "start": [s[2] for s in spans],
        "end": [s[3] for s in spans],
    }


def test_self_time_subtracts_covered_children():
    names, cols = _columns([
        ("root", -1, 0, 100),
        ("a", 0, 10, 30),
        ("c", 1, 15, 20),
        ("b", 0, 50, 90),
    ])
    selfs, durations = tracer.self_times(cols)
    assert durations == [100, 20, 5, 40]
    assert selfs == [40, 15, 5, 40]
    totals = tracer.layer_totals(names, cols)
    assert totals["root"]["self_s"] == pytest.approx(40e-9)
    assert totals["a"]["calls"] == 1
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(100e-9)


def test_self_time_clips_children_to_parent():
    _, cols = _columns([("root", -1, 0, 10), ("a", 0, 5, 30)])
    assert tracer.self_times(cols)[0] == [5, 25]


def _fake_layers():
    inner_mod = ModuleType("fake_inner")
    outer_mod = ModuleType("fake_outer")

    def leaf(x):
        return x + 1

    def outer(x):
        return outer_mod.leaf(x) * 2  # resolved at call time, like an import

    class Thing:
        @classmethod
        def make(cls, x):
            return outer_mod.outer(x)

    inner_mod.leaf = leaf
    outer_mod.leaf = leaf
    outer_mod.outer = outer
    return inner_mod, outer_mod, Thing


def test_recorder_nests_spans_and_uninstalls():
    ticks = iter(range(0, 1000, 10))
    recorder = tracer.SpanRecorder(clock=lambda: next(ticks))
    inner_mod, outer_mod, thing = _fake_layers()
    originals = (inner_mod.leaf, outer_mod.outer, thing.__dict__["make"])
    undo = recorder.install(
        [("leaf", inner_mod, "leaf", lambda counts, *rest: counts.update(["leaf"])),
         ("outer", outer_mod, "outer", None),
         ("make", thing, "make", None)],
        [inner_mod, outer_mod])
    recorder.item = 7
    assert thing.make(1) == 4
    assert isinstance(thing.__dict__["make"], classmethod)
    names = [recorder.names[i] for i in recorder.columns["name"]]
    assert names == ["make", "outer", "leaf"]
    assert list(recorder.columns["parent"]) == [-1, 0, 1]
    assert set(recorder.columns["item"]) == {7}
    assert recorder.counts["leaf"] == 1
    selfs, durations = tracer.self_times(recorder.columns)
    assert durations == [50, 30, 10]
    assert selfs == [20, 20, 10]
    recorder.uninstall(undo)
    assert (inner_mod.leaf, outer_mod.outer, thing.__dict__["make"]) == originals
    assert thing.make(1) == 4
    assert len(recorder) == 3


def test_spans_round_trip_through_file(tmp_path):
    recorder = tracer.SpanRecorder()
    wrapped = recorder.wrap("f", lambda: None)
    wrapped()
    wrapped()
    recorder.dump(tmp_path / "spans.bin")
    cols = tracer.load_spans(tmp_path / "spans.bin", len(recorder))
    assert {k: list(v) for k, v in cols.items()} == {
        k: list(v) for k, v in recorder.columns.items()}


def test_exception_closes_span_and_reaches_hook():
    recorder = tracer.SpanRecorder()
    errors = []

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("boom", boom, lambda c, a, k, r, exc: errors.append(exc))
    with pytest.raises(KeyError):
        wrapped()
    assert recorder.columns["end"][0] >= recorder.columns["start"][0] > 0
    assert isinstance(errors[0], KeyError)


# -- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_matches_reported_metrics():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END_UNITS
    spans = [t[0] for t in tracer.birkhoff_targets()]
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == run.per_layer_names(spans)


# -- oracles -------------------------------------------------------------------

@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    steps = 400
    spec = workloads.scan_specs(3, count=1, steps=steps)[0][0]
    out = tmp_path_factory.mktemp("scan") / "scan.csv"
    assert cli.main(workloads.scan_argv(spec, steps, str(out))) == 0
    return spec, steps, out.read_text()


def _edit_row(text, k, edit):
    lines = text.split("\n")
    lines[k + 1] = edit(lines[k + 1])
    return "\n".join(lines)


def test_scan_oracle_accepts_program_output(scan):
    spec, steps, text = scan
    assert "pole" in text  # the grid crosses a guard band
    assert workloads.check_scan(text, spec, steps) == (0, [])


def _bump_digit(line, i):
    return line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]


def _first_row(text, flag):
    return next(k for k, line in enumerate(text.split("\n")[1:]) if line.endswith("," + flag))


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace("omega1,D2,flag", "omega1,D2"),
    lambda t: t.rsplit("\n", 2)[0] + "\n",
    lambda t: _edit_row(t, 5, lambda line: line.replace(",ok", ",stable")),
    lambda t: _edit_row(t, 5, lambda line: line.replace(",ok", ",pole")),
    lambda t: _edit_row(t, _first_row(t, "pole"), lambda line: line.replace(",pole", ",ok")),
    lambda t: _edit_row(t, 5, lambda line: line.replace(",ok", ",degenerate")),
    lambda t: _edit_row(t, 7, lambda line: line.split(",")[0] + ",nan,ok"),
    lambda t: _edit_row(t, 9, lambda line: _bump_digit(line, line.index(",") + 8)),
    lambda t: _edit_row(t, 11, lambda line: "1.0" + line[line.index(","):]),
])
def test_scan_oracle_rejects_corruption(scan, corrupt):
    spec, steps, text = scan
    bad, reasons = workloads.check_scan(corrupt(text), spec, steps)
    assert bad >= 1 and reasons


def _verdicts(seed, count):
    statuses, d2s = [], []
    for mu, q, Q, A, w in workloads.verdict_chunk(seed, 0)[0][:count]:
        v = rtbpmodel.stability_verdict(rtbpmodel.ModelParams(mu, q, Q, A), w, workloads.OMEGA3)
        statuses.append(v.status.value)
        d2s.append(v.d2)
    return statuses, d2s


def test_verdict_points_are_seeded_and_distinct():
    points, _ = workloads.verdict_chunk(5, 0)
    assert points == workloads.verdict_chunk(5, 0)[0]
    assert points != workloads.verdict_chunk(6, 0)[0]
    assert len({p[:4] for p in points}) == len(points) == workloads.VERDICT_CHUNK
    special = points[workloads.SPECIAL_EVERY // 2]
    assert special[4] in workloads.SPECIAL_OMEGA1


def test_cross_check_screen_matches_the_program():
    mu, q, Q, A, w = workloads.CROSS_CHECK_REPRODUCER
    params = rtbpmodel.ModelParams(mu, q, Q, A)
    cq = rtbpmodel.coefficients(params).cubic_quartic()
    assert workloads.cross_check_fails(cq, w)
    with pytest.raises(AssertionError):
        rtbpmodel.stability_verdict(params, w, workloads.OMEGA3)
    for other in (0.3, 0.5, 2.0):
        assert not workloads.cross_check_fails(cq, other)
        rtbpmodel.stability_verdict(params, other, workloads.OMEGA3)


def test_verdict_oracle():
    points = workloads.verdict_chunk(4, 0)[0]
    statuses, d2s = _verdicts(4, 600)

    def check(st, d2):
        return workloads.check_verdicts(0, points, st, d2, sample=600)

    assert {"pole", "stable"} <= set(statuses)
    assert check(statuses, d2s) == (0, [])
    k = statuses.index("stable")
    assert check(statuses[:k] + ["degenerate"] + statuses[k + 1:], d2s)[0] == 1
    assert check(statuses, d2s[:k] + [d2s[k] * (1 + 1e-6)] + d2s[k + 1:])[0] == 1
    special = workloads.SPECIAL_EVERY // 2
    assert statuses[special] in ("pole", "resonant")
    assert check(statuses[:special] + ["stable"] + statuses[special + 1:], d2s)[0] == 1
    assert check(statuses, d2s[:3] + [math.inf] + d2s[4:])[0] == 1


@pytest.fixture(scope="module")
def pool():
    return workloads.normalize_pool(2)


def test_pool_mix_is_fixed(pool):
    blocks = len(pool) // sum(n for _, n in workloads.POOL_BLOCK)
    for kind, n in workloads.POOL_BLOCK:
        assert sum(e["kind"] == kind for e in pool) == n * blocks
    assert pool == workloads.normalize_pool(2)


def _normalize(entry, tmp_path):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(entry["payload"]))
    outcome = child._call_cli(
        cli, ["normalize", "--input", str(src), "--output", str(out)])
    return outcome, child.read_report(out, outcome["rc"])


@pytest.mark.parametrize("kind", ["populated", "model", "complex"])
def test_normalize_oracle(pool, kind, tmp_path):
    entry = next(e for e in pool if e["kind"] == kind)
    expected = workloads.expected_k(entry)
    outcome, report = _normalize(entry, tmp_path)
    check = lambda rc, values: workloads.check_normalize(  # noqa: E731
        entry, expected, rc, outcome["stderr"], values)
    assert check(outcome["rc"], report) is None
    for key in ("K2200", "K1111", "K0022", "D2"):
        bent = dict(report, **{key: report[key] * (1 + 1e-6) + 1e-9})
        assert check(0, bent) is not None, key
    swapped = dict(report, K2200=report["K0022"], K0022=report["K2200"])
    assert check(0, swapped) is not None
    assert check(0, dict(report, D2=None)) is not None
    assert check(3, report) is not None
    (tmp_path / "out.json").write_text("{")
    assert check(0, child.read_report(tmp_path / "out.json", 0)) is not None


def test_normalize_oracle_on_exact_resonance(pool, tmp_path):
    entry = next(e for e in pool if e["kind"] == "resonant")
    outcome, report = _normalize(entry, tmp_path)
    assert outcome["rc"] == 4 and report is None
    assert workloads.check_normalize(entry, None, 4, outcome["stderr"], None) is None
    assert workloads.check_normalize(entry, None, 0, outcome["stderr"], None) is not None
    assert workloads.check_normalize(entry, None, 4, "Traceback", None) is not None


def test_mode_swap_is_an_involution(pool):
    payload = pool[0]["payload"]
    assert workloads.mode_swapped(workloads.mode_swapped(payload)) == payload


def test_malformed_payloads_lack_a_field():
    kinds = [kind for kind, _ in workloads.malformed_payloads(1)]
    assert sorted(set(kinds)) == sorted(workloads.MALFORMED_KINDS)
    for kind, payload in workloads.malformed_payloads(1):
        terms = payload["terms"]
        if kind == "missing-exponents":
            assert sum("exponents" not in t for t in terms) == 1
        else:
            assert sum(t["re"] is None for t in terms) == 1
