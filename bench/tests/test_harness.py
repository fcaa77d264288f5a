"""Tests of the benchmark harness.

Run from the repository root with:  python3 -m pytest -q bench/tests
"""

import copy
import json
import py_compile
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import GLUE_8A1_COUNT, TABLE1_EXPECTED, WORKLOADS  # noqa: E402

from cuspidal import exact, glue, lattice  # noqa: E402


def span(name, start, end, parent, outer=True):
    return [name, start, end, parent, outer]


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_of_nested_spans():
    fake = [
        span("cusps.a", 0.0, 10.0, -1),
        span("fqf.b", 1.0, 4.0, 0),
        span("exact.c", 2.0, 3.0, 1),
        span("fqf.d", 5.0, 6.0, 0),
    ]
    assert spans.self_times(fake) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_from_fake_spans():
    fake = [
        span("glue.overlattice", 1.0, 5.0, -1),
        span("glue.overlattice", 2.0, 3.0, 0, outer=False),
        span("exact.lll_reduce", 3.5, 4.0, 0),
        span("cusps.nu", 6.0, 7.0, -1),
    ]
    m = spans.layer_metrics(fake, {}, wall_s=10.0)
    assert m["glue.overlattice.calls"] == 2
    assert m["glue.overlattice.incl_s"] == 4.0  # the recursive call is not counted twice
    assert m["glue.overlattice.self_s"] == 4.0 - 0.5
    assert m["exact.lll_reduce.self_s"] == 0.5
    assert m["cli.self_s"] == 10.0 - 4.0 - 1.0
    assert m["glue.self_s"] + m["exact.self_s"] + m["cusps.self_s"] + m["cli.self_s"] == 10.0
    assert m["cusps.glue_yield"] == 0.0  # no realised rows
    assert set(m) | {"trace.overhead_s"} == set(spans.per_layer_names())


# ---------------------------------------------------------------------------
# wrappers on the real package


def _bindings():
    return {(name, key): value
            for name, mod in sys.modules.items()
            if name == "cuspidal" or name.startswith("cuspidal.")
            for key, value in vars(mod).items() if callable(value)}


def test_nested_call_lands_inside_its_caller():
    tracer = spans.Tracer()
    tracer.install()
    try:
        found = glue.short_vectors(lattice.make_standard("A", 2), -2)
    finally:
        tracer.restore()
    assert len(found) == 3
    names = [s[0] for s in tracer.spans]
    outer = names.index("glue.short_vectors")
    lll = names.index("exact.lll_reduce")
    assert tracer.spans[lll][3] == outer
    assert tracer.counters["glue.short_vectors.found"] == 3


def test_originals_are_restored():
    before = _bindings()
    original = exact.lll_reduce
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert glue.lll_reduce is not original
        assert exact.lll_reduce is not original
        assert len(tracer.patched) > 0
    finally:
        tracer.restore()
    assert _bindings() == before
    assert glue.lll_reduce is original and exact.lll_reduce is original
    assert tracer.patched == []


# ---------------------------------------------------------------------------
# output checks


def _table1():
    rows = [{"roots": r, "genus_ok": True, "roots_ok": True, "o_ae": v[0], "im_tau": v[1],
             "classes": v[2], "conditional": True} for r, v in TABLE1_EXPECTED.items()]
    return {"rows": rows, "all_ok": True, "total_classes_conditional": 15}


def _glue_8a1():
    return {"base": "8A1", "glues": [
        {"generators": [[i]], "order": 16, "overlattice_det": 1, "roots": "E8"}
        for i in range(GLUE_8A1_COUNT)]}


def _tamper(obj, edit):
    obj = copy.deepcopy(obj)
    edit(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("edit", [
    lambda o: o.update(all_ok=False),
    lambda o: o["rows"].pop(),
    lambda o: o["rows"][3].update(o_ae=4),
    lambda o: o["rows"][0].update(im_tau=1),
    lambda o: o["rows"][5].update(roots_ok=False),
    lambda o: o.update(total_classes_conditional=14),
])
def test_table1_check_rejects_tampered_output(edit):
    check = WORKLOADS["table1"].check
    assert check(0, json.dumps(_table1())) is None
    assert check(0, _tamper(_table1(), edit)) is not None


@pytest.mark.parametrize("edit", [
    lambda o: o["glues"].pop(),
    lambda o: o["glues"][7].update(overlattice_det=4),
    lambda o: o["glues"][0].update(roots="D8"),
    lambda o: o["glues"][1].update(generators=[[0]]),
])
def test_glue_8a1_check_rejects_tampered_output(edit):
    check = WORKLOADS["glue_8a1"].check
    assert check(0, json.dumps(_glue_8a1())) is None
    assert check(0, _tamper(_glue_8a1(), edit)) is not None


def test_check_rejects_failed_exit_and_garbage():
    check = WORKLOADS["glue_8a1"].check
    assert check(1, json.dumps(_glue_8a1())) is not None
    assert check(0, "not json") is not None


# ---------------------------------------------------------------------------
# runner


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    got = run.tail_percentile(list(range(20)))
    assert got == {"p": 50.0, "value": 9}
    assert sum(1 for v in range(20) if v > got["value"]) == 10


# ---------------------------------------------------------------------------
# reference speed and peak RSS


def test_times_are_scaled_by_the_reference_speed():
    ref = run.REF_QUANTUM_S
    assert run.speed_factor([ref] * 4) == pytest.approx(1.0)
    slow = {"wall_s": 3.0, "speed_factor": run.speed_factor([2 * ref] * 4)}
    assert run.at_ref(slow, "wall_s") == pytest.approx(1.5)
    # the mean of bimodal quanta, not their median
    assert run.speed_factor([0.01, 0.01, 0.01, 0.03, 0.03]) == pytest.approx(ref / 0.018)


def test_each_child_is_scaled_by_the_quanta_around_it(monkeypatch):
    q = run.QUANTA_PER_CHILD
    times = iter([0.01] * q + [0.03] * q + [0.05] * q)
    monkeypatch.setattr(run.Reference, "quantum", lambda self: next(times))
    monkeypatch.setattr(run, "run_child", lambda argv, trace, deadline: ({"setup_s": 1.0}, None))
    r = run.Run("zero_large", 1, 1.0)
    assert r.child("setup")["speed_factor"] == pytest.approx(run.REF_QUANTUM_S / 0.02)
    assert r.child("setup")["speed_factor"] == pytest.approx(run.REF_QUANTUM_S / 0.04)


def test_peak_rss_leaves_out_the_runner():
    ballast = bytearray(b"x") * (64 << 20)  # resident in this process only
    record, reason = run.run_child(None, False, perf_counter() + 60)
    assert reason is None
    assert record["peak_rss_mb"] < 48
    del ballast


def test_child_env_is_pinned(monkeypatch):
    monkeypatch.setenv("CUSPIDAL_THREADS", "4")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    env = run.child_env()
    assert "CUSPIDAL_THREADS" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"


def test_child_ignores_bytecode_beside_the_sources(tmp_path):
    """A stale .pyc in __pycache__ (one a test run could leave) is not loaded."""
    source = tmp_path / "probe.py"
    source.write_text("X = 'stale'\n")
    # An unchecked-hash pyc is loaded without comparing it to its source.
    tag = sys.implementation.cache_tag
    py_compile.compile(str(source), cfile=str(tmp_path / "__pycache__" / f"probe.{tag}.pyc"),
                       invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    source.write_text("X = 'source'\n")
    code = f"import sys; sys.path.insert(0, {str(tmp_path)!r}); import probe; print(probe.X)"

    def load(env):
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.strip()

    unpinned = run.child_env()
    del unpinned["PYTHONPYCACHEPREFIX"]
    assert load(unpinned) == "stale"  # the pyc would be used without the pin
    assert load(run.child_env()) == "source"
    assert not run.PYCACHE_PREFIX.exists()


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [m["name"] for m in spec["per_layer"]] == spans.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "ok_frac"}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
