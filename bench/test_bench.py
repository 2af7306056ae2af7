"""Tests of the benchmark itself, on tiny inputs so they run in about a second."""

import math
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import run

run.load_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from carefulsync import families, search, words  # noqa: E402

HELD_OUT_SEED = 7


# Class constants that shrink each workload to a tiny size, with expectations
# that hold at that size.
TINY = {
    "cerny_dense": dict(N=6, LENGTH=25, VISITED=58,
                        DIGEST=workloads.word_digest(words.cerny_word(6))),
    "random_sweep": dict(SIZES=(6, 8), PER_CELL=1),
    "grid_certify": dict(GRIDS=((2, 3), (3, 2), (5, 5)), LIFTS=(4,), LIFTED_LENGTHS={4: 85}),
}


def tiny(monkeypatch, name, seed=HELD_OUT_SEED, **overrides):
    monkeypatch.setattr(workloads, "CYCLE", 2)
    cls = workloads.WORKLOADS[name]
    for attr, value in {**TINY[name], **overrides}.items():
        monkeypatch.setattr(cls, attr, value)
    return cls(seed)


def test_each_workload_runs_clean_at_tiny_size(monkeypatch):
    for name in workloads.WORKLOADS:
        w = tiny(monkeypatch, name)
        for i in range(2):
            result = run.run_pass(w, i)
            assert result["failed"] == 0, name
            assert result["ops"] >= 1 and result["visited"] > 0 and result["wall"] > 0


def test_inputs_cycle_over_passes(monkeypatch):
    for name in workloads.WORKLOADS:
        w = tiny(monkeypatch, name)
        assert w.inputs(0) is w.inputs(2) and w.inputs(1) is w.inputs(3)
        assert w.inputs(0) != w.inputs(1), name


def test_wrong_expected_value_raises_error_rate(monkeypatch):
    wrong = [
        ("cerny_dense", HELD_OUT_SEED, dict(VISITED=59)),
        # The sweep CSV digest is pinned for the default seed only.
        ("random_sweep", workloads.DEFAULT_SEED, dict(DIGEST="0" * 64)),
        ("grid_certify", HELD_OUT_SEED, dict(LIFTED_LENGTHS={4: 86})),
        ("grid_certify", HELD_OUT_SEED, dict(ERRATA_DIGEST="0" * 64)),
    ]
    for name, seed, overrides in wrong:
        result = run.run_pass(tiny(monkeypatch, name, seed, **overrides), 0)
        assert result["failed"] >= 1, (name, overrides)


def test_relabel_keeps_the_search_result():
    pfa = families.gen_cerny(7)
    renumbered = workloads.relabel(pfa, random.Random(3))
    assert renumbered.delta != pfa.delta
    a, b = search.shortest_careful_word(pfa), search.shortest_careful_word(renumbered)
    assert (a.word, a.visited_subsets) == (b.word, b.visited_subsets)


def test_traced_pass_restores_library_and_attributes_time(monkeypatch):
    original = search.shortest_careful_word
    w = tiny(monkeypatch, "grid_certify")
    tracer = tracing.Tracer()
    result = run.run_pass(w, 0, tracer)
    assert result["failed"] == 0
    assert search.shortest_careful_word is original
    m = tracing.pass_metrics(tracer.spans, result["elapsed"])
    assert m["search.bfs_calls"] == 3 + 5  # three grids, five searches in the errata
    assert m["search.forced_images"] > 0 and m["core.verify_letters"] > 0
    assert m["search.bfs_flat_s"] > 0 and m["search.bfs_hash_s"] > 0  # (5, 5) has n = 25
    assert m["io.bytes"] > 0 and m["transforms.lifted_letters"] == 85
    assert 0.5 < m["trace.attributed_share"] <= 1.0
    assert set(m) | {"trace.overhead"} == set(run.declared_metrics()[1])


def test_rescan_is_measured_on_sweeps(monkeypatch):
    w = tiny(monkeypatch, "random_sweep", SIZES=(20,), PER_CELL=4)
    tracer = tracing.Tracer()
    result = run.run_pass(w, 0, tracer)
    m = tracing.pass_metrics(tracer.spans, result["elapsed"])
    assert m["search.bfs_calls"] == 24
    assert m["search.reachable_calls"] > 0 and 0 < m["reporting.rescan_share"] < 1


def test_tail_has_ten_samples_beyond_it():
    walls = [float(i) for i in range(1, 21)]
    value, _ = run.tail(walls)
    assert sum(x > value for x in walls) == 10
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_yardstick_scales_pass_times_to_the_nominal_speed():
    with yardstick.Sampler() as host:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * yardstick.PERIOD_S:
            pass
    assert len(host.readings) >= 3 and 0 < host.spent < 3 * yardstick.PERIOD_S
    host.readings = [2 * yardstick.NOMINAL_S] * 3  # a host at half speed
    assert math.isclose(host.scale(2.0), 1.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_fails_without_the_library(tmp_path):
    shutil.copytree(Path(run.BENCH), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cerny_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
