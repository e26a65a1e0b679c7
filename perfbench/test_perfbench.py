"""Self-tests of the benchmark: the correctness gate, the timeout, the
seeded inputs, the printed metric names and a smoke run of each
workload.

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

CAPSTAR = run.import_capstar()


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)


def workload(name, seed=0):
    wl = WORKLOADS[name](CAPSTAR, seed, True)
    wl.setup()
    return wl


def first_result(wl, index=0):
    op = wl.make_pass(0)[index]
    latency, reason, result = run.run_op(op, 30.0)
    assert reason is None, reason
    return op, result


# -- correctness gate ---------------------------------------------------------


def test_gate_flags_wrong_homology():
    op, (x, k, groups, coords) = first_result(workload("ladder"))
    assert op.check((x, k, groups, coords)) is None
    h1 = groups[1]
    wrong = CAPSTAR.chains.HomologyGroup(
        degree=1, betti=h1.betti + 1, torsion=h1.torsion, cycle_basis=h1.cycle_basis)
    assert "homology" in op.check((x, k, [groups[0], wrong] + groups[2:], coords))


def test_gate_flags_wrong_coordinates():
    op, (x, k, groups, coords) = first_result(workload("ladder"))
    bad = [list(c) for c in coords]
    bad[0] = [tuple(2 * v for v in c) for c in bad[0]]
    assert "unit vectors" in op.check((x, k, groups, bad))


def test_gate_flags_wrong_cup_and_cap():
    wl = workload("star")
    ops = wl.make_pass(0)
    load, cup, cap = ops[0], ops[1], ops[2]
    assert run.run_op(load, 30.0)[1] is None
    for op in (cup, cap):
        _, reason, values = run.run_op(op, 30.0)
        assert reason is None
        corrupted = dict(values)
        s = next(iter(corrupted))
        corrupted[s] += 1
        assert "front/back" in op.check(corrupted)


def test_gate_flags_wrong_supported_cap_class():
    wl = workload("star")
    ops = wl.make_pass(0)
    assert run.run_op(ops[0], 30.0)[1] is None
    op = next(o for o in ops if o.name == "supported_cap.torus")
    _, reason, cls = run.run_op(op, 30.0)
    assert reason is None
    doubled = CAPSTAR.chains.HomologyClass(cls.group, tuple(2 * c for c in cls.coords))
    assert "class" in op.check(doubled)


def test_gate_flags_wrong_cli_output():
    wl = workload("cli")
    try:
        op = wl.make_pass(0)[1]  # homology of the Klein bottle
        proc = op.run()
        assert op.check(proc) is None
        proc.stdout = proc.stdout.replace("Z/2", "Z/3")
        assert "output" in op.check(proc)
        proc.returncode = 2
        assert op.check(proc).startswith("exit 2")
    finally:
        wl.close()


def test_wrong_answer_counts_as_failed_not_raised():
    op = Op("corrupt", lambda: 1, lambda result: "deliberately wrong")
    latency, reason, _ = run.run_op(op, 5.0)
    assert reason == "wrong: deliberately wrong"


def test_error_counts_as_failed_not_raised():
    op = Op("raises", lambda: 1 / 0, lambda result: None)
    assert run.run_op(op, 5.0)[1].startswith("error: ZeroDivisionError")


def test_slow_op_is_a_timeout():
    op = Op("slow", lambda: time.sleep(5), lambda result: None)
    t0 = time.perf_counter()
    latency, reason, _ = run.run_op(op, 0.2)
    assert reason == "timeout"
    assert latency < 2 and time.perf_counter() - t0 < 2


# -- seeded inputs ---------------------------------------------------------------


def test_inputs_are_deterministic_in_the_seed():
    for name in ("ladder", "verify"):
        runs = [[op.input for op in workload(name, seed).make_pass(0)] for seed in (5, 5, 6)]
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]


def test_no_two_ladder_ops_share_vertex_tokens():
    wl = workload("ladder", 9)
    seen = set()
    for index in range(3):
        for op in wl.make_pass(index):
            tokens = set(json.loads(op.input)["complex"]["vertex_order"])
            assert not tokens & seen
            seen |= tokens


def test_own_subdivision_and_orientation():
    x = gen.Complex(gen.SURFACES["torus7"], gen.default_order(gen.SURFACES["torus7"]))
    labels = gen.Labels(random.Random(0))
    sd, _ = gen.subdivide(x, labels)
    assert sd.f_vector() == [42, 126, 84]
    assert gen.boundary(gen.orient(sd)) == {}
    klein = gen.Complex(gen.SURFACES["klein"], gen.default_order(gen.SURFACES["klein"]))
    with pytest.raises(ValueError):
        gen.orient(klein)


# -- printed metrics and smoke runs --------------------------------------------------


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_prints_end_to_end_metrics(name):
    t0 = time.perf_counter()
    res = result_line(run_bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                                "--trace", "0", "--smoke"))
    assert time.perf_counter() - t0 < 30
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", ["ladder", "cli"])
def test_traced_run_prints_per_layer_metrics(name):
    res = result_line(run_bench("--workload", name, "--seconds", "0.5", "--trace", "1",
                                "--smoke"))
    want = {m["name"]: m["unit"] for m in bench_json()["per_layer"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert res["metrics"]["trace.op_s"]["value"] > 0


def test_benchmark_json_names_match_the_harness():
    bench = bench_json()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = run_bench("--workload", "ladder", "--seconds", "1", cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
