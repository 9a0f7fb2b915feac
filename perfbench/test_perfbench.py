"""Tests of the benchmark itself: tracing coverage, layer predictions, and
output checks that can fail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run as bench

bench.import_checkout()

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from flowring import autonomous, bell, cli, expr, flow, hurwitz  # noqa: E402
from flowring.flow import CheckReport  # noqa: E402

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

# Which per-layer metrics each workload must drive, and which it must leave
# at exactly zero because the workload bypasses that code.
USED = {
    "cli-series": [
        "cli.main_calls", "cli.self_s", "scalars.format_calls", "scalars.format_s",
        "scalars.num_bits_max", "scalars.den_bits_max", "hurwitz.mul_calls", "hurwitz.mul_s",
        "hurwitz.coeff_products", "hurwitz.coeff_products_gaussian",
        "hurwitz.ns_per_coeff_product", "hurwitz.add_calls", "hurwitz.add_s", "hurwitz.self_s",
        "autonomous.sequence_calls", "autonomous.sequence_s", "autonomous.box_calls",
        "autonomous.box_s", "autonomous.self_s", "flow.decompose_s", "flow.self_s",
        "expr.parse_s", "expr.elaborate_s", "expr.elaborate_mul_calls", "expr.self_s",
    ],
    "identity-checks": [
        "hurwitz.mul_calls", "hurwitz.mul_s", "hurwitz.coeff_products",
        "hurwitz.ns_per_coeff_product", "hurwitz.add_calls", "hurwitz.add_s", "hurwitz.scale_s",
        "hurwitz.inverse_calls", "hurwitz.inverse_s", "hurwitz.self_s",
        "bell.partitions_visited", "bell.partition_weight_calls", "bell.self_s",
        "autonomous.sequence_calls", "autonomous.sequence_s", "autonomous.bell_path_calls",
        "autonomous.bell_path_s", "autonomous.box_calls", "autonomous.box_s",
        "autonomous.self_s", "flow.semigroup_s", "flow.derivation_s", "flow.combination_s",
        "flow.self_s",
    ],
    "eval-oracle": [
        "cli.main_calls", "cli.self_s", "hurwitz.mul_calls", "hurwitz.mul_s",
        "hurwitz.coeff_products", "hurwitz.eval_at_calls", "hurwitz.eval_at_s",
        "hurwitz.self_s", "autonomous.sequence_calls", "flow.eval_at_s",
        "flow.match_closed_form_s", "flow.self_s", "expr.parse_s", "expr.elaborate_s",
        "expr.elaborate_mul_calls", "expr.polynomial_coefficients_s", "expr.self_s",
        "oracle.rk4_calls", "oracle.rk4_steps", "oracle.eval_field_calls", "oracle.rk4_s",
        "oracle.self_s",
    ],
}
_ORACLE = ["oracle.rk4_calls", "oracle.rk4_steps", "oracle.eval_field_calls", "oracle.rk4_s",
           "oracle.self_s"]
_BELL = ["bell.partitions_visited", "bell.partition_weight_calls", "bell.self_s",
         "autonomous.bell_path_calls", "autonomous.bell_path_s"]
_CHECKS = ["flow.semigroup_s", "flow.derivation_s", "flow.combination_s"]
BYPASSED = {
    "cli-series": _ORACLE + _BELL + _CHECKS + [
        "flow.eval_at_s", "flow.match_closed_form_s", "hurwitz.inverse_calls",
        "hurwitz.eval_at_calls", "expr.polynomial_coefficients_s"],
    "identity-checks": _ORACLE + [
        "cli.main_calls", "cli.self_s", "scalars.format_calls", "scalars.num_bits_max",
        "expr.parse_s", "expr.elaborate_s", "expr.elaborate_mul_calls", "expr.self_s",
        "flow.decompose_s", "flow.eval_at_s", "flow.match_closed_form_s",
        "hurwitz.coeff_products_gaussian", "hurwitz.eval_at_calls"],
    "eval-oracle": _BELL + _CHECKS + [
        "flow.decompose_s", "autonomous.box_calls", "hurwitz.inverse_calls",
        "hurwitz.coeff_products_gaussian"],
}
# Share of the traced job time that the layer self times may leave unattributed
# (harness code between the job's timer and the outermost span).
COVERAGE_MARGIN = 0.03


def _blocks(workload, count=1, seed=3):
    stream = workloads.WORKLOADS[workload](seed).blocks()
    return [next(stream) for _ in range(count)]


def _traced(workload, blocks):
    recorder = tracer.Tracer()
    with recorder:
        run = bench.run_blocks(blocks, math.inf, {"cli": cli}, checks, recorder)
    assert not run.failures
    busy = sum(run.raw)
    rate = len(run.raw) / busy
    metrics = tracer.layer_metrics(recorder, rate, rate, busy)
    return {k: v for k, (v, _) in metrics.items()}, busy


@pytest.fixture(scope="module")
def traced_metrics():
    return {w: _traced(w, _blocks(w)) for w in workloads.WORKLOADS}


def test_install_wraps_every_binding_site_and_uninstall_restores():
    originals = [cli.elaborate, flow.mul_truncating, flow.autonomous_sequence,
                 autonomous.iter_partitions, hurwitz.HurwitzSeries.__mul__]
    recorder = tracer.Tracer()
    with recorder:
        assert cli.elaborate.__wrapped__ is expr.elaborate.__wrapped__ is originals[0]
        assert flow.mul_truncating.__wrapped__ is originals[1]
        assert flow.autonomous_sequence is autonomous.autonomous_sequence
        assert autonomous.iter_partitions is bell.iter_partitions
        assert hurwitz.HurwitzSeries.__mul__.__wrapped__ is originals[4]
        wrapped = [getattr(fn, "__wrapped__", None) for fn in
                   (cli.main, flow.semigroup_check, expr.parse, cli.rk4_solve)]
        assert None not in wrapped
        assert tracer.unwrapped_bindings(originals + wrapped) == []
    assert [cli.elaborate, flow.mul_truncating, flow.autonomous_sequence,
            autonomous.iter_partitions, hurwitz.HurwitzSeries.__mul__] == originals
    assert not hasattr(cli.main, "__wrapped__")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_metrics_follow_the_prediction(traced_metrics, workload):
    metrics, _ = traced_metrics[workload]
    assert sorted(metrics) == sorted(PER_LAYER)
    assert [m for m in USED[workload] if not metrics[m] > 0] == []
    assert [m for m in BYPASSED[workload] if metrics[m] != 0] == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_self_times_sum_to_the_traced_job_time(traced_metrics, workload):
    metrics, busy = traced_metrics[workload]
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS if layer != "scalars")
    layer_self += metrics["scalars.format_s"]
    assert 1 - COVERAGE_MARGIN <= layer_self / busy <= 1.0
    assert metrics["trace.covered_ratio"] == pytest.approx(layer_self / busy)


@pytest.mark.parametrize("workload", ["cli-series", "eval-oracle"])
def test_traced_counts_repeat_exactly(workload):
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    first, second = (_traced(workload, _blocks(workload, seed=8))[0] for _ in range(2))
    counts = [m for m, unit in units.items() if unit in ("count", "bits")]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


def test_generated_inputs_follow_the_seed_and_use_safe_argv():
    assert list(bench.WORKLOADS) == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        first, again, other = (_blocks(workload, 2, seed) for seed in (4, 4, 5))
        argv = [job.argv or repr(job.call[1:]) for block in first for job in block]
        assert argv == [job.argv or repr(job.call[1:]) for block in again for job in block]
        assert argv != [job.argv or repr(job.call[1:]) for block in other for job in block]
    fields = [arg for block in _blocks("eval-oracle", 4) for job in block for arg in job.argv]
    assert "--field" not in fields
    assert any(arg.startswith("--field=-") for arg in fields)


def _run_job(job):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(job.argv, out, err)
    return code, out.getvalue(), err.getvalue()


def _first(workload, predicate, blocks=3):
    return next(job for block in _blocks(workload, blocks) for job in block if predicate(job))


def _corrupt_coefficient(stdout):
    lines = stdout.splitlines()
    label, *values = lines[-1].split(" ")
    values[-1] = str(Fraction(values[-1]) + 1)
    return "\n".join(lines[:-1] + [" ".join([label] + values)]) + "\n"


def _flip_verdict(stdout):
    return stdout.replace("combined equals the direct flow: PASS",
                          "combined equals the direct flow: FAIL")


def _push_out_of_tolerance(stdout):
    payload = json.loads(stdout)
    payload["rk4"] += 1e-3 * max(1.0, abs(payload["rk4"]))
    return json.dumps(payload)


def _is_text_series(job):
    return job.expect.get("kind") == "sequence" and job.expect["format"] == "text" \
        and job.cls in ("small", "power")


def _is_text_decompose(job):
    return job.expect.get("kind") == "decompose" and job.expect["format"] == "text"


def _is_eval(job):
    return job.expect.get("kind") == "eval"


CORRUPTIONS = [
    ("cli-series", _is_text_series, _corrupt_coefficient),
    ("cli-series", _is_text_decompose, _flip_verdict),
    ("eval-oracle", _is_eval, _push_out_of_tolerance),
]


@pytest.mark.parametrize("workload,select,corrupt", CORRUPTIONS)
def test_checker_rejects_corrupted_outputs(workload, select, corrupt):
    job = _first(workload, select)
    code, out, err = _run_job(job)
    checks.check(job, (code, out, err))
    with pytest.raises(checks.CheckFailure):
        checks.check(job, (code, corrupt(out), err))


def test_checker_rejects_failed_reports_and_wrong_exit_codes():
    report_job = _first("identity-checks", lambda j: j.expect["kind"] == "report")
    checks.check(report_job, CheckReport(True))
    with pytest.raises(checks.CheckFailure):
        checks.check(report_job, CheckReport(False, (1, 0), "mismatch"))
    equal_job = _first("identity-checks", lambda j: j.expect["kind"] == "equal")
    with pytest.raises(checks.CheckFailure):
        checks.check(equal_job, False)
    reject = _first("cli-series", lambda j: j.cls == "reject")
    code, out, err = _run_job(reject)
    checks.check(reject, (code, out, err))
    with pytest.raises(checks.CheckFailure):
        checks.check(reject, (0, out, err))


@pytest.mark.parametrize("workload,select,corrupt", CORRUPTIONS)
def test_command_exits_nonzero_when_an_output_is_wrong(monkeypatch, capsys,
                                                        workload, select, corrupt):
    real_main = cli.main
    selected = {tuple(job.argv) for block in _blocks(workload, 2, seed=9)
                for job in block if select(job)}
    assert selected

    def corrupting_main(argv, out, err):
        buffer = io.StringIO()
        code = real_main(argv, buffer, err)
        out.write(corrupt(buffer.getvalue()) if tuple(argv) in selected else buffer.getvalue())
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    code = bench.main(["--workload", workload, "--seed", "9", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_default_seed_reproduces_the_recorded_outputs(capsys):
    assert bench.main(["--workload", "eval-oracle", "--seed", "0", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    assert "(matches the baseline)" in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-series", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_one_command_runs_every_workload(capsys):
    assert bench.main(["--workload", "all", "--seed", "1", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    expected = {f"{w}/{m['name']}" for w in bench.WORKLOADS for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert sum(line.startswith("  fail_ratio = 0 ratio") for line in lines) == 3
