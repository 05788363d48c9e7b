"""Tests of the benchmark itself: inputs, tracing wrappers, metric names."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import qprenorm_lab as q  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    a = workloads.make_ops(workload, 11, 6)
    assert a == workloads.make_ops(workload, 11, 6)
    assert a != workloads.make_ops(workload, 12, 6)
    assert json.loads(json.dumps(a)) == a


def test_curve_inputs_stay_in_their_windows():
    s = workloads.LOGISTIC_S
    for op in workloads.make_ops("curves", 3, 9):
        assert [c["period_log2"] for c in op["curves"]] == [2, 3]
        for c in op["curves"]:
            n = c["period_log2"]
            assert abs(c["alpha"] - s[n]) <= (
                workloads.CURVE_ALPHA_FRAC * (s[n + 1] - s[n]))
            lo, hi = workloads.CURVE_EPS[n]
            assert 1e-4 <= lo <= c["eps"] <= hi <= 1e-3


def _small_op():
    """Touches every layer's wrapped entry points in well under a second."""
    fp = q.feigenbaum_fixed_point(q.DomainConfig())
    omega = q.RotationNumber.golden(q_max=64)
    op = q.build_L_omega(fp.phi, omega.double(), 1)
    v = q.PairFn.from_coeff_vector(fp.phi.domain,
                                   np.linspace(-1.0, 1.0, 80))
    _, shifted = q.gamma_normalize(op.apply(v).embed(1))
    f = q.flm_family().evaluator(3.2, 1e-4)
    t = q.apply_T(f, omega)
    curve = q.solve_invariant_curve(f, omega, 1, M=32)
    return (op.matrix, shifted.modes, t.modes, curve.samples,
            q.fiber_product(f, omega, curve), q.sup_norm(t),
            q.renormalize_1d(fp.phi).psi.coeffs, q.l1_matrix(fp.phi),
            v.sup_norm())


def test_wrappers_are_transparent():
    plain = _small_op()
    originals = (q.funcspace.AnalyticFn.__call__, q.renorm1d.l1_matrix,
                 q.qprenorm.l1_matrix, q.build_L_omega)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert q.build_L_omega is not originals[3]
        traced = _small_op()
        counts = tracer.metrics(0.0, 0)
        again = _small_op()
    finally:
        tracer.uninstall()
    assert (q.funcspace.AnalyticFn.__call__, q.renorm1d.l1_matrix,
            q.qprenorm.l1_matrix, q.build_L_omega) == originals
    for a, b, c in zip(plain, traced, again):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    assert counts["qprenorm.build_L_omega_calls"] == 1
    assert counts["curvedyn.curve_solves"] == 1
    assert counts["funcspace.chebval_calls"] > 0
    total = tracer.metrics(0.0, 0)
    for name, value in counts.items():
        if name.endswith(("_calls", "_builds", "_solves", "_points")):
            assert total[name] == 2 * value, name


def test_metric_names_match_benchmark_json():
    declared_e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    declared_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert declared_e2e == [m[0] for m in run.END_TO_END]
    assert declared_layer == [m[0] for m in tracing.PER_LAYER]
    tracer = tracing.Tracer()
    assert list(tracer.metrics(0.0, 0)) == declared_layer
    units = {m["name"]: (m["unit"], m["better"])
             for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, unit, better, *_ in run.END_TO_END + tracing.PER_LAYER:
        assert NAME.fullmatch(name) and len(name) <= 64
        assert units[name] == (unit, better)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)
