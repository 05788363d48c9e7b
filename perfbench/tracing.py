"""Per-layer tracing installed from outside the library.

`Tracer.install` replaces the public functions of each layer with timing
wrappers: methods on their classes, `chebval` on numpy's chebyshev module
(every module calls it as `_cheb.chebval`), and module functions under each
name a module of the package imported them as. `uninstall` puts the
originals back. While installed, every call appends one span (name, start,
end, parent span, op) to in-memory arrays; `metrics` derives the per-layer
numbers from how the spans nest, and `write` saves the spans at the end.
"""

import contextlib
import functools
import sys
import time
from array import array

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from qprenorm_lab import (asymptotics, cli, curvedyn, funcspace, qprenorm,
                          renorm1d)

# Span names of the wrapped module functions, per defining module.
_FUNCTIONS = {
    funcspace: ("compose_fiber", "sup_norm"),
    renorm1d: ("renormalize_1d", "l1_matrix", "l2_matrix", "dr_matrix",
               "solve_fixed_point", "superstable_params",
               "stable_manifold_param", "unstable_manifold_points"),
    qprenorm: ("build_L_omega", "gamma_normalize", "apply_DT", "apply_T"),
    curvedyn: ("solve_invariant_curve", "fiber_product", "slope_chain",
               "slope_formula", "DG1"),
    asymptotics: ("fit_geometric_decay", "slope_table", "quotient_sequence",
                  "mixed_quotient_sequence", "observation1",
                  "renorm_identity_gap", "observation2", "component_chains",
                  "observation3", "check_H3", "check_H4", "check_H5",
                  "quotient_factorization"),
    cli: ("main",),
}
_METHODS = (
    (funcspace.AnalyticFn, "__call__", "funcspace.analytic_eval"),
    (funcspace.QPFn, "eval", "funcspace.qpfn_eval"),
    (funcspace.QPFn, "dx", "funcspace.qpfn_dx"),
    (funcspace.PairFn, "sup_norm", "funcspace.sup_norm"),
    (qprenorm.RotationNumber, "double", "qprenorm.double"),
)
_MATRICES = ("renorm1d.l1_matrix", "renorm1d.l2_matrix", "renorm1d.dr_matrix")

# name, unit, better, (end-to-end metric, workloads) it should move
PER_LAYER = (
    ("funcspace.chebval_calls", "count", "lower",
     "wall_s: universality, mixed-quotient, curves"),
    ("funcspace.chebval_points", "count", "lower",
     "wall_s: universality, mixed-quotient, curves"),
    ("funcspace.chebval_s", "s", "lower",
     "wall_s: universality, mixed-quotient, curves"),
    ("funcspace.analytic_eval_calls", "count", "lower",
     "op_p50_s: universality"),
    ("funcspace.analytic_eval_self_s", "s", "lower",
     "op_p50_s: universality"),
    ("funcspace.qpfn_eval_calls", "count", "lower", "wall_s: curves"),
    ("funcspace.qpfn_eval_points", "count", "lower", "wall_s: curves"),
    ("funcspace.qpfn_eval_self_s", "s", "lower", "wall_s: curves"),
    ("funcspace.qpfn_dx_calls", "count", "lower", "wall_s: curves"),
    ("funcspace.qpfn_dx_s", "s", "lower", "wall_s: curves"),
    ("funcspace.compose_fiber_calls", "count", "lower",
     "wall_s: mixed-quotient"),
    ("funcspace.compose_fiber_s", "s", "lower", "wall_s: mixed-quotient"),
    ("funcspace.sup_norm_calls", "count", "lower", "wall_s: contraction"),
    ("funcspace.sup_norm_s", "s", "lower", "wall_s: contraction"),
    ("renorm1d.renormalize_1d_calls", "count", "lower",
     "wall_s: universality"),
    ("renorm1d.renormalize_1d_s", "s", "lower", "wall_s: universality"),
    ("renorm1d.unstable_points_calls", "count", "lower",
     "wall_s: universality; none on mixed-quotient"),
    ("renorm1d.unstable_points_s", "s", "lower",
     "wall_s: universality; none on mixed-quotient"),
    ("renorm1d.unstable_points_useful_ratio", "1", "higher",
     "wall_s: universality"),
    ("renorm1d.matrix_builds", "count", "lower", "wall_s: contraction"),
    ("renorm1d.matrix_s", "s", "lower", "wall_s: contraction"),
    ("renorm1d.matrix_useful_ratio", "1", "higher", "wall_s: contraction"),
    ("renorm1d.superstable_s", "s", "lower",
     "wall_s: mixed-quotient, universality"),
    ("renorm1d.stable_manifold_s", "s", "lower",
     "wall_s: mixed-quotient, universality"),
    ("renorm1d.fixed_point_s", "s", "lower", "setup_s: all"),
    ("renorm1d.fixed_point_newton_iters", "count", "lower", "setup_s: all"),
    ("qprenorm.build_L_omega_calls", "count", "lower", "wall_s: contraction"),
    ("qprenorm.build_L_omega_s", "s", "lower", "wall_s: contraction"),
    ("qprenorm.gamma_normalize_calls", "count", "lower",
     "wall_s: contraction"),
    ("qprenorm.gamma_normalize_s", "s", "lower", "wall_s: contraction"),
    ("qprenorm.apply_DT_calls", "count", "lower", "wall_s: universality"),
    ("qprenorm.apply_DT_s", "s", "lower", "wall_s: universality"),
    ("qprenorm.apply_T_calls", "count", "lower", "wall_s: mixed-quotient"),
    ("qprenorm.apply_T_s", "s", "lower", "wall_s: mixed-quotient"),
    ("qprenorm.double_calls", "count", "lower",
     "wall_s: mixed-quotient, universality"),
    ("qprenorm.double_s", "s", "lower",
     "wall_s: mixed-quotient, universality"),
    ("curvedyn.curve_solves", "count", "lower", "wall_s: curves"),
    ("curvedyn.curve_solve_s", "s", "lower", "wall_s: curves"),
    ("curvedyn.fiber_product_s", "s", "lower", "wall_s: curves"),
    ("curvedyn.curve_passes_per_solve", "count", "lower", "wall_s: curves"),
    ("curvedyn.slope_chain_calls", "count", "lower",
     "wall_s: universality, mixed-quotient"),
    ("curvedyn.slope_chain_self_s", "s", "lower",
     "wall_s: universality, mixed-quotient"),
    ("curvedyn.DG1_calls", "count", "lower",
     "wall_s: universality, mixed-quotient"),
    ("curvedyn.DG1_s", "s", "lower", "wall_s: universality, mixed-quotient"),
    ("asymptotics.self_s", "s", "lower",
     "wall_s: universality, mixed-quotient (expected flat)"),
    ("asymptotics.slope_formula_calls", "count", "lower",
     "wall_s: universality, mixed-quotient"),
    ("cli.self_s", "s", "lower", "wall_s: mixed-quotient"),
    ("cli.artifact_bytes", "B", "lower", "wall_s: mixed-quotient"),
    ("trace.overhead_frac", "1", "lower", "none: cost of the traced run"),
)


def _chebval_work(x, c, tensor=True):
    """Points times coefficient columns of one chebval call."""
    c = np.asarray(c)
    return int(np.size(x)) * (c.size // c.shape[0] if c.ndim else 1)


def _qpfn_eval_work(self, theta, x):
    return int(np.broadcast(np.asarray(theta), np.asarray(x)).size)


class Tracer:
    """Timing wrappers plus the spans they record."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.work = array("q")
        self.current_op = -1
        self.matrix_keys = set()
        self.unstable_needed = set()
        self.unstable_computed = 0
        self._stack = [-1]
        self._patches = []

    # ----------------------------------------------------------- wrappers

    def _wrap(self, name, fn, work=None, note=None):
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, works, stack = self.parent, self.op, self.work, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(self.current_op)
            works.append(work(*args, **kwargs) if work else 0)
            if note:
                note(*args, **kwargs)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return wrapper

    def _note_matrix(self, kind):
        def note(psi, *args, **kwargs):
            self.matrix_keys.add((kind, psi.psi.coeffs.tobytes()))
        return note

    def _note_unstable(self, fp, j_max, *args, **kwargs):
        dom = fp.phi.domain
        self.unstable_needed.update((dom, j) for j in range(1, j_max + 1))
        self.unstable_computed += j_max

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced entry point; a second install is an error."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(_cheb, "chebval",
                    self._wrap("funcspace.chebval", _cheb.chebval,
                               work=_chebval_work))
        for cls, attr, name in _METHODS:
            work = _qpfn_eval_work if name == "funcspace.qpfn_eval" else None
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr],
                                              work=work))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qprenorm_lab" or n.startswith("qprenorm_lab.")]
        for home, fn_names in _FUNCTIONS.items():
            layer = home.__name__.rsplit(".", 1)[-1]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                note = None
                if name in _MATRICES:
                    note = self._note_matrix(fn_name)
                elif fn_name == "unstable_manifold_points":
                    note = self._note_unstable
                wrapper = self._wrap(name, original, note=note)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ results

    def arrays(self):
        """Copies of the span columns (name, start, end, parent, work, op);
        views would pin the arrays against further appends."""
        return tuple(np.array(a) for a in (self.name, self.start, self.end,
                                           self.parent, self.work, self.op))

    def metrics(self, overhead_frac, artifact_bytes):
        """Per-layer metrics as {name: value}, in PER_LAYER order."""
        name, start, end, parent, work, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent],
                                   weights=dur[has_parent],
                                   minlength=dur.size)
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(*span_names):
            return np.isin(name, [ids.get(n, -1) for n in span_names])

        def calls(n):
            return int(np.count_nonzero(mask(n)))

        def total(n):
            return float(np.sum(dur[mask(n)]))

        def self_time(*ns):
            return float(np.sum(self_t[mask(*ns)]))

        def outermost(group):
            """Spans of the group with no ancestor inside the group."""
            in_group = mask(*group)
            keep = []
            for i in np.flatnonzero(in_group):
                p = parent[i]
                while p >= 0 and not in_group[p]:
                    p = parent[p]
                if p < 0:
                    keep.append(i)
            return np.array(keep, dtype=np.int64)

        def under(child, ancestor):
            """Spans named child with a span named ancestor above them."""
            anc = ids.get(ancestor, -1)
            count = 0
            for i in np.flatnonzero(mask(child)):
                p = parent[i]
                while p >= 0 and name[p] != anc:
                    p = parent[p]
                count += p >= 0
            return count

        matrix_builds = int(np.count_nonzero(mask(*_MATRICES)))
        solves = calls("curvedyn.solve_invariant_curve")
        fp_spans = np.flatnonzero(mask("renorm1d.solve_fixed_point"))
        newton = int(np.count_nonzero(
            mask("renorm1d.renormalize_1d") & np.isin(parent, fp_spans)))
        asym = [n for n in self.names if n.startswith("asymptotics.")]
        return {
            "funcspace.chebval_calls": calls("funcspace.chebval"),
            "funcspace.chebval_points":
                int(np.sum(work[mask("funcspace.chebval")])),
            "funcspace.chebval_s": total("funcspace.chebval"),
            "funcspace.analytic_eval_calls":
                calls("funcspace.analytic_eval"),
            "funcspace.analytic_eval_self_s":
                self_time("funcspace.analytic_eval"),
            "funcspace.qpfn_eval_calls": calls("funcspace.qpfn_eval"),
            "funcspace.qpfn_eval_points":
                int(np.sum(work[mask("funcspace.qpfn_eval")])),
            "funcspace.qpfn_eval_self_s": self_time("funcspace.qpfn_eval"),
            "funcspace.qpfn_dx_calls": calls("funcspace.qpfn_dx"),
            "funcspace.qpfn_dx_s": total("funcspace.qpfn_dx"),
            "funcspace.compose_fiber_calls": calls("funcspace.compose_fiber"),
            "funcspace.compose_fiber_s": total("funcspace.compose_fiber"),
            "funcspace.sup_norm_calls": calls("funcspace.sup_norm"),
            "funcspace.sup_norm_s":
                float(np.sum(dur[outermost(["funcspace.sup_norm"])])),
            "renorm1d.renormalize_1d_calls":
                calls("renorm1d.renormalize_1d"),
            "renorm1d.renormalize_1d_s": total("renorm1d.renormalize_1d"),
            "renorm1d.unstable_points_calls":
                calls("renorm1d.unstable_manifold_points"),
            "renorm1d.unstable_points_s":
                total("renorm1d.unstable_manifold_points"),
            "renorm1d.unstable_points_useful_ratio":
                (len(self.unstable_needed) / self.unstable_computed
                 if self.unstable_computed else 1.0),
            "renorm1d.matrix_builds": matrix_builds,
            "renorm1d.matrix_s": float(np.sum(dur[outermost(_MATRICES)])),
            "renorm1d.matrix_useful_ratio":
                (len(self.matrix_keys) / matrix_builds
                 if matrix_builds else 1.0),
            "renorm1d.superstable_s": total("renorm1d.superstable_params"),
            "renorm1d.stable_manifold_s":
                total("renorm1d.stable_manifold_param"),
            "renorm1d.fixed_point_s": total("renorm1d.solve_fixed_point"),
            "renorm1d.fixed_point_newton_iters": newton,
            "qprenorm.build_L_omega_calls": calls("qprenorm.build_L_omega"),
            "qprenorm.build_L_omega_s": total("qprenorm.build_L_omega"),
            "qprenorm.gamma_normalize_calls":
                calls("qprenorm.gamma_normalize"),
            "qprenorm.gamma_normalize_s": total("qprenorm.gamma_normalize"),
            "qprenorm.apply_DT_calls": calls("qprenorm.apply_DT"),
            "qprenorm.apply_DT_s": total("qprenorm.apply_DT"),
            "qprenorm.apply_T_calls": calls("qprenorm.apply_T"),
            "qprenorm.apply_T_s": total("qprenorm.apply_T"),
            "qprenorm.double_calls": calls("qprenorm.double"),
            "qprenorm.double_s": total("qprenorm.double"),
            "curvedyn.curve_solves": solves,
            "curvedyn.curve_solve_s":
                total("curvedyn.solve_invariant_curve"),
            "curvedyn.fiber_product_s": total("curvedyn.fiber_product"),
            "curvedyn.curve_passes_per_solve":
                (under("funcspace.qpfn_dx", "curvedyn.solve_invariant_curve")
                 / solves if solves else 0.0),
            "curvedyn.slope_chain_calls": calls("curvedyn.slope_chain"),
            "curvedyn.slope_chain_self_s": self_time("curvedyn.slope_chain"),
            "curvedyn.DG1_calls": calls("curvedyn.DG1"),
            "curvedyn.DG1_s": total("curvedyn.DG1"),
            "asymptotics.self_s": self_time(*asym),
            "asymptotics.slope_formula_calls":
                calls("curvedyn.slope_formula"),
            "cli.self_s": self_time("cli.main"),
            "cli.artifact_bytes": int(artifact_bytes),
            "trace.overhead_frac": float(overhead_frac),
        }

    def write(self, path):
        """Save every span with the table of span names."""
        name, start, end, parent, work, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            start=start, end=end, parent=parent, work=work,
                            op=op)
