"""Traced runs: spans around the public calls of each `bosefold` layer.

`Tracer.install()` replaces functions in the namespaces where their callers
look them up (`cli` and `scenarios` import callees by name, `mps` reaches
`apply_two`, `fold_two` and friends through its module globals), so the
package itself is not edited.  Every call becomes a span with a name, start,
end and parent; spans stay in memory and are written out at the end.

Counts that need the returned states (bond dimension, fill, bytes, RDM flops,
fold-plan rotations) are computed by hooks after the call returns.  Hook time
is subtracted from every span still open, so no timed span contains it.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# per-layer time metrics: metric name -> span names it sums
TIMED = {
    "mps.reduced_density_two_sites.s": ("mps.reduced_density_two_sites",),
    "mps.build_pair_rotation_gate.s": ("mps.build_pair_rotation_gate",),
    "mps.apply_two.s": ("mps.apply_two",),
    "mps.apply_single.s": ("mps.apply_single",),
    "mps.lift_first_site.s": ("mps.lift_first_site",),
    "mps.two_sum_state.s": ("mps.two_sum_state",),
    "mps.condensate_state.s": ("mps.condensate_state",),
    "mps.occupations.s": ("mps.occupations",),
    "folding.s": ("folding.fold_single", "folding.fold_two", "folding.invert_plan"),
    "heisenberg.spectral_decompose.s": ("heisenberg.spectral_decompose",),
    "heisenberg.propagate.s": ("heisenberg.propagate",),
    "model.build_coupling.s": ("model.build_coupling",),
    "entanglement.logneg_partial_transpose.s": ("entanglement.logneg_partial_transpose",),
    "config.parse_config.s": ("config.parse_config",),
    "cli.csv_write.s": ("cli.csv_write",),
}
CALLS = {
    "mps.reduced_density_two_sites.calls": "mps.reduced_density_two_sites",
    "mps.build_pair_rotation_gate.calls": "mps.build_pair_rotation_gate",
    "mps.apply_two.calls": "mps.apply_two",
    "heisenberg.propagate.calls": "heisenberg.propagate",
}


def rdm_transfer_flops(state, k: int, l: int) -> float:
    """Real flops of the dense transfer loop in `reduced_density_two_sites`.

    For each inner site and each local level m whose Gamma slice is nonzero,
    the loop multiplies (d^2, chi_in, chi_in) by (chi_in, chi_out) and then
    (chi_out, chi_in) by the result: d^2 chi_in chi_out (chi_in + chi_out)
    complex multiply-adds of 8 real flops each.  Computed from bond
    dimensions, not counted by hardware.
    """
    d = state.local_dim
    flops = 0.0
    for s in range(k, l - 1):
        g = state.gammas[s]
        chi_in, chi_out = g.shape[0], g.shape[2]
        levels = sum(1 for m in range(d) if g[:, m, :].any())
        flops += levels * 8.0 * d * d * chi_in * chi_out * (chi_in + chi_out)
    return flops


def count_csv(counts, args, _out):
    counts["cli.csv_bytes"] += os.path.getsize(args[0])


def count_state(counts, _args, state):
    counts["gamma_nonzero"] += sum(int((g != 0).sum()) for g in state.gammas)
    counts["gamma_stored"] += sum(g.size for g in state.gammas)
    counts["mps.chi_max"] = max(counts["mps.chi_max"], max(l.shape[0] for l in state.lambdas))
    nbytes = sum(g.nbytes for g in state.gammas) + sum(l.nbytes for l in state.lambdas)
    counts["mps.state_bytes"] = max(counts["mps.state_bytes"], nbytes)
    counts["mps.discarded_weight_max"] = max(counts["mps.discarded_weight_max"],
                                             state.discarded_weight)


def count_rdm(counts, args, _out):
    state, k, l = args[:3]
    counts["rdm_flops"] += rdm_transfer_flops(state, k, l)


def count_plan(counts, _args, plan):
    """Pair rotations a plan makes the MPS replay, and how many have nonzero angle."""
    plans = [plan]
    if hasattr(plan, "bridging_angle"):  # two-sum: both plans, plus the bridge and its undo
        plans = [plan.plan1, plan.plan2_partial]
        counts["rotations"] += 2
        counts["rotations_nonzero"] += 2 * (plan.bridging_angle != 0.0)
    for p in plans:
        for op in p.ops:
            if hasattr(op, "bond"):
                counts["rotations"] += 1
                counts["rotations_nonzero"] += op.angle != 0.0


# (module whose global is replaced, attribute, span name, count hook or None)
PATCHES = (
    ("bosefold.cli", "parse_config", "config.parse_config", None),
    ("bosefold.cli", "run_collision_sweep", "scenarios.run_collision_sweep", None),
    ("bosefold.cli", "run_quench", "scenarios.run_quench", None),
    ("bosefold.cli", "write_sweep_csv", "cli.csv_write", count_csv),
    ("bosefold.cli", "write_occupations_csv", "cli.csv_write", count_csv),
    ("bosefold.scenarios", "build_coupling", "model.build_coupling", None),
    ("bosefold.scenarios", "add_onsite_barrier", "model.add_onsite_barrier", None),
    ("bosefold.scenarios", "spectral_decompose", "heisenberg.spectral_decompose", None),
    ("bosefold.scenarios", "propagate", "heisenberg.propagate", None),
    ("bosefold.scenarios", "ground_mode", "heisenberg.ground_mode", None),
    ("bosefold.scenarios", "evolve_mode", "heisenberg.evolve_mode", None),
    ("bosefold.scenarios", "two_sum_state", "mps.two_sum_state", count_state),
    ("bosefold.scenarios", "condensate_state", "mps.condensate_state", count_state),
    ("bosefold.scenarios", "occupations", "mps.occupations", None),
    ("bosefold.scenarios", "reduced_density_two_sites", "mps.reduced_density_two_sites",
     count_rdm),
    ("bosefold.scenarios", "logneg_partial_transpose",
     "entanglement.logneg_partial_transpose", None),
    ("bosefold.scenarios", "collection_fraction", "entanglement.collection_fraction", None),
    ("bosefold.mps", "fold_single", "folding.fold_single", count_plan),
    ("bosefold.mps", "fold_two", "folding.fold_two", count_plan),
    ("bosefold.mps", "invert_plan", "folding.invert_plan", None),
    ("bosefold.mps", "build_pair_rotation_gate", "mps.build_pair_rotation_gate", None),
    ("bosefold.mps", "build_phase_gate", "mps.build_phase_gate", None),
    ("bosefold.mps", "apply_two", "mps.apply_two", None),
    ("bosefold.mps", "apply_single", "mps.apply_single", None),
    ("bosefold.mps", "lift_first_site", "mps.lift_first_site", None),
)


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # dicts: id, pass, parent, name, start, end, excluded
        self._stack = []
        self.pass_id = 0
        self.hook_s = 0.0  # hook time inside the current pass, excluded from spans
        self.counts = defaultdict(float)
        self._saved = []

    # -- patching ------------------------------------------------------

    def install(self):
        for modname, attr, name, hook in PATCHES:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, hook))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "pass": self.pass_id,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "name": name, "start": 0.0, "end": 0.0, "excluded": 0.0}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                self._untimed(hook, self.counts, args, out)
            return out
        return traced

    def _untimed(self, fn, *args):
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        for span in self._stack:
            span["excluded"] += dt
        self.hook_s += dt

    # -- per-pass bookkeeping -----------------------------------------

    def begin_pass(self):
        self.pass_id += 1
        self.hook_s = 0.0
        self.counts = defaultdict(float)

    def pass_times(self) -> dict:
        """{span name: (calls, total s, self s)} for the current pass.

        Self time is a span's duration minus that of its direct children.
        """
        spans = [s for s in self.spans if s["pass"] == self.pass_id]
        net = {s["id"]: s["end"] - s["start"] - s["excluded"] for s in spans}
        child_s = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += net[s["id"]]
        out = defaultdict(lambda: (0, 0.0, 0.0))
        for s in spans:
            calls, total, self_s = out[s["name"]]
            out[s["name"]] = (calls + 1, total + net[s["id"]],
                              self_s + net[s["id"]] - child_s[s["id"]])
        return out

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the current pass, from its spans and counts."""
        times = self.pass_times()
        out = {metric: sum(times[n][1] for n in names) for metric, names in TIMED.items()}
        out.update({metric: float(times[n][0]) for metric, n in CALLS.items()})
        out["scenarios.self_s"] = sum(t[2] for n, t in times.items()
                                      if n.startswith("scenarios."))
        c = self.counts
        out["mps.chi_max"] = c["mps.chi_max"]
        out["mps.gamma_fill"] = c["gamma_nonzero"] / c["gamma_stored"] if c["gamma_stored"] else 0.0
        out["mps.state_bytes"] = c["mps.state_bytes"]
        out["mps.rdm_dense_gflop"] = c["rdm_flops"] / 1e9
        rdm_s = out["mps.reduced_density_two_sites.s"]
        out["mps.rdm_gflop_per_s"] = out["mps.rdm_dense_gflop"] / rdm_s if rdm_s > 0 else 0.0
        out["mps.discarded_weight_max"] = c["mps.discarded_weight_max"]
        out["folding.rotations"] = c["rotations"]
        out["folding.rotations_nonzero_ratio"] = (
            c["rotations_nonzero"] / c["rotations"] if c["rotations"] else 0.0)
        out["cli.csv_bytes"] = c["cli.csv_bytes"]
        return out

    def write(self, path, context):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"context": context, "spans": self.spans}, fh)
