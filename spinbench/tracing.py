"""In-memory span tracer for the per-layer view of a benchmark run.

Each layer of spincouple is entered through a handful of module-level
names.  Modules import those names directly (``from .couplings import
coupling_exists``), so a hook has to replace the binding the *caller*
looks up: ``spincouple.cli.coupling_exists`` and
``spincouple.connections.coupling_exists`` are two hooks on the same
function.  A hook whose module or attribute no longer exists is recorded
as missing, and a layer all of whose hooks are missing is reported
absent rather than failing the run; the hooks that remain then show which
route a solve took.

A span records its layer, its parent span, its part of the round and its
start and end.  Self time is a span's duration minus the time its direct
child spans cover; busy time is the time during which at least one span
of the layer is open.  Counts are taken at the same boundaries, but only
while ``counting`` is on, so that they cover a fixed amount of work.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "connections",
    "campaigns",
    "couplings",
    "lp",
    "kernel",
    "sampling",
    "inequalities",
    "conditionalization",
    "distributions",
)

# (layer, owner, attribute): the owner is a module, or module:Class for a
# method.  Listed where the caller resolves the name at call time.
SPAN_HOOKS = (
    ("cli", "spincouple.cli", "main"),
    ("connections", "spincouple.cli", "test_fitting"),
    ("connections", "spincouple.cli", "test_forcing"),
    ("connections", "spincouple.cli", "test_equivalent"),
    ("campaigns", "spincouple.campaigns", "fine_agreement_campaign"),
    ("campaigns", "spincouple.campaigns", "uninformativeness_campaign"),
    ("couplings", "spincouple.cli", "coupling_exists"),
    ("couplings", "spincouple.cli", "identity_coupling_exists"),
    ("couplings", "spincouple.cli", "connection_range"),
    ("couplings", "spincouple.connections", "coupling_exists"),
    ("couplings", "spincouple.campaigns", "identity_coupling_exists"),
    ("lp", "spincouple.couplings", "solve_feasibility"),
    ("lp", "spincouple.couplings", "optimize"),
    ("kernel", "spincouple._kernel_pure", "solve"),
    ("kernel", "spincouple._kernel_cy", "solve"),
    ("sampling", "spincouple.connections", "sample_scenario_in_family"),
    ("sampling", "spincouple.campaigns", "sample_uniform_marginal_scenario"),
    ("sampling", "spincouple.campaigns", "sample_scenario_stratum"),
    ("sampling", "spincouple.campaigns", "sample_condition_distribution"),
    ("inequalities", "spincouple.cli", "family_report"),
    ("inequalities", "spincouple.campaigns", "bell_ch_fine"),
    ("inequalities", "spincouple.sampling", "chsh_max"),
    ("inequalities", "spincouple.sampling", "arcsin_sum_max"),
    ("conditionalization", "spincouple.cli", "build_conditional"),
    ("conditionalization", "spincouple.cli", "verify_conditionals"),
    ("conditionalization", "spincouple.campaigns", "build_conditional"),
    ("conditionalization", "spincouple.campaigns", "verify_conditionals"),
    ("distributions", "spincouple.cli", "check_no_signaling"),
    ("distributions", "spincouple.cli", "scenario_from_correlations"),
    ("distributions", "spincouple.sampling", "scenario_from_correlations"),
    ("distributions", "spincouple.sampling", "check_no_signaling"),
    ("distributions", "spincouple.distributions:Scenario", "correlations"),
)

# Count-only hooks: called too often for a span, or internal to a layer
# whose self time they belong to.
COUNT_HOOKS = (
    ("lp.presolve_calls", "spincouple.lp", "_presolve"),
    ("sampling.correlation_draws", "spincouple.sampling", "draw_correlation_components"),
    ("sampling.pair_draws", "spincouple.sampling", "_random_pair_distribution"),
)


def _resolve(owner: str):
    """The object holding the hooked attribute, or None if it is gone."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        obj = getattr(obj, class_name, None)
    return obj


def _witness_bits(witness) -> int:
    bits = 0
    for v in witness or ():
        if v:
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counts for one run; hooks are installed by ``install()``."""

    def __init__(self) -> None:
        # per span: [layer, parent index, part, start, end, outermost-of-layer]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.maxima: dict[tuple[str, str], int] = defaultdict(int)
        self.part = ""
        self.counting = False
        self.missing_hooks: list[str] = []
        self.installed_hooks: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def count(self, name: str, value: float = 1) -> None:
        if self.counting:
            self.counts[(self.part, name)] += value

    def maximum(self, name: str, value: int) -> None:
        if self.counting and value > self.maxima[(self.part, name)]:
            self.maxima[(self.part, name)] = value

    def _span(self, layer: str, fn, probe):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            outer = tracer._depth[layer] == 0
            record = [layer, parent, tracer.part, 0.0, 0.0, outer]
            tracer.spans.append(record)
            tracer._stack.append(index)
            tracer._depth[layer] += 1
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                tracer._depth[layer] -= 1
                tracer._stack.pop()
            tracer.count(f"{layer}.calls")
            if probe is not None:
                probe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --------------------------------------------------------- installation

    def install(self) -> None:
        for layer, owner, attr in SPAN_HOOKS:
            self._hook(owner, attr, lambda fn, layer=layer: self._span(layer, fn, _PROBES.get(layer)))
        for name, owner, attr in COUNT_HOOKS:
            self._hook(owner, attr, lambda fn, name=name: self._counter(name, fn))

    def _hook(self, owner: str, attr: str, make) -> None:
        label = f"{owner}.{attr}"
        target = _resolve(owner)
        fn = getattr(target, attr, None) if target is not None else None
        if not callable(fn):
            if label not in self.missing_hooks:
                self.missing_hooks.append(label)
            return
        self._saved.append((target, attr, fn))
        setattr(target, attr, make(fn))
        if label not in self.installed_hooks:
            self.installed_hooks.append(label)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, fn = self._saved.pop()
            setattr(target, attr, fn)

    def absent_layers(self) -> list[str]:
        present = {
            layer
            for layer, owner, attr in SPAN_HOOKS
            if f"{owner}.{attr}" in self.installed_hooks
        }
        return [layer for layer in LAYERS if layer not in present]

    # ---------------------------------------------------------- aggregation

    def times(self) -> dict[tuple[str, str], dict[str, float]]:
        """(part, layer) -> {"self_s": ..., "busy_s": ...} summed over spans."""
        child = [0.0] * len(self.spans)
        for layer, parent, part, t0, t1, outer in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "busy_s": 0.0}
        )
        for k, (layer, parent, part, t0, t1, outer) in enumerate(self.spans):
            entry = out[(part, layer)]
            entry["self_s"] += (t1 - t0) - child[k]
            if outer:
                entry["busy_s"] += t1 - t0
        return out


# ------------------------------------------------------------------ probes
# Each probe sees the hooked call's positional arguments and its result.


def _probe_kernel(tracer: Tracer, args, result) -> None:
    rows, objective = args[0], args[2]
    cols = len(rows[0]) if rows else len(objective or ())
    tracer.count("kernel.rows", len(rows))
    tracer.count("kernel.cols", cols)


def _probe_lp(tracer: Tracer, args, result) -> None:
    lp = args[0]
    tracer.count("lp.cols_in", lp.num_vars)
    tracer.count("lp.rows_in", len(lp.equalities))
    if result.status.value == "infeasible":
        tracer.count("lp.infeasible")
    tracer.maximum("lp.witness_bits_max", _witness_bits(result.witness))


def _probe_sampling(tracer: Tracer, args, result) -> None:
    # condition distributions are drawn without rejection; only scenario
    # draws count towards the acceptance ratio
    if type(result).__name__ == "Scenario":
        tracer.count("sampling.accepted")


def _probe_conditionalization(tracer: Tracer, args, result) -> None:
    table = getattr(result, "table", None)
    if table is not None:
        tracer.count("conditionalization.cells", len(table))


def _probe_connections(tracer: Tracer, args, result) -> None:
    n = args[3]
    allowed = 2 * n if result.role == "equivalent" else n
    tracer.count("connections.decisions", result.samples_checked)
    tracer.count("connections.decisions_allowed", allowed)


_PROBES = {
    "kernel": _probe_kernel,
    "lp": _probe_lp,
    "sampling": _probe_sampling,
    "conditionalization": _probe_conditionalization,
    "connections": _probe_connections,
}


# ------------------------------------------------------------------ metrics

PART_LAYERS = {
    "query": ("cli", "couplings", "lp", "kernel", "inequalities", "conditionalization", "distributions"),
    "sweep": ("cli", "connections", "couplings", "lp", "kernel", "sampling", "inequalities", "distributions"),
    "campaign": ("campaigns", "couplings", "lp", "kernel", "sampling", "inequalities", "conditionalization", "distributions"),
}

# layer -> (metric, unit); timings are seconds per traced round, the rest
# are exact counts over the first COUNT_ROUNDS traced rounds
LAYER_METRICS = {
    "cli": (("self_s", "s/round"), ("output_bytes", "bytes")),
    "connections": (("self_s", "s/round"), ("decisions_per_verdict", "count"), ("decision_share", "ratio")),
    "campaigns": (("self_s", "s/round"),),
    "couplings": (("self_s", "s/round"), ("calls", "count")),
    "lp": (
        ("self_s", "s/round"), ("solves", "count"), ("cols_in", "count"), ("rows_in", "count"),
        ("infeasible_share", "ratio"), ("witness_bits_max", "bits"), ("presolve_calls", "count"),
    ),
    "kernel": (("busy_s", "s/round"), ("calls", "count"), ("cols_mean", "count"), ("rows_mean", "count")),
    "sampling": (("busy_s", "s/round"), ("draws", "count"), ("accepted", "count"), ("accept_ratio", "ratio")),
    "inequalities": (("busy_s", "s/round"), ("calls", "count")),
    "conditionalization": (("busy_s", "s/round"), ("cells", "count")),
    "distributions": (("busy_s", "s/round"),),
}

# the counts a later change may cite; they must repeat bit for bit
EXACT_COUNTS = (
    "kernel.calls", "kernel.cols_mean", "lp.solves", "sampling.draws",
    "connections.decisions_per_verdict", "lp.witness_bits_max",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for part, layers in PART_LAYERS.items():
        for layer in layers:
            names.extend((f"{part}.{layer}.{m}", unit) for m, unit in LAYER_METRICS[layer])
    names.extend((f"trace.overhead.{part}", "ratio") for part in PART_LAYERS)
    names.append(("trace.absent_layers", "count"))
    return names


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _values(part: str, layer: str, tracer: Tracer, times, per_round: float) -> dict[str, float]:
    def c(name: str) -> float:
        return tracer.counts.get((part, name), 0.0)

    t = times.get((part, layer), {"self_s": 0.0, "busy_s": 0.0})
    v = {"self_s": t["self_s"] * per_round, "busy_s": t["busy_s"] * per_round, "calls": c(f"{layer}.calls")}
    if layer == "cli":
        v["output_bytes"] = _ratio(c("cli.output_bytes"), c("cli.calls"))
    elif layer == "connections":
        v["decisions_per_verdict"] = _ratio(c("connections.decisions"), c("connections.calls"))
        v["decision_share"] = _ratio(c("connections.decisions"), c("connections.decisions_allowed"))
    elif layer == "lp":
        solves = c("lp.calls")
        v.update(
            solves=solves,
            cols_in=_ratio(c("lp.cols_in"), solves),
            rows_in=_ratio(c("lp.rows_in"), solves),
            infeasible_share=_ratio(c("lp.infeasible"), solves),
            witness_bits_max=tracer.maxima.get((part, "lp.witness_bits_max"), 0),
            presolve_calls=c("lp.presolve_calls"),
        )
    elif layer == "kernel":
        v["cols_mean"] = _ratio(c("kernel.cols"), v["calls"])
        v["rows_mean"] = _ratio(c("kernel.rows"), v["calls"])
    elif layer == "sampling":
        draws = c("sampling.correlation_draws") + c("sampling.pair_draws") / 4
        v.update(draws=draws, accepted=c("sampling.accepted"))
        v["accept_ratio"] = _ratio(v["accepted"], draws)
    elif layer == "conditionalization":
        v["cells"] = c("conditionalization.cells")
    return v


def per_layer(tracer: Tracer, rounds: int, speed_factor: float, overhead: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, plus the detail for the report.

    Timings are given per traced round and scaled by the traced
    executions' mean speed factor (normalized over raw seconds), like the
    end-to-end ones.  ``overhead`` is, per part, the traced executions'
    normalized time over the untraced ones', minus one.
    """
    times = tracer.times()
    absent = tracer.absent_layers()
    metrics = {}
    for part, layers in PART_LAYERS.items():
        for layer in layers:
            values = _values(part, layer, tracer, times, speed_factor / rounds)
            for name, unit in LAYER_METRICS[layer]:
                value = 0.0 if layer in absent else values[name]
                metrics[f"{part}.{layer}.{name}"] = {"value": value, "unit": unit}
    for part in PART_LAYERS:
        metrics[f"trace.overhead.{part}"] = {"value": overhead[part], "unit": "ratio"}
    metrics["trace.absent_layers"] = {"value": len(absent), "unit": "count"}
    exact = {
        f"{part}.{name}": metrics[f"{part}.{name}"]["value"]
        for part, layers in PART_LAYERS.items()
        for name in EXACT_COUNTS
        if name.split(".")[0] in layers
    }
    detail = {
        "traced_rounds": rounds,
        "spans": len(tracer.spans),
        "absent_layers": absent,
        "missing_hooks": tracer.missing_hooks,
        "exact_counts": exact,
    }
    return metrics, detail
