"""The traced run (``--trace 1``): per-layer metrics, taken from outside.

Every layer is reached through its public entry points only:

* compiler passes from ``CompilationResult.pass_timings``;
* extraction stages by wrapping the public callees the extractor looks up
  (``PackedPauliTable.apply_basis_layer``, ``synthesize_tree``,
  ``stream_gates_over_suffix``, ``GateStreamOptimizer.append``) while the
  ``CliffordExtraction`` pass runs; a callee that cannot be found is
  reported as missing and the run goes on;
* absorption, the wire format, the artifact cache, the client codec and
  template binds timed in-process on the workload's own inputs;
* the server and scheduler from forced-trace spans (``X-Repro-Trace: 1``,
  fetched with ``GET /trace/<id>``) and ``GET /metrics`` deltas.

Each workload reports the layers its own operations pass through; the
others are listed under ``not_applicable`` (compile-cold has no server,
serve-hits compiles nothing, the server never absorbs), and a layer whose
hook or samples cannot be found under ``missing``.  Both print as 0.

End-to-end numbers are never taken from a traced run; ``trace_overhead_pct``
compares the traced and untraced p50 measured here.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

import common

#: every per-layer metric and its unit, in report order
PER_LAYER = {
    "pass.GroupCommuting_ms": "ms",
    "pass.CliffordExtraction_ms": "ms",
    "pass.Peephole_ms": "ms",
    "pass.SabreRouting_ms": "ms",
    "pass.PostRoutingPeephole_ms": "ms",
    "compile.pass_residual_pct": "%",
    "extraction.basis_layer_ms": "ms",
    "extraction.tree_synthesis_ms": "ms",
    "extraction.gate_streaming_ms": "ms",
    "extraction.peephole_ms": "ms",
    "extraction.self_ms": "ms",
    "absorb_ms": "ms",
    "wire.decode_program_ms": "ms",
    "cache.key_ms": "ms",
    "cache.read_memory_ms": "ms",
    "cache.read_disk_ms": "ms",
    "wire.encode_result_ms": "ms",
    "cache.write_ms": "ms",
    "server.handle_p50_ms": "ms",
    "server.handle_p99_ms": "ms",
    "scheduler.queue_wait_p50_ms": "ms",
    "scheduler.queue_wait_p99_ms": "ms",
    "scheduler.batch_p50_ms": "ms",
    "unattributed_p50_ms": "ms",
    "cache.memory_hit_frac": "fraction",
    "cache.disk_hit_frac": "fraction",
    "scheduler.batch_size_mean": "count",
    "scheduler.jobs_shed": "count",
    "cache.evictions": "count",
    "client.encode_ms": "ms",
    "client.decode_ms": "ms",
    "bind_ms": "ms",
    "mixed.hit_p50_ms": "ms",
    "mixed.compile_p50_ms": "ms",
    "mixed.bind_p50_ms": "ms",
    "gen.lag_p99_ms": "ms",
    "calib_ms": "ms",
    "trace_overhead_pct": "%",
}

PASSES = ("GroupCommuting", "CliffordExtraction", "Peephole", "SabreRouting", "PostRoutingPeephole")

#: (metric, module, attribute path) of each wrapped extraction callee
STAGE_HOOKS = (
    ("extraction.basis_layer_ms", "repro.paulis.packed", "PackedPauliTable.apply_basis_layer"),
    ("extraction.tree_synthesis_ms", "repro.core.extraction", "synthesize_tree"),
    ("extraction.gate_streaming_ms", "repro.core.extraction", "stream_gates_over_suffix"),
    ("extraction.peephole_ms", "repro.transpile.wire_optimizer", "GateStreamOptimizer.append"),
)

#: the pass whose run marks the window the stage hooks count in
EXTRACTION_PASS = ("repro.compiler.passes", "CliffordExtraction.run")

#: traces fetched per traced phase
TRACES_FETCHED = 300

#: per-layer metrics of layers that compile-cold's library calls never reach
SERVING_LAYERS = (
    "wire.decode_program_ms", "cache.key_ms", "cache.read_memory_ms", "cache.read_disk_ms",
    "wire.encode_result_ms", "cache.write_ms", "server.handle_p50_ms", "server.handle_p99_ms",
    "scheduler.queue_wait_p50_ms", "scheduler.queue_wait_p99_ms", "scheduler.batch_p50_ms",
    "unattributed_p50_ms", "cache.memory_hit_frac", "cache.disk_hit_frac",
    "scheduler.batch_size_mean", "scheduler.jobs_shed", "cache.evictions", "client.encode_ms",
    "client.decode_ms", "bind_ms", "mixed.hit_p50_ms", "mixed.compile_p50_ms",
    "mixed.bind_p50_ms", "gen.lag_p99_ms",
)

#: compiler layers, which serve-hits' cache hits never reach
COMPILER_LAYERS = tuple(f"pass.{name}_ms" for name in PASSES) + (
    "compile.pass_residual_pct", "extraction.basis_layer_ms", "extraction.tree_synthesis_ms",
    "extraction.gate_streaming_ms", "extraction.peephole_ms", "extraction.self_ms",
)

#: layers each workload does not pass through
NOT_APPLICABLE = {
    "compile-cold": SERVING_LAYERS,
    "serve-hits": COMPILER_LAYERS + (
        "absorb_ms", "bind_ms", "mixed.hit_p50_ms", "mixed.compile_p50_ms", "mixed.bind_p50_ms"),
    "serve-mixed": ("absorb_ms",),
}

#: largest gap, in points, between a class's intended request share and its
#: observed share of cache lookups before the traced run warns that the
#: workload no longer exercises the layers it was built for
MIX_TOLERANCE = 0.05


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` or ``None`` when the hook is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    if original is None or not callable(original):
        return None
    return owner, attribute, original


class StageHooks:
    """Self time of each extraction callee while ``CliffordExtraction`` runs."""

    def __init__(self):
        self.totals = {name: 0.0 for name, _, _ in STAGE_HOOKS}
        self.missing: "list[str]" = []
        self._patched = []
        self._stack: "list[float]" = []
        self._active = 0

    def reset(self) -> None:
        for name in self.totals:
            self.totals[name] = 0.0

    def _timed(self, name, original):
        hooks = self

        def wrapped(*args, **kwargs):
            if not hooks._active:
                return original(*args, **kwargs)
            start = time.perf_counter()
            hooks._stack.append(0.0)
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = hooks._stack.pop()
                hooks.totals[name] += (elapsed - children) * 1000.0
                if hooks._stack:
                    hooks._stack[-1] += elapsed

        return wrapped

    def _activating(self, original):
        hooks = self

        def wrapped(*args, **kwargs):
            hooks._active += 1
            try:
                return original(*args, **kwargs)
            finally:
                hooks._active -= 1

        return wrapped

    def __enter__(self) -> "StageHooks":
        window = _resolve(*EXTRACTION_PASS)
        if window is None:
            self.missing.append(".".join(EXTRACTION_PASS))
            self._active = 1  # no pass boundary: count every call
        else:
            self._patch(window, self._activating(window[2]))
        for name, module_name, path in STAGE_HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            self._patch(found, self._timed(name, found[2]))
        return self

    def _patch(self, found, replacement) -> None:
        owner, attribute, original = found
        setattr(owner, attribute, replacement)
        self._patched.append((owner, attribute, original))

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []


class CompileLayers:
    """Per-attempt pass and stage times, each rescaled to the reference speed."""

    def __init__(self, hooks: StageHooks):
        self.hooks = hooks
        self.per_job: "dict[str, list[dict]]" = {}
        self.wall_ms = 0.0
        self.pass_sum_ms = 0.0

    def add(self, key: str, result, compile_ms: float, calib_ms: float, absorb_ms: float = 0.0) -> None:
        scale = common.REFERENCE_CALIB_MS / calib_ms
        timings = {f"pass.{name}_ms": 1000.0 * result.pass_timings.get(name, 0.0) * scale for name in PASSES}
        stages = {name: value * scale for name, value in self.hooks.totals.items()}
        stages["extraction.self_ms"] = timings["pass.CliffordExtraction_ms"] - sum(stages.values())
        self.wall_ms += compile_ms
        self.pass_sum_ms += 1000.0 * sum(result.pass_timings.values())
        self.per_job.setdefault(key, []).append({**timings, **stages, "absorb_ms": absorb_ms * scale})
        self.hooks.reset()

    def totals(self) -> dict:
        """Per-metric sum over distinct jobs of each job's median attempt."""
        names = [f"pass.{n}_ms" for n in PASSES] + [n for n, _, _ in STAGE_HOOKS] + [
            "extraction.self_ms", "absorb_ms"]
        out = {name: 0.0 for name in names}
        for attempts in self.per_job.values():
            for name in names:
                out[name] += common.median([a[name] for a in attempts])
        residual = 100.0 * (self.wall_ms - self.pass_sum_ms) / self.wall_ms if self.wall_ms else 0.0
        out["compile.pass_residual_pct"] = residual
        return out


def compile_sample(samples, hooks: StageHooks) -> "tuple[dict, list]":
    """Compile program samples (lists of terms) in-process with the hooks on.

    Returns the layer totals and ``(terms, result)`` pairs.
    """
    import repro

    layers = CompileLayers(hooks)
    results = []
    for index, terms in enumerate(samples):
        with common.SpeedSampler() as sampler:
            start = time.perf_counter()
            result = repro.compile(terms, level=3)
            compile_ms = (time.perf_counter() - start) * 1000.0
        layers.add(str(index), result, compile_ms - sampler.paused_ms, sampler.speed_ms())
        results.append((terms, result))
    return layers.totals(), results


def serving_probes(samples, cache_dir: str) -> dict:
    """Wire, cache and client-codec costs on ``(terms, result)`` samples, ms each.

    ``cache_dir`` is written into, so ``cache.write_ms`` is measured at that
    directory's current size.
    """
    from repro.service.cache import ArtifactCache, cache_key
    from repro.service.serialize import program_from_wire, program_to_wire, result_from_wire, result_to_wire

    cache = ArtifactCache(cache_dir)
    times: "dict[str, list[float]]" = {}

    def timed(name, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        times.setdefault(name, []).append((time.perf_counter() - start) * 1000.0)
        return value

    for terms, result in samples:
        body = timed("client.encode_ms", lambda: json.dumps(
            {"program": program_to_wire(terms), "level": 3, "include_result": True}).encode())
        wire_program = json.loads(body)["program"]
        program = timed("wire.decode_program_ms", program_from_wire, wire_program)
        key = timed("cache.key_ms", cache_key, program, None, 3, None)
        timed("cache.write_ms", cache.put, key, result)
        timed("cache.read_memory_ms", cache.get, key)
        cache.forget_memory()
        timed("cache.read_disk_ms", cache.get, key)
        encoded = timed("wire.encode_result_ms", lambda: json.dumps(result_to_wire(result)).encode())
        timed("client.decode_ms", lambda: result_from_wire(json.loads(encoded)))
    return {name: common.median(values) for name, values in times.items()}


def bind_probe(seed: int, count: int = 20) -> float:
    """Median in-process ``CompiledTemplate.bind`` time, ms."""
    import serve
    from repro.parametric import ParametricProgram, compile_template
    from repro.workloads.registry import get_benchmark

    terms = get_benchmark(serve.TEMPLATE_PROGRAM).terms()
    program = ParametricProgram.from_terms(terms, [i % serve.TEMPLATE_PARAMS for i in range(len(terms))])
    template = compile_template(program, level=3)
    rng = np.random.default_rng(seed)
    times = []
    for _ in range(count):
        params = rng.uniform(-1.0, 1.0, size=serve.TEMPLATE_PARAMS)
        start = time.perf_counter()
        template.bind(params)
        times.append((time.perf_counter() - start) * 1000.0)
    return common.median(times)


# ---------------------------------------------------------------------- #
# Server side
# ---------------------------------------------------------------------- #
def traced_phase(traffic, rate: float, count: int):
    """A forced-trace phase plus the spans and ``/metrics`` deltas it produced."""
    import serve

    connection = serve.Connection(traffic.setup.server.port)
    try:
        before = connection.json("GET", "/metrics")
        outcome = traffic.phase(rate, count, trace=True)
        after = connection.json("GET", "/metrics")
        spans = {}
        bad = set(outcome.bad)
        ok_indices = [i for i in range(outcome.sent) if i not in bad]
        step = max(1, len(ok_indices) // TRACES_FETCHED)
        for index in ok_indices[::step][:TRACES_FETCHED]:
            status, raw = connection.request("GET", f"/trace/{outcome.trace_ids[index]}")
            if status == 200:
                spans[index] = json.loads(raw)["spans"]
    finally:
        connection.close()
    return outcome, spans, before, after


def server_layers(outcome, spans, before, after) -> "tuple[dict, dict]":
    """Server and scheduler metrics of a traced phase, and how they add up.

    A metric with no samples (say, no compile batches in a phase of cache
    hits) is left out, so it is reported as missing.
    """
    def durations(name):
        return {i: sum(s["duration_seconds"] for s in trace if s["name"] == name) * 1000.0
                for i, trace in spans.items() if any(s["name"] == name for s in trace)}

    handle = durations("server.handle")
    wait = list(durations("scheduler.queue_wait").values())
    batch = list(durations("scheduler.batch").values())
    cache_0, cache_1 = before.get("cache", {}), after.get("cache", {})
    sched_0, sched_1 = before["scheduler"], after["scheduler"]

    def delta(a, b, key):
        return float(b.get(key, 0) - a.get(key, 0))

    values = {
        "scheduler.jobs_shed": delta(sched_0, sched_1, "jobs_shed"),
        "cache.evictions": delta(cache_0, cache_1, "evictions"),
    }
    if handle:
        handle_ms = list(handle.values())
        values["server.handle_p50_ms"] = common.percentile(handle_ms, 50.0)
        values["server.handle_p99_ms"] = common.percentile(handle_ms, 99.0)
        # per request: the client's time that no server span covers
        values["unattributed_p50_ms"] = common.percentile(
            [outcome.latency_ms[i] - ms for i, ms in handle.items()], 50.0)
    if wait:
        values["scheduler.queue_wait_p50_ms"] = common.percentile(wait, 50.0)
        values["scheduler.queue_wait_p99_ms"] = common.percentile(wait, 99.0)
    if batch:
        values["scheduler.batch_p50_ms"] = common.percentile(batch, 50.0)
    lookups = delta(cache_0, cache_1, "hits") + delta(cache_0, cache_1, "misses")
    if lookups:
        values["cache.memory_hit_frac"] = delta(cache_0, cache_1, "memory_hits") / lookups
        values["cache.disk_hit_frac"] = delta(cache_0, cache_1, "disk_hits") / lookups
    batches = delta(sched_0, sched_1, "batches_flushed")
    if batches:
        values["scheduler.batch_size_mean"] = delta(sched_0, sched_1, "jobs_submitted") / batches

    # handle + unattributed is compared with the client p50 of the whole
    # traced phase; the two are medians of different samples, so the gap
    # is a residual that can show when the spans stop covering the request
    client_p50 = outcome.p50()
    accounted = values.get("server.handle_p50_ms", 0.0) + values.get("unattributed_p50_ms", 0.0)
    accounting = {
        "traced_requests": len(handle),
        "client_p50_ms": client_p50,
        "handle_plus_unattributed_p50_ms": accounted,
        "residual_ms": client_p50 - accounted,
        "residual_pct": 100.0 * (client_p50 - accounted) / client_p50,
    }
    return values, accounting


def class_p50(outcome) -> dict:
    bad = set(outcome.bad)
    out = {}
    for kind in ("hit", "compile", "bind"):
        values = [v for i, (v, item) in enumerate(zip(outcome.latency_ms, outcome.items))
                  if item.kind == kind and i not in bad]
        if values:
            out[f"mixed.{kind}_p50_ms"] = common.median(values)
    return out


def mix_check(config, values) -> dict:
    """Intended against observed shares of memory and disk hits (serve-hits).

    A cache change that turns the cycled entries into memory hits is not a
    wrong answer, so a gap does not fail the run; it is reported and warned
    about, as the workload then no longer sets its tail with disk reads.
    """
    shares = config["shares"]
    intended = {"cache.memory_hit_frac": shares.get("hit", 0.0),
                "cache.disk_hit_frac": shares.get("cold", 0.0)}
    observed = {name: values.get(name, 0.0) for name in intended}
    as_intended = all(abs(observed[n] - intended[n]) <= MIX_TOLERANCE for n in intended)
    if not as_intended:
        print(f"qbench: cache hit shares {observed} differ from the intended {intended}",
              file=sys.stderr)
    return {"intended": intended, "observed": observed, "tolerance": MIX_TOLERANCE,
            "as_intended": as_intended}


# ---------------------------------------------------------------------- #
# Traced runs
# ---------------------------------------------------------------------- #
def finish(name: str, values: dict, missing, attempted: int, failed: int, detail: dict) -> dict:
    """Every per-layer metric, with those that do not apply or have no data at 0."""
    not_applicable = set(NOT_APPLICABLE[name])
    missing = set(missing)
    metrics = {}
    for metric, unit in PER_LAYER.items():
        if metric in not_applicable:
            value = 0.0
        elif metric in values:
            value = float(values[metric])
        else:
            missing.add(metric)
            value = 0.0
        metrics[metric] = (value, unit)
    detail = dict(detail, workload=name, missing=sorted(missing - not_applicable),
                  not_applicable=sorted(not_applicable))
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}


def trace_compile_cold(loop, seed: int, seconds: float) -> dict:
    import compile_cold

    loop.one_pass(None)
    untraced_p50 = compile_cold.summarize(loop)["p50_ms"]
    for job in loop.jobs:
        job.times_ms.clear()
        job.raw_ms.clear()

    with StageHooks() as hooks:
        layers = CompileLayers(hooks)

        def on_result(job, result, raw_ms, calib_ms, absorb_ms):
            layers.add(job.label, result, raw_ms - absorb_ms, calib_ms, absorb_ms)

        hooks.reset()
        loop.one_pass(None, on_result)
    traced = compile_cold.summarize(loop)
    values = layers.totals()
    values["trace_overhead_pct"] = 100.0 * (traced["p50_ms"] - untraced_p50) / untraced_p50
    values["calib_ms"] = traced["calib_ms"]
    detail = {
        "units": "ms per catalog pass at the reference speed",
        "p50_untraced_ms": untraced_p50, "p50_traced_ms": traced["p50_ms"],
        "pass_sum_vs_compile": {"compile_ms": layers.wall_ms, "pass_sum_ms": layers.pass_sum_ms},
        "failures": loop.failures[:20],
        "phases": {"compile": {"sent": loop.attempted, "succeeded": loop.attempted - loop.failed,
                               "failed": loop.failed}},
    }
    return finish("compile-cold", values, hooks.missing, loop.attempted, loop.failed, detail)


def trace_serve(setup, traffic, seconds: float) -> dict:
    """Untraced then forced-trace traffic, then in-process layer probes.

    The caller counts the set-up's own checks.
    """
    import repro
    import serve

    config = setup.config
    count = round(serve.fixed_requests(config, seconds) * 0.6)
    untraced = traffic.phase(config["rate"], count)
    problems = serve.verify_outcome(untraced, setup.seed + 1_000)
    outcome, spans, before, after = traced_phase(traffic, config["rate"], count)
    problems += serve.verify_outcome(outcome, setup.seed + 2_000)
    values, accounting = server_layers(outcome, spans, before, after)
    values["trace_overhead_pct"] = 100.0 * (outcome.p50() - untraced.p50()) / untraced.p50()
    values["gen.lag_p99_ms"] = common.percentile(untraced.lag_ms, 99.0)
    values["calib_ms"] = outcome.calib_ms
    cache_dir = setup.server.cache_dir
    setup.close()

    sample = [item.terms for item in setup.hot[:12]]
    missing: "list[str]" = []
    if setup.name == "serve-mixed":
        # the server compiles here: the same compiler layers, in-process
        with StageHooks() as hooks:
            compile_values, results = compile_sample(sample, hooks)
        values.update(compile_values)
        missing = hooks.missing
        values.update(class_p50(untraced))
        values["bind_ms"] = bind_probe(setup.seed)
    else:
        results = [(terms, repro.compile(terms, level=3)) for terms in sample]
    values.update(serving_probes(results, cache_dir))
    detail = {
        "units": "compile layers: ms summed over 12 hot programs at the reference speed; "
                 "serving layers: median ms per operation",
        "p50_untraced_ms": untraced.p50(), "p50_traced_ms": outcome.p50(),
        "accounting": accounting,
        "failures": problems[:20],
        "phases": {"untraced": serve.phase_summary(untraced), "traced": serve.phase_summary(outcome)},
    }
    if setup.name == "serve-hits":
        detail["mix_check"] = mix_check(config, values)
    attempted = untraced.sent + outcome.sent
    failed = untraced.failed + outcome.failed
    return finish(setup.name, values, missing, attempted, failed, detail)
