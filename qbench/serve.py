"""``serve-hits`` and ``serve-mixed``: open-loop HTTP traffic against one
``python -m repro.service`` subprocess.

The server runs with its production flags and trace sampling off, on a
cache directory inside the checkout.  One generator process drives it
with Poisson arrivals over at most two keep-alive connections (the box
has two vCPUs); every latency is timed from the request's scheduled send,
so a stall shows up in the requests queued behind it.

Each run has two phases.  A fixed-rate phase, in three parts, gives
``p50_ms`` and ``tail_ms`` as medians over the parts.  A ladder of rising
fixed rates then finds ``saturation_rps``: the highest rate at which the
tail meets the workload's latency limit and the server answers as fast as
it is offered requests (no growing backlog), interpolated between the last
step that passed and the first that failed.  The server's core is shared
with other tenants of the host: a part that lost more than 2% of that core
to hypervisor steal is run again, and the three figures are reported at a
reference speed of the server's core (``Outcome.speed_factor``).  Every
response is checked: hits and binds must equal the artifact recorded (and
checked with the dense oracle) in setup, cold compiles must pass the dense
oracle.
"""

from __future__ import annotations

import ctypes
import gc
import http.client
import json
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import uuid

import numpy as np

import common
import oracle

#: generator connections (and threads): at most the box's two vCPUs
CONNECTIONS = 2

#: small Table II programs the serving working sets are variants of; all
#: are at most 12 qubits wide, so every artifact gets the dense check
SMALL_PROGRAMS = ("UCC-(2,4)", "MaxCut-(n10, e12)", "LiH")

#: ansatz of the serve-mixed /bind template and its parameter count
TEMPLATE_PROGRAM = "UCC-(2,6)"
TEMPLATE_PARAMS = 8

#: result fields that legitimately differ between two answers for one
#: program (wall-clock timings); everything else must match bit for bit
VOLATILE_FIELDS = frozenset({"compile_seconds", "elapsed_seconds", "pass_timings"})

#: Request shares are chosen, not taken from a recorded trace: each is the
#: round figure that makes the intended class set ``p50_ms`` or ``tail_ms``.
#: Rates are about a fifth of the measured saturation (the fixed phase then
#: measures service, not queueing); limits are about 20x the fixed-rate tail.
WORKLOADS = {
    # hits: 64 hot artifacts (drawn uniformly) stay in the server's
    # 128-entry memory layer; the other 192 are cycled so that each is
    # evicted again before its turn.  Memory hits are 80%, a clear majority,
    # so they set p50; disk hits are 20%, 4x the 5% beyond the p95 tail (at
    # least 3x keeps the tail well inside the disk hits), so they set it
    "serve-hits": {
        "hot": 64,
        "cold": 192,
        "shares": {"hit": 0.8, "cold": 0.2},
        "rate": 70.0,
        "limit_ms": 250.0,
        "step_requests": 400,
    },
    "serve-mixed": {
        "hot": 64,
        # hits 60%, a majority, so a hit sets p50; cold compiles 20%, 2x the
        # 10% beyond the p90 tail, so compiles set it; binds the other 20%
        "shares": {"hit": 0.6, "bind": 0.2, "compile": 0.2},
        "binds": 16,
        "rate": 36.0,
        "limit_ms": 500.0,
        # the ladder restarts the server per step; 300 keeps the run short
        "step_requests": 300,
    },
}

#: share of ``--seconds`` spent in the fixed-rate phase, which offers
#: exactly ``rate * seconds * FIXED_SHARE`` requests in ``FIXED_PARTS``
#: consecutive parts (at 16 s: 242 per part for hits, tail p95 with 12
#: beyond; 124 for mixed, p90 with 12 beyond); ``p50_ms`` and ``tail_ms``
#: are medians over the parts, so one burst of host steal moves neither.
#: The saturation ladder that follows starts at ``LADDER_START`` times the
#: fixed rate, grows by ``LADDER_GROWTH`` per coarse step (at most
#: ``LADDER_COARSE_STEPS``) and then splits the bracket it found into
#: ``LADDER_FINE_STEPS + 1`` parts
FIXED_SHARE = 0.65
FIXED_PARTS = 3

#: steal share of the server core above which a fixed part is run again,
#: and how many such re-runs one run may make
STEAL_LIMIT = 0.02
STEAL_RETRIES = 2
LADDER_START = 2.0
LADDER_GROWTH = 1.5
LADDER_COARSE_STEPS = 6
LADDER_FINE_STEPS = 6


def strip_volatile(value):
    if isinstance(value, dict):
        return {k: strip_volatile(v) for k, v in value.items() if k not in VOLATILE_FIELDS}
    if isinstance(value, list):
        return [strip_volatile(v) for v in value]
    return value


# ---------------------------------------------------------------------- #
# Server process
# ---------------------------------------------------------------------- #
def _die_with_parent() -> None:
    """In the child: get SIGTERM if the benchmark dies before it can stop us."""
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Server:
    """``python -m repro.service`` on an ephemeral port and a private cache dir."""

    def __init__(self, work_dir: str, placement: common.Placement, extra_args=(),
                 cache_from: "str | None" = None):
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
        if cache_from is not None:
            shutil.copytree(cache_from, self.cache_dir, dirs_exist_ok=True)
        self.peak_rss = 0.0
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.ROOT / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--cache-dir", self.cache_dir, "--trace-sample", "0", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
            cwd=str(common.ROOT), preexec_fn=_die_with_parent,
        )
        placement.pin_server(self.process.pid)
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        if self.process.poll() is None:
            self.peak_rss = max(self.peak_rss, common.peak_rss_mb(self.process.pid))
        return self.peak_rss

    def close(self) -> None:
        if self.process.poll() is None:
            self.peak_rss_mb()
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if self.process.stdout is not None:
            self.process.stdout.close()


class Connection:
    """A keep-alive HTTP/1.1 connection sending pre-encoded bodies."""

    def __init__(self, port: int):
        self.port = port
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: "bytes | None" = None, headers=None):
        headers = dict(headers or {})
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self.http.request(method, path, body=body, headers=headers)
            response = self.http.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            self.http.close()
            self.http = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            raise

    def json(self, method: str, path: str, payload=None, headers=None):
        body = None if payload is None else json.dumps(payload).encode()
        status, raw = self.request(method, path, body, headers)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {raw[:300]!r}")
        return json.loads(raw)

    def close(self) -> None:
        self.http.close()


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
class Item:
    """One distinct request: its pre-encoded body and how to check the answer."""

    def __init__(self, kind, path, body, plain, terms):
        self.kind = kind          # "hit", "compile" or "bind"
        self.path = path
        self.body = body
        self.plain = plain        # (letters, angle) program for the oracle
        self.terms = terms
        self.expected = None      # recorded artifact (volatile fields stripped)
        self.good_body: "bytes | None" = None
        self.cx_count = 0
        self.entangling_depth = 0


def program_variants(rng: np.random.Generator, count: int):
    """``count`` coefficient variants of the small programs, round-robin."""
    from repro import PauliTerm
    from repro.workloads.registry import get_benchmark

    bases = []
    for name in SMALL_PROGRAMS:
        terms = get_benchmark(name).terms()
        letters = [t.pauli.letters() for t in terms]
        signs = [1.0 if t.pauli.sign == 1 else -1.0 for t in terms]
        bases.append((terms, letters, signs))
    out = []
    for index in range(count):
        terms, letters, signs = bases[index % len(bases)]
        angles = [float(t.coefficient) * float(f)
                  for t, f in zip(terms, rng.uniform(0.5, 1.5, size=len(terms)))]
        variant = [PauliTerm(t.pauli, a) for t, a in zip(terms, angles)]
        plain = [(l, a * s) for l, a, s in zip(letters, angles, signs)]
        out.append((variant, plain))
    return out


def compile_item(kind: str, variant, plain) -> Item:
    from repro.service.serialize import program_to_wire

    body = json.dumps({"program": program_to_wire(variant), "level": 3,
                       "include_result": True}).encode()
    return Item(kind, "/compile", body, plain, variant)


def check_artifact(item: Item, result: dict, seed: int):
    """Dense-oracle check of a served result: ``(problem or None, parsed circuit)``."""
    try:
        circuit = oracle.parse_qasm(result["circuit"]["qasm"])
        ok, fidelity = oracle.check_program(
            item.plain, circuit, result["extracted_clifford"]["qasm"], seed
        )
    except (KeyError, TypeError, ValueError) as error:
        return f"malformed result: {error}", None
    return (None if ok else f"dense oracle fidelity {fidelity!r}"), circuit


def record(item: Item, result: dict, seed: int) -> "str | None":
    """Oracle-check ``result`` and keep it as the item's expected artifact."""
    problem, circuit = check_artifact(item, result, seed)
    if problem is None:
        item.expected = strip_volatile(result)
        item.cx_count, item.entangling_depth = oracle.cx_and_depth(circuit)
    return problem


# ---------------------------------------------------------------------- #
# Open-loop generator
# ---------------------------------------------------------------------- #
class Outcome:
    """What one open-loop phase saw, request by request."""

    def __init__(self, rate, duration):
        self.rate = rate
        self.duration = duration
        self.items: "list[Item]" = []
        self.offsets_s: "list[float]" = []  # scheduled sends from the phase's start
        self.latency_ms: "list[float]" = []
        self.lag_ms: "list[float]" = []
        self.calib_ms = 0.0                 # server-core calibration around the phase
        self.cpu = [0, 0, 0]                # server-core (total, busy, steal) jiffies over the phase
        self.trace_ids: "list[str | None]" = []
        self.pending: "list[tuple[int, bytes]]" = []   # bodies to check after the phase
        self.bad: "list[int]" = []

    @property
    def sent(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return len(set(self.bad))

    @property
    def steal_frac(self) -> float:
        """Share of the phase's wall time stolen from the server's core."""
        total, _, steal = self.cpu
        return steal / total if total else 0.0

    @property
    def runnable_steal(self) -> float:
        """Share of the time the server's core had work that was stolen from it."""
        _, busy, steal = self.cpu
        return steal / (busy + steal) if busy + steal else 0.0

    def speed_factor(self, steal_power: int = 1) -> float:
        """Factor that takes the phase's times to the reference speed.

        The server ran at the kernel's speed for the share ``1 - s`` of its
        runnable time that was not stolen, so a service time stretches by
        ``1 / (1 - s)``.  A tail request also waits behind other requests,
        and at low load that wait grows with the square of the service
        time, so tails are scaled with ``steal_power`` 2.
        """
        return (common.speed_factor(self.calib_ms, common.SERVING_SPEED_EXPONENT)
                * (1.0 - self.runnable_steal) ** steal_power)

    def effective_latencies(self, scale: float = 1.0) -> "list[float]":
        """Latencies times ``scale``, every failed request counted as missing any limit."""
        bad = set(self.bad)
        return [float("inf") if i in bad else v * scale for i, v in enumerate(self.latency_ms)]

    def tail(self, normalized: bool = False) -> "tuple[float, float]":
        """``common.tail``, at the reference speed when ``normalized``."""
        return common.tail(self.effective_latencies(self.speed_factor(2) if normalized else 1.0))

    def delivery_ratio(self) -> float:
        return common.delivery_ratio(self.offsets_s, self.latency_ms, self.failed)

    def load(self, limit_ms: float) -> float:
        """``common.step_load`` of the phase; the limit applies to raw latency."""
        return common.step_load(self.tail()[0], limit_ms, self.delivery_ratio())

    def p50(self, normalized: bool = False) -> float:
        """Median latency, at the reference speed when ``normalized``."""
        return common.percentile(
            self.effective_latencies(self.speed_factor() if normalized else 1.0), 50.0)


def poisson_offsets(rate: float, count: int, rng: random.Random) -> "list[float]":
    """Send times of ``count`` Poisson arrivals at ``rate`` per second."""
    offsets, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        offsets.append(t)
    return offsets


def open_loop(connections, outcome: Outcome, items, offsets, trace: bool) -> None:
    """Send ``items[i]`` at ``offsets[i]``, appending to ``outcome``.

    Latency is timed from the scheduled send, so a request that waits for a
    free connection is billed for the wait.
    """
    base = outcome.sent
    count = len(offsets)
    outcome.items.extend(items)
    outcome.offsets_s.extend(offsets)
    outcome.latency_ms.extend([0.0] * count)
    outcome.lag_ms.extend([0.0] * count)
    outcome.trace_ids.extend(uuid.uuid4().hex if trace else None for _ in range(count))
    cursor = [0]
    lock = threading.Lock()
    epoch = time.perf_counter() + 0.002

    def worker(connection: Connection) -> None:
        while True:
            with lock:
                local = cursor[0]
                cursor[0] += 1
            if local >= count:
                return
            index = base + local
            item = items[local]
            scheduled = epoch + offsets[local]
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            headers = None
            if trace:
                headers = {"X-Repro-Trace": "1", "X-Repro-Trace-Id": outcome.trace_ids[index]}
            try:
                status, body = connection.request("POST", item.path, item.body, headers)
            except (http.client.HTTPException, OSError):
                status, body = 0, b""
            done = time.perf_counter()
            outcome.latency_ms[index] = (done - scheduled) * 1000.0
            outcome.lag_ms[index] = (sent - scheduled) * 1000.0
            if status != 200:
                with lock:
                    outcome.bad.append(index)
            elif body != item.good_body:
                with lock:
                    outcome.pending.append((index, body))

    threads = [threading.Thread(target=worker, args=(c,)) for c in connections]
    # a collection in this process would be billed to the server as latency
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()


def verify_outcome(outcome: Outcome, seed: int) -> "list[str]":
    """Check every answer not already byte-identical to a verified one."""
    problems = []
    for index, body in outcome.pending:
        item = outcome.items[index]
        problem = verify_body(item, body, seed + index)
        if problem is not None:
            outcome.bad.append(index)
            problems.append(f"{item.kind} #{index}: {problem}")
    outcome.pending = []
    return problems


def verify_body(item: Item, body: bytes, seed: int) -> "str | None":
    if item.good_body is not None and body == item.good_body:
        return None
    try:
        result = json.loads(body)["result"]
    except (ValueError, KeyError, TypeError) as error:
        return f"undecodable answer: {error}"
    if item.expected is None:
        # a never-seen program: the dense oracle is the reference
        problem = check_artifact(item, result, seed)[0]
    elif strip_volatile(result) != item.expected:
        problem = "answer differs from the artifact recorded in setup"
    else:
        problem = None
    if problem is None and item.kind == "hit":
        item.good_body = body
    return problem


# ---------------------------------------------------------------------- #
# Workload setup
# ---------------------------------------------------------------------- #
class Setup:
    """Inputs, server and recorded artifacts of one serve workload."""

    def __init__(self, name: str, seed: int, work_dir: str, trace: bool,
                 placement: common.Placement):
        self.name = name
        self.work_dir = work_dir
        self.placement = placement
        self.config = WORKLOADS[name]
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.server: "Server | None" = None
        self.peak_rss = 0.0               # of servers already stopped, MiB
        self.attempted = 0                # answers checked in setup
        self.problems: "list[str]" = []
        self.hot: "list[Item]" = []
        self.cold: "list[Item]" = []
        self.binds: "list[Item]" = []
        self.fresh: "list[Item]" = []
        self.template_key = None
        self.template_program = None
        self.bind_params = []
        self.extra = ["--trace-buffer", "500000"] if trace else []
        start = time.perf_counter()
        self._build_inputs()
        self.server = Server(work_dir, placement, self.extra)
        try:
            self._warm()
        except Exception:
            self.close()
            raise
        self.seconds = time.perf_counter() - start

    def _build_inputs(self) -> None:
        config = self.config
        cold_count = config.get("cold", 0)
        variants = program_variants(self.rng, config["hot"] + cold_count)
        self.hot = [compile_item("hit", v, p) for v, p in variants[:config["hot"]]]
        self.cold = [compile_item("hit", v, p) for v, p in variants[config["hot"]:]]
        if self.name == "serve-mixed":
            self._build_bind_inputs(config["binds"])

    def _build_bind_inputs(self, count: int) -> None:
        from repro.parametric import ParametricProgram
        from repro.workloads.registry import get_benchmark

        terms = get_benchmark(TEMPLATE_PROGRAM).terms()
        slots = [i % TEMPLATE_PARAMS for i in range(len(terms))]
        self.template_program = ParametricProgram.from_terms(terms, slots)
        letters = [t.pauli.letters() for t in terms]
        scales = [float(t.coefficient) * (1.0 if t.pauli.sign == 1 else -1.0) for t in terms]
        self.bind_params = [self.rng.uniform(-1.0, 1.0, size=TEMPLATE_PARAMS) for _ in range(count)]
        self._bind_plain = [
            [(l, s * float(params[slot])) for l, s, slot in zip(letters, scales, slots)]
            for params in self.bind_params
        ]

    def fresh_items(self, count: int) -> "list[Item]":
        """``count`` never-seen programs for cold compiles."""
        items = [compile_item("compile", v, p) for v, p in program_variants(self.rng, count)]
        self.fresh.extend(items)
        return items

    def _warm(self) -> None:
        # cold entries first, in the order the run will cycle them, so the
        # memory layer ends up holding the hot set; the server compiles on
        # one core while this process checks the answers on the other
        items = self.cold + self.hot
        answers: "queue.Queue" = queue.Queue()
        cursor = iter(enumerate(items))
        lock = threading.Lock()

        def sender() -> None:
            connection = Connection(self.server.port)
            try:
                while True:
                    with lock:
                        entry = next(cursor, None)
                    if entry is None:
                        return
                    offset, item = entry
                    try:
                        status, body = connection.request("POST", item.path, item.body)
                    except (http.client.HTTPException, OSError) as error:
                        status, body = 0, str(error).encode()
                    answers.put((offset, status, body))
            finally:
                connection.close()

        threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
        # the checks below hold the GIL; hand it to the senders promptly so
        # the server is never left idle waiting for the next request
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0002)
        for thread in threads:
            thread.start()
        try:
            for _ in items:
                offset, status, body = answers.get(timeout=120)
                self.attempted += 1
                if status != 200:
                    self.problems.append(f"setup artifact {offset}: HTTP {status}")
                    continue
                problem = record(items[offset], json.loads(body)["result"], self.seed + offset)
                if problem is not None:
                    self.problems.append(f"setup artifact {offset}: {problem}")
        finally:
            for thread in threads:
                thread.join()
            sys.setswitchinterval(switch_interval)
        # the hot set again, last, so the memory layer holds it
        connection = Connection(self.server.port)
        try:
            self.problems += self._rewarm_hot(connection, "setup")
            self.attempted += len(self.hot)
            if self.name == "serve-mixed":
                self._warm_binds(connection)
        finally:
            connection.close()

    def _rewarm_hot(self, connection: Connection, label: str) -> "list[str]":
        """Request the hot set; the answers must equal the recorded artifacts."""
        problems = []
        for offset, item in enumerate(self.hot):
            status, body = connection.request("POST", item.path, item.body)
            problem = f"HTTP {status}" if status != 200 else verify_body(item, body, self.seed)
            if problem is not None:
                problems.append(f"{label} hot re-request {offset}: {problem}")
        return problems

    def snapshot_cache(self) -> str:
        """A copy of the server's cache directory as it stands (server idle)."""
        snapshot = tempfile.mkdtemp(prefix="snapshot-", dir=self.work_dir)
        shutil.copytree(self.server.cache_dir, snapshot, dirs_exist_ok=True)
        return snapshot

    def restart(self, snapshot: str) -> "list[str]":
        """Replace the server with a fresh one on a copy of ``snapshot``.

        The hot set is requested again so the memory layer holds it, as
        after setup; returns the problems among those answers.
        """
        old = self.server
        self.peak_rss = max(self.peak_rss, old.peak_rss_mb())
        old.close()
        shutil.rmtree(old.cache_dir, ignore_errors=True)
        self.server = Server(self.work_dir, self.placement, self.extra, cache_from=snapshot)
        connection = Connection(self.server.port)
        try:
            return self._rewarm_hot(connection, "restart")
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Peak RSS over every server this set-up ran."""
        current = self.server.peak_rss_mb() if self.server is not None else 0.0
        return max(self.peak_rss, current)

    def _warm_binds(self, connection: Connection) -> None:
        from repro.service.serialize import bind_request_to_wire, parametric_program_to_wire

        reply = connection.json("POST", "/compile_template", {
            "program": parametric_program_to_wire(self.template_program), "level": 3})
        self.template_key = reply["template_key"]
        for offset, (params, plain) in enumerate(zip(self.bind_params, self._bind_plain)):
            payload = bind_request_to_wire(list(map(float, params)), template_key=self.template_key)
            payload["include_result"] = True
            item = Item("bind", "/bind", json.dumps(payload).encode(), plain, None)
            result = connection.json("POST", "/bind", payload)["result"]
            self.attempted += 1
            problem = record(item, result, self.seed + 10_000 + offset)
            if problem is not None:
                self.problems.append(f"setup bind {offset}: {problem}")
            self.binds.append(item)

    def artifacts(self) -> "list[Item]":
        """Every artifact recorded in setup."""
        return self.hot + self.cold + self.binds

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


# ---------------------------------------------------------------------- #
# Traffic
# ---------------------------------------------------------------------- #
class Traffic:
    """Seeded request picks for one workload; the cold cycle carries across phases."""

    def __init__(self, setup: Setup, seed: int):
        self.setup = setup
        self.rng = random.Random(seed)
        self.cold_cursor = 0

    def _kinds(self, count: int) -> "list[str]":
        """Request classes in exact shares, in seeded order.

        Exact counts, not independent draws, so the tail of a phase never
        rests on how many slow classes the seed happened to draw.
        """
        shares = self.setup.config["shares"]
        kinds = []
        for kind, share in shares.items():
            kinds += [kind] * round(share * count)
        kinds = (kinds + [next(iter(shares))] * count)[:count]
        self.rng.shuffle(kinds)
        return kinds

    def plan(self, count: int) -> "list[Item]":
        """The next ``count`` requests."""
        kinds = self._kinds(count)
        fresh = iter(self.setup.fresh_items(kinds.count("compile")))
        items: "list[Item]" = []
        for kind in kinds:
            if kind == "hit":
                items.append(self.rng.choice(self.setup.hot))
            elif kind == "cold":
                items.append(self.setup.cold[self.cold_cursor % len(self.setup.cold)])
                self.cold_cursor += 1
            elif kind == "bind":
                items.append(self.rng.choice(self.setup.binds))
            else:
                items.append(next(fresh))
        return items

    def phase(self, rate: float, count: int, trace: bool = False) -> Outcome:
        """``count`` requests of Poisson traffic at ``rate``.

        A fixed count, not a fixed duration, keeps the tail percentile and
        the number of samples beyond it the same on every run.

        The calibration kernel runs on the server's core, idle then, just
        before and after; steal time of that core is read across the phase.
        """
        outcome = Outcome(rate, count / rate)
        placement = self.setup.placement
        offsets = poisson_offsets(rate, count, self.rng)
        items = self.plan(len(offsets))
        connections = [Connection(self.setup.server.port) for _ in range(CONNECTIONS)]
        try:
            for connection in connections:
                connection.request("GET", "/healthz")
            before = placement.server_speed_ms()
            jiffies = common.cpu_times(placement.server_cpu)
            open_loop(connections, outcome, items, offsets, trace)
            now = common.cpu_times(placement.server_cpu)
            outcome.cpu = [b - a for a, b in zip(jiffies, now)]
            outcome.calib_ms = 0.5 * (before + placement.server_speed_ms())
        finally:
            for connection in connections:
                connection.close()
        return outcome


def fixed_requests(config, seconds: float) -> int:
    return max(1, round(config["rate"] * seconds * FIXED_SHARE))


def fixed_parts(traffic: Traffic, config, seconds: float):
    """The fixed-rate phase as ``FIXED_PARTS`` parts: ``(kept, discarded, problems)``.

    A part during which the hypervisor took more than ``STEAL_LIMIT`` of
    the server core's time is run again (at most ``STEAL_RETRIES`` times a
    run); the attempt with the least steal is kept.  Every attempt's
    answers are checked and counted.
    """
    count = fixed_requests(config, seconds) // FIXED_PARTS
    kept, discarded, problems = [], [], []
    retries = STEAL_RETRIES
    for k in range(FIXED_PARTS):
        attempts = []
        while True:
            part = traffic.phase(config["rate"], count)
            problems += verify_outcome(part, traffic.setup.seed + 1_000 * (len(kept) + len(discarded) + len(attempts) + 1))
            attempts.append(part)
            if part.steal_frac <= STEAL_LIMIT or not retries:
                break
            retries -= 1
        attempts.sort(key=lambda o: o.steal_frac)
        kept.append(attempts[0])
        discarded += attempts[1:]
    return kept, discarded, problems


def run_ladder(traffic: Traffic, config, first_load: float, snapshot: "str | None"):
    """Saturation from a two-stage ladder of fixed rates.

    The fixed-rate phase is the ladder's first step, at ``first_load``
    (``common.step_load``).  Each further step offers ``step_requests``
    requests at a fixed rate (300 or 400 put its tail at p95) and passes when its
    tail meets the limit and its answered rate stays within
    ``common.BACKLOG_TOLERANCE`` of the offered rate (no growing backlog).
    The coarse stage starts at ``LADDER_START`` times the fixed rate and
    multiplies it by ``LADDER_GROWTH`` until a step fails; a step that
    fails narrowly (load at most ``common.LOAD_CAP``) is run once more and
    the attempt with the lower load kept.  The fine stage then walks
    ``LADDER_FINE_STEPS`` evenly spaced rates up that bracket, each once,
    until two fail in a row.  ``common.saturation`` fits the loads of all
    steps and interpolates where the fit crosses 1.

    With a ``snapshot`` of the cache directory, every step runs on a fresh
    server started on a copy of it.  A workload that writes to the cache
    makes each write dearer (``cache.put`` rescans the directory), so
    without this a step's capacity would depend on how many steps ran
    before it.  Returns ``(saturation, how, steps, outcomes, problems,
    restarts)``; ``restarts`` is ``[answers checked, their problems]``.
    """
    limit = config["limit_ms"]
    steps = [(config["rate"], first_load)]
    outcomes, problems = [], []
    restarts = [0, []]

    def step(rate: float, attempts: int) -> float:
        loads = []
        for _ in range(attempts):
            if snapshot is not None:
                restarts[1] += traffic.setup.restart(snapshot)
                restarts[0] += len(traffic.setup.hot)
            outcome = traffic.phase(rate, config["step_requests"])
            problems.extend(verify_outcome(outcome, traffic.setup.seed + 50_000 * (len(outcomes) + 1)))
            outcomes.append(outcome)
            loads.append(outcome.load(limit))
            if not 1.0 < loads[-1] <= common.LOAD_CAP:
                break
        steps.append((rate, min(loads)))
        return min(loads)

    passed = failed = None
    if first_load <= 1.0:
        passed = config["rate"]
        rate = passed * LADDER_START
        for _ in range(LADDER_COARSE_STEPS):
            if step(rate, 2) > 1.0:
                failed = rate
                break
            passed, rate = rate, rate * LADDER_GROWTH
    if passed is not None and failed is not None:
        failures = 0
        for k in range(1, LADDER_FINE_STEPS + 1):
            rate = passed + (failed - passed) * k / (LADDER_FINE_STEPS + 1)
            failures = failures + 1 if step(rate, 1) > 1.0 else 0
            if failures == 2:
                break
    steps.sort()
    value, how = common.saturation(steps)
    return value, how, steps, outcomes, problems, restarts


def phase_summary(outcome: Outcome) -> dict:
    tail_ms, q = outcome.tail()
    return {
        "offered_rps": outcome.rate, "seconds": outcome.duration, "sent": outcome.sent,
        "succeeded": outcome.sent - outcome.failed, "failed": outcome.failed,
        "p50_ms": outcome.p50(), "tail_ms": tail_ms, "tail_percentile": q,
        "delivery_ratio": outcome.delivery_ratio(),
        "gen_lag_p99_ms": common.percentile(outcome.lag_ms, 99.0) if outcome.sent else 0.0,
        "calib_ms": outcome.calib_ms,
        "server_cpu_steal_frac": outcome.steal_frac,
        "server_cpu_busy_frac": outcome.cpu[1] / outcome.cpu[0] if outcome.cpu[0] else 0.0,
        "server_runnable_steal": outcome.runnable_steal,
        "speed_factor": outcome.speed_factor(),
    }


def run(name: str, seed: int, seconds: float, import_s: float, trace: bool) -> dict:
    with common.serving_context(name) as (work_dir, placement):
        return _run(name, seed, seconds, import_s, trace, work_dir, placement)


def _run(name, seed, seconds, import_s, trace, work_dir, placement) -> dict:
    config = WORKLOADS[name]
    # every set-up's answers are checked and counted; the last one serves
    setups_s, setup_attempted, setup_problems = [], 0, []
    setup = None
    for _ in range(common.SETUP_REPEATS):
        if setup is not None:
            setup.close()
        setup = Setup(name, seed, work_dir, trace, placement)
        setups_s.append(setup.seconds)
        setup_attempted += setup.attempted
        setup_problems += setup.problems
    setup_phase = {"sent": setup_attempted, "succeeded": setup_attempted - len(setup_problems),
                   "failed": len(setup_problems)}
    gc.collect()
    gc.freeze()
    try:
        if trace:
            import layers

            outcome = layers.trace_serve(setup, Traffic(setup, seed), seconds)
            outcome["attempted"] += setup_attempted
            outcome["failed"] += len(setup_problems)
            outcome["detail"]["failures"] = (setup_problems + outcome["detail"]["failures"])[:20]
            outcome["detail"]["phases"]["setup"] = setup_phase
            return outcome
        traffic = Traffic(setup, seed)
        parts, discarded, problems = fixed_parts(traffic, config, seconds)
        problems = setup_problems + problems
        raw_tail_ms = common.median([part.tail()[0] for part in parts])
        delivery = common.median([part.delivery_ratio() for part in parts])
        first_load = common.step_load(raw_tail_ms, config["limit_ms"], delivery)
        # a workload with cold compiles grows the cache: its ladder steps
        # all start from the cache as the fixed phase left it
        snapshot = setup.snapshot_cache() if "compile" in config["shares"] else None
        sat, how, steps, ladder, ladder_problems, (rechecked, restart_problems) = run_ladder(
            traffic, config, first_load, snapshot)
        problems += ladder_problems + restart_problems
        peak_rss = setup.peak_rss_mb()
    finally:
        setup.close()

    phases = parts + discarded + ladder
    attempted = sum(o.sent for o in phases) + setup_attempted + rechecked
    failed = sum(o.failed for o in phases) + len(setup_problems) + len(restart_problems)
    requests = [item for o in phases for item in o.items]
    mean_terms = float(np.mean([len(item.plain) for item in requests]))
    # time-based metrics at the reference speed; the raw figures are in
    # the detail line
    p50_ms = common.median([part.p50(True) for part in parts])
    tail_ms = common.median([part.tail(True)[0] for part in parts])
    ladder_factor = common.median([o.speed_factor() for o in ladder or parts])
    sat_ref = sat / ladder_factor
    artifacts = setup.artifacts()
    metrics = {
        "setup_s": (import_s + common.median(setups_s), "s"),
        "p50_ms": (p50_ms, "ms"),
        "tail_ms": (tail_ms, "ms"),
        "terms_per_s": (sat_ref * mean_terms, "1/s"),
        "saturation_rps": (sat_ref, "1/s"),
        "cx_count": (sum(i.cx_count for i in artifacts), "count"),
        "entangling_depth": (sum(i.entangling_depth for i in artifacts), "count"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    detail = {
        "workload": name,
        "loop": f"open, Poisson, {CONNECTIONS} connections",
        "latency_limit_ms": config["limit_ms"],
        "tail": {"percentile": parts[0].tail()[1], "samples": [part.sent for part in parts],
                 "note": f"median over {FIXED_PARTS} consecutive parts of the fixed-rate phase"},
        "saturation": {"how": how, "steps": steps, "ladder_speed_factor": ladder_factor,
                       "note": "steps are (offered_rps, load) at the measured speed; a step "
                               "passes at load <= 1, load = max(tail_ms / limit_ms, "
                               f"(1 - delivery_ratio) / {common.BACKLOG_TOLERANCE:g})"},
        "terms_per_s_note": "saturation_rps times the mean Pauli terms per request",
        "setup_repeats_s": setups_s,
        "import_s": import_s,
        "calib_ms": common.median([part.calib_ms for part in parts]),
        "reference": {"calib_ms": common.REFERENCE_CALIB_MS,
                      "exponent": common.SERVING_SPEED_EXPONENT,
                      "note": "p50_ms, tail_ms, saturation_rps and terms_per_s are at the "
                              "reference speed: raw * speed_factor per phase, speed_factor = "
                              "(reference / calib) ** exponent * (1 - server_runnable_steal), "
                              "with the steal term squared for tail_ms; rates are divided by "
                              "the ladder's median speed_factor"},
        "raw": {"p50_ms": common.median([part.p50() for part in parts]), "tail_ms": raw_tail_ms,
                "saturation_rps": sat, "terms_per_s": sat * mean_terms},
        "discarded_parts": [phase_summary(part) for part in discarded],
        "phases": {"setup": setup_phase,
                   **{f"fixed_{k + 1}": phase_summary(part) for k, part in enumerate(parts)},
                   **{f"ladder_{k + 1}_{o.rate:g}": phase_summary(o) for k, o in enumerate(ladder)}},
        "gen.lag_p99_ms": common.percentile([lag for part in parts for lag in part.lag_ms], 99.0),
        "failures": problems[:20],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}
