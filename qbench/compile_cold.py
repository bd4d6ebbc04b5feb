"""``compile-cold``: the paper's unit of work, one library caller in a closed loop.

Each job is one Table II program (LiH up to UCC-(8,16)) paired with one
target (all-to-all, ``sycamore``, ``ibm-manhattan``), its rotation angles
scaled by seeded factors, compiled with ``repro.compile(level=3)``.
Chemistry jobs compiled for all-to-all then absorb their observables.

The catalog of distinct jobs is fixed; the seed picks the angle factors
and the order of every pass over the catalog.  The first pass always
completes, further passes run until the time is up.  Every job is
bracketed by the calibration kernel and its time is reported at the
reference speed (``common.REFERENCE_CALIB_MS``).  Latencies are the median
per distinct job, so the sample count (48 jobs) does not depend on the
box's speed and the tail percentile does not flip between runs.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

import common
import oracle

#: Table II programs of the workload: LiH up to UCC-(8,16)
PROGRAMS = (
    "LiH", "H2O", "UCC-(2,4)", "UCC-(2,6)", "UCC-(4,8)", "UCC-(6,12)", "UCC-(8,16)",
    "LABS-(n10)", "LABS-(n15)", "MaxCut-(n15, r4)", "MaxCut-(n20, r4)",
    "MaxCut-(n20, r8)", "MaxCut-(n20, r12)", "MaxCut-(n10, e12)",
    "MaxCut-(n15, e63)", "MaxCut-(n20, e117)",
)
TARGETS = (None, "sycamore", "ibm-manhattan")

#: ``Benchmark.observables()`` never returns for these entries (the seeded
#: synthetic Hamiltonian generator keeps drawing for 2 n^2 distinct terms on
#: 4 qubits), so they are compiled but skip the absorption step
NO_OBSERVABLES = frozenset({"UCC-(2,4)"})

#: jobs of fewer terms than this are compiled this many times in a row on
#: each pass, so the per-job median that sets p50 and the tail rests on
#: several samples; the two largest programs run once per pass
SMALL_JOB_TERMS = 1000
SMALL_JOB_REPEATS = 3

#: widest program checked against the dense statevector oracle
DENSE_CHECK_MAX_QUBITS = 12


class Job:
    """One distinct (program, target) pair with its seeded inputs."""

    def __init__(self, name, target, terms, plain, observables, num_qubits):
        self.name = name
        self.target = target
        self.terms = terms
        self.plain = plain
        self.observables = observables
        self.num_qubits = num_qubits
        self.times_ms: list[float] = []
        self.raw_ms: list[float] = []
        self.qasm: "str | None" = None
        self.cx_count = 0
        self.entangling_depth = 0

    @property
    def label(self) -> str:
        return f"{self.name}@{self.target or 'all-to-all'}"


def build_jobs(seed: int) -> "list[Job]":
    """The catalog, with angles scaled by factors drawn from ``seed``."""
    from repro import PauliTerm
    from repro.workloads.registry import get_benchmark

    rng = np.random.default_rng(seed)
    jobs = []
    for name in PROGRAMS:
        benchmark = get_benchmark(name)
        base = benchmark.terms()
        observables = None
        if benchmark.measurement == "observables" and name not in NO_OBSERVABLES:
            observables = benchmark.observables()
        letters = [term.pauli.letters() for term in base]
        signs = [1.0 if term.pauli.sign == 1 else -1.0 for term in base]
        for target in TARGETS:
            factors = rng.uniform(0.5, 1.5, size=len(base))
            angles = [float(term.coefficient) * float(f) for term, f in zip(base, factors)]
            terms = [PauliTerm(term.pauli, angle) for term, angle in zip(base, angles)]
            plain = [(l, a * s) for l, a, s in zip(letters, angles, signs)]
            jobs.append(Job(name, target, terms, plain, observables, benchmark.num_qubits))
    return jobs


def verify(job: Job, result, seed: int) -> "str | None":
    """``None`` if ``result`` is correct for ``job``, else the reason."""
    from repro.circuits.qasm import to_qasm
    from repro.compiler.target import Target

    circuit_qasm = to_qasm(result.circuit)
    if job.qasm is not None:
        # a repeat of a verified job must reproduce it exactly
        return None if circuit_qasm == job.qasm else "repeat compile differs from the first"
    if job.target is not None:
        edges = Target.named(job.target).coupling.edges
        bad = oracle.off_coupling_gates(circuit_qasm, edges)
        if bad:
            return f"{bad} two-qubit gates off the {job.target} coupling map"
    elif job.num_qubits <= DENSE_CHECK_MAX_QUBITS:
        ok, fidelity = oracle.check_program(
            job.plain, circuit_qasm, to_qasm(result.extracted_clifford), seed=seed
        )
        if not ok:
            return f"dense oracle fidelity {fidelity!r}"
    job.qasm = circuit_qasm
    job.cx_count = result.cx_count()
    job.entangling_depth = result.entangling_depth()
    return None


def run_job(job: Job):
    """Compile (and absorb) once; returns ``(result, raw_ms, calib_ms, absorb_ms)``.

    The calibration kernel brackets the job and samples the box's speed
    during it; the sampling pauses are taken out of ``raw_ms``.
    """
    import repro

    gc.collect()
    with common.SpeedSampler() as sampler:
        start = time.perf_counter()
        result = repro.compile(job.terms, target=job.target, level=3)
        absorb_ms = 0.0
        if job.observables is not None and job.target is None:
            absorb_start = time.perf_counter()
            absorbed = result.absorb_observables(job.observables)
            absorb_ms = (time.perf_counter() - absorb_start) * 1000.0
        raw_ms = (time.perf_counter() - start) * 1000.0 - sampler.paused_ms
    if absorb_ms and len(absorbed) != len(job.observables):
        raise RuntimeError(f"absorbed {len(absorbed)} of {len(job.observables)} observables")
    return result, raw_ms, sampler.speed_ms(), absorb_ms


class Loop:
    """The closed loop over the catalog; records per-job times and failures."""

    def __init__(self, jobs, seed: int):
        self.jobs = jobs
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.calibs: list[float] = []
        self.passes = 0

    def one_pass(self, deadline: "float | None", on_result=None) -> bool:
        """Run the catalog once in a seeded order; False if cut by ``deadline``."""
        order = list(range(len(self.jobs)))
        random.Random(self.seed * 1009 + self.passes).shuffle(order)
        for index in order:
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            job = self.jobs[index]
            for _ in range(SMALL_JOB_REPEATS if len(job.terms) < SMALL_JOB_TERMS else 1):
                self._attempt(job, self.seed + index, on_result)
        self.passes += 1
        return True

    def _attempt(self, job: Job, seed: int, on_result) -> None:
        self.attempted += 1
        try:
            result, raw_ms, job_calib, absorb_ms = run_job(job)
            problem = verify(job, result, seed)
        except Exception as error:  # noqa: BLE001 — a failed job is counted, not fatal
            problem = f"{type(error).__name__}: {error}"
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{job.label}: {problem}")
        else:
            self.calibs.append(job_calib)
            job.raw_ms.append(raw_ms)
            job.times_ms.append(raw_ms * common.REFERENCE_CALIB_MS / job_calib)
            if on_result is not None:
                on_result(job, result, raw_ms, job_calib, absorb_ms)


def setup(seed: int) -> "tuple[list[Job], float]":
    """Generate the inputs and warm the compiler; returns ``(jobs, seconds)``."""
    import repro
    from repro.workloads.registry import get_benchmark

    start = time.perf_counter()
    jobs = build_jobs(seed)
    repro.compile(get_benchmark("UCC-(2,4)").terms(), level=3)
    common.calibrate()
    elapsed = time.perf_counter() - start
    # the inputs live for the whole run: keep them out of every collection
    gc.collect()
    gc.freeze()
    return jobs, elapsed


def summarize(loop: Loop) -> dict:
    jobs = [job for job in loop.jobs if job.times_ms]
    per_job = [common.median(job.times_ms) for job in jobs]
    per_job_raw = [common.median(job.raw_ms) for job in jobs]
    tail_ms, tail_q = common.tail(per_job)
    terms = sum(len(job.terms) for job in jobs)
    return {
        "p50_ms": common.median(per_job),
        "tail_ms": tail_ms,
        "tail_percentile": tail_q,
        "terms_per_s": terms / (sum(per_job) / 1000.0),
        "terms_per_s_raw": terms / (sum(per_job_raw) / 1000.0),
        "jobs_per_s": len(jobs) / (sum(per_job) / 1000.0),
        "distinct_jobs": len(jobs),
        "samples": sum(len(job.times_ms) for job in jobs),
        "cx_count": sum(job.cx_count for job in jobs),
        "entangling_depth": sum(job.entangling_depth for job in jobs),
        "calib_ms": common.median(loop.calibs) if loop.calibs else 0.0,
    }


def run(seed: int, seconds: float, import_s: float, trace: bool) -> dict:
    setups = []
    jobs = None
    for _ in range(common.SETUP_REPEATS):
        jobs, elapsed = setup(seed)
        setups.append(elapsed)
    setup_s = import_s + common.median(setups)

    loop = Loop(jobs, seed)
    start = time.perf_counter()
    if trace:
        import layers

        return layers.trace_compile_cold(loop, seed, seconds)
    loop.one_pass(None)
    while loop.one_pass(start + seconds):
        pass
    summary = summarize(loop)
    complete = len([job for job in jobs if job.times_ms]) == len(jobs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (summary["p50_ms"], "ms"),
        "tail_ms": (summary["tail_ms"], "ms"),
        "terms_per_s": (summary["terms_per_s"], "1/s"),
        "saturation_rps": (summary["jobs_per_s"], "1/s"),
        "cx_count": (summary["cx_count"], "count"),
        "entangling_depth": (summary["entangling_depth"], "count"),
        "peak_rss_mb": (common.peak_rss_mb(), "MiB"),
        "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "fraction"),
    }
    detail = {
        "workload": "compile-cold",
        "loop": "closed, 1 caller",
        "measured_s": time.perf_counter() - start,
        "passes": loop.passes,
        "setup_repeats_s": setups,
        "import_s": import_s,
        "tail": {"percentile": summary["tail_percentile"], "samples": summary["distinct_jobs"],
                 "note": "per-distinct-job medians at the reference speed"},
        "samples": summary["samples"],
        "terms_per_s_raw": summary["terms_per_s_raw"],
        "calib_ms": summary["calib_ms"],
        "reference_calib_ms": common.REFERENCE_CALIB_MS,
        "saturation_rps_note": "closed loop: distinct jobs completed per second at the reference speed",
        "failures": loop.failures[:20],
        "phases": {"compile": {"sent": loop.attempted, "succeeded": loop.attempted - loop.failed,
                               "failed": loop.failed}},
    }
    return {
        "metrics": metrics,
        "attempted": loop.attempted,
        "failed": loop.failed + (0 if complete else 1),
        "detail": detail,
    }
