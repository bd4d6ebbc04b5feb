"""Self-tests of the benchmark's own code (not collected by the repository's suite).

Run with either of::

    python3 qbench/selftest.py
    python3 -m pytest qbench/selftest.py -q
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import oracle  # noqa: E402

# exp(-i a/2 XX) exp(-i b/2 ZZ) on two qubits, compiled by hand: each rotation
# is a CX ladder around an Rz, with a basis change for the X factors
PROGRAM = [(["X", "X"], 0.7), (["Z", "Z"], -0.4)]
CIRCUIT = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
h q[1];
cx q[0], q[1];
rz(0.7) q[1];
cx q[0], q[1];
h q[0];
h q[1];
cx q[0], q[1];
rz(-0.4) q[1];
cx q[0], q[1];
"""


def test_oracle_accepts_a_correct_circuit():
    ok, fidelity = oracle.check_program(PROGRAM, CIRCUIT, None, seed=3)
    assert ok, fidelity


def test_oracle_rejects_a_flipped_angle():
    flipped = CIRCUIT.replace("rz(0.7)", "rz(-0.7)")
    ok, _ = oracle.check_program(PROGRAM, flipped, None, seed=3)
    assert not ok


def test_oracle_rejects_a_dropped_cx():
    lines = CIRCUIT.splitlines()
    first_cx = next(i for i, line in enumerate(lines) if line.startswith("cx"))
    dropped = "\n".join(lines[:first_cx] + lines[first_cx + 1:]) + "\n"
    ok, _ = oracle.check_program(PROGRAM, dropped, None, seed=3)
    assert not ok


def test_oracle_checks_the_extracted_clifford():
    # the trailing CX pair moved into the "extracted Clifford" still composes
    # to the program; dropping that tail does not
    lines = CIRCUIT.splitlines()
    head = "\n".join(lines[:-1]) + "\n"
    tail = "\n".join(lines[:3] + [lines[-1]]) + "\n"
    assert oracle.check_program(PROGRAM, head, tail, seed=5)[0]
    assert not oracle.check_program(PROGRAM, head, None, seed=5)[0]


def test_oracle_handles_y_and_sign_conventions():
    # Y = S X S^dagger, so exp(-i t/2 Y) = S exp(-i t/2 X) S^dagger
    program = [(["Y"], 1.1)]
    circuit = "OPENQASM 2.0;\nqreg q[1];\nsdg q[0];\nrx(1.1) q[0];\ns q[0];\n"
    assert oracle.check_program(program, circuit, None, seed=1)[0]
    negated = [(["Y"], -1.1)]
    assert not oracle.check_program(negated, circuit, None, seed=1)[0]


def test_coupling_check_and_counts():
    assert oracle.off_coupling_gates(CIRCUIT, [(0, 1)]) == 0
    assert oracle.off_coupling_gates(CIRCUIT, [(1, 0)]) == 0
    assert oracle.off_coupling_gates(CIRCUIT, [(1, 2)]) == 4
    assert oracle.cx_and_depth(oracle.parse_qasm(CIRCUIT)) == (4, 4)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert common.percentile(values, 50) == 50
    assert common.percentile(values, 99) == 99
    assert common.percentile(values, 100) == 100
    assert common.percentile([5.0], 99) == 5.0
    assert common.percentile([3, 1, 2], 50) == 2


def test_tail_choice_keeps_ten_samples_beyond():
    assert common.tail_percentile(48) == 75.0      # 12 beyond p75, 4 beyond p90
    assert common.tail_percentile(100) == 90.0
    assert common.tail_percentile(200) == 95.0
    assert common.tail_percentile(600) == 98.0
    assert common.tail_percentile(1000) == 99.0
    assert common.tail_percentile(20000) == 99.9
    assert common.tail_percentile(5) == 50.0       # fewer than the ladder allows
    for count in (48, 100, 600, 1000, 5000):
        assert common.samples_beyond(count, common.tail_percentile(count)) >= 10
    value, q = common.tail(list(range(1, 201)))
    assert (value, q) == (190.0, 95.0)


def test_saturation_interpolates_between_pass_and_fail():
    # tails 20, 30, 50 ms against a 40 ms limit: the line crosses at 175/s
    steps = [(100.0, 0.5), (150.0, 0.75), (200.0, 1.25)]
    value, how = common.saturation(steps)
    assert how == "interpolated" and math.isclose(value, 175.0)


def test_saturation_edge_cases():
    assert common.saturation([(100.0, 2.0)]) == (50.0, "below_ladder")
    assert common.saturation([(100.0, 0.25), (150.0, 0.5)]) == (150.0, "above_ladder")
    # a step whose requests all failed has an infinite tail; it enters the
    # fit at LOAD_CAP
    value, how = common.saturation([(100.0, 0.25), (200.0, float("inf"))])
    assert how == "interpolated"
    assert math.isclose(value, 100.0 + 100.0 * 0.75 / (common.LOAD_CAP - 0.25))


def test_saturation_outvotes_a_lone_failure():
    assert common.monotone_fit([1.0, 3.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]
    # 150/s failed by chance between passes at 100/s and 200/s; the fit
    # pools it with 200/s (load 0.9) and the ladder goes on to 250/s
    steps = [(100.0, 0.5), (150.0, 1.1), (200.0, 0.7), (250.0, 1.5)]
    value, how = common.saturation(steps)
    assert how == "interpolated" and math.isclose(value, 200.0 + 50.0 * 0.1 / 0.6)
    # an overloaded step enters the fit at LOAD_CAP, so it cannot outvote
    # two passes below it
    value, _ = common.saturation([(100.0, 0.5), (200.0, 0.6), (210.0, 0.5), (250.0, 50.0)])
    assert 210.0 < value < 250.0


def test_step_load():
    assert math.isclose(common.step_load(20.0, 40.0, 1.0), 0.5)
    assert math.isclose(common.step_load(20.0, 40.0, 0.9), 2.0)   # 10% unanswered
    assert common.step_load(50.0, 40.0, 1.0) > 1.0


def test_delivery_ratio_sees_a_growing_backlog():
    offsets = [k / 100.0 for k in range(1, 301)]            # 300 requests at 100/s
    steady = [5.0 + (17.0 if k % 7 == 0 else 0.0) for k in range(300)]
    assert math.isclose(common.delivery_ratio(offsets, steady), 1.0)
    # offered 100/s against a capacity of 80/s: the delay grows 0.2 s per s
    growing = [5.0 + 200.0 * t for t in offsets]
    assert math.isclose(common.backlog_growth(offsets, growing), 0.2)
    assert math.isclose(common.delivery_ratio(offsets, growing), 0.8)
    # one 300 ms stall at the end is not a backlog
    stalled = steady[:-20] + [300.0 - 10.0 * k for k in range(20)]
    assert common.delivery_ratio(offsets, stalled) > 1.0 - common.BACKLOG_TOLERANCE
    # failed requests are not answers
    assert math.isclose(common.delivery_ratio(offsets, steady, failed=30), 0.9)


def test_saturation_of_a_backlogged_ladder():
    # the 300/s step met a 250 ms limit but fell 10% behind: a failure, and
    # the line from the 200/s pass (tail 12 ms) crosses a load of 1 at 250/s
    offsets = [k / 300.0 for k in range(1, 401)]
    growing = [5.0 + 100.0 * t for t in offsets]
    delivery = common.delivery_ratio(offsets, growing)
    assert math.isclose(delivery, 0.9)
    tail_ms = common.percentile(growing, 95.0)
    assert tail_ms < 250.0
    steps = [(100.0, common.step_load(10.0, 250.0, 1.0)),
             (200.0, common.step_load(12.0, 250.0, 1.0)),
             (300.0, common.step_load(tail_ms, 250.0, delivery))]
    value, how = common.saturation(steps)
    assert how == "interpolated" and 200.0 < value < 300.0
    load_p = 12.0 / 250.0
    assert math.isclose(value, 200.0 + 100.0 * (1.0 - load_p) / (2.0 - load_p))


class _Phase:
    """The parts of a serving phase outcome that ``layers.server_layers`` reads."""

    def __init__(self, latency_ms):
        self.latency_ms = latency_ms

    def p50(self):
        return common.percentile(self.latency_ms, 50.0)


def test_unattributed_is_per_request():
    import layers

    client = [10.0, 12.0, 30.0]
    handle = [8.0, 2.0, 27.0]                               # gaps 2, 10, 3 ms
    spans = {i: [{"name": "server.handle", "duration_seconds": ms / 1000.0}]
             for i, ms in enumerate(handle)}
    metrics = {"scheduler": {}, "cache": {}}
    values, accounting = layers.server_layers(_Phase(client), spans, metrics, metrics)
    assert math.isclose(values["unattributed_p50_ms"], 3.0)
    assert math.isclose(values["server.handle_p50_ms"], 8.0)
    # 12 ms at the client, 8 + 3 accounted: the residual is visible
    assert math.isclose(accounting["residual_ms"], 1.0)
    assert "scheduler.batch_p50_ms" not in values          # no batch spans: missing


def test_qasm_angles():
    assert math.isclose(oracle.eval_angle("pi/2"), math.pi / 2)
    assert math.isclose(oracle.eval_angle("-0.25"), -0.25)
    try:
        oracle.eval_angle("__import__('os')")
    except ValueError:
        pass
    else:
        raise AssertionError("unsafe angle accepted")


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if re.match(r"test_", name) and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as error:  # noqa: BLE001 — report every failing test
            failures += 1
            print(f"FAIL {name}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
