"""Independent correctness oracle: dense numpy statevectors, no ``repro`` calls.

A program is a plain list of ``(letters, angle)`` pairs: ``letters[q]`` is the
Pauli letter on qubit ``q`` and the rotation is ``exp(-i * angle / 2 * P)``
(a ``-1`` label sign is folded into ``angle`` by the caller).  A circuit is
its OpenQASM 2.0 text, parsed here with a small parser of our own.

The check applies the program's rotations, in order, to a seeded random
state, applies the compiled circuit and then the extracted Clifford to the
same state, and requires the two results to agree up to a global phase.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: fidelity deficit tolerated by :func:`check_program` (float64 round-off over
#: a few thousand gates sits many orders of magnitude below this)
FIDELITY_TOLERANCE = 1e-8

_STATEMENT = re.compile(r"^([a-z]+)\s*(?:\(([^)]*)\))?\s+(.+?);$")
_OPERAND = re.compile(r"q\[(\d+)\]")
_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
}


def _rotation_1q(name: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if name == "rz":
        return np.array([[complex(c, -s), 0], [0, complex(c, s)]])
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(f"unknown rotation {name!r}")


def parse_qasm(text: str) -> "tuple[int, list[tuple[str, tuple[int, ...], tuple[float, ...]]]]":
    """``(num_qubits, [(gate, qubits, params), ...])`` of an OpenQASM 2.0 text."""
    num_qubits = None
    gates = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("OPENQASM", "include", "//")):
            continue
        if line.startswith("qreg"):
            num_qubits = int(_OPERAND.search(line.replace("qreg", "", 1)).group(1))
            continue
        match = _STATEMENT.match(line)
        if match is None:
            raise ValueError(f"unparsable QASM statement {line!r}")
        name, params, operands = match.groups()
        values = tuple(float(eval_angle(p)) for p in params.split(",")) if params else ()
        qubits = tuple(int(q) for q in _OPERAND.findall(operands))
        gates.append((name, qubits, values))
    if num_qubits is None:
        raise ValueError("QASM text declares no qreg")
    return num_qubits, gates


def eval_angle(text: str) -> float:
    """A QASM angle: a float literal, optionally a ``pi`` expression."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    if not re.fullmatch(r"[0-9eE.+\-*/() pi]+", text):
        raise ValueError(f"unsupported QASM angle {text!r}")
    return float(eval(text, {"__builtins__": {}}, {"pi": math.pi}))  # noqa: S307


class DenseSimulator:
    """Statevector on ``num_qubits`` qubits; qubit ``q`` is bit ``q`` of the index."""

    def __init__(self, num_qubits: int):
        if num_qubits > 16:
            raise ValueError(f"{num_qubits} qubits is too wide for a dense check")
        self.num_qubits = num_qubits
        self.index = np.arange(1 << num_qubits, dtype=np.int64)
        self._bits = [((self.index >> q) & 1).astype(bool) for q in range(num_qubits)]

    def random_state(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        state = rng.normal(size=1 << self.num_qubits) + 1j * rng.normal(size=1 << self.num_qubits)
        return state / np.linalg.norm(state)

    def _parity(self, mask: int) -> np.ndarray:
        """``popcount(index & mask) % 2`` for every basis index."""
        out = np.zeros(1 << self.num_qubits, dtype=bool)
        for q in range(self.num_qubits):
            if (mask >> q) & 1:
                out ^= self._bits[q]
        return out

    def apply_pauli_rotation(self, state: np.ndarray, letters, angle: float) -> np.ndarray:
        """``exp(-i angle/2 P) state``, with ``P`` given by per-qubit letters."""
        x_mask = z_mask = num_y = 0
        for q, letter in enumerate(letters):
            if letter in ("X", "Y"):
                x_mask |= 1 << q
            if letter in ("Z", "Y"):
                z_mask |= 1 << q
            num_y += letter == "Y"
        # P|b> = i^nY (-1)^{|b & z|} |b ^ x>  =>  (P psi)[c] = ... psi[c ^ x]
        source = self.index ^ x_mask
        signs = np.where(self._parity(z_mask)[source], -1.0, 1.0) * (1j ** num_y)
        applied = signs * state[source]
        return math.cos(angle / 2.0) * state - 1j * math.sin(angle / 2.0) * applied

    def apply_gate(self, state: np.ndarray, name: str, qubits, params) -> np.ndarray:
        if name in ("cx", "cz", "swap", "rzz"):
            a, b = qubits
            bit_a, bit_b = self._bits[a], self._bits[b]
            if name == "cx":
                return state[np.where(bit_a, self.index ^ (1 << b), self.index)]
            if name == "cz":
                return np.where(bit_a & bit_b, -state, state)
            if name == "swap":
                differ = bit_a != bit_b
                return state[np.where(differ, self.index ^ ((1 << a) | (1 << b)), self.index)]
            theta = params[0]
            phase = np.where(bit_a ^ bit_b, np.exp(0.5j * theta), np.exp(-0.5j * theta))
            return phase * state
        (q,) = qubits
        matrix = _FIXED_1Q.get(name)
        if matrix is None:
            matrix = _rotation_1q(name, params[0])
        view = state.reshape(-1, 2, 1 << q)
        low, high = view[:, 0, :], view[:, 1, :]
        out = np.empty_like(view)
        out[:, 0, :] = matrix[0, 0] * low + matrix[0, 1] * high
        out[:, 1, :] = matrix[1, 0] * low + matrix[1, 1] * high
        return out.reshape(-1)

    def run(self, state: np.ndarray, circuit) -> np.ndarray:
        """Apply a parsed circuit (see :func:`parse_qasm`) to ``state``."""
        num_qubits, gates = circuit
        if num_qubits != self.num_qubits:
            raise ValueError(f"circuit has {num_qubits} qubits, expected {self.num_qubits}")
        for name, qubits, params in gates:
            state = self.apply_gate(state, name, qubits, params)
        return state


def check_program(program, circuit, clifford, seed: int = 0) -> "tuple[bool, float]":
    """``(ok, fidelity)``: does ``circuit`` then ``clifford`` implement ``program``?

    ``program`` is a list of ``(letters, angle)`` pairs applied in order; the
    circuits are QASM texts or :func:`parse_qasm` results (``clifford`` may
    be ``None``).
    """
    num_qubits = len(program[0][0])
    sim = DenseSimulator(num_qubits)
    initial = sim.random_state(seed)
    expected = initial
    for letters, angle in program:
        expected = sim.apply_pauli_rotation(expected, letters, angle)
    actual = sim.run(initial, parse_qasm(circuit) if isinstance(circuit, str) else circuit)
    if clifford is not None:
        actual = sim.run(actual, parse_qasm(clifford) if isinstance(clifford, str) else clifford)
    fidelity = float(abs(np.vdot(expected, actual)))
    return abs(1.0 - fidelity) < FIDELITY_TOLERANCE, fidelity


def cx_and_depth(circuit) -> "tuple[int, int]":
    """Two-qubit gate count and entangling depth of a parsed circuit."""
    num_qubits, gates = circuit
    level = [0] * num_qubits
    count = 0
    for _, qubits, _ in gates:
        if len(qubits) == 2:
            count += 1
            depth = max(level[qubits[0]], level[qubits[1]]) + 1
            level[qubits[0]] = level[qubits[1]] = depth
    return count, max(level, default=0)


_TWO_QUBIT = re.compile(r"^\s*[a-z]+\s*(?:\([^)]*\))?\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]\s*;", re.M)


def off_coupling_gates(circuit_qasm: str, edges) -> int:
    """Number of two-qubit gates that do not sit on an (undirected) coupling edge."""
    allowed = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    return sum(
        1 for a, b in _TWO_QUBIT.findall(circuit_qasm) if (int(a), int(b)) not in allowed
    )
