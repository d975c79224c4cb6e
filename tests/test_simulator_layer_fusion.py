"""The window pass: gates folded into contiguous-window GEMM blocks.

The contracts under test, each in its own tier:

* **Fused == gate for gate == oracle, within the precision tier's bound.**
  A default (fused) plan, the ``fusion_max_qubits=0`` plan and the
  gate-by-gate ``StateVector`` oracle agree to 1e-12 on amplitudes in
  double precision and 1e-4 in single.
* **Lanes are bitwise.**  Serial and thread-chunked replay of one fused
  plan produce bit-for-bit the same amplitudes — a block's
  chunks issue the serial pass's per-batch GEMM shapes.
* **Work bounds** that the commit before layer fusion fails: every GEMM the
  replay issues stays under the single-thread cap, a two-layer 16-qubit
  ansatz compiles to at most 40 steps, a 16-qubit job starts no engine
  thread, a QFT compile builds index tuples only for slots its kernels
  touch — and one it passes but a wider-window / two-matrix block fails:
  fused plans stay small.
* **Parent-recorded values** (commit 292aa86): the QFT's batched diagonal
  payloads and a reset circuit's fixed-seed trajectory counts.
"""

from __future__ import annotations

import hashlib
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.qft import qft_circuit
from repro.exec import LocalBackend
from repro.ir import gates as G
from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.simulator import execution_plan
from repro.simulator.execution_plan import (
    BLOCK_WINDOW_MAX_QUBITS,
    KERNEL_NAMES,
    compile_plan,
)
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.plan_cache import PlanCache
from repro.simulator.sampling import SAMPLING_STREAM, SUPPORT_FLOOR
from repro.simulator.statevector import StateVector

#: Ceiling on M·N·K of one GEMM (the module's cap, restated so this file
#: also runs — and fails — against the commit before the cap existed).
MATMUL_CAP = 1 << 15
TOLERANCE = {"double": 1e-12, "single": 1e-4}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def oracle_state(circuit, width: int, seed: int) -> np.ndarray:
    """Gate-by-gate evolution; resets draw from a seeded generator exactly
    as ``ExecutionPlan._reset`` does (measure, then a conditional X)."""
    rng = np.random.default_rng(seed)
    state = StateVector(width)
    for inst in circuit:
        if inst.name == "RESET":
            if state.measure(inst.qubits[0], rng) == 1:
                state.apply(G.X([inst.qubits[0]]))
        else:
            state.apply(inst)
    return state.data


def replay(plan, seed: int, pool=None) -> np.ndarray:
    return plan.execute(plan.new_state(), rng=np.random.default_rng(seed), pool=pool)


@pytest.fixture(scope="module")
def engine():
    """One thread engine for the whole module."""
    with ParallelSimulationEngine(num_threads=2) as engine:
        yield engine


# ---------------------------------------------------------------------------
# Hypothesis: random circuits over every kernel class
# ---------------------------------------------------------------------------

_ISWAP = G.ISwap([0, 1]).matrix()


@st.composite
def circuits(draw):
    """(circuit, plan width): 2-10 qubits, every kernel class, single-qubit
    layers on random contiguous ranges (so blocks land at qubit 0, in the
    middle and at the top), an optional reset, partial measurement and a
    plan up to two qubits wider than the circuit."""
    n = draw(st.integers(2, 10))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-3.0, 3.0, allow_nan=False)
    circuit = CompositeInstruction("layered", n)

    def distinct(k):
        return draw(st.permutations(range(n)))[:k]

    for _ in range(draw(st.integers(1, 12))):
        kind = draw(
            st.sampled_from(
                ["layer", "layer", "single", "diag1", "controlled", "diagonal",
                 "permutation", "gather", "dense", "reset"]
            )
        )
        if kind == "layer":
            lo = draw(qubit)
            hi = draw(st.integers(lo, n - 1))
            for q in range(lo, hi + 1):
                circuit.add(G.RY([q], [draw(angle)]))
        elif kind == "single":
            gate = draw(st.sampled_from([G.H, G.Y, G.X]))
            circuit.add(gate([draw(qubit)]))
        elif kind == "diag1":
            q = draw(qubit)
            circuit.add(draw(st.sampled_from([G.T([q]), G.S([q]), G.RZ([q], [0.37])])))
        elif kind == "controlled":
            circuit.add(draw(st.sampled_from([G.CH, G.CY]))(distinct(2)))
        elif kind == "diagonal":
            circuit.add(G.CPhase(distinct(2), [draw(angle)]))
        elif kind == "permutation":
            if n >= 3 and draw(st.booleans()):
                circuit.add(G.CCX(distinct(3)))
            else:
                circuit.add(draw(st.sampled_from([G.CX, G.Swap]))(distinct(2)))
        elif kind == "gather":
            circuit.add(G.PermutationGate(draw(st.permutations(range(4))), distinct(2)))
        elif kind == "dense":
            if draw(st.booleans()):
                circuit.add(G.ISwap(distinct(2)))
            else:
                circuit.add(G.UnitaryGate(_ISWAP @ np.kron(G.H([0]).matrix(), np.eye(2)), distinct(2)))
        elif not any(inst.name == "RESET" for inst in circuit):
            circuit.add(G.Reset([draw(qubit)]))
    for q in draw(st.sets(qubit)):
        circuit.add(G.Measure([q]))
    return circuit, n + draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(circuits(), st.sampled_from(["double", "single"]), st.integers(0, 2**31))
def test_fused_equals_unfused_equals_oracle_and_lanes_are_bitwise(
    engine, case, precision, seed
):
    circuit, width = case
    options = dict(chunk_threshold=2, precision=precision)
    fused = compile_plan(circuit, width, **options)
    unfused = compile_plan(circuit, width, fusion_max_qubits=0, **options)
    assert "block" not in unfused.kernel_counts() and unfused.fused_gates == 0

    serial = replay(fused, seed)
    plain = replay(unfused, seed)
    oracle = oracle_state(circuit, width, seed)
    bound = TOLERANCE[precision]
    assert np.abs(serial - plain).max() <= bound
    assert np.abs(serial - oracle).max() <= bound

    # Lanes: bitwise, whatever the precision (chunking is forced above).
    assert np.array_equal(serial, replay(fused, seed, pool=engine))

    # Fusion never touches what is measured.  Fixed-seed *counts* of a
    # fused and an unfused plan can still differ — their amplitudes differ
    # by ulps, and an ulp can move a draw — but their supports no longer
    # do: a GEMM leaves ~1e-17 amplitudes where gate-for-gate arithmetic
    # cancels exactly, and a bin at or below SUPPORT_FLOOR is not sampled.
    assert fused.measured_qubits == unfused.measured_qubits == circuit.measured_qubits()
    if precision == "double":
        supports = [
            np.flatnonzero(np.abs(state) ** 2 > SUPPORT_FLOOR)
            for state in (serial, plain, oracle)
        ]
        assert all(np.array_equal(supports[0], other) for other in supports[1:])


# ---------------------------------------------------------------------------
# Where blocks land, and what one holds
# ---------------------------------------------------------------------------


def layered_circuit(n: int = 10):
    """Layers at qubit 0, mid-register and the top, a dense step between."""
    builder = CircuitBuilder(n, name="placed")
    for q in range(n):
        builder.ry(q, 0.2 + 0.1 * q)
    builder.cx(0, n - 1)
    for q in (0, 1, 2):
        builder.h(q).t(q)
    for q in (4, 5):
        builder.rx(q, 0.7)
    for q in (n - 2, n - 1):
        builder.ry(q, 1.3)
    builder.rz(3, 0.4)  # diagonal only: stays a diagonal step
    circuit = builder.build()
    circuit.add(G.ISwap([1, n - 2]))
    return circuit


def test_blocks_land_at_the_bottom_middle_and_top_and_lanes_agree(engine):
    circuit = layered_circuit()
    plan = compile_plan(circuit, 10, optimize=False, chunk_threshold=2)
    blocks = [step.targets for step in plan.steps if step.kernel == "block"]
    # Bottom, middle and top: each window takes the layer's RYs and the
    # gates after them that the CX(0, 9) does not block.
    assert blocks == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
    assert all(len(t) <= BLOCK_WINDOW_MAX_QUBITS for t in blocks)
    # 4 RY + (2 H + 2 T) + RZ, 4 RY + 2 RX, 2 RY + RY, and H·T on qubit 0
    # after the CX; the lone RY on qubit 9 after the CX is not fused.
    assert plan.fused_gates == 20
    kernels = plan.kernel_counts()
    assert kernels == {"block": 3, "permutation": 1, "single": 2, "dense": 1}

    serial = replay(plan, 0)
    assert np.abs(serial - oracle_state(circuit, 10, 0)).max() <= 1e-12
    assert np.array_equal(serial, replay(plan, 0, pool=engine))


def test_same_qubit_runs_multiply_in_one_pass_only():
    """H·T·S on one qubit is one FUSED single step (as before layer
    fusion, and bit for bit the same matrix: M3 @ (M2 @ M1)); on adjacent
    qubits the per-qubit products share one block."""
    run = CircuitBuilder(2).h(0).t(0).s(0).build()
    plan = compile_plan(run, 2, optimize=False)
    assert [(s.kernel, s.name) for s in plan.steps] == [("single", "FUSED")]
    step = plan.steps[0]
    expected = G.S([0]).matrix() @ (G.T([0]).matrix() @ G.H([0]).matrix())
    assert np.array_equal(
        np.array([[step.m00, step.m01], [step.m10, step.m11]]), expected
    )
    assert plan.fused_gates == 3

    both = CircuitBuilder(2).h(0).t(0).h(1).s(1).build()
    plan = compile_plan(both, 2, optimize=False)
    assert [s.kernel for s in plan.steps] == ["block"] and plan.fused_gates == 4
    assert np.allclose(plan.steps[0].matrix, np.kron(
        G.S([0]).matrix() @ G.H([0]).matrix(), G.T([0]).matrix() @ G.H([0]).matrix()
    ))


def test_nothing_to_fuse_leaves_the_steps_in_program_order():
    """Gates four or more qubits apart, and a CX spanning the register
    between the two gates on qubit 0: every window holds one gate, and each
    takes its anchor's place."""
    circuit = CircuitBuilder(12).h(8).t(0).h(4).cx(0, 11).rz(0, 0.3).build()
    fused = compile_plan(circuit, 12, optimize=False, batch_diagonals=False)
    plain = compile_plan(
        circuit, 12, optimize=False, batch_diagonals=False, fusion_max_qubits=0
    )
    assert [(s.kernel, s.targets) for s in fused.steps] == [
        ("single", (8,)), ("diagonal", (0,)), ("single", (4,)),
        ("permutation", (0, 11)), ("diagonal", (0,)),
    ]
    assert [s.targets for s in plain.steps] == [s.targets for s in fused.steps]
    assert fused.fused_gates == 0


def test_symbolic_gates_join_windows_and_rebind():
    from repro.ir.parameter import Parameter
    from repro.simulator.execution_plan import compile_parametric_plan

    builder = CircuitBuilder(4)
    builder.ry(0, 0.3).ry(1, Parameter("a")).ry(2, 0.5).ry(3, 0.7)
    parametric = compile_parametric_plan(builder.build(), 4)
    # The symbolic RY joins the window like the concrete ones: one block,
    # whose matrix compile leaves to bind.
    (step,) = parametric.template_steps
    assert (step.kernel, step.targets) == ("block", (0, 1, 2, 3))
    assert [index for index, _ in step.parametric] == [1]
    assert getattr(step, "matrix", None) is None
    for value in (0.1, 2.2):
        bound = parametric.bind([value])
        expected = oracle_state(builder.build().bind([value]), 4, 0)
        assert np.allclose(bound.execute(bound.new_state()), expected, atol=1e-12)
        concrete = compile_plan(builder.build().bind([value]), 4)
        assert np.array_equal(bound.steps[0].matrix, concrete.steps[0].matrix)



@pytest.mark.parametrize("lo", [0, 3, 9, 10])
def test_block_chunks_are_bitwise_the_serial_pass(engine, lo):
    """A block's chunks split its GEMM pass over the batch axes, so each
    issues the serial pass's per-batch shapes: the row batches at lo = 0,
    the outer batches at 3 and 9 (column tiles from 9 up), and for the top
    window of 14 qubits, with one outer batch, the column tiles."""
    builder = CircuitBuilder(14, name=f"block-chunks-{lo}")
    for q in range(lo, lo + 4):
        builder.ry(q, 0.3 + 0.07 * q)
    for q in range(lo, lo + 3):
        builder.cx(q, q + 1)
    plan = compile_plan(builder.build(), 14, chunk_threshold=2)
    assert [s.targets for s in plan.steps] == [tuple(range(lo, lo + 4))]
    (spec,) = plan.chunk_program(2)
    assert isinstance(spec, execution_plan._ChunkBlock) and len(spec.tasks) == 2
    assert len(spec.tasks[0]) == (2 if lo == 10 else 1)

    serial = replay(plan, 0)
    assert np.abs(serial - oracle_state(builder.build(), 14, 0)).max() <= 1e-12
    assert np.array_equal(serial, replay(plan, 0, pool=engine))


def test_swapping_kernels_are_one_rule_every_driver_reads():
    """``PlanStep.swaps`` is the single statement of "the result is in the
    spare buffer": the serial kernel and the chunk spec must both obey it.
    Every gate but the two RYs spans more than a window, so each keeps its
    own kernel."""
    circuit = CircuitBuilder(12).ry(0, 0.3).ry(1, 0.4).cphase(0, 5, 0.4).cx(0, 6).h(11).build()
    circuit.add(G.CH([1, 7]))
    circuit.add(G.PermutationGate([1, 0, 2, 3], [2, 7]))
    circuit.add(G.ISwap([0, 9]))
    plan = compile_plan(circuit, 12, optimize=False)
    assert set(plan.kernel_counts()) == set(KERNEL_NAMES.values()) - {"reset"}
    assert {s.kernel for s in plan.steps if s.swaps} == {"block", "gather", "dense"}
    cur, spare = plan.new_state(), np.empty(1 << 12, dtype=complex)
    for step, spec in zip(plan.steps, plan.chunk_program(2)):
        after, _ = plan._apply_step(step, cur, spare, plan._shape, None)
        assert (after is spare) == step.swaps
        if spec is not None:
            again, _ = spec.run(lambda fn, tasks: [fn(t) for t in tasks], cur, spare, plan._shape)
            assert (again is spare) == step.swaps


# ---------------------------------------------------------------------------
# Work bounds
# ---------------------------------------------------------------------------


def ansatz(n: int, layers: int, measure: bool = False):
    builder = CircuitBuilder(n, name=f"ansatz{n}x{layers}")
    for layer in range(layers):
        for q in range(n):
            builder.ry(q, 0.37 * (q + 1) + 0.91 * layer)
        for q in range(n - 1):
            builder.cx(q, q + 1)
    return (builder.measure_all() if measure else builder).build()


def test_every_gemm_of_a_replay_stays_under_the_single_thread_cap(monkeypatch):
    """Deterministic form of the BLAS finding: a zgemm whose M·N·K reaches
    ~65 536 wakes OpenBLAS's idle worker pool and stalls for milliseconds.
    The gather-based dense kernel had that bug before this cap existed: an
    ISwap on 16 qubits was one (4x4) @ (4x16384) call, M·N·K = 262 144."""
    n = 16
    builder = CircuitBuilder(n, name="gemm-shapes")
    for q in (0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 15):  # lo = 0, mid, top
        builder.ry(q, 0.1 + 0.05 * q)
    circuit = builder.build()
    circuit.add(G.ISwap([2, 11]))
    plan = compile_plan(circuit, n, optimize=False, chunk_threshold=2)
    expected = replay(plan, 0)

    sizes: list[int] = []
    real = np.matmul

    def recording(a, b, *args, **kwargs):
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    with ParallelSimulationEngine(num_threads=2) as engine:
        for pool in (None, engine):  # the serial kernel and _ChunkDense.run
            sizes.clear()
            assert np.array_equal(replay(plan, 0, pool=pool), expected)
            assert max(sizes) <= MATMUL_CAP, sizes
            # One product per step serially; each block splits in two on
            # the two-thread engine.
            assert len(sizes) == (4 if pool is None else 7)
    assert plan.kernel_counts() == {"block": 3, "dense": 1}
    assert MATMUL_CAP == execution_plan._MATMUL_BATCH_CAP


def test_two_layer_ansatz_compiles_to_a_block_per_window():
    plan = compile_plan(ansatz(16, 2), 16)
    assert plan.n_steps <= 40  # 5 + 4 windows and one CX; gate for gate: 62
    assert plan.kernel_counts() == {"block": 9, "permutation": 1}


def test_default_sixteen_qubit_job_starts_no_engine_thread():
    """Below the measured crossover the backend replays serially: no pool is
    created, let alone used (the old 2^16 threshold started two threads),
    and the replay span names the lane that really ran.  The lane is still
    there when asked for."""
    from repro.obs import enable_tracing

    def engine_threads():
        return [t for t in threading.enumerate() if t.name.startswith("sim-engine")]

    tracer = enable_tracing()
    before = set(engine_threads())
    engine = ParallelSimulationEngine(num_threads=2)
    circuit = ansatz(16, 1, measure=True)
    with LocalBackend(engine=engine, plan_cache=PlanCache()) as backend:
        result = backend.execute(circuit, 256, seed=7)
        started = set(engine_threads()) - before
        forced = backend.execute(circuit, 256, seed=7, chunk_threshold=2)
        forced_started = set(engine_threads()) - before
    engine.close()
    assert sum(result.counts.values()) == 256
    assert started == set()
    assert len(forced_started) == 2 and forced.counts == result.counts
    lanes = [s.attributes["lane"] for s in tracer.spans() if s.name == "replay"]
    assert lanes == ["serial", "ParallelSimulationEngine"]


def test_fused_plans_stay_small():
    """Guards the broker_cold RSS finding: a plan cache holds hundreds of
    these, so a block stores one 2^W x 2^W matrix (U.T is a view) and no
    state-sized table."""
    plan = compile_plan(ansatz(14, 3), 14)
    assert plan.kernel_counts()["block"] == 10
    assert plan.memory_bytes() <= 64 * 1024
    for step in plan.steps:
        if step.kernel != "block":
            continue
        arrays = [
            getattr(step, slot) for slot in type(step).__slots__
            if isinstance(getattr(step, slot, None), np.ndarray)
        ]
        assert [a.shape for a in arrays] in ([(16, 16)], [(4, 4)])
        assert all(a.size < (1 << 14) for a in arrays)


@pytest.mark.parametrize("n", [5, 6, 9, 12, 16])
def test_no_block_is_wider_than_the_window(n):
    """Every block holds at most a 2^W x 2^W matrix.  A window on qubits
    1-4 cannot be widened down to qubit 0 within W qubits, so the window
    pass places none there."""
    for circuit in (ansatz(n, 3), qft_circuit(n)):
        for step in compile_plan(circuit, n).steps:
            if step.kernel == "block":
                assert step.matrix.shape[0] <= 1 << BLOCK_WINDOW_MAX_QUBITS, step.targets
                assert step.block == 1 or step.targets[0] > 1


def test_qft_compile_builds_index_tuples_only_for_touched_slots(monkeypatch):
    """Before, every slot of every CPHASE got an axis tuple that diagonal
    batching then threw away: 1 816 ``_axis_index`` calls for QFT-16."""
    calls = [0]
    real = execution_plan._axis_index

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(execution_plan, "_axis_index", counting)
    plan = compile_plan(qft_circuit(16), 16)
    assert calls[0] <= 700
    for step in plan.steps:
        if step.kernel == "diagonal" and step.diag_nd is None:
            assert [slot for slot, _ in step.diag_idx] == [
                slot for slot, value in enumerate(step.diag) if value != 1.0
            ]


# ---------------------------------------------------------------------------
# Values recorded at the parent commit (292aa86)
# ---------------------------------------------------------------------------

#: sha256 over every diagonal step's (targets, diag, diag_nd) of
#: ``compile_plan(qft_circuit(n), n)``.
QFT_DIAGONALS = {
    6: "a01fee53cfcd155c", 7: "8b4a6b4173559e2e", 8: "23c6f907ffdb1ca1",
    9: "80dd0fccb273a587", 10: "34a70812189d3761", 11: "988763bc2d2c29f1",
    12: "bfbcfc585999b756", 13: "2ade574212dcc63d", 14: "ae1491b921aba66a",
    15: "3667fbda33b4e9dd", 16: "6b88fa66faac7a85",
}

#: sha256 over the sorted counts of 300 trajectories of ``reset_circuit()``
#: through ``LocalBackend``, keyed ``seed/threads`` (sampling stream 1,
#: unmoved by stream 2).
RESET_TRAJECTORIES = {
    "0/1": "897ecfe9b98e8683", "0/2": "897ecfe9b98e8683",
    "1234/1": "cbfbc2dbc5c8aae9", "1234/2": "cbfbc2dbc5c8aae9",
}


@pytest.mark.parametrize("n", sorted(QFT_DIAGONALS))
def test_batched_qft_diagonals_are_bitwise_what_the_parent_built(n):
    # Gate for gate, so the windows do not absorb the CPHASEs the parent
    # batched.
    digest = hashlib.sha256()
    for step in compile_plan(qft_circuit(n), n, fusion_max_qubits=0).steps:
        if step.kernel != "diagonal":
            continue
        digest.update(repr(step.targets).encode())
        digest.update(np.asarray(step.diag, dtype=complex).tobytes())
        nd = step.diag_nd
        digest.update(b"-" if nd is None else np.ascontiguousarray(nd).tobytes())
    assert digest.hexdigest()[:16] == QFT_DIAGONALS[n]


def reset_circuit(n: int = 7):
    builder = CircuitBuilder(n, name="reset_traj")
    last = n - 1
    for q in range(last):
        builder.ry(q, 0.37 * (q + 1))
    for q in range(last - 1):
        builder.cx(q, q + 1)
    builder.h(last).reset(last).cx(0, last)
    for q in range(n):
        builder.ry(q, 0.91 + 0.13 * q)
    return builder.measure_all().build()


@pytest.mark.parametrize("key", sorted(RESET_TRAJECTORIES))
def test_reset_trajectory_counts_equal_the_parent_recorded_value(key):
    # The two-thread rows moved once, at stream 4.
    assert SAMPLING_STREAM == 4
    seed, threads = (int(part) for part in key.split("/"))
    engine = ParallelSimulationEngine(num_threads=threads)
    with LocalBackend(engine=engine, plan_cache=PlanCache()) as backend:
        plan = backend.compile(reset_circuit(), 7)
        assert "block" in plan.kernel_counts() and plan.has_reset
        counts = backend.execute(reset_circuit(), 300, seed=seed).counts
    engine.close()
    items = json.dumps(sorted(counts.items()), separators=(",", ":"))
    assert hashlib.sha256(items.encode()).hexdigest()[:16] == RESET_TRAJECTORIES[key]
