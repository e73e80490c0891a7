"""Execution devices for tensor programs: real CPU, simulated GPU.

No GPU exists in this reproduction environment, so GPU execution is a
*transparent analytic model*: numpy computes the values,
while the reported wall-time comes from a roofline-style device model

``time = init + H2D-transfer
        + sum_ops( max(flop-time, byte-time) + kernel-launch )
        + D2H-transfer``

The device's compute/bandwidth rates are expressed **relative to the host**
(``host_speedup``): the model measures this machine's effective numpy GEMM
throughput once, then prices GPU kernels at ``host_speedup`` times that
rate. This keeps the *ratios* between CPU and GPU runs in the regime the
paper measured (K80 vs. a small Spark cluster: 1.5-8x end-to-end wins for
complex gradient-boosting models, slowdowns for small models where PCIe
transfer and kernel-launch overhead dominate), independent of how fast the
reproduction host happens to be.

Every benchmark that reports GPU numbers flags them as ``simulated``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.tensor.program import TensorProgram


@dataclass(frozen=True)
class DeviceSpec:
    """Analytic parameters for a simulated accelerator.

    ``host_speedup`` — device compute rate as a multiple of the host's
    measured effective FLOP rate; ``bytes_per_flop`` — roofline ridge point
    converting memory traffic to flop-equivalents; PCIe/launch/init terms
    are absolute.
    """

    name: str
    host_speedup: float
    bytes_per_flop: float         # bytes moved per flop at the ridge point
    pcie_bandwidth: float         # bytes/second (host <-> device)
    kernel_launch_seconds: float
    init_seconds: float           # context / model-upload overhead per run


# NVIDIA Tesla K80 vs. the paper's 3x6-core CPU Spark cluster (Fig. 12).
K80 = DeviceSpec(
    name="simulated-k80",
    host_speedup=12.0,
    bytes_per_flop=8.0,
    pcie_bandwidth=6e9,
    kernel_launch_seconds=10e-6,
    init_seconds=5e-3,
)

# NVIDIA Tesla V100 (SQL Server GPU experiments, §7.3).
V100 = DeviceSpec(
    name="simulated-v100",
    host_speedup=30.0,
    bytes_per_flop=10.0,
    pcie_bandwidth=12e9,
    kernel_launch_seconds=8e-6,
    init_seconds=5e-3,
)


@dataclass
class RunResult:
    """Program outputs plus the device-attributed execution time."""

    outputs: Dict[str, np.ndarray]
    seconds: float
    simulated: bool


class CpuDevice:
    """Runs the program with numpy and reports measured wall time."""

    name = "cpu"
    simulated = False

    def run(self, program: TensorProgram,
            inputs: Dict[str, np.ndarray]) -> RunResult:
        started = time.perf_counter()
        outputs = _execute(program, inputs)
        return RunResult(outputs, time.perf_counter() - started, simulated=False)


_HOST_FLOPS_CACHE: Optional[float] = None


def measured_host_flops() -> float:
    """This machine's effective numpy throughput (flops/s), measured once.

    Uses a mid-size GEMM — the kernel class GPU offload competes with.
    """
    global _HOST_FLOPS_CACHE
    if _HOST_FLOPS_CACHE is None:
        size = 384
        a = np.random.default_rng(0).normal(size=(size, size))
        b = np.random.default_rng(1).normal(size=(size, size))
        a @ b  # warm up
        started = time.perf_counter()
        repeats = 5
        for _ in range(repeats):
            a @ b
        elapsed = max(time.perf_counter() - started, 1e-9)
        _HOST_FLOPS_CACHE = 2.0 * size ** 3 * repeats / elapsed
    return _HOST_FLOPS_CACHE


class SimulatedGpuDevice:
    """Runs the program with numpy but *reports modeled* GPU time."""

    simulated = True

    def __init__(self, spec: DeviceSpec = K80):
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    def run(self, program: TensorProgram,
            inputs: Dict[str, np.ndarray]) -> RunResult:
        outputs = _execute(program, inputs)
        seconds = self.model_seconds(program, inputs, outputs)
        return RunResult(outputs, seconds, simulated=True)

    def model_seconds(self, program: TensorProgram,
                      inputs: Dict[str, np.ndarray],
                      outputs: Dict[str, np.ndarray]) -> float:
        batch = _batch_size(inputs)
        spec = self.spec
        device_flops = spec.host_speedup * measured_host_flops()
        seconds = spec.init_seconds
        # Host -> device: all numeric inputs (strings stay host-side).
        h2d_bytes = sum(_device_bytes(a) for a in inputs.values())
        seconds += h2d_bytes / spec.pcie_bandwidth
        for op in program.ops:
            cost = op.cost(batch)
            if getattr(op, "host_only", False):
                # Dictionary lookups / label decode stay on the host CPU.
                seconds += cost.flops / measured_host_flops() * 4.0
                continue
            flop_equivalents = max(cost.flops,
                                   cost.bytes_moved / spec.bytes_per_flop)
            seconds += flop_equivalents / device_flops + spec.kernel_launch_seconds
        # Device -> host: final outputs only.
        d2h_bytes = sum(_device_bytes(a) for a in outputs.values())
        seconds += d2h_bytes / spec.pcie_bandwidth
        return seconds


def _execute(program: TensorProgram,
             inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    buffers: Dict[str, np.ndarray] = {}
    batch = _batch_size(inputs)
    buffers["__batch_size__"] = np.asarray(batch)
    for name in program.input_names:
        array = np.asarray(inputs[name])
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        buffers[name] = array
    for op in program.ops:
        buffers[op.output] = op.execute(buffers)
    return {output: buffers[buffer]
            for output, buffer in program.outputs.items()}


def _batch_size(inputs: Dict[str, np.ndarray]) -> int:
    for array in inputs.values():
        return len(np.asarray(array))
    return 0


def _device_bytes(array: np.ndarray) -> float:
    array = np.asarray(array)
    if array.dtype.kind == "U":
        return 0.0  # strings never cross PCIe in this model
    return float(array.size) * 8.0
