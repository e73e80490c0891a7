"""Tensor compiler + runtime: the MLtoDNN target (Hummingbird stand-in).

Compiles onnxlite graphs to tensor programs (GEMM or tree-traversal tree
strategies) and executes them on a CPU device or a simulated-GPU device
with an analytic roofline timing model (substitutions:
benchmarks/SCORECARD.md).
"""

from repro.tensor.compile import (
    GEMM_WORK_LIMIT,
    choose_tree_strategy,
    compilable_operators,
    compile_graph,
)
from repro.tensor.device import (
    CpuDevice,
    DeviceSpec,
    K80,
    RunResult,
    SimulatedGpuDevice,
    V100,
)
from repro.tensor.program import NanToValue, OpCost, TensorOp, TensorProgram
from repro.tensor.runtime import TensorRuntime, cpu_runtime, gpu_runtime
from repro.tensor.trees import TreeGemm, TreeTraversal

__all__ = [
    "CpuDevice", "DeviceSpec", "GEMM_WORK_LIMIT", "K80", "OpCost",
    "RunResult", "SimulatedGpuDevice", "TensorOp", "TensorProgram",
    "TensorRuntime", "TreeGemm", "TreeTraversal", "V100",
    "choose_tree_strategy", "compilable_operators", "compile_graph",
    "cpu_runtime", "gpu_runtime",
]
