"""Bit-accurate in-SRAM NTT simulator with bit-parallel carry-save
Montgomery multiplication.

Layers: `subarray` (the bitline/latch hardware model and trace replay),
`bitparallel` (modular multiply/add/sub compiled to micro-ops),
`ntt` (layout planning and the transform pipeline), `oracle` (array-free
ground truth), `perf` (cycle/energy accounting and sweeps), `cli`.
"""

from .bitparallel import (
    CommandStream,
    ExecPolicy,
    MontgomeryContext,
    RowMap,
    compile_twiddle_commands,
)
from .errors import (
    AddressError,
    CapacityError,
    DimensionError,
    ObservationError,
    ParameterError,
    SimError,
    TileGeometryError,
    TraceIOError,
    VerificationError,
)
from .ntt import (
    RingParams,
    TileLayout,
    TransformUnit,
    TwiddleTable,
    bit_reverse_permute,
    find_roots,
    layout_plan,
    polymul_negacyclic,
    polymul_pipeline,
    precompute_twiddles,
)
from .oracle import (
    kronecker_negacyclic,
    oracle_intt,
    oracle_montmul,
    oracle_ntt,
    schoolbook_negacyclic,
)
from .perf import CostModel, SimStats, accumulate, shift_baseline_ratio
from .subarray import Subarray, parse_trace, replay, serialize_trace

__all__ = [
    "AddressError", "CapacityError", "CommandStream", "CostModel",
    "DimensionError", "ExecPolicy", "MontgomeryContext",
    "ObservationError", "ParameterError", "RingParams", "RowMap", "SimError",
    "SimStats", "Subarray", "TileGeometryError", "TileLayout", "TraceIOError",
    "TransformUnit", "TwiddleTable", "VerificationError", "accumulate",
    "bit_reverse_permute", "compile_twiddle_commands", "find_roots",
    "kronecker_negacyclic", "layout_plan", "oracle_intt", "oracle_montmul",
    "oracle_ntt", "parse_trace",
    "polymul_negacyclic", "polymul_pipeline", "precompute_twiddles", "replay",
    "schoolbook_negacyclic", "serialize_trace", "shift_baseline_ratio",
]
