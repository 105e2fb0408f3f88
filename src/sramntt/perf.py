"""Cycle/energy accounting over micro-op traces, plus the parameter sweeps.

A recorded trace is counted from its log of batches and stream runs; any
other sequence of ops is recounted op by op, which also checks the log.

Costs are per micro-op kind; tile-scoped shifts pay one extra cycle for the
edge-mask application.  The shipped energy numbers are placeholders tuned so
a 256-point 16-bit run lands near the published per-NTT energy scale; they
are calibration inputs, not measured data, and everything derived from them
scales linearly with the table.

The estimator never executes the array.  It counts the (step list,
constants) passes the unit runs at the unit's own context and layout: each
kernel compiled once per constant popcount, plus the host swaps of one
residency-only walk, so it matches real traces bit-for-bit.  The sweeps are
its one-forward case, at a synthetic modulus (``estimate_forward_ntt``).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter

from .bitparallel import (
    Emitter,
    ExecPolicy,
    MontgomeryContext,
    default_rowmap,
)
from .errors import CapacityError, ParameterError, TraceIOError
from .ntt import CONSTANT_ROWS, TileLayout, check_order, forward_steps, layout_plan
from .subarray import (
    ACTIVATE2,
    GLOBAL,
    SHIFT,
    TILE,
    WRITE_ROW,
    WRITEBACK,
    ZERO_TEST,
    Trace,
)

KINDS = (WRITE_ROW, ACTIVATE2, SHIFT, WRITEBACK, ZERO_TEST)

DEFAULT_CYCLES = {
    WRITE_ROW: 1.0,
    ACTIVATE2: 1.0,
    SHIFT: 1.0,
    WRITEBACK: 1.0,
    ZERO_TEST: 1.0,
    "TILE_SHIFT_EXTRA": 1.0,
}

# pJ per op; placeholders tuned so the 256-point/16-bit reference run lands
# near the published ~69 nJ-per-NTT scale.  Not vendor data.
DEFAULT_ENERGY_PJ = {
    WRITE_ROW: 1.00,
    ACTIVATE2: 1.20,
    SHIFT: 0.30,
    WRITEBACK: 0.60,
    ZERO_TEST: 0.10,
    "TILE_SHIFT_EXTRA": 0.12,
}

CSV_HEADER = "param,cycles,energy_nJ,parallel,latency_us,throughput_knnt_s,energy_per_ntt_nJ"


@dataclass
class CostModel:
    """Per-micro-op cycle and energy charges plus the clock frequency."""

    cycles: dict = field(default_factory=lambda: dict(DEFAULT_CYCLES))
    energy_pj: dict = field(default_factory=lambda: dict(DEFAULT_ENERGY_PJ))
    freq_mhz: float = 3800.0

    def validate(self) -> None:
        for table in (self.cycles, self.energy_pj):
            for key, val in table.items():
                if not math.isfinite(val) or val < 0:
                    raise ParameterError(f"cost for {key} must be finite and >= 0, got {val}")
        if not math.isfinite(self.freq_mhz) or self.freq_mhz <= 0:
            raise ParameterError(f"frequency must be finite and positive, got {self.freq_mhz}")

    @classmethod
    def from_text(cls, text: str) -> "CostModel":
        model = cls()
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise TraceIOError(f"bad cost-model line: {line!r}")
            key, val = line.split("=", 1)
            key = key.strip()
            try:
                value = float(val)
            except ValueError as exc:
                raise TraceIOError(f"bad cost value in {line!r}") from exc
            table, _, kind = key.partition(".")
            if key == "freq_mhz":
                model.freq_mhz = value
            elif table in ("cycles", "energy_pj") and kind in DEFAULT_CYCLES:
                getattr(model, table)[kind] = value
            else:
                raise TraceIOError(f"unknown cost key {key!r}")
        model.validate()
        return model


def empty_counts() -> dict:
    counts = {kind: 0 for kind in KINDS}
    counts["SHIFT_GLOBAL"] = 0
    counts["SHIFT_TILE"] = 0
    counts["SHIFT_ALIGN"] = 0      # no op shifts for word alignment; kept for the stats key
    return counts


def add_counts(into: dict, other: dict, times: int = 1) -> None:
    for key, val in other.items():
        into[key] = into.get(key, 0) + val * times


def counts_of_trace(trace) -> dict:
    """Tally a trace by kind and shift scope, op by op; each distinct op is
    classified once.  The independent check of ``counts_of_tally``."""
    return _counts_of(Counter(trace))


def counts_of_tally(trace: Trace) -> dict:
    """A recorded trace's counts from its log: its batches' ops, plus each
    stream's ops times its runs (binding rows changes no kind or scope)."""
    counts = _counts_of(Counter(chain.from_iterable(e for e in trace.log if type(e) is list)))
    for stream, n in Counter(e[0] for e in trace.log if type(e) is tuple).items():
        add_counts(counts, counts_of_trace(stream.ops), n)
    return counts


def _counts_of(tally) -> dict:
    """Counts by kind and shift scope of an {op: occurrences} mapping."""
    counts = empty_counts()
    for op, n in tally.items():
        kind = op[0]
        if kind not in counts:
            raise ParameterError(f"unknown micro-op kind {kind!r}")
        counts[kind] += n
        if kind == SHIFT:
            if op[2] == GLOBAL:
                counts["SHIFT_GLOBAL"] += n
            elif op[2] == TILE:
                counts["SHIFT_TILE"] += n
            else:
                raise ParameterError(f"unknown shift scope {op[2]!r}")
    return counts


@dataclass
class SimStats:
    """Aggregated run statistics.  The counts are exact: a recorded trace's
    log count, equal to a recount of its ops, or the recount itself."""

    counts: dict
    shifts: dict
    cycles: float
    energy_nj: float
    parallel: int
    freq_mhz: float

    @property
    def latency_us(self) -> float:
        return self.cycles / self.freq_mhz

    @property
    def throughput_knnt_s(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.parallel * self.freq_mhz / self.cycles * 1e3

    @property
    def energy_per_ntt_nj(self) -> float:
        if self.parallel == 0:
            return 0.0
        return self.energy_nj / self.parallel

    def to_json_dict(self, config: dict | None = None) -> dict:
        return {
            "config": config or {},
            "counts": {kind: self.counts[kind] for kind in KINDS},
            "cycles": self.cycles,
            "energy_nJ": self.energy_nj,
            "latency_us": self.latency_us,
            "throughput_knnt_s": self.throughput_knnt_s,
            "shifts": dict(self.shifts),
        }


def stats_from_counts(counts: dict, cost: CostModel, parallel: int = 1) -> SimStats:
    cycles = 0.0
    energy = 0.0
    for kind in KINDS:
        n = counts.get(kind, 0)
        cycles += n * cost.cycles[kind]
        energy += n * cost.energy_pj[kind]
    tile = counts.get("SHIFT_TILE", 0)
    cycles += tile * cost.cycles["TILE_SHIFT_EXTRA"]
    energy += tile * cost.energy_pj["TILE_SHIFT_EXTRA"]
    shifts = {
        "global": counts.get("SHIFT_GLOBAL", 0),
        "tile": tile,
        "word_alignment": counts.get("SHIFT_ALIGN", 0),
    }
    stats = SimStats(counts=dict(counts), shifts=shifts, cycles=cycles,
                     energy_nj=energy / 1e3, parallel=parallel, freq_mhz=cost.freq_mhz)
    # every cost is finite, but a total or a rate can overflow (inf cycles: inf latency)
    if not all(map(math.isfinite, (energy, stats.latency_us, stats.throughput_knnt_s))):
        raise ParameterError(f"the cost model's totals overflow: {cycles} cycles, "
                             f"{energy} pJ, {cost.freq_mhz} MHz")
    if cycles.is_integer():
        stats.cycles = int(cycles)
    return stats


def accumulate(trace, cost: CostModel, parallel: int = 1) -> SimStats:
    """Deterministic trace -> stats aggregation (stable across replays).

    A recorded ``Trace`` is counted from its log (``counts_of_tally``);
    any other iterable of ops, such as a parsed trace or a chain of two, is
    recounted op by op (``counts_of_trace``).  Both give the same counts.
    The recount hashes every op into a Counter; reading a recorded trace,
    it finds most ops by identity, since the streams of one array shape
    share one tuple per distinct op, so it does not compare tuples.
    """
    counts = counts_of_tally(trace) if isinstance(trace, Trace) else counts_of_trace(trace)
    return stats_from_counts(counts, cost, parallel)


def shift_baseline_ratio(stats: SimStats, order: int, width: int) -> float:
    """Observed shifts over the analytic flat-layout baseline.

    Baseline: a layout without same-tile row stacking must realign one
    operand word per two-row activation (width single-bit moves) on top of
    the same arithmetic/predication shifts this design performs.  Our tiled
    layout removes the alignment class entirely, so the ratio is the
    observed-shift share of (observed + width * activations).
    """
    observed = sum(stats.shifts.values())
    baseline = observed + width * stats.counts.get(ACTIVATE2, 0)
    if baseline == 0:
        return 0.0
    return observed / baseline


# -- analytic micro-op counting (no array execution) -------------------------

@lru_cache(maxsize=None)
def kernel_counts(kernel, operands: int, ctx: MontgomeryContext, popcount: int) -> dict:
    """Micro-op counts of one step: `kernel`, the code the transform runs, on
    `operands` rows, with a constant of `popcount` set bits below the word.

    Compiled on a collecting emitter at `ctx`.  A constant's cost depends only
    on its popcount, so these match executed traces exactly.  Memoized;
    callers must not change the dict it returns.
    """
    if not 0 <= popcount <= ctx.width:
        raise ParameterError(f"popcount {popcount} outside [0, {ctx.width}] for a {ctx.width}-bit word")
    E = Emitter(ctx, default_rowmap(64), ExecPolicy())
    kernel(E, (1 << popcount) - 1, *range(operands))
    return counts_of_trace(E.ops)


@lru_cache(maxsize=16)
def _walk(step_lists: tuple, order: int, resident: int):
    """One replay of the step lists in turn after a load: the host swaps
    (WRITE_ROW) of direct-mapped residency and, per list, the constant index
    of each run of n steps of one (kernel, index), by (kernel, operands, n).
    Memoized, as a bitwidth sweep asks for it at every width; read only."""
    slots = [c if c < order else None for c in range(resident)]
    swaps = 0
    visits = []
    for steps in step_lists:
        runs = defaultdict(lambda: array("q"))
        for (kernel, i), run in groupby(steps(order), itemgetter(0, 1)):
            for n, (_, _, coeffs) in enumerate(run, 1):
                for c in coeffs:
                    slot = c % resident
                    if slots[slot] != c:
                        slots[slot] = c
                        swaps += 1
            runs[kernel, len(coeffs), n].append(i)
        visits.append(runs)
    return swaps, visits


def estimate(ctx: MontgomeryContext, layout: TileLayout, passes) -> dict:
    """Deterministic-policy micro-op counts of a unit with context `ctx` and
    layout `layout` that loads its constants and polynomials and runs each
    pass, a (step list, constants) pair such as ``TransformUnit.forward_pass()``.
    """
    order, resident = layout.order, layout.resident_rows
    swaps, visits = _walk(tuple(steps for steps, _ in passes), order, resident)
    counts = empty_counts()
    counts[WRITE_ROW] += CONSTANT_ROWS + min(order, resident) + swaps
    for (_, constants), runs in zip(passes, visits):
        # a sweep's constants are one value repeated: its runs need no recount
        uniform = bool(constants) and constants.count(constants[0]) == len(constants)
        for (kernel, operands, n), indices in runs.items():
            tally = ({constants[0]: len(indices)} if uniform
                     else Counter(map(constants.__getitem__, indices)))
            for constant, m in tally.items():
                add_counts(counts, kernel_counts(kernel, operands, ctx, constant.bit_count()), n * m)
    return counts


def estimate_forward_ntt(order: int, width: int, rows: int = 256, cols: int = 256,
                         popcounts=None) -> dict | None:
    """Micro-op counts of one SIMD forward transform on a `width`-bit lane, or
    None if ``layout_plan`` finds no fit: ``estimate`` at the transform's
    context for the synthetic modulus 2^(width-1) - 1, as the program depends
    on the lane alone.  popcounts: the set bits of each of the `order`
    twiddles; by default width//2 each (sweeps cover widths with no NTT prime).
    """
    check_order(order)
    if popcounts is not None and (
            len(popcounts) != order or any(type(p) is not int or p < 0 for p in popcounts)):
        raise ParameterError(f"popcounts must be {order} ints >= 0, got {len(popcounts)}")
    # plan first: an order or width that does not fit builds no constants
    try:
        layout = layout_plan(rows, cols, width, order)
    except CapacityError:
        return None
    if popcounts is None:
        constants = [(1 << width // 2) - 1] * order
    else:
        constants = [(1 << p) - 1 for p in popcounts]
    ctx = MontgomeryContext.for_ring((1 << (width - 1)) - 1, width)
    return estimate(ctx, layout, [(forward_steps, constants)])


def _sweep_row(param: int, counts: dict | None, parallel: int, cost: CostModel) -> dict:
    if counts is None:
        return {"param": param, "cycles": math.nan, "energy_nJ": math.nan,
                "parallel": parallel, "latency_us": math.nan,
                "throughput_knnt_s": math.nan, "energy_per_ntt_nJ": math.nan,
                "feasible": False}
    stats = stats_from_counts(counts, cost, parallel)
    return {"param": param, "cycles": stats.cycles, "energy_nJ": stats.energy_nj,
            "parallel": parallel, "latency_us": stats.latency_us,
            "throughput_knnt_s": stats.throughput_knnt_s,
            "energy_per_ntt_nJ": stats.energy_per_ntt_nj, "feasible": True}


def sweep_bitwidth(order: int = 256, widths=None, rows: int = 256, cols: int = 256,
                   cost: CostModel | None = None) -> list[dict]:
    """Forward-NTT cost projection across coefficient bitwidths (fixed order)."""
    cost = cost or CostModel()
    if widths is None:
        widths = range(2, 65)
    out = []
    for w in widths:
        if w < 3:
            # a 2-bit lane cannot host the arithmetic (n > 2); flagged infeasible
            out.append(_sweep_row(w, None, max(1, cols // max(w, 1)), cost))
            continue
        counts = estimate_forward_ntt(order, w, rows, cols)
        out.append(_sweep_row(w, counts, cols // w, cost))
    return out


def sweep_order(width: int = 16, orders=None, rows: int = 256, cols: int = 256,
                cost: CostModel | None = None) -> list[dict]:
    """Forward-NTT cost projection across polynomial orders (fixed width)."""
    cost = cost or CostModel()
    if orders is None:
        orders = [1 << k for k in range(2, 13)]
    out = []
    for order in orders:
        counts = estimate_forward_ntt(order, width, rows, cols)
        out.append(_sweep_row(order, counts, cols // width, cost))
    return out


def sweep_to_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        def fmt(x):
            if isinstance(x, float) and math.isnan(x):
                return "nan"
            if isinstance(x, float) and x == int(x):
                return str(int(x))
            return f"{x:.6g}" if isinstance(x, float) else str(x)
        lines.append(",".join(fmt(r[c]) for c in (
            "param", "cycles", "energy_nJ", "parallel", "latency_us",
            "throughput_knnt_s", "energy_per_ntt_nJ")))
    lines.append("")
    return "\n".join(lines)
