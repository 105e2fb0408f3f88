"""Command-line front end: run transforms, verify against oracles, sweep, replay.

Exit codes: 0 success, 2 invalid parameters, 3 verification mismatch,
4 capacity exceeded, 5 file/trace I/O problems.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass

from . import oracle
from .bitparallel import ExecPolicy, MontgomeryContext
from .errors import (
    AddressError,
    DimensionError,
    ParameterError,
    SimError,
    TileGeometryError,
    TraceIOError,
    VerificationError,
)
from .ntt import (
    RingParams,
    TransformUnit,
    bit_reverse_permute,
    check_order,
    check_ring,
    layout_plan,
    polymul_pipeline,
)
from .perf import (
    CostModel,
    accumulate,
    add_counts,
    empty_counts,
    stats_from_counts,
    sweep_bitwidth,
    sweep_order,
    sweep_to_csv,
)
from .subarray import (
    MAX_COLS,
    MAX_ROWS,
    check_size,
    parse_trace,
    replay,
    serialize_trace,
)

PRESETS = {
    # (q, order, width); width includes the headroom bit for modular add/sub
    "dilithium": (8380417, 256, 24),
    "falcon": (12289, 1024, 15),
    "he-1024-29": (268441601, 1024, 30),
    "q7681-256": (7681, 256, 16),
    "toy-257": (257, 8, 10),
}

MODES = ("polymul", "roundtrip", "forward")


@dataclass(kw_only=True)
class RunConfig:
    """Everything one `run` invocation depends on; round-trips through JSON.

    The `run` parser holds every default: each semantic field must be given,
    and only the output paths may be left out."""

    subcommand: str
    order: int
    q: int
    width: int | None
    rows: int
    cols: int
    preset: str | None
    seed: int
    mode: str
    verify: bool
    deterministic_latency: bool
    stats_path: str | None = None
    trace_path: str | None = None
    state_path: str | None = None
    input_a: str | None
    input_b: str | None
    cost_model_path: str | None

    def semantic_dict(self) -> dict:
        """The parameters that determine results; output paths excluded so
        identical seed+config runs produce byte-identical stats files."""
        skip = {"stats_path", "trace_path", "state_path"}
        return {k: v for k, v in asdict(self).items() if k not in skip}


def _apply_preset(cfg: RunConfig) -> None:
    if cfg.preset is None:
        return
    if cfg.preset not in PRESETS:
        raise ParameterError(
            f"unknown preset {cfg.preset!r}; choose from {sorted(PRESETS)}"
        )
    cfg.q, cfg.order, cfg.width = PRESETS[cfg.preset]


def _load_poly_file(path: str, order: int, q: int) -> list[int]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceIOError(f"cannot read polynomial file {path}: {exc}") from exc
    if not isinstance(data, list) or len(data) != order:
        raise ParameterError(f"{path}: expected a JSON array of {order} residues")
    for c in data:
        # type() rather than isinstance(): JSON true/false load as bool, an int subclass
        if type(c) is not int or not 0 <= c < q:
            raise ParameterError(f"{path}: {c!r} is not an integer residue in [0, {q})")
    return data


def _cost_model(path: str | None) -> CostModel:
    if path is None:
        return CostModel()
    try:
        with open(path) as fh:
            return CostModel.from_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceIOError(f"cannot read cost model: {exc}") from exc


def _write_file(path: str, write) -> None:
    """Call write(fh) on `path` opened for text; an OSError is an I/O error."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise TraceIOError(f"cannot write {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    _write_file(path, lambda fh: fh.write(text))


def _state_dict(unit: TransformUnit) -> dict:
    arr = unit.arr
    return {
        "rows": arr.rows,
        "cols": arr.cols,
        "latch": f"{arr.latch:x}",
        "cells": [f"{row:x}" for row in arr.cells],
    }


def cmd_run(cfg: RunConfig) -> int:
    _apply_preset(cfg)
    if cfg.mode not in MODES:
        raise ParameterError(f"unknown mode {cfg.mode!r}")
    check_size(cfg.rows, cfg.cols)
    width = check_ring(cfg.q, cfg.order, cfg.width)
    policy = ExecPolicy(deterministic=cfg.deterministic_latency)
    cost = _cost_model(cfg.cost_model_path)
    lane = MontgomeryContext.for_ring(cfg.q, width).lane_width
    tiles = layout_plan(cfg.rows, cfg.cols, lane, cfg.order).tiles
    # the root search is O(order): only after the capacity check bounds it
    ring = RingParams.create(cfg.q, cfg.order, width)

    rng = random.Random(cfg.seed)
    if cfg.input_a:
        base = _load_poly_file(cfg.input_a, cfg.order, cfg.q)
        polys = [list(base) for _ in range(tiles)]
    else:
        polys = [[rng.randrange(cfg.q) for _ in range(cfg.order)] for _ in range(tiles)]
    if cfg.input_b:
        b_poly = _load_poly_file(cfg.input_b, cfg.order, cfg.q)
    else:
        b_poly = [rng.randrange(cfg.q) for _ in range(cfg.order)]

    if cfg.mode == "polymul":
        _, unit, unit_b = polymul_pipeline(polys, b_poly, ring, cfg.rows, cfg.cols, policy)
        units = [unit, unit_b]
    else:
        unit = TransformUnit(ring, cfg.rows, cfg.cols, policy)
        unit.load_polynomials(polys)
        unit.forward()
        units = [unit]
        if cfg.mode == "roundtrip":
            unit.inverse()

    if cfg.verify:
        got = unit.read_polynomials(tiles)
        for t, p in enumerate(polys):
            if cfg.mode == "forward":      # the array holds the bit-reversed spectrum
                want = bit_reverse_permute(oracle.oracle_ntt(p, ring.q, ring.psi))
            elif cfg.mode == "roundtrip":
                want = p
            else:
                want = oracle.kronecker_negacyclic(p, b_poly, ring.q)
            if got[t] != want:
                raise VerificationError(f"{cfg.mode} mismatch in tile {t}")

    counts = empty_counts()
    for u in units:
        add_counts(counts, accumulate(u.arr.trace, cost).counts)
    stats = stats_from_counts(counts, cost, parallel=tiles)
    payload = stats.to_json_dict(config=cfg.semantic_dict())
    # --trace writes unit a's ops only; in polymul mode `counts` cover unit b too
    payload["trace_ops"] = len(unit.arr.trace)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.stats_path:
        _write_text(cfg.stats_path, text)
    else:
        sys.stdout.write(text)
    if cfg.trace_path:
        _write_file(cfg.trace_path,
                    lambda fh: serialize_trace(unit.arr.trace, cfg.cols, fh))
    if cfg.state_path:
        _write_text(cfg.state_path,
                    json.dumps(_state_dict(unit), indent=1, sort_keys=True) + "\n")
    return 0


def cmd_sweep(vary: str, order: int, width: int, rows: int, cols: int,
              sweep_path: str | None, cost_model_path: str | None) -> int:
    check_size(rows, cols)
    cost = _cost_model(cost_model_path)
    if vary == "bitwidth":
        check_order(order)
        table = sweep_bitwidth(order, rows=rows, cols=cols, cost=cost)
    elif vary == "order":
        table = sweep_order(width, rows=rows, cols=cols, cost=cost)
    else:
        raise ParameterError(f"--vary must be bitwidth or order, got {vary!r}")
    csv_text = sweep_to_csv(table)
    if sweep_path:
        _write_text(sweep_path, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


_LOWER_HEX_DIGITS = frozenset("0123456789abcdef")


def _hex_word(text) -> int:
    if type(text) is not str or not text or not _LOWER_HEX_DIGITS.issuperset(text):
        raise ValueError(f"not lowercase hex digits: {text!r}")
    return int(text, 16)


def cmd_trace_replay(trace_path: str, state_path: str) -> int:
    try:
        with open(trace_path) as fh:
            ops = parse_trace(fh)
        with open(state_path) as fh:
            state = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceIOError(f"cannot load replay inputs: {exc}") from exc
    try:
        rows, cols, cells = state["rows"], state["cols"], state["cells"]
        # exactly as _state_dict writes them: JSON integers (no bools), a
        # list, and lowercase hex digits
        if type(rows) is not int or type(cols) is not int or type(cells) is not list:
            raise TypeError
        want_cells = [_hex_word(x) for x in cells]
        want_latch = _hex_word(state["latch"])
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceIOError(f"malformed state file {state_path}") from exc
    try:
        check_size(rows, cols)
        if len(want_cells) != rows:
            raise TraceIOError(f"malformed state file {state_path}: "
                               f"{len(want_cells)} cells for {rows} rows")
        if want_latch >> cols or any(cell >> cols for cell in want_cells):
            raise TraceIOError(f"malformed state file {state_path}: "
                               f"a word wider than {cols} columns")
        arr = replay(ops, rows, cols)
    except (AddressError, DimensionError, TileGeometryError) as exc:
        raise TraceIOError(f"{trace_path} does not replay on {state_path}: {exc}") from exc
    if arr.cells != want_cells or arr.latch != want_latch:
        raise VerificationError("replayed final state differs from the recorded state")
    print("replay ok: final state matches")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sramntt",
                                description="In-SRAM NTT simulator")
    sub = p.add_subparsers(dest="command", required=True)

    # each run dest is a RunConfig field, and these are its only defaults
    run = sub.add_parser("run", help="execute a transform or polynomial product")
    run.add_argument("--order", type=int, default=256)
    run.add_argument("--q", type=int, default=7681)
    run.add_argument("--width", type=int)
    run.add_argument("--rows", type=int, default=256, help=f"at most {MAX_ROWS}")
    run.add_argument("--cols", type=int, default=256, help=f"at most {MAX_COLS}")
    run.add_argument("--preset", choices=sorted(PRESETS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--mode", choices=MODES, default="polymul")
    run.add_argument("--verify", action="store_true",
                     help="check results against the reference oracles")
    run.add_argument("--data-dependent", dest="deterministic_latency", action="store_false",
                     help="carry loops exit on the zero test instead of worst-case unrolling")
    run.add_argument("--stats", dest="stats_path")
    run.add_argument("--trace", dest="trace_path")
    run.add_argument("--state", dest="state_path",
                     help="write the final array state (for trace-replay)")
    run.add_argument("--input-a")
    run.add_argument("--input-b")
    run.add_argument("--cost-model", dest="cost_model_path")

    sw = sub.add_parser(
        "sweep", help="emit cost-projection CSV",
        description="Project forward-NTT costs with the analytic estimator. When the "
                    "order outgrows the resident rows, the host swaps are counted by "
                    "one O(order log order) walk of the steps per order; a "
                    "bitwidth sweep walks them once.")
    sw.add_argument("--vary", choices=["bitwidth", "order"], required=True)
    sw.add_argument("--order", type=int, default=256)
    sw.add_argument("--width", type=int, default=16)
    sw.add_argument("--rows", type=int, default=256, help=f"at most {MAX_ROWS}")
    sw.add_argument("--cols", type=int, default=256, help=f"at most {MAX_COLS}")
    sw.add_argument("--out", dest="sweep_path")
    sw.add_argument("--cost-model", dest="cost_model_path")

    rp = sub.add_parser("trace-replay", help="re-execute a trace and compare states")
    rp.add_argument("trace_path", metavar="trace")
    rp.add_argument("state_path", metavar="state")
    return p


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        if command == "run":
            return cmd_run(RunConfig(subcommand=command, **args))
        if command == "sweep":
            return cmd_sweep(**args)
        return cmd_trace_replay(**args)
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
