"""The benchmark's three workloads: set-up, one timed operation, its check.

One operation is one checked transform batch, product batch or replay. Every
input comes from the workload's seed alone; the program sees only the
generated polynomials. Each check compares against `sramntt.oracle` (or, for
replay, against the state replay must reproduce), never against a stored copy
of an earlier output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from sramntt import cli, ntt, oracle, perf, subarray
from sramntt.bitparallel import MontgomeryContext

FIXED_B_SEED = 0


@dataclass(frozen=True)
class Config:
    """Ring and array geometry of one workload."""

    q: int
    order: int
    width: int
    rows: int = 256
    cols: int = 256

    @property
    def lane(self) -> int:
        return MontgomeryContext.create(self.q, self.width).lane_width

    @property
    def tiles(self) -> int:
        return self.cols // self.lane


@dataclass
class Outcome:
    """What one operation produced: output polynomials, or the CLI's exit code."""

    outputs: list | None = None
    units: tuple = ()
    stats: perf.SimStats | None = None
    rc: int | None = None


@dataclass
class SimFigures:
    """Simulated-hardware figures of one operation (identical in every run)."""

    stats: perf.SimStats
    paper_steps: int
    ops: int


def bit_reversed(values: list[int]) -> list[int]:
    """out[i] = values[bitrev(i)], written apart from the program's own helper."""
    n = len(values)
    bits = n.bit_length() - 1
    return [values[int(format(i, f"0{bits}b")[::-1], 2)] for i in range(n)]


def random_poly(rng: random.Random, cfg: Config) -> list[int]:
    return [rng.randrange(cfg.q) for _ in range(cfg.order)]


def make_ring(cfg: Config) -> ntt.RingParams:
    ring = ntt.RingParams.create(cfg.q, cfg.order, cfg.width)
    # the oracles evaluate at powers of the ring's psi, so check it independently
    if pow(ring.psi, cfg.order, cfg.q) != cfg.q - 1:
        raise ValueError(f"psi={ring.psi} is no 2*{cfg.order}-th root of unity mod {cfg.q}")
    return ring


class Workload:
    name = ""
    config: Config
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path, config: Config | None = None):
        self.seed = seed
        self.workdir = workdir
        self.cfg = config or self.config
        self._expected = None

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self) -> Outcome:
        raise NotImplementedError

    def expected(self):
        raise NotImplementedError

    def check(self, out: Outcome) -> bool:
        if self._expected is None:
            self._expected = self.expected()
        return out.outputs == self._expected

    def sim(self, out: Outcome, paper_steps) -> SimFigures:
        traces = [u.arr.trace for u in out.units]
        return SimFigures(stats=out.stats,
                          paper_steps=sum(paper_steps(t) for t in traces),
                          ops=sum(len(t) for t in traces))

    def estimate_matches(self, out: Outcome) -> bool:
        """Executed counts against the analytic estimator, where one applies."""
        return True

    def close(self) -> None:
        pass


class ForwardNTT(Workload):
    """The paper's headline batch: 16 polynomials, 256 points, q = 7681, width 16."""

    name = "fwd256-q7681"
    config = Config(q=7681, order=256, width=16)

    def setup(self) -> None:
        self.ring = make_ring(self.cfg)
        rng = random.Random(self.seed)
        self.polys = [random_poly(rng, self.cfg) for _ in range(self.cfg.tiles)]
        self._expected = None

    def operation(self) -> Outcome:
        unit = ntt.TransformUnit(self.ring, self.cfg.rows, self.cfg.cols)
        unit.load_polynomials(self.polys)
        unit.forward()
        stats = perf.accumulate(unit.arr.trace, perf.CostModel(),
                                parallel=unit.layout.tiles)
        return Outcome(outputs=unit.read_polynomials(len(self.polys)),
                       units=(unit,), stats=stats)

    def expected(self):
        return [bit_reversed(oracle.oracle_ntt(p, self.cfg.q, self.ring.psi))
                for p in self.polys]

    def estimate_matches(self, out: Outcome) -> bool:
        unit = out.units[0]
        popcounts = [bin(t).count("1") for t in unit.table.forward]
        est = perf.estimate_forward_ntt(self.cfg.order, unit.ctx.lane_width,
                                        self.cfg.rows, self.cfg.cols, popcounts=popcounts)
        return est is not None and all(est[k] == out.stats.counts[k] for k in est)


class PolymulDilithium(Workload):
    """Negacyclic products at the dilithium preset, one a-polynomial per tile."""

    name = "polymul-dilithium"
    config = Config(q=8380417, order=256, width=24)

    def setup(self) -> None:
        self.ring = make_ring(self.cfg)
        rng = random.Random(self.seed)
        self.a = [random_poly(rng, self.cfg) for _ in range(self.cfg.tiles)]
        # b's spectrum is compiled into the pointwise command stream, so its
        # bits set the cycle count: b is one fixed polynomial, as when many
        # products share one operand, and the simulated figures repeat exactly
        self.b = random_poly(random.Random(FIXED_B_SEED), self.cfg)
        self._expected = None

    def operation(self) -> Outcome:
        products, unit_a, unit_b = ntt.polymul_pipeline(
            self.a, self.b, self.ring, self.cfg.rows, self.cfg.cols)
        # both units' traces, a then b, as `sramntt run` accumulates them
        stats = perf.accumulate(itertools.chain(unit_a.arr.trace, unit_b.arr.trace),
                                perf.CostModel(), parallel=unit_a.layout.tiles)
        return Outcome(outputs=products, units=(unit_a, unit_b), stats=stats)

    def expected(self):
        return [oracle.schoolbook_negacyclic(p, self.b, self.cfg.q) for p in self.a]


class ReplayForward(Workload):
    """`sramntt trace-replay` of a canonical forward trace that set-up wrote."""

    name = "replay-fwd256"
    config = Config(q=7681, order=256, width=16)
    setup_reps = 3

    def __init__(self, seed: int, workdir: Path, config: Config | None = None):
        super().__init__(seed, workdir, config)
        stem = workdir / f"{self.name}-{seed}-{os.getpid()}"
        self.input_path = stem.with_suffix(".input.json")
        self.trace_path = stem.with_suffix(".trace")
        self.state_path = stem.with_suffix(".state.json")
        self.stats_path = stem.with_suffix(".stats.json")

    def setup(self) -> None:
        self.ring = make_ring(self.cfg)
        self.poly = random_poly(random.Random(self.seed), self.cfg)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.input_path.write_text(json.dumps(self.poly))
        cfg = self.cfg
        rc = cli.main(["run", "--order", str(cfg.order), "--q", str(cfg.q),
                       "--width", str(cfg.width), "--rows", str(cfg.rows),
                       "--cols", str(cfg.cols), "--mode", "forward",
                       "--input-a", str(self.input_path),
                       "--trace", str(self.trace_path),
                       "--state", str(self.state_path),
                       "--stats", str(self.stats_path)])
        if rc != 0:
            raise RuntimeError(f"sramntt run exited {rc} while writing the trace")
        self._expected = None

    def operation(self) -> Outcome:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["trace-replay", str(self.trace_path), str(self.state_path)])
        return Outcome(rc=rc)

    def expected(self):
        return bit_reversed(oracle.oracle_ntt(self.poly, self.cfg.q, self.ring.psi))

    def check(self, out: Outcome) -> bool:
        if out.rc != 0:
            return False
        if self._expected is None:
            self._expected = self.expected()
        return self.decode_state() == self._expected_resident()

    def _slots(self) -> list[tuple[int, int]]:
        """(row, coefficient) of every resident coefficient after a forward.

        Rows hold coefficient c in slot c % resident. The last stage of the
        forward visits the coefficients in increasing order, so each slot ends
        holding the highest coefficient mapped to it; host-swapped ones are
        not in the state file.
        """
        cfg = self.cfg
        layout = ntt.layout_plan(cfg.rows, cfg.cols, cfg.lane, cfg.order)
        slots = {}
        for c in range(cfg.order):
            slots[c % layout.resident_rows] = c
        return [(layout.coeff_rows[s], c) for s, c in sorted(slots.items())]

    def _expected_resident(self) -> list[list[int]]:
        row = [self._expected[c] for _, c in self._slots()]
        return [row] * self.cfg.tiles

    def decode_state(self) -> list[list[int]]:
        """Per tile, the resident spectrum coefficients read from the state file."""
        cells = json.loads(self.state_path.read_text())["cells"]
        lane = self.cfg.lane
        mask = (1 << lane) - 1
        return [[(int(cells[r], 16) >> (t * lane)) & mask for r, _ in self._slots()]
                for t in range(self.cfg.tiles)]

    def sim(self, out: Outcome, paper_steps) -> SimFigures:
        ops = subarray.parse_trace(self.trace_path.read_text())
        stats = perf.accumulate(ops, perf.CostModel(), parallel=self.cfg.tiles)
        return SimFigures(stats=stats, paper_steps=paper_steps(ops), ops=len(ops))

    def close(self) -> None:
        for path in (self.input_path, self.trace_path, self.state_path, self.stats_path):
            path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (ForwardNTT, PolymulDilithium, ReplayForward)}
