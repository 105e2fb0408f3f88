"""Spans around calls into each layer's public functions, for the traced run.

The tracer swaps wrappers into the module attributes and class methods the
program calls through, records one span per call (name, parent, start, end and,
for the bit-parallel emitters, the slice of the subarray trace the call
appended), and puts every original back when it is removed. Nothing in the
program changes; untraced runs never install it.

Self time is a span's time minus the time its child spans cover. Self cycles
are the cycles of a bit-parallel span's trace slice minus those of its
bit-parallel children; ops outside every bit-parallel span are the
unattributed remainder.
"""

from __future__ import annotations

import time
from collections import defaultdict

from sramntt import bitparallel, cli, ntt, perf, subarray
from sramntt.subarray import ACTIVATE2, SHIFT, WRITEBACK, ZERO_TEST

# (owner, attribute, span name); owners are modules or classes
CALLS = (
    (ntt.TransformUnit, "__init__", "ntt.setup"),
    (ntt.TransformUnit, "load_polynomials", "ntt.setup"),
    (ntt.TransformUnit, "forward", "ntt.forward"),
    (ntt.TransformUnit, "inverse", "ntt.inverse"),
    (ntt.TransformUnit, "pointwise_by", "ntt.pointwise"),
    (ntt.TransformUnit, "read_polynomials", "ntt.read"),
    (ntt, "emit_modmul", "bitparallel.modmul"),
    (ntt, "emit_resolve", "bitparallel.resolve"),
    (ntt, "emit_modadd", "bitparallel.modadd"),
    (ntt, "emit_modsub", "bitparallel.modsub"),
    (bitparallel, "emit_smear", "bitparallel.smear"),
    (bitparallel, "emit_add", "bitparallel.add"),
    (bitparallel, "emit_add3", "bitparallel.add"),
    (perf, "accumulate", "perf.accumulate"),
    (cli, "accumulate", "perf.accumulate"),
    (subarray, "replay", "subarray.replay"),
    (cli, "replay", "subarray.replay"),
    (cli, "parse_trace", "subarray.parse"),
    (cli, "serialize_trace", "subarray.serialize"),
    (cli, "cmd_run", "cli.run"),
    (cli, "cmd_trace_replay", "cli.trace_replay"),
)

BITPARALLEL = ("modmul", "resolve", "modadd", "modsub", "smear", "add")

COUNTED = ("_cycles", ".butterflies", ".trace_ops_held")

# span fields
NAME, PARENT, T0, T1, CHILD_TIME, TRACE, I0, I1, BUTTERFLIES = range(9)


class Phase:
    """Tallies of every span closed during repetitions of one phase."""

    def __init__(self):
        self.reps = 0
        self.time = defaultdict(float)       # inclusive seconds per span name
        self.self_time = defaultdict(float)  # seconds minus child spans
        self.counts = defaultdict(perf.empty_counts)  # self micro-ops per name
        self.unattributed = perf.empty_counts()
        self.butterflies = 0
        self.held = 0                        # trace ops held by the phase's units
        # per repetition: (cycles attributed, remainder counts, inverse butterflies)
        self.ledger: list[tuple[int, dict, int]] = []

    def per_rep(self, value):
        return value / self.reps


class Tracer:
    def __init__(self, cost: perf.CostModel):
        self.cost = cost
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.traces: dict[int, list] = {}    # trace lists of units made in the phase
        self.held_parsed = 0
        self._saved: list[tuple] = []
        self.phases: dict[str, Phase] = defaultdict(Phase)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in CALLS:
            original = owner.__dict__[attr]   # KeyError if the program moved it
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        emitter = name.startswith("bitparallel.")
        unit_method = name.startswith("ntt.")

        def wrapper(*args, **kwargs):
            trace = getattr(args[0], "arr", None) if emitter else None
            trace = trace.trace if trace is not None else None
            span = [name, stack[-1] if stack else None, 0.0, 0.0, 0.0, trace,
                    len(trace) if trace is not None else 0, 0,
                    args[0].butterflies if unit_method and name != "ntt.setup" else 0]
            stack.append(len(spans))
            spans.append(span)
            span[T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = time.perf_counter()
                stack.pop()
                if trace is not None:
                    span[I1] = len(trace)
            if unit_method:
                unit = args[0]
                if fn.__name__ == "__init__":
                    if unit.arr.trace is not None:
                        self.traces[id(unit.arr.trace)] = unit.arr.trace
                elif name != "ntt.setup":
                    span[BUTTERFLIES] = unit.butterflies - span[BUTTERFLIES]
            elif name == "subarray.parse":
                self.held_parsed += len(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- settling ---------------------------------------------------------

    def settle(self, phase: str) -> None:
        """Fold the spans recorded since the last settle into one repetition of `phase`."""
        if self.stack:
            raise RuntimeError("settle inside an open span")
        tally = self.phases[phase]
        tally.reps += 1
        spans = self.spans
        for sp in spans:
            if sp[PARENT] is not None:
                spans[sp[PARENT]][CHILD_TIME] += sp[T1] - sp[T0]
        inverse_butterflies = 0
        for sp in spans:
            duration = sp[T1] - sp[T0]
            tally.time[sp[NAME]] += duration
            tally.self_time[sp[NAME]] += duration - sp[CHILD_TIME]
            if sp[NAME] == "ntt.inverse":
                inverse_butterflies += sp[BUTTERFLIES]
            tally.butterflies += sp[BUTTERFLIES]
        counts, remainder = self._attribute()
        for name, c in counts.items():
            perf.add_counts(tally.counts[name], c)
        perf.add_counts(tally.unattributed, remainder)
        attributed = sum(self.cycles(c) for c in counts.values()) + self.cycles(remainder)
        tally.ledger.append((attributed, remainder, inverse_butterflies))
        tally.held = max(tally.held, sum(map(len, self.traces.values())) + self.held_parsed)
        spans.clear()
        self.traces.clear()
        self.held_parsed = 0

    def _attribute(self) -> tuple[dict, dict]:
        """Split every unit trace into per-span-name self micro-ops and the remainder."""
        counts: dict = defaultdict(perf.empty_counts)
        remainder = perf.empty_counts()
        children: dict = defaultdict(list)   # span index, or ("root", trace id) -> slices
        for idx, sp in enumerate(self.spans):
            if sp[TRACE] is None:
                continue
            owner = sp[PARENT]
            while owner is not None and self.spans[owner][TRACE] is None:
                owner = self.spans[owner][PARENT]
            key = owner if owner is not None else ("root", id(sp[TRACE]))
            children[key].append(idx)
            self.traces.setdefault(id(sp[TRACE]), sp[TRACE])

        def walk(trace, lo, hi, kids, into):
            cursor = lo
            for k in kids:
                sp = self.spans[k]
                perf.add_counts(into, perf.counts_of_trace(trace[cursor:sp[I0]]))
                walk(trace, sp[I0], sp[I1], children[k], counts[sp[NAME]])
                cursor = sp[I1]
            perf.add_counts(into, perf.counts_of_trace(trace[cursor:hi]))

        for key, trace in self.traces.items():
            walk(trace, 0, len(trace), children[("root", key)], remainder)
        return counts, remainder

    # -- reporting --------------------------------------------------------

    def cycles(self, counts: dict) -> int:
        return perf.stats_from_counts(counts, self.cost).cycles

    def per_layer(self) -> dict:
        """Per-layer figures of one set-up plus one operation (per-repetition means)."""
        phases = list(self.phases.values())

        def total(get):
            return sum(p.per_rep(get(p)) for p in phases)

        out = {
            "ntt.setup_s": total(lambda p: p.time["ntt.setup"]),
            "ntt.forward_s": total(lambda p: p.time["ntt.forward"]),
            "ntt.inverse_s": total(lambda p: p.time["ntt.inverse"]),
            "ntt.pointwise_s": total(lambda p: p.time["ntt.pointwise"]),
            "ntt.read_s": total(lambda p: p.time["ntt.read"]),
            "ntt.butterflies": total(lambda p: p.butterflies),
        }
        for prim in BITPARALLEL:
            name = f"bitparallel.{prim}"
            out[f"{name}_s"] = total(lambda p: p.self_time[name])
            out[f"{name}_cycles"] = total(lambda p: self.cycles(p.counts[name]))
        out["subarray.replay_s"] = total(lambda p: p.time["subarray.replay"])
        out["subarray.serialize_s"] = total(lambda p: p.time["subarray.serialize"])
        out["subarray.parse_s"] = total(lambda p: p.time["subarray.parse"])
        out["subarray.trace_ops_held"] = max((p.held for p in phases), default=0)
        out["perf.accumulate_s"] = total(lambda p: p.time["perf.accumulate"])
        out["cli.run_s"] = total(lambda p: p.time["cli.run"])
        out["cli.trace_replay_s"] = total(lambda p: p.time["cli.trace_replay"])
        out["unattributed_cycles"] = total(lambda p: self.cycles(p.unattributed))
        return {k: int(v) if k.endswith(COUNTED) and float(v).is_integer() else v
                for k, v in out.items()}

    def reconcile(self, sim_cycles) -> list[str]:
        """Problems with the cycle attribution; empty when it reconciles exactly.

        Per-layer self cycles plus the remainder must equal `sim_cycles`, and
        the remainder may hold only host writes and the two ops per inverse
        butterfly that park its difference row.
        """
        problems = []
        attributed = 0
        for name, p in self.phases.items():
            totals = {total for total, _, _ in p.ledger}
            if len(totals) > 1:
                problems.append(f"{name}: repetitions attribute different cycles {totals}")
            attributed += max(totals, default=0)
            for _, rem, parks in p.ledger:
                if (rem[ACTIVATE2], rem[WRITEBACK], rem[SHIFT], rem[ZERO_TEST]) != (parks, parks, 0, 0):
                    problems.append(f"{name}: remainder holds more than host writes and "
                                    f"{parks} inverse parks: {rem}")
                    break
        if attributed != sim_cycles:
            problems.append(f"self cycles plus remainder {attributed} != sim_cycles {sim_cycles}")
        if not any(p.counts for p in self.phases.values()):
            problems.append("no bit-parallel span was recorded")
        return problems
