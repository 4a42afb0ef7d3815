"""One benchmark repetition: a fresh process that runs `pcmsim run` once.

    python3 bench/child.py <t0> <traced 0|1> <result.json> <pcmsim argv...>

Times are CPU seconds of this single-threaded process, raw and scaled to a
nominal machine speed by a `SpeedGauge`. On a shared virtual machine the host
steals the CPU for stretches, which swings wall time far more than CPU time;
wall times are recorded beside them. `t0` is the parent's CLOCK_MONOTONIC
reading taken just before it started this process.

`setup_s` is the CPU time from process start to the first scheme's replay:
interpreter start, imports and trace loading, less the gauge's samples.
Timers are installed from outside: the public functions of pcmsim are wrapped
at runtime, in the module or class where their caller looks the name up, and
no file under src/ is changed.

Untraced, the only wrappers are one timer around each scheme's
`Simulation.replay` or `run_lifetime` call. Traced, every layer boundary is a
span, and two outside checks run: a read-your-writes shadow of the logical
contents and wear conservation per scheme.
"""

from __future__ import annotations

import bisect
import json
import resource
import signal
import statistics
import sys
import time
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAUGE_PERIOD_S = 0.005
SMOOTH_SAMPLES = 19
REF_ROUNDS = 750
# CPU seconds reference_seconds() takes at about the median speed of the
# machine bench/baseline.json was measured on
REF_NOMINAL_S = 0.0002


def reference_seconds() -> float:
    """CPU seconds of a fixed loop of Python integer and dict work, ~0.2 ms.

    Pure interpreter work tracked the simulator's slowdowns better than a
    mix with 512-bit integer and numpy index work, which over-corrected the
    fnw replay on `lifetime` in side-by-side runs.
    """
    t = time.process_time()
    acc, table = 0, {}
    for i in range(REF_ROUNDS):
        acc = (acc + i * 2654435761) & 0xFFFFFFFFFFFF
        table[i & 1023] = acc
    return time.process_time() - t


class SpeedGauge:
    """CPU seconds this process has used, raw and scaled to a nominal speed.

    The speed of a shared virtual machine changes by tens of percent in
    bursts of a few milliseconds, CPU time included, as other tenants load
    the host. When sampling, a real-time timer runs the reference loop every
    GAUGE_PERIOD_S. The CPU time used between two samples is multiplied by
    REF_NOMINAL_S over the median reference time of the SMOOTH_SAMPLES
    samples (about 0.1 s) around the later one. The samples take about 3% of
    the CPU and are left out of both clocks. Without sampling both clocks are
    the plain CPU clock. (A profiling timer would not do: while one is armed,
    Linux advances the process CPU clock only at timer ticks.)
    """

    def __init__(self, sampling: bool):
        self.overhead_s = 0.0
        self.positions: list[float] = []  # raw clock at each sample
        self.refs: list[float] = []
        self.paused = False
        if sampling:
            self._sample()
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)

    def _on_timer(self, *_) -> None:
        if not self.paused:
            self._sample()

    def _sample(self) -> None:
        t = time.process_time()
        self.refs.append(reference_seconds())
        self.positions.append(t - self.overhead_s)
        self.overhead_s += time.process_time() - t

    def read(self) -> float:
        """Raw CPU seconds the program has used so far."""
        self.paused = True
        raw = time.process_time() - self.overhead_s
        self.paused = False
        return raw

    def stop(self):
        """Stops sampling; returns the map from raw CPU seconds to nominal ones."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        positions, refs = self.positions, self.refs
        if not refs:
            return lambda raw: raw
        h = SMOOTH_SAMPLES // 2
        speeds = [REF_NOMINAL_S / statistics.median(refs[max(0, i - h):i + h + 1])
                  for i in range(len(refs))]
        cumulative, prev = [0.0], 0.0  # nominal seconds at each sample
        for pos, speed in zip(positions, speeds):
            cumulative.append(cumulative[-1] + (pos - prev) * speed)
            prev = pos

        def nominal(raw: float) -> float:
            i = bisect.bisect_left(positions, raw)
            start = positions[i - 1] if i else 0.0
            return cumulative[i] + (raw - start) * speeds[min(i, len(speeds) - 1)]

        return nominal


class SchemeClock:
    """Raw CPU clock readings around each scheme's replay, in report-row order."""

    def __init__(self, gauge: SpeedGauge, t0: float):
        self.gauge = gauge
        self.t0 = t0
        self.setup: float | None = None
        self.setup_wall_s: float | None = None
        self.spans: list[tuple[float, float]] = []

    def wrap(self, owner, attr: str) -> None:
        fn = getattr(owner, attr)
        read = self.gauge.read

        def timed(*args, **kw):
            start = read()
            if self.setup is None:
                self.setup = start
                self.setup_wall_s = time.monotonic() - self.t0 - self.gauge.overhead_s
            try:
                return fn(*args, **kw)
            finally:
                self.spans.append((start, read()))

        setattr(owner, attr, timed)


class Tracer:
    """Spans aggregated per name as [calls, total seconds, self seconds].

    Span times are wall seconds: the CPU clock costs a system call, too much
    for a span taken millions of times a run.

    Self time is a span's duration minus the time its child spans cover. A
    child covers its whole wrapper, hooks included, while its own duration is
    taken tight around the wrapped call, so the tracer's bookkeeping lands in
    neither the child's nor the parent's figure. Spans are aggregated rather
    than stored one by one: the finder alone makes over a million calls a run.
    """

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        fn = getattr(owner, attr)
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kw):
            enter = clock()
            try:
                if before is not None:
                    before(*args)
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kw)
                finally:
                    dt = clock() - t0
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - stack.pop()
                if after is not None:
                    after(result, *args)
                return result
            finally:
                if stack:
                    stack[-1] += clock() - enter

        setattr(owner, attr, span)


def install_tracer(tracer: Tracer, checks: list[dict]) -> None:
    """Wrap every layer boundary; `checks` gets one entry per report row."""
    from pcmsim import cli, core, metrics, mfv, schemes, sim, trace, wearlevel

    bump = tracer.bump
    wear_matrix = core.PcmMemory.wear_matrix  # unwrapped, for the checks
    shadows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    mismatches: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def shadow_write(result, s, addr, payload):
        if result is not None:  # a dropped lifetime write stores nothing
            shadows.setdefault(s, {})[addr] = payload

    def shadow_read(result, s, addr):
        expected = shadows.get(s, {}).get(addr)
        if expected is not None:
            bump("bench.reads_checked")
            if result != expected:
                mismatches[s] = mismatches.get(s, 0) + 1

    def report_checks(rep, s, *_):
        checks.append({
            "scheme": rep.scheme,
            "read_mismatches": mismatches.get(s, 0),
            "wear_conserved": int(wear_matrix(s.memory).sum())
            == rep.flips_set + rep.flips_reset,
        })
        bump("sim.dropped_writes", rep.dropped_writes)
        cache = s.metadata_cache
        if cache is not None:
            bump("core.metadata_cache.hits", cache.hits)
            bump("core.metadata_cache.touches", cache.hits + cache.misses)

    wrap = tracer.wrap
    wrap(mfv.MfvFinder, "observe", "mfv.observe",
         before=lambda f, v: bump("mfv.observe.fv_hits", f.is_frequent(v)),
         after=lambda r, *_: bump("mfv.promotions", r is not None))
    wrap(schemes, "build_codebook", "mfv.build_codebook")
    for mod in (schemes, metrics):
        wrap(mod, "unpack_granules", "mfv.unpack_granules")
    for mod in (schemes, trace):
        wrap(mod, "pack_granules", "mfv.pack_granules")
    wrap(schemes, "optimal_rotation", "schemes.optimal_rotation",
         after=lambda r, *_: bump("schemes.optimal_rotation.nonzero", r[0] != 0))
    for cls, tag in ((schemes.WireScheme, "wire"), (schemes.FnwScheme, "fnw")):
        wrap(cls, "write", f"schemes.{tag}.write")
        wrap(cls, "read", f"schemes.{tag}.read")
    wrap(schemes, "program_cells", "core.program_cells",
         after=lambda r, *_: bump("core.program_cells.noops", r.flips == 0))
    for mod in (schemes, wearlevel):
        wrap(mod, "program_all_cells", "core.program_all_cells")
    wrap(core.PcmMemory, "wear_matrix", "core.wear_matrix")
    wrap(schemes, "next_epoch", "wearlevel.next_epoch",
         after=lambda r, *_: bump("wearlevel.epoch_bumps", r[1]))
    wrap(wearlevel.StartGapLeveler, "step", "wearlevel.step")
    wrap(sim.Simulation, "write", "sim.write", after=shadow_write)
    wrap(sim.Simulation, "read", "sim.read", after=shadow_read)
    wrap(cli, "run_lifetime", "metrics.run_lifetime")
    wrap(cli, "build_report", "metrics.build_report", after=report_checks)
    wrap(metrics, "intrav", "metrics.intrav")
    wrap(cli, "mfv_coverage", "metrics.mfv_coverage")
    wrap(cli, "generate", "trace.generate")
    wrap(trace, "parse_trace", "trace.parse_trace")
    wrap(cli, "load_events", "cli.load_events")
    wrap(cli, "trace_digest", "cli.trace_digest")


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer figure the traced run can give, by metric name."""
    out: dict[str, float] = {}
    for name, (calls, total, self_s) in tracer.spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_s
    counts = tracer.counts
    out.update(counts)

    def ratio(num: str, den: str) -> float:
        d = out.get(den, 0)
        return counts.get(num, 0) / d if d else 0.0

    out["mfv.observe.fv_hit_ratio"] = ratio("mfv.observe.fv_hits", "mfv.observe.calls")
    out["schemes.optimal_rotation.nonzero_ratio"] = ratio(
        "schemes.optimal_rotation.nonzero", "schemes.optimal_rotation.calls")
    out["core.program_cells.noop_ratio"] = ratio(
        "core.program_cells.noops", "core.program_cells.calls")
    out["core.metadata_cache.hit_ratio"] = ratio(
        "core.metadata_cache.hits", "core.metadata_cache.touches")
    return out


def main() -> int:
    t0 = float(sys.argv[1])
    traced = sys.argv[2] == "1"
    result_path = Path(sys.argv[3])
    argv = sys.argv[4:]
    # traced spans would count the samples, so a traced run keeps plain CPU time
    gauge = SpeedGauge(sampling=not traced)

    sys.path.insert(0, str(ROOT / "src"))
    import pcmsim
    from pcmsim import cli, sim

    if Path(pcmsim.__file__).resolve().parent != ROOT / "src" / "pcmsim":
        print(f"bench: pcmsim imported from {pcmsim.__file__}, not from src/",
              file=sys.stderr)
        return 2

    tracer = Tracer() if traced else None
    checks: list[dict] = []
    if tracer is not None:
        install_tracer(tracer, checks)
    clock = SchemeClock(gauge, t0)
    clock.wrap(sim.Simulation, "replay")
    clock.wrap(cli, "run_lifetime")

    start, wall, overhead = gauge.read(), time.perf_counter(), gauge.overhead_s
    rc = cli.main(argv)
    end, wall = gauge.read(), time.perf_counter() - wall - (gauge.overhead_s - overhead)
    nominal = gauge.stop()

    def seconds(a: float, b: float) -> tuple[float, float]:
        return b - a, nominal(b) - nominal(a)

    result = {
        "rc": rc,
        "setup_s": seconds(0.0, clock.setup),
        "run_s": seconds(start, end),
        "scheme_s": [seconds(a, b) for a, b in clock.spans],
        "setup_wall_s": clock.setup_wall_s,
        "run_wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
        "layers": layer_values(tracer) if tracer is not None else {},
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
