"""The three workloads. Each is a closed loop with one caller: the next
operation starts when the previous one has returned.

A workload is a seeded list of operations and a pass over it. The untraced
run (measure) repeats the pass and gives the end-to-end metrics; the traced
run (traced.py) runs the same pass over a shorter list of the same kind.

Steadiness. Every end-to-end time is scaled to the host's reference speed
(see refclock.py), which removes most of the host's slow phases, and a run
repeats the pass at least MIN_PASSES times and until --seconds have passed.
Every statistic is taken over all the operations of all passes.

Every run reports every end-to-end metric. A workload measures the metrics
it owns with its own operations; the others (solve_ms.* outside
randc-scale, repair_ms.* outside failover) come from probe operations
spread evenly over each pass, so that a change to any layer shows on every
workload that runs it. Probes count in attempted and failed but not in the
latency distribution.
"""

from __future__ import annotations

import functools
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import core
import refclock
import serve

MIN_PASSES = 3
# randc-scale cycles over 4..8 hosts: five equal groups put the median in
# the middle of the 6-host solves; with the four host counts 5..8 it would
# lie on the boundary between the 6- and 7-host solves and swing with them.
CYCLE_HOSTS = (4, 5, 6, 7, 8)
# Operations per pass of the untraced run.
PASS_CYCLES = 10
PASS_ROUNDS = 2  # failover: every episode twice
PASS_REQUESTS = 2000  # serve
# The metrics that operations of each kind feed, besides the latencies.
CLASS_METRICS = {f"solve_ms.h{n}" for n in core.SOLVE_HOSTS} | {
    f"repair_ms.{kind}" for kind in core.PROBE_EPISODES}


@dataclass
class Sample:
    ms: float
    kind: str  # solve_ms.h<n>, repair_ms.<kind> or rtt_ms.<method>
    own: bool  # part of the workload's latency distribution


class Run:
    """The operations timed so far, their checks and their set-up times.

    With a reference clock, times are scaled to the reference speed; without
    one (the traced run), they are raw."""

    def __init__(self, golden: dict,
                 clock: refclock.ReferenceClock | None = None,
                 tally: core.Tally | None = None):
        self.golden = golden
        self.clock = clock
        self.tally = tally or core.Tally(golden)
        self.samples: list[Sample] = []
        self.passes = 0
        self.setups_s: list[float] = []
        self.peak_mb = 0.0
        self.notes: list[str] = []

    def timed(self, operation):
        """Run operation(); return its result and the factor for the times
        it measured."""
        if self.clock is None:
            return operation(), 1.0
        return self.clock.measure(operation)

    def add(self, ms: float, kind: str, own: bool, problems: list[str],
            name: str = "") -> None:
        self.samples.append(Sample(ms, kind, own))
        self.tally.add(problems, name)

    def solve(self, hosts: int, own: bool = True) -> None:
        (ms, problems), scale = self.timed(
            lambda: core.solve_op(hosts, self.golden))
        self.add(ms * scale, f"solve_ms.h{hosts}", own, problems)

    def episode(self, dep, episode, own: bool = True) -> None:
        (result, problems), scale = self.timed(
            lambda: core.episode_op(dep, episode, self.golden))
        self.add(result.repair_s * 1e3 * scale, f"repair_ms.{episode.kind}",
                 own, problems, episode.name)
        if own:
            self.setups_s.append(result.setup_s * scale)

    def request(self, client, method: str) -> None:
        (rtt, problems), scale = self.timed(lambda: client.request(method))
        self.add(rtt * 1e3 * scale, f"rtt_ms.{method}", True, problems)

    def own_ms(self) -> list[float]:
        return [s.ms for s in self.samples if s.own]

    def metrics(self) -> dict[str, tuple[float, str]]:
        own = self.own_ms()
        tail_ms, tail_p = core.tail(own)
        self.notes.append(
            f"{self.passes} passes, {len(self.samples)} operations "
            f"({len(own)} of the workload's own); latency_tail_ms is "
            f"p{tail_p:.4g} of those {len(own)} latencies (10 beyond it)")
        per_class: dict[str, list[float]] = {}
        for s in self.samples:
            if s.kind in CLASS_METRICS:
                per_class.setdefault(s.kind, []).append(s.ms)
        out = {
            "setup_s": (statistics.median(self.setups_s), "s"),
            "peak_rss_mb": (self.peak_mb, "MB"),
            "ok_ratio": (1 - self.tally.failed / self.tally.attempted,
                         "ratio"),
            "ops_per_s": (len(own) / (sum(own) / 1e3), "1/s"),
            "latency_p50_ms": (statistics.median(own), "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
        }
        for name in sorted(per_class):
            out[name] = (statistics.median(per_class[name]), "ms")
        scales = self.clock.scales
        self.notes.append(
            f"reference clock: scale median {statistics.median(scales):.3f}, "
            f"range {min(scales):.3f}-{max(scales):.3f} over {len(scales)} "
            "calibrations (1 = reference speed)")
        return out


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# The workloads: a seeded list of operations (ops) and one pass over it.
# After each operation a pass calls between(), which runs the probes due.
# ---------------------------------------------------------------------------

def _nothing() -> None:
    pass


class RandcScale:
    """Cold satisfy of randc; host counts cycle over CYCLE_HOSTS, in seeded
    order within each cycle."""

    probes = ("repair",)
    setups = 4  # per pass

    def __init__(self, seed: int, cycles: int = PASS_CYCLES):
        rng = random.Random(seed)
        self.ops = [n for _ in range(cycles)
                    for n in rng.sample(CYCLE_HOSTS, len(CYCLE_HOSTS))]

    def warm_up(self) -> None:
        core.cold_satisfy(5)

    def setup(self, run: Run) -> None:
        """What a command-line satisfy pays before solving: a fresh
        interpreter importing the engine."""
        env = dict(os.environ, PYTHONPATH="src")
        started = time.perf_counter()
        _, scale = run.timed(lambda: subprocess.run(
            [sys.executable, "-c", "import deladas.cli"],
            cwd=core.ROOT, env=env, check=True))
        run.setups_s.append((time.perf_counter() - started) * scale)

    def one_pass(self, run: Run, between=_nothing) -> None:
        for n in self.ops:
            run.solve(n)
            between()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


class Failover:
    """Failure episodes on the stored 8-host deployment: rounds of every
    episode once, each round in seeded order."""

    probes = ("solve",)
    setups = 0  # every episode records its own set-up

    def __init__(self, seed: int, rounds: int = PASS_ROUNDS,
                 dep: core.Deployment8 | None = None):
        self.dep = dep or core.Deployment8()
        rng = random.Random(seed)
        self.ops = [episode for _ in range(rounds)
                    for episode in rng.sample(self.dep.episodes,
                                              len(self.dep.episodes))]

    def warm_up(self) -> None:
        core.run_episode(self.dep, self.dep.by_name["process:Client@h1#0"])

    def one_pass(self, run: Run, between=_nothing) -> None:
        for episode in self.ops:
            run.episode(self.dep, episode)
            between()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


class ServeRequests:
    """A request list from one client over one connection to a
    `deladas serve` process, started afresh for each pass.

    With spans_path set, the server runs under the span recorder and appends
    its spans there when it stops."""

    probes = ("solve", "repair")
    setups = 3  # more server starts per pass, besides the pass's own

    def __init__(self, seed: int, count: int = PASS_REQUESTS,
                 methods: list[str] | None = None,
                 spans_path: Path | None = None):
        self.ops = methods or serve.methods(seed, count)
        self.spans_path = spans_path
        self._expected = None
        self._peaks: list[float] = []

    def warm_up(self) -> None:
        pass

    def expected(self, golden: dict) -> serve.Expected:
        if self._expected is None:
            self._expected = serve.Expected(golden)
        return self._expected

    def setup(self, run: Run) -> None:
        """Server start to its first answer."""
        server, scale = run.timed(serve.Server)
        server.stop()
        run.setups_s.append(server.setup_s * scale)

    def one_pass(self, run: Run, between=_nothing) -> None:
        server, scale = run.timed(lambda: serve.Server(self.spans_path))
        run.setups_s.append(server.setup_s * scale)
        try:
            client = serve.Client(server.sock, self.expected(run.golden))
            for method in self.ops:
                run.request(client, method)
                between()
            self._peaks.append(server.peak_rss_mb())
        finally:
            server.stop()

    def peak_rss_mb(self) -> float:
        return max(self._peaks)


WORKLOADS = {"randc-scale": RandcScale, "failover": Failover,
             "serve": ServeRequests}


def probe_schedule(workload, run: Run, dep: core.Deployment8) -> list:
    """The extra operations of one pass: set-ups, and the probes for the
    metrics the workload does not own. Each kind is spread evenly over the
    pass, so that its median covers the whole run rather than a few moments
    of it."""
    kinds = [(workload.setups, lambda: workload.setup(run))]
    if "solve" in workload.probes:
        kinds += [(core.PROBE_REPEATS[n],
                   functools.partial(run.solve, n, own=False))
                  for n in core.SOLVE_HOSTS]
    if "repair" in workload.probes:
        kinds += [(core.PROBE_REPEATS[kind],
                   functools.partial(run.episode, dep, dep.by_name[name],
                                     own=False))
                  for kind, name in core.PROBE_EPISODES.items()]
    placed = sorted(((i + 0.5) / count, k, i)
                    for k, (count, _) in enumerate(kinds)
                    for i in range(count))
    return [kinds[k][1] for _, k, _ in placed]


class Between:
    """Runs the probes due after each of a pass's own operations."""

    def __init__(self, probes: list, own: int):
        self.probes = probes
        self.own = own
        self.done = 0
        self.ran = 0

    def __call__(self) -> None:
        self.done += 1
        due = len(self.probes) * self.done // self.own
        while self.ran < due:
            self.probes[self.ran]()
            self.ran += 1


def measure(name: str, seed: int, seconds: float, golden: dict) -> Run:
    """The untraced run: passes of the workload with its probes, at least
    MIN_PASSES and until `seconds` have passed."""
    workload = WORKLOADS[name](seed)
    run = Run(golden, refclock.ReferenceClock())
    dep = core.Deployment8()
    probes = probe_schedule(workload, run, dep)
    workload.warm_up()
    started = time.perf_counter()
    while run.passes < MIN_PASSES or time.perf_counter() - started < seconds:
        workload.one_pass(run, Between(probes, len(workload.ops)))
        run.passes += 1
    run.peak_mb = workload.peak_rss_mb()
    if name == "failover":
        run.notes.append(
            f"{len(golden['known_failing_episodes'])} of "
            f"{len(dep.episodes)} episodes fail by the known same-tick "
            "restart defect in every round")
    return run
