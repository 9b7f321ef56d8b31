"""The serve workload: one client on one connection to a `deladas serve`
process running the 6-host sample, in a closed loop."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from deladas import fabric, madme, model
from deladas.lang import SpecDocument

import core

RUN_DIR = core.ROOT / ".perfbench_run"
RESOURCES = "samples/resources.deladas"
CONSTRAINTS = "samples/constraints.deladas"
SERVE_ARGS = ["serve", "-r", RESOURCES, "-c", CONSTRAINTS]
METHODS = ("get-deployment", "get-resources", "get-constraints", "satisfy",
           "enact")
START_TIMEOUT_S = 60


def sample_doc():
    return core._merge(core._parse((core.ROOT / RESOURCES).read_text()),
                       core._parse((core.ROOT / CONSTRAINTS).read_text()))


def satisfy_body() -> str:
    return madme.join_parts([(core.ROOT / CONSTRAINTS).read_text(),
                             (core.ROOT / RESOURCES).read_text(),
                             (core.SAMPLES / "example-deployment.xml").read_text()])


def local_satisfy_answer() -> str:
    """The pinned satisfy answered in process, for the golden digest."""
    doc = sample_doc()
    manager = madme.Manager(doc, core.CS, fabric.boot(list(doc.hosts), 0))
    status, _, body = manager.handle_request("satisfy", satisfy_body()).decode() \
        .partition("\n")
    if status != "ok":
        raise RuntimeError(f"pinned satisfy failed: {body}")
    return body


class Expected:
    """What each answer must be, computed in process before the loop."""

    def __init__(self, golden: dict):
        self.doc = doc = sample_doc()
        self.empty = core._to_xml(model.empty_on(doc.hosts), doc, core.CS).decode()
        # Two valid deployments of the sample; enact alternates between them.
        self.deployments = [
            (core.SAMPLES / "example-deployment.xml").read_text(),
            (core.INPUTS / "randc-h6.xml").read_text()]
        self.satisfy_digest = golden["serve_satisfy"]
        self.satisfy_body = satisfy_body()
        self.plans = {}
        for old in [self.empty] + self.deployments:
            for new in self.deployments:
                if old != new:
                    self.plans[(old, new)] = core._diff(
                        self._config(old), self._config(new), doc).render()
        self.reads = {
            "get-resources": core._pretty_print(SpecDocument(
                doc.components, doc.hosts, ())),
            "get-constraints": core._pretty_print(SpecDocument(
                (), (), doc.constraintsets)),
        }

    def _config(self, text: str):
        return core._parse_ddd(text.encode(), self.doc).configuration


class Client:
    """Sends one seeded request at a time and checks every answer."""

    def __init__(self, sock, expected: Expected):
        self.sock = sock
        self.expected = expected
        self.deployed = expected.empty
        self.enacts = 0

    def request(self, method: str) -> tuple[float, list[str]]:
        exp = self.expected
        body = ""
        if method == "satisfy":
            body = exp.satisfy_body
        elif method == "enact":
            body = exp.deployments[self.enacts % 2]
            self.enacts += 1
        started = time.perf_counter()
        ok, answer = madme.request(self.sock, method, body)
        rtt = time.perf_counter() - started
        if not ok:
            return rtt, [f"{method}: error answer {answer!r}"]
        problems = []
        if method == "get-deployment" and answer != self.deployed:
            problems.append("get-deployment differs from the last enacted DDD")
        elif method in exp.reads and answer != exp.reads[method]:
            problems.append(f"{method} differs from the sample")
        elif method == "satisfy":
            problems += self._satisfy_problems(answer)
        elif method == "enact":
            if answer != exp.plans[(self.deployed, body)]:
                problems.append("enact plan differs from the local diff")
            self.deployed = body
        return rtt, problems

    def _satisfy_problems(self, answer: str) -> list[str]:
        parts = madme.split_parts(answer)
        if len(parts) != 1:
            return [f"satisfy: {len(parts)} answers, expected 1"]
        config = core._parse_ddd(parts[0].encode()).configuration
        problems = core.goal_problems(config, self.expected.doc)
        if core.digest(answer) != self.expected.satisfy_digest:
            problems.append("satisfy answer digest differs from the seed commit")
        return problems


def methods(seed: int, count: int) -> list[str]:
    """count requests, an equal share of each method, in seeded order: the
    seed moves requests around, never the mix.

    No source gives the manager's real traffic mix; equal shares are the
    simplest one, and with three read methods of five they are mostly reads.
    Every satisfy solves with pins, every enact changes the fabric."""
    out = [m for m in METHODS for _ in range(count // len(METHODS))]
    random.Random(seed).shuffle(out)
    return out


class Server:
    """One server process on a unix socket inside the checkout.

    With spans_path set, the server runs under the benchmark's span recorder
    (serve_traced.py) and writes its spans there when it stops."""

    _count = 0

    def __init__(self, spans_path: Path | None = None):
        RUN_DIR.mkdir(exist_ok=True)
        Server._count += 1
        name = f"serve-{os.getpid()}-{Server._count}"
        # Relative to the checkout root, which keeps it under the length
        # limit of unix socket paths.
        self.path = f"{RUN_DIR.name}/{name}.sock"
        self.log_path = RUN_DIR / f"{name}.log"
        (core.ROOT / self.path).unlink(missing_ok=True)
        args = SERVE_ARGS + ["--socket", self.path]
        if spans_path is None:
            cmd = [sys.executable, "-m", "deladas"] + args
        else:
            cmd = [sys.executable, "perfbench/serve_traced.py",
                   str(spans_path)] + args
        env = dict(os.environ, PYTHONPATH="src")
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=core.ROOT, env=env,
                                         stdout=subprocess.DEVNULL, stderr=log)
        self.sock = None
        try:
            self.sock = self._connect(started)
            ok, _ = madme.request(self.sock, "get-deployment")
            if not ok:
                raise RuntimeError("first request failed")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _connect(self, started: float):
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: "
                                   + self.log_path.read_text()[-2000:])
            try:
                return madme.connect(self.path)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() - started > START_TIMEOUT_S:
                    raise
                time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.sock is not None:
            self.sock.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        (core.ROOT / self.path).unlink(missing_ok=True)
        self.log_path.unlink(missing_ok=True)
