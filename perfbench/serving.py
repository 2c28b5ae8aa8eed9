"""The ``serve-open`` workload: ``python -m repro serve`` under open-loop load.

Set-up saves a seeded 784x200 ``BernoulliRBM`` with ``repro.serve.save_model``
and starts ``python -m repro serve`` on it in a subprocess (five times; the
median is ``setup_s`` and the last server is measured).  One client process
then sends single-row requests over 2 connections on a seeded Poisson
schedule, in short windows that alternate between the ``low`` rate (leg a)
and the ``high`` rate (leg b).  Every request line is encoded before the
timed windows, and each request is timed from its scheduled send time, so a
stalled generator or server shows up as latency; how late the generator ran
is reported too.  After each window, once the server is idle, the client
times the calibration kernel, and the legs' latencies are given at the
reference host speed (see ``common.calibration_kernel``).
"""

from __future__ import annotations

import collections
import json
import os
import re
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    CALIBRATION_SHARE,
    OUT_DIR,
    REFERENCE_MS,
    ROOT,
    Checks,
    calibrate,
    calibration_kernel,
    host_meta,
    median,
    peak_rss_mb,
    percentile,
    repeat_setup,
    seeds,
)
import spans
from spans import Tracer, traced

import repro.serve as serve
from repro.config import ComputeSpec
from repro.rbm.rbm import BernoulliRBM

WHY = (
    "only repro.serve and the TCP edge run; leg a = 100 req/s (linger-bound, "
    "~1-row batches), leg b = 600 req/s (coalescing)"
)
#: Score tolerance of the service self-test (repro.serve.run_self_test).
RTOL, ATOL = 1e-10, 1e-12
#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Idle time before each calibration, so the server has gone quiet.
SETTLE_S = 0.1


@dataclass(frozen=True)
class ServeSize:
    n_features: int
    n_hidden: int
    rates: tuple  # (("low", req/s), ("high", req/s))
    row_pool: int
    warm_requests: int
    grace_s: float  # how long answers may trail the last scheduled send
    rounds: int  # windows per rate; the rates alternate window by window


SIZES = {
    "full": ServeSize(784, 200, (("low", 100.0), ("high", 600.0)), 512, 100, 3.0, 10),
    "tiny": ServeSize(49, 16, (("low", 50.0), ("high", 200.0)), 64, 10, 3.0, 2),
}


def install_client_spans(tracer: Tracer) -> None:
    tracer.wrap(serve, "save_model", "serve.save_model")
    tracer.wrap(serve, "load_model", "serve.load_model")


# ---------------------------------------------------------------------- #
# The server subprocess
# ---------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` process on an ephemeral port, with 2 connections."""

    def __init__(self, artifact: Path, log: Path, trace_out: Optional[Path], fault: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        serve_args = ["serve", str(artifact), "--port", "0"]
        if trace_out is None and fault == "none":
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(Path(__file__).with_name("serve_launcher.py"))]
            if trace_out is not None:
                command += ["--trace-out", str(trace_out)]
            command += ["--fault", fault, "--", *serve_args]
        self.log = log
        self.trace_out = trace_out
        self._stderr = open(log, "wb")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._stderr
        )
        self.conns: List[socket.socket] = []
        try:
            port = self._await_ready(timeout=60.0)
            for _ in range(2):
                conn = socket.create_connection(("127.0.0.1", port), timeout=10.0)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.conns.append(conn)
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode(errors="replace")
                match = re.search(r" on [^ ]+:(\d+) ", line)
                if match:
                    return int(match.group(1))
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not become ready; see {self.log}")

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> str:
        """Disconnect, stop the server with SIGINT, return its stderr.

        Each connection is half-closed and drained to EOF first, so the
        server has finished its connection handlers before the signal
        arrives.  (A SIGINT while a handler is still open makes the server
        print a CancelledError traceback on shutdown.)
        """
        for conn in self.conns:
            try:
                conn.shutdown(socket.SHUT_WR)
                conn.settimeout(5.0)
                while conn.recv(65536):
                    pass
            except OSError:
                pass
            conn.close()
        self.conns = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return self.log.read_text(errors="replace")


# ---------------------------------------------------------------------- #
# The open-loop client
# ---------------------------------------------------------------------- #
class Phase:
    """Pre-encoded requests of one rate, and what came back for them."""

    def __init__(self, name: str, rate: float, seconds: float, first_id: int, rows, rng):
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 10)
        offsets = np.cumsum(gaps)
        self.offsets = offsets[offsets < seconds]
        self.name = name
        n = len(self.offsets)
        self.ids = list(range(first_id, first_id + n))
        self.row_index = rng.integers(0, len(rows), size=n)
        self.lines = [
            json.dumps({"id": rid, "rows": [rows[r]]}).encode() + b"\n"
            for rid, r in zip(self.ids, self.row_index)
        ]
        self.late_s = np.zeros(n)
        self.latency_s = np.full(n, np.nan)
        self.scores: List[Optional[list]] = [None] * n
        self.answer_ids: List[object] = [None] * n


def drive(server: Server, phase: Phase, grace_s: float) -> None:
    """Send ``phase`` on its schedule over both connections; collect answers.

    One thread does both: it sends every request that is due, then waits
    in ``select`` for answers until the next send is due.  Answers keep
    request order on a connection, so each one is matched to the oldest
    unanswered request sent on it; its id is checked later, in
    :func:`verify`.  Answers still missing at the deadline stay missing.
    """
    conns = server.conns
    n = len(phase.offsets)
    t0 = time.perf_counter() + 0.05
    due = t0 + phase.offsets
    deadline = (due[-1] if n else t0) + grace_s
    in_flight = [collections.deque() for _ in conns]
    buffers = [b""] * len(conns)
    raw: List[Optional[bytes]] = [None] * n
    with selectors.DefaultSelector() as selector:
        for c, conn in enumerate(conns):
            selector.register(conn, selectors.EVENT_READ, c)
        sent = answered = 0
        while answered < n:
            now = time.perf_counter()
            while sent < n and due[sent] <= now:
                c = sent % len(conns)
                phase.late_s[sent] = now - due[sent]
                conns[c].sendall(phase.lines[sent])
                in_flight[c].append(sent)
                sent += 1
                now = time.perf_counter()
            if now > deadline:
                break
            wake = due[sent] if sent < n else deadline
            for key, _ in selector.select(max(wake - now, 0.0)):
                c = key.data
                chunk = conns[c].recv(65536)
                arrived = time.perf_counter()
                if not chunk:
                    selector.unregister(conns[c])
                    continue
                *lines, buffers[c] = (buffers[c] + chunk).split(b"\n")
                for line in lines:
                    if in_flight[c]:
                        i = in_flight[c].popleft()
                        phase.latency_s[i] = arrived - due[i]
                        raw[i] = line
                        answered += 1
    for i, line in enumerate(raw):
        if line is not None:
            answer = json.loads(line)
            phase.answer_ids[i] = answer.get("id")
            phase.scores[i] = answer.get("scores")


def verify(phase: Phase, expected: np.ndarray, checks: Checks) -> None:
    """Each answer must carry its request's id and the direct score."""
    bad = 0
    for i, rid in enumerate(phase.ids):
        scores = phase.scores[i]
        ok = (
            phase.answer_ids[i] == rid
            and isinstance(scores, list)
            and len(scores) == 1
            and np.isfinite(phase.latency_s[i])
            and bool(np.isclose(scores[0], expected[phase.row_index[i]], rtol=RTOL, atol=ATOL))
        )
        bad += not ok
    checks.ops(len(phase.ids), bad, f"{phase.name}: unanswered, mismatched or wrong-scored")


def _warm(server: Server, pool, expected, n: int, checks: Checks) -> None:
    """Closed-loop requests on both connections before timing starts."""
    rows = pool.astype(int).tolist()
    for i in range(n):
        conn = server.conns[i % len(server.conns)]
        conn.sendall(json.dumps({"id": -1 - i, "rows": [rows[i % len(rows)]]}).encode() + b"\n")
        answer = b""
        while not answer.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            answer += chunk
        reply = json.loads(answer)
        checks.check(
            reply.get("id") == -1 - i
            and bool(np.isclose(reply["scores"][0], expected[i % len(rows)], rtol=RTOL, atol=ATOL)),
            "warm-up answer mismatched",
        )


def run_serve_open(
    seed: int, seconds: float, size: str, tracer: Optional[Tracer], fault: str = "none"
):
    config = SIZES[size]
    model_seed, pool_seed, schedule_seed = seeds(seed, 3)
    checks = Checks()
    run_dir = OUT_DIR / f"serve-seed{seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    # Inputs, all before the timed window: the row pool and every request
    # line of every window, pre-encoded.
    pool = (np.random.default_rng(pool_seed).random((config.row_pool, config.n_features)) < 0.5)
    pool = pool.astype(float)
    rows = pool.astype(int).tolist()
    schedule_rng = np.random.default_rng(schedule_seed)
    window_s = seconds / (config.rounds * len(config.rates))
    phases, first_id = [], 0
    for _ in range(config.rounds):
        for name, rate in config.rates:
            phases.append(Phase(name, rate, window_s, first_id, rows, schedule_rng))
            first_id += len(phases[-1].ids)

    stderr_texts: List[str] = []
    windows: Dict[str, Dict[str, list]] = {name: {} for name, _ in config.rates}
    logs = iter(range(SETUPS))

    def start_server():
        model = BernoulliRBM(config.n_features, config.n_hidden, rng=model_seed)
        artifact = serve.save_model(model, run_dir / "model")
        trace_out = run_dir / "server-trace.json.gz" if tracer is not None else None
        server = Server(artifact, run_dir / f"server-{next(logs)}.log", trace_out, fault)
        try:
            expected = serve.load_model(artifact).scorer()(pool)
            _warm(server, pool, expected, config.warm_requests, checks)
        except BaseException:
            stderr_texts.append(server.stop())
            raise
        return server, expected

    def stop_server(built) -> None:
        stderr_texts.append(built[0].stop())

    calibration = [0.0, 0]  # seconds, kernel calls
    reference_ms = REFERENCE_MS[calibration_kernel]
    with traced(tracer, install_client_spans):
        (server, expected), setup_s = repeat_setup(start_server, SETUPS, stop_server)
        try:
            for phase in phases:
                cpu_before = server.cpu_s()
                drive(server, phase, config.grace_s)
                cpu_used = server.cpu_s() - cpu_before
                # Host speed after each window (see common.calibration_kernel).
                time.sleep(SETTLE_S)
                reps = max(1, round(CALIBRATION_SHARE * window_s * 1e3 / reference_ms))
                calibration[0] += calibrate(reps)
                calibration[1] += reps
                verify(phase, expected, checks)
                answered = np.isfinite(phase.latency_s)
                latencies_ms = phase.latency_s[answered] * 1e3
                stats = windows[phase.name]
                stats.setdefault("latency_ms", []).append(latencies_ms)
                stats.setdefault("p50", []).append(percentile(latencies_ms, 50))
                stats.setdefault("p90", []).append(percentile(latencies_ms, 90))
                stats.setdefault("cpu_s", []).append(cpu_used)
                stats.setdefault("answered", []).append(int(answered.sum()))
            server_rss = server.peak_rss_mb()
        finally:
            stop_server((server, expected))
            for suffix in (".npz", ".json"):  # the served model; logs stay
                (run_dir / "model").with_suffix(suffix).unlink(missing_ok=True)

    for text in stderr_texts:
        checks.check("Traceback" not in text, "server wrote a traceback to stderr")
    # A latency percentile is the median of the per-window values; CPU per
    # request is over all windows of the rate.  Leg a is the low rate, leg
    # b the high one, each at the reference host speed (the run's mean
    # calibration); the peak RSS that counts is the server's.
    calibration_ms = 1e3 * calibration[0] / calibration[1]
    metrics: Dict[str, tuple] = {
        "setup_s": (setup_s, "s"),
        "calibration_ms": (calibration_ms, "ms"),
        "peak_rss_mb": (server_rss, "MiB"),
        "client_peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    layer: Dict[str, tuple] = {}
    for leg, (name, stats) in zip("ab", windows.items()):
        metrics[f"{leg}.ms_per_op"] = (
            median(stats["p50"]) * reference_ms / calibration_ms,
            "ms",
        )
        metrics[f"{leg}.raw_ms_per_op"] = (median(stats["p50"]), "ms")
        metrics[f"serve.{name}.p90_ms"] = (median(stats["p90"]), "ms")
        metrics[f"serve.{name}.cpu_ms_per_req"] = (
            sum(stats["cpu_s"]) * 1e3 / max(sum(stats["answered"]), 1),
            "ms",
        )
        layer[f"serve.{name}.p99_ms"] = (percentile(np.concatenate(stats["latency_ms"]), 99), "ms")
    layer["serve.generator_late_p99_ms"] = (
        percentile(np.concatenate([p.late_s for p in phases]) * 1e3, 99),
        "ms",
    )
    if tracer is not None:
        layer.update(_server_layers(run_dir / "server-trace.json.gz"))
    meta = host_meta("serve-open", WHY, ComputeSpec())
    meta.update(
        error_frac=checks.failed / max(checks.attempted, 1),
        rates=dict(config.rates),
        connections=2,
        windows_per_rate=config.rounds,
    )
    samples = {
        name: {
            "leg": leg,
            "window_p50_ms": stats["p50"],
            "window_p90_ms": stats["p90"],
            "window_cpu_s": stats["cpu_s"],
            "requests": sum(stats["answered"]),
            "unanswered": int(
                sum(int(np.sum(~np.isfinite(p.latency_s))) for p in phases if p.name == name)
            ),
        }
        for leg, (name, stats) in zip("ab", windows.items())
    }
    return metrics, layer, checks, {"samples": samples}, meta


def _server_layers(path: Path) -> Dict[str, tuple]:
    """Per-call serving-layer times from the launcher's span file."""
    trace = spans.load(path)

    def mean_ms(name: str) -> float:
        durations = [end - start for span, start, end, _ in trace["spans"] if span == name]
        return float(np.mean(durations)) / 1e6 if durations else float("nan")

    submit, score = mean_ms("serve.submit"), mean_ms("serve.score")
    return {
        "serve.load_model_ms": (mean_ms("serve.load_model"), "ms"),
        "serve.parse_ms": (mean_ms("serve.parse"), "ms"),
        "serve.serialize_ms": (mean_ms("serve.serialize"), "ms"),
        "serve.submit_ms": (submit, "ms"),
        "serve.queue_wait_ms": (submit - score, "ms"),
        "serve.score_ms_per_batch": (score, "ms"),
        "serve.rows_per_batch": (
            trace["work"].get("serve.score", 0.0) / max(trace["calls"].get("serve.score", 0), 1),
            "rows",
        ),
    }
