"""Load generation: open-loop arrivals against any async submit callable.

:class:`LoadGenerator` replays a fixed image sequence at a configured
offered rate (requests/second) — the deterministic open-loop shape
benchmarkers prefer, because arrivals do not slow down when the server
does.  Each arrival becomes its own task, so slow responses pile up as
concurrency (and, through the server's bounded queue, as backpressure)
exactly like independent clients would.

Two arrival disciplines ship, both reproducible run to run:

* ``"even"`` (default) — arrivals evenly spaced at ``1 / rate``; no
  randomness at all.
* ``"poisson"`` — exponential inter-arrival gaps, the memoryless shape
  real traffic has.  The gaps come from an **explicitly seeded** RNG
  (``seed``), so two runs with the same seed offer the *identical* load
  trace — which is what makes a latency regression comparable across
  runs (``repro loadgen --arrival poisson --seed 7``).

Latency is timed from each request's *scheduled* arrival, not from
when its task got to run, so a stalled generator (a ``submit`` that
blocks the event loop, a busy host) shows up in the latencies it
causes; the report also carries the generator's own lateness — how far
behind schedule each request actually went out.

The ``submit`` callable is either ``InferenceServer.submit`` (in-process
measurement, no transport noise) or ``TcpClient.infer`` (end-to-end over
the wire); the generator only assumes ``await submit(image) -> result``.
On a multi-model server, ``deployment=`` routes every request of the run
to one named model, so per-deployment load mixes are built from several
generators running concurrently.

For chaos drills, pair the generator with ``TcpClient(retries=N,
chaos=...)``: every ``infer`` carries an idempotency key, so a request
that dies with its connection is re-sent after reconnect and answered
exactly once from the server's result ledger — the ``failed`` count in
the report then measures genuine capacity loss, not transport noise.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.metrics import _percentiles

__all__ = ["LoadGenerator", "LoadReport"]

_ARRIVALS = ("even", "poisson")


@dataclass(frozen=True)
class LoadReport:
    """Client-side view of one load run (server metrics live elsewhere)."""

    offered_rps: float
    achieved_rps: float
    num_requests: int
    completed: int
    failed: int
    wall_s: float
    client_latency_ms: dict[str, float]
    results: list  # per-request results in submission order (None = failed)
    errors: list   # exceptions, aligned with results
    deployment: str | None = None
    arrival: str = "even"
    seed: int = 0
    #: How far behind its scheduled arrival each request went out.
    lateness_mean_ms: float = 0.0
    lateness_p99_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "offered_rps": self.offered_rps,
            "achieved_rps": self.achieved_rps,
            "num_requests": self.num_requests,
            "completed": self.completed,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "client_latency_ms": dict(self.client_latency_ms),
            "deployment": self.deployment,
            "arrival": self.arrival,
            "seed": self.seed,
            "lateness_mean_ms": self.lateness_mean_ms,
            "lateness_p99_ms": self.lateness_p99_ms,
        }


class LoadGenerator:
    """Replays images at a fixed offered rate and gathers the results.

    Parameters
    ----------
    submit:
        Async callable ``await submit(image, **kwargs) -> result``.
    rate_rps:
        Mean offered load in requests per second.
    arrival:
        ``"even"`` (fixed spacing) or ``"poisson"`` (seeded exponential
        gaps around the same mean rate).
    seed:
        RNG seed for the ``poisson`` arrival trace — explicit so the
        offered-load schedule is bit-reproducible across runs.
    deployment:
        Optional deployment name forwarded to every ``submit`` call
        (multi-model servers and TCP clients accept it).
    latency_out:
        Optional path; when set, :meth:`run` appends one JSON line per
        request — submission index, latency, deployment, outcome and
        the request's ``trace_id`` (when the server returned one) — so
        a latency record can be joined against the server's flight
        recorder trace by id.
    """

    def __init__(self, submit, rate_rps: float, arrival: str = "even",
                 seed: int = 0, deployment: str | None = None,
                 latency_out: str | None = None) -> None:
        if rate_rps <= 0:
            raise ConfigurationError(
                f"offered rate must be > 0 rps, got {rate_rps}")
        if arrival not in _ARRIVALS:
            raise ConfigurationError(
                f"arrival must be one of {_ARRIVALS}, got {arrival!r}")
        self.submit = submit
        self.rate_rps = rate_rps
        self.arrival = arrival
        self.seed = int(seed)
        self.deployment = deployment
        self.latency_out = latency_out

    def arrival_offsets(self, count: int) -> np.ndarray:
        """The run's arrival schedule: seconds offset of each request.

        Pure function of ``(rate, arrival, seed, count)`` — two
        generators configured alike produce byte-identical schedules,
        which is the reproducibility contract ``repro loadgen --seed``
        exposes (and ``tests/test_multimodel.py`` pins).
        """
        interval = 1.0 / self.rate_rps
        if self.arrival == "even":
            return np.arange(count, dtype=np.float64) * interval
        gaps = np.random.default_rng(self.seed).exponential(
            scale=interval, size=count)
        offsets = np.cumsum(gaps)
        return offsets - offsets[0] if count else offsets

    async def _timed_submit(self, image, due: float, lateness: list):
        """Submit one request; its latency runs from ``due``, the
        scheduled arrival, and its lateness (send time minus ``due``)
        is appended to ``lateness`` whether or not it succeeds."""
        lateness.append((time.perf_counter() - due) * 1e3)
        if self.deployment is not None:
            result = await self.submit(image, deployment=self.deployment)
        else:
            result = await self.submit(image)
        return result, (time.perf_counter() - due) * 1e3

    @staticmethod
    def _trace_id_of(result) -> str | None:
        """The server-assigned trace id, whichever shape the result has
        (:class:`~repro.serve.server.InferenceResult` in-process, a
        reply dict over TCP)."""
        if isinstance(result, dict):
            return result.get("trace_id")
        return getattr(result, "trace_id", None)

    def _write_latency_records(self, results, errors, settled) -> None:
        """Append one JSON line per request to ``latency_out``."""
        with open(self.latency_out, "a", encoding="utf-8") as sink:
            for index, (result, error, outcome) in enumerate(
                    zip(results, errors, settled)):
                record = {
                    "index": index,
                    "deployment": self.deployment,
                    "ok": error is None,
                    "latency_ms": (round(outcome[1], 4)
                                   if error is None else None),
                    "trace_id": self._trace_id_of(result),
                }
                if error is not None:
                    record["error"] = type(error).__name__
                sink.write(json.dumps(record) + "\n")

    async def run(self, images) -> LoadReport:
        """Offer every image on the arrival schedule; returns the report.

        Requests that raise are recorded (``failed`` count plus the
        exception in ``errors``) without aborting the run — a load test
        should observe overload behaviour, not die of it.
        """
        images = list(images)
        offsets = self.arrival_offsets(len(images))
        started = time.perf_counter()
        tasks = []
        lateness: list[float] = []
        for image, offset in zip(images, offsets):
            due = started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(
                self._timed_submit(image, due, lateness)))
        settled = await asyncio.gather(*tasks, return_exceptions=True)
        wall = time.perf_counter() - started

        results, errors, latencies = [], [], []
        for outcome in settled:
            if isinstance(outcome, BaseException):
                results.append(None)
                errors.append(outcome)
            else:
                result, latency_ms = outcome
                results.append(result)
                errors.append(None)
                latencies.append(latency_ms)
        completed = len(latencies)
        if self.latency_out:
            self._write_latency_records(results, errors, settled)
        late = _percentiles(lateness)
        return LoadReport(
            offered_rps=self.rate_rps,
            achieved_rps=completed / wall if wall else 0.0,
            num_requests=len(results),
            completed=completed,
            failed=len(results) - completed,
            wall_s=wall,
            client_latency_ms=_percentiles(latencies),
            results=results,
            errors=errors,
            deployment=self.deployment,
            arrival=self.arrival,
            seed=self.seed,
            lateness_mean_ms=late["mean"],
            lateness_p99_ms=late["p99"],
        )
