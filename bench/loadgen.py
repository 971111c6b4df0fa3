"""Open-loop load for the serving gateway, timed from each request's due time.

Requests arrive on a seeded Poisson schedule whether or not earlier ones
have been answered, as independent users would send them.  Latency is
measured from when a request was *due*, not from when the generator got
around to sending it, so a stall that delays later submissions is charged
to those requests; how late the generator ran is reported on its own.

The generator uses two threads: the caller's thread submits requests and
issues hot swaps (non-blocking, so a swap never delays a submission), and
one collector thread waits for answers in submission order.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.serve import ServingGateway

#: Longest a request or a swap may stay unanswered before the run fails.
RESULT_TIMEOUT_S = 60.0
#: Head start between setting the schedule's origin and its first request.
LEAD_S = 0.05


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float,
                     num_users: int) -> Tuple[np.ndarray, np.ndarray]:
    """Due offsets (seconds from the start) and user ids for one open-loop run."""
    expected = int(rate * seconds * 1.2) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    due = due[due < seconds]
    users = rng.integers(0, num_users, size=due.size)
    return due, users


@dataclass
class LoadResult:
    """Per-request and per-swap timings of one run (absolute clock values)."""

    due: np.ndarray
    submitted: np.ndarray
    completed: np.ndarray
    answers: List[Any]
    #: One entry per swap: its target, and the clock when issued and when live.
    swaps: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.completed - self.due) * 1000.0

    @property
    def late_ms(self) -> np.ndarray:
        return (self.submitted - self.due) * 1000.0


def _collect(tickets: "queue.SimpleQueue", answers: List[Any], completed: np.ndarray) -> None:
    while True:
        item = tickets.get()
        if item is None:
            return
        index, ticket = item
        try:
            answers[index] = ticket.result(RESULT_TIMEOUT_S)
        except Exception as error:  # recorded as a failed request, never raised
            answers[index] = error
        completed[index] = time.perf_counter()


def drive(gateway, due: np.ndarray, users: np.ndarray, k: int,
          swaps: Sequence[Tuple[float, str]] = ()) -> LoadResult:
    """Submit ``users[i]`` at ``due[i]`` seconds and swap to ``path`` at each
    ``(offset, path)`` in ``swaps``; returns once every request is answered
    and every swap is live."""
    count = due.size
    answers: List[Any] = [None] * count
    submitted = np.zeros(count)
    completed = np.zeros(count)
    tickets: "queue.SimpleQueue" = queue.SimpleQueue()
    collector = threading.Thread(target=_collect, args=(tickets, answers, completed),
                                 name="bench-collector")
    collector.start()
    origin = time.perf_counter() + LEAD_S
    pending_swaps = sorted(swaps)
    issued: List[Dict[str, Any]] = []

    def poll_swaps(now: float) -> None:
        while pending_swaps and now >= origin + pending_swaps[0][0]:
            _, path = pending_swaps.pop(0)
            event = gateway.swap(path, block=False)
            issued.append({"target": path, "issued": time.perf_counter(), "live": None,
                           "event": event})
        for swap in issued:
            if swap["live"] is None and swap["event"].is_set():
                swap["live"] = now

    try:
        for index in range(count):
            target = origin + due[index]
            now = time.perf_counter()
            while now < target:
                time.sleep(target - now)
                now = time.perf_counter()
            poll_swaps(now)
            submitted[index] = time.perf_counter()
            tickets.put((index, gateway.submit(int(users[index]), k=k)))
        deadline = time.perf_counter() + RESULT_TIMEOUT_S
        while pending_swaps or any(swap["live"] is None for swap in issued):
            now = time.perf_counter()
            if now > deadline:
                raise TimeoutError("a hot swap did not go live")
            poll_swaps(now)
            time.sleep(0.001)
    finally:
        tickets.put(None)
        collector.join(RESULT_TIMEOUT_S + 5.0)
    if collector.is_alive():
        raise TimeoutError("the collector did not finish")
    for swap in issued:
        del swap["event"]
    return LoadResult(due=origin + due, submitted=submitted, completed=completed,
                      answers=answers, swaps=issued)


def capacity(service, users: np.ndarray, k: int, max_batch: int) -> Tuple[float, List[Any]]:
    """Requests per second the gateway's dispatch path answers at saturation.

    The requests are queued first and then answered in full ticks of
    ``max_batch`` by one thread (the gateway's own deterministic drive
    mode), so the number is the dispatcher's capacity, free of the
    thread hand-offs that a live burst would add.
    """
    gateway = ServingGateway(service, max_batch=max_batch, max_wait_ms=0.0)
    tickets = [gateway.submit(int(user), k=k) for user in users]
    start = time.perf_counter()
    while gateway.run_tick():
        pass
    elapsed = time.perf_counter() - start
    return users.size / elapsed, [ticket.result(0) for ticket in tickets]
