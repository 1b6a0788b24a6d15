"""Protocol invariant checking for the directory-based memory systems.

:class:`InvariantChecker` is an engine observer (see
:mod:`repro.sim.observer`) that audits the directory/cache state machine
after every memory-system operation, logging violations instead of
raising so a sweep can surface every failure.  Like the attribution
collector it holds the observed memory system and reads its protocol
state inside ``on_access``, which the engine calls right after the
operation returns.  The rules:

* **single-owned** — at most one cache holds a block OWNED with no
  invalidation in flight, and the directory's ``owner`` field points at
  exactly that cache;
* **presence** — the directory presence bits are a superset of the
  caches actually holding a valid copy (lines with a pending
  timestamped invalidation are excused: the protocol has already
  removed their presence bit and the lazy drop is in flight);
* **fanout-monotone** — ``fanout_done[p]`` never moves backwards except
  for its reset to zero at a release, and is never negative;
* **release-drained** — after a release completes, the processor's
  store buffer and merge buffer are empty and its fan-out is reset;
* **stall-decomposition** — every :class:`AccessResult` has
  non-negative stall components whose sum is bounded by the elapsed
  latency, and never completes before it was issued.

Checks are scoped to what the observed system exposes (the z-machine has
no caches or buffers, so only the ``AccessResult`` checks apply to it).
Flag sets and waits never reach the memory system and are not audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...mem.cache import OWNED
from ...sim.observer import Observer, subscribe
from ...sim.stats import AccessResult, SyncPoint

#: Float-comparison slack for cycle arithmetic.
EPS = 1e-6


@dataclass(frozen=True)
class Violation:
    """One invariant failure, with enough context to reproduce it."""

    rule: str
    time: float
    detail: str
    proc: int | None = None
    block: int | None = None

    def describe(self) -> str:
        where = []
        if self.proc is not None:
            where.append(f"P{self.proc}")
        if self.block is not None:
            where.append(f"block {self.block}")
        ctx = f" [{', '.join(where)}]" if where else ""
        return f"{self.rule}@t={self.time:.0f}{ctx}: {self.detail}"


class InvariantChecker(Observer):
    """Engine observer auditing invariants after every memory-system call.

    ``full_check_interval`` controls how often (in operations) the full
    directory is scanned in addition to the per-operation check of the
    touched block; :meth:`final_check` runs one last full scan, treating
    all in-flight invalidations as delivered.
    """

    def __init__(self, memsys, max_violations: int = 200, full_check_interval: int = 256):
        if max_violations < 1:
            raise ValueError("max_violations must be >= 1")
        #: The observed memory system, read for its protocol state.
        self.memsys = memsys
        self.max_violations = max_violations
        self.full_check_interval = full_check_interval
        self.violations: list[Violation] = []
        self.dropped = 0
        self.checks_run = 0
        self._ops = 0
        self._seen: set[tuple[str, int | None, int | None]] = set()
        self._prev_fanout = list(getattr(memsys, "fanout_done", ()))

    # -- construction ---------------------------------------------------
    @classmethod
    def attach(cls, machine, **kwargs) -> InvariantChecker:
        """Subscribe a checker to a Machine's engine."""
        return subscribe(machine.engine, cls(machine.engine.memsys, **kwargs))

    # -- violation log --------------------------------------------------
    def _report(
        self,
        rule: str,
        time: float,
        detail: str,
        proc: int | None = None,
        block: int | None = None,
    ) -> None:
        key = (rule, proc, block)
        if key in self._seen:
            self.dropped += 1
            return
        self._seen.add(key)
        if len(self.violations) >= self.max_violations:
            self.dropped += 1
            return
        self.violations.append(Violation(rule, time, detail, proc=proc, block=block))

    @property
    def clean(self) -> bool:
        return not self.violations and not self.dropped

    def describe(self, limit: int = 20) -> str:
        if self.clean:
            return f"no invariant violations ({self.checks_run} checks)"
        total = len(self.violations) + self.dropped
        lines = [f"{total} invariant violation(s) over {self.checks_run} checks:"]
        lines += [f"  {v.describe()}" for v in self.violations[:limit]]
        if total > limit:
            lines.append(f"  ... {total - limit} more")
        return "\n".join(lines)

    # -- engine-observer callback ------------------------------------------
    def on_access(self, proc: int, kind: str, target, issue: float, res, busy: float) -> None:
        if kind == "flag_set" or kind == "flag_wait":
            return
        if kind == "read_nb":
            kind = "read"
        self._ops += 1
        self.checks_run += 1
        self._check_access_result(kind, proc, issue, res)
        now = res.time
        self._check_fanout(kind, proc, now)
        memsys = self.memsys
        if target.__class__ is not SyncPoint and getattr(memsys, "caches", None) is not None:
            self._check_block(memsys.block_of(target), now)
        if self.full_check_interval and self._ops % self.full_check_interval == 0:
            self.full_check(now)
        if kind == "release":
            self._check_release_drained(proc, now)

    # -- checks ----------------------------------------------------------
    def _check_access_result(self, kind: str, proc: int, now: float, res: AccessResult) -> None:
        elapsed = res.time - now
        if elapsed < -EPS:
            self._report(
                "completion-before-issue",
                now,
                f"{kind} completed at {res.time} before issue {now}",
                proc=proc,
            )
            return
        stalls = {
            "read_stall": res.read_stall,
            "write_stall": res.write_stall,
            "buffer_flush": res.buffer_flush,
        }
        for name, value in stalls.items():
            if value < -EPS:
                self._report(
                    "negative-stall", now, f"{kind} returned {name}={value}", proc=proc
                )
        total = sum(stalls.values())
        if total > elapsed + EPS:
            self._report(
                "stall-exceeds-latency",
                now,
                f"{kind} stalls sum to {total:.3f} but elapsed is {elapsed:.3f}",
                proc=proc,
            )

    def _check_fanout(self, kind: str, proc: int, now: float) -> None:
        fanout = getattr(self.memsys, "fanout_done", None)
        if fanout is None:
            return
        prev = self._prev_fanout
        if len(prev) != len(fanout):
            prev = self._prev_fanout = [0.0] * len(fanout)
        current = fanout[proc]
        if current < -EPS:
            self._report(
                "fanout-negative", now, f"fanout_done[{proc}] = {current}", proc=proc
            )
        if kind != "release" and current < prev[proc] - EPS:
            self._report(
                "fanout-monotonicity",
                now,
                f"fanout_done[{proc}] moved back from {prev[proc]} to {current} "
                f"outside a release",
                proc=proc,
            )
        prev[proc] = current

    def _check_release_drained(self, proc: int, now: float) -> None:
        memsys = self.memsys
        store = getattr(memsys, "store_buffers", None)
        if store is not None and store[proc].occupancy(now) != 0:
            self._report(
                "release-store-buffer",
                now,
                f"store buffer holds {store[proc].occupancy(now)} entrie(s) after release",
                proc=proc,
            )
        merge = getattr(memsys, "merge_buffers", None)
        if merge is not None and len(merge[proc]) != 0:
            self._report(
                "release-merge-buffer",
                now,
                f"merge buffer holds {len(merge[proc])} open line(s) after release",
                proc=proc,
            )
        fanout = getattr(memsys, "fanout_done", None)
        if fanout is not None and fanout[proc] != 0.0:
            self._report(
                "release-fanout",
                now,
                f"fanout_done[{proc}] = {fanout[proc]} not reset by release",
                proc=proc,
            )

    def _check_block(self, block: int, now: float) -> None:
        """Coherence invariants for one block at time ``now``.

        A cached line is *current* if it has no pending invalidation due
        at or before ``now``; a line whose invalidation is still in
        flight is excused from both invariants (its presence bit is
        already gone and a new owner may already exist).
        """
        memsys = self.memsys
        entry = memsys.directory.peek(block)
        caches = memsys.caches
        owners = []
        for p, cache in enumerate(caches):
            line = cache.peek(block)
            if line is None or line.inval_at is not None:
                continue
            if entry is None or not entry.is_sharer(p):
                self._report(
                    "presence-bits",
                    now,
                    f"P{p} holds a current copy but the presence bit is clear",
                    proc=p,
                    block=block,
                )
            if line.state == OWNED:
                owners.append(p)
        if len(owners) > 1:
            self._report(
                "single-owned",
                now,
                f"processors {owners} all hold block OWNED with no invalidation in flight",
                block=block,
            )
        dir_owner = entry.owner if entry is not None else None
        if dir_owner is not None and dir_owner not in owners:
            line = caches[dir_owner].peek(block)
            state = "absent" if line is None else f"state={line.state}, inval_at={line.inval_at}"
            self._report(
                "directory-owner",
                now,
                f"directory says P{dir_owner} owns the block but its line is {state}",
                proc=dir_owner,
                block=block,
            )

    def full_check(self, now: float) -> None:
        """Scan every directory block (periodic + final audit)."""
        if getattr(self.memsys, "caches", None) is None:
            return
        self.checks_run += 1
        for block in self.memsys.directory.blocks():
            self._check_block(block, now)

    def final_check(self, now: float = math.inf) -> None:
        """End-of-run audit: all in-flight invalidations count as done."""
        self.full_check(now)
        fanout = getattr(self.memsys, "fanout_done", None)
        if fanout is not None:
            for p, value in enumerate(fanout):
                if value < -EPS:
                    self._report(
                        "fanout-negative", now, f"fanout_done[{p}] = {value}", proc=p
                    )


__all__ = ["EPS", "InvariantChecker", "Violation"]
