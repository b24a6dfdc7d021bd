"""Baton-passing user-level threads.

Each :class:`UserLevelThread` runs its user code on a real OS stack: a
recycled worker of the process-wide :class:`~repro.threads.pool.UltPool`.
The stack spends almost all of its life blocked on a private baton.
Control is handed over explicitly, in one of two ways:

* :meth:`UserLevelThread.switch_in` wakes the ULT and blocks the caller
  until the ULT either *yields* (blocks on communication) or finishes.
* :meth:`UserLevelThread.wake` (the job scheduler's direct dispatch)
  wakes the ULT without waiting.  When it yields or finishes, the ULT
  calls its ``baton`` on its own stack, which picks and wakes the next
  ULT itself — one OS handoff per quantum instead of two.

At any instant exactly one thread holds the baton, so no user-visible
locking is needed and execution is fully deterministic regardless of
which worker hosts a ULT.

Simulated time lives in ``ult.clock`` (a :class:`~repro.perf.clock.SimClock`);
the real threads exist only to give user code an ordinary blocking call
stack, like AMPI gives legacy MPI code.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.errors import ReproError
from repro.perf.clock import SimClock
from repro.threads.pool import _PoolWorker, record_orphan, shared_pool


class UltState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    ERROR = "error"


class UltKilled(BaseException):
    """Raised inside a ULT to unwind its stack at forced shutdown.

    Derives from BaseException so user ``except Exception`` blocks cannot
    swallow it.
    """


class UserLevelThread:
    """One cooperative thread of execution with its own simulated clock."""

    _id_counter = 0

    def __init__(
        self,
        name: str,
        target: Callable[..., Any],
        args: tuple = (),
        stack_bytes: int = 1 << 20,
    ):
        UserLevelThread._id_counter += 1
        self.tid = UserLevelThread._id_counter
        self.name = name
        self.target = target
        self.args = args
        self.stack_bytes = stack_bytes  #: simulated ULT stack reservation
        self.clock = SimClock()
        self.state = UltState.NEW
        self.block_reason: str = ""
        self.result: Any = None
        self.exception: BaseException | None = None

        self._kill = False
        self._orphan_recorded = False
        self._runner = None  # the pool worker, bound at first switch-in
        #: set by :meth:`wake`: called with this ULT when it yields or
        #: finishes, returns True iff this ULT runs next
        self.baton: Callable[["UserLevelThread"], bool] | None = None

    # -- lifecycle (scheduler side) ---------------------------------------------

    def start(self) -> None:
        """Make the ULT runnable, paused before user code runs.

        No OS resources are taken until the first switch-in, so ranks
        killed before their first quantum never consume a worker.
        """
        if self.state is not UltState.NEW:
            raise ReproError(f"ULT {self.name} already started")
        self.state = UltState.READY

    def switch_in(self) -> UltState:
        """Hand the baton to this ULT; returns when it yields or finishes."""
        self.baton = None
        self._bind().resume()
        return self.state

    def wake(self, baton: Callable[["UserLevelThread"], bool]) -> None:
        """Hand the baton to this ULT without waiting for it back.

        The caller then waits on a lock of its own until some thread
        hands the baton back; when this ULT yields or finishes it calls
        ``baton(self)`` on its own stack to pass the baton on.
        """
        self.baton = baton
        self._bind().wake()

    def _bind(self) -> "_PoolWorker":
        if self.state not in (UltState.READY, UltState.BLOCKED):
            raise ReproError(
                f"cannot switch to ULT {self.name} in state {self.state.value}"
            )
        runner = self._runner
        if runner is None:
            runner = self._runner = shared_pool().bind(self)
        self.state = UltState.RUNNING
        return runner

    def kill(self) -> None:
        """Force the ULT to unwind (used at abnormal shutdown).

        This recycles the pool worker rather than joining an OS thread;
        a worker wedged by user code that swallows :class:`UltKilled` is
        surfaced by :meth:`join_thread`.
        """
        if self.state in (UltState.DONE, UltState.ERROR, UltState.NEW):
            return
        self._kill = True
        self.baton = None  # unwind through park(), back to this caller
        if self._runner is None:
            # Started but never ran: no user stack exists to unwind.
            self.state = UltState.ERROR
            self.exception = UltKilled(self.name)
            return
        # resume() returns only once the ULT has unwound (or yielded
        # again, if user code swallowed UltKilled).  Leak detection
        # happens in join_thread() so a wedged stack is reported once.
        self._runner.resume()

    def join_thread(self) -> bool:
        """True if the ULT's worker leaked; each leak is reported once.

        A finished ULT's worker is already back in the pool.  One still
        bound after :meth:`kill` means user code swallowed
        :class:`UltKilled` and wedged the worker.
        """
        runner = self._runner
        if (runner is None or self.finished or runner._ult is not self
                or self._orphan_recorded):
            return False
        self._orphan_recorded = True
        record_orphan(runner.thread.name, "pool worker wedged")
        return True

    # -- ULT side -----------------------------------------------------------------

    def yield_(self, reason: str = "yield") -> None:
        """Suspend; returns when this ULT is switched back in."""
        self.block_reason = reason
        self.state = UltState.BLOCKED
        baton = self.baton
        if baton is None:
            self._runner.park()
        elif baton(self):
            self.state = UltState.RUNNING  # the next quantum is our own
        else:
            self._runner.wait()
        if self._kill:
            raise UltKilled(self.name)
        self.block_reason = ""

    def _main(self) -> None:
        """Body executed on the pool worker's OS stack.

        The first wakeup has already been consumed by the worker before
        this runs.  Never raises: all outcomes are captured in
        ``state``/``result``/``exception`` for the scheduler.
        """
        if self._kill:
            self.state = UltState.ERROR
            self.exception = UltKilled(self.name)
            return
        try:
            self.result = self.target(*self.args)
            self.state = UltState.DONE
        except UltKilled as e:
            self.state = UltState.ERROR
            self.exception = e
        except BaseException as e:  # noqa: BLE001 - reported to the scheduler
            self.state = UltState.ERROR
            self.exception = e

    # -- introspection --------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in (UltState.DONE, UltState.ERROR)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ULT({self.name}, {self.state.value}, t={self.clock.now}ns"
            + (f", blocked on {self.block_reason}" if self.block_reason else "")
            + ")"
        )
