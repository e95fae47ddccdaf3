"""Closed loop: runs one workload's operations in this process.

One client, one operation at a time: each operation is an in-process
``nfaindex.cli.main(argv)`` call on files, and the next starts when it
returns.  Blocks of operations are generated and checked outside the timed
calls, and only whole blocks run, so every run has the same mix.  A
calibration unit (calib.py) runs between operations to track the
machine's speed.

Importing this module imports nfaindex; run.py does so only after it has
timed the cold imports.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import time

import nfaindex.cli

import calib
import workloads


class Overrun(Exception):
    """The run went past its deadline."""


def execute(op: workloads.Op) -> tuple[float, object, bytes]:
    """Run one operation: (seconds, exit code or exception name, output bytes)."""
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        try:
            rc = nfaindex.cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            rc = type(exc).__name__
        dt = time.perf_counter() - t0
    try:
        with open(op.out, "rb") as fh:
            data = fh.read()
    except OSError:
        data = b""
    return dt, rc, data


class Loop:
    """Runs operations of one workload and keeps per-operation records.

    Block i of the loop is pool block ``order[i % len(order)]``.
    """

    def __init__(self, workload: str, order: list[int], digests: dict, root: str,
                 deadline: float):
        self.workload, self.order, self.root = workload, order, root
        self.digests, self.deadline = digests, deadline
        self.labels: list[str] = []
        self.times: list[float] = []
        self.cals: list[float] = []  # op i ran between cals[i] and cals[i + 1]
        self.failed = 0
        self.problems: dict[str, list] = {}  # label -> [count, first reason]
        self.defects: dict[str, list] = {}
        self.out_bytes = 0
        self.blocks = 0

    def run_ops(self, ops: list[workloads.Op], on_op=None) -> None:
        for op in ops:
            if time.monotonic() > self.deadline:
                raise Overrun
            if on_op is not None:
                on_op(len(self.times))
            if not self.cals:
                self.cals.append(calib.calibrate())
            dt, rc, data = execute(op)
            self.labels.append(op.label)
            self.times.append(dt)
            self.cals.append(calib.calibrate())
            self.out_bytes += len(data)
            why = workloads.judge(op, rc, data)
            if why is not None:
                self.failed += 1
                bucket = self.defects if op.known_defect else self.problems
                bucket.setdefault(op.label, [0, why])[0] += 1

    def block(self, index: int, on_op=None) -> None:
        pool = self.order[index % len(self.order)]
        root = os.path.join(self.root, f"b{index}")
        self.run_ops(workloads.build(self.workload, pool, root,
                                     self.digests[self.workload][pool]), on_op)
        shutil.rmtree(root, ignore_errors=True)
        self.blocks += 1

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.block(self.blocks)
            if time.perf_counter() >= deadline:
                break
