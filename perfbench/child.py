"""Run one call in a forked child with a per-call timeout.

The child arms an interval timer for the call's timeout and measures the
call itself, with a run of the calibration work (``calib.py``) just
before and just after it; the reply travels back as JSON over a pipe. The parent keeps
a hard deadline of timeout + grace for children that neither reply nor
exit (stuck in native code, or killed by the system), reaps every child
with ``wait4`` and reads its peak RSS from the reaped rusage. A child that
exits without a reply is reported as ``died``, never raised.
"""

import json
import os
import select
import signal
import time
import traceback

from calib import calibrate


class CallTimeout(BaseException):
    """Raised in the child when its timer fires. A BaseException, so that
    no ``except Exception`` or ``except OSError`` in the program swallows
    it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


class Timer:
    """Arms the child's interval timer for ``seconds`` and measures the
    time spent inside the ``with`` block, also when the timer fires."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.elapsed = None

    def __enter__(self):
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def _child_main(fn, arg, timeout, wfd):
    timer = Timer(timeout)
    before = calibrate()
    try:
        reply = fn(arg, timer)
    except CallTimeout:
        reply = {"status": "timeout", "seconds": timer.elapsed}
    except BaseException:  # anything a call body did not turn into a reply is a crash
        reply = {"status": "crash", "error": traceback.format_exc(limit=3).strip()}
    reply["cal_s"] = (before + calibrate()) / 2
    data = json.dumps(reply).encode()
    with os.fdopen(wfd, "wb") as fh:
        fh.write(data)


def run_in_child(fn, arg, timeout, grace=30.0, cpu=None):
    """Run ``fn(arg, timer)`` in a forked child and return its reply dict.

    fn times its call inside ``with timer:``, where ``timer`` is a Timer
    for ``timeout`` seconds, and returns a JSON-serialisable dict with at
    least ``status``. With ``cpu`` set, the child runs on that CPU only.
    The reply gains ``rss_kb``, the child's peak resident set, and ``cal_s``,
    the mean time of the calibration runs around the call. A child with no
    reply gets ``status`` ``died`` (or ``killed`` when the parent had to
    stop it at the hard deadline).
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            _child_main(fn, arg, timeout, wfd)
        finally:
            os._exit(0)
    os.close(wfd)
    chunks = []
    killed = False
    deadline = time.monotonic() + timeout + grace
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                killed = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if ready:
                chunk = os.read(rfd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    if killed:
        reply = {"status": "killed", "error": "no reply within %.1f s" % (timeout + grace)}
    elif not chunks:
        reply = {"status": "died",
                 "error": "child exited without a reply (wait status %d)" % status}
    else:
        try:
            reply = json.loads(b"".join(chunks))
        except ValueError:
            reply = {"status": "died", "error": "child exited in the middle of its reply"}
    reply["rss_kb"] = usage.ru_maxrss
    return reply
