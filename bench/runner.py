"""Run one CLI op in a forked child of a driver that has only imported the
package, so every lru_cache starts empty, as in a fresh ``quiver-fmo`` process.

The child times ``cli.main(argv)`` (JSON emission included) and reports back
through a pipe; the parent reads the child's peak RSS from ``wait4``.  Before
the timer starts the child takes a reference to every tracked object, which
copies the driver's shared heap pages: a fresh process owns those pages
already, and copy-on-write faults inside the timer would add a third of the
time of the smallest ops.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import select
import signal
import sys
import time
import traceback

from quiver_fmo import cli, defect_embed, gklo, monopole_hilbert

# Every lru cache of the package, bound before any tracer wraps the module
# attributes.  Their statistics show cache state leaking between ops.
CACHES = {
    "gklo.fmo": gklo._fmo_cached,
    "gklo.involution_fmo_report": gklo.involution_fmo_report,
    "gklo.involution_on_generators": gklo.involution_on_generators,
    "gklo.dressing_basis": gklo.dressing_basis,
    "defect_embed.restriction_route": defect_embed._plus_restriction_route,
    "monopole_hilbert.decreasing_tuples": monopole_hilbert._decreasing_tuples,
}

OP_TIMEOUT_S = 60.0


def _child(argv, tracer, profile):
    del gc.get_objects()[:]  # see the module docstring
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    if profile is not None:
        sys.setprofile(profile.hook)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an escaping exception fails the op, as in a real process
        code = 1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    sys.setprofile(None)
    sys.stdout, sys.stderr = real
    text = out.getvalue()
    data = text.encode()
    all_hold = classification = None
    if argv[0] == "verify" and code in (0, 1):
        all_hold = json.loads(text).get("all_hold")
    if argv[0] == "hilbert" and code in (0, 2):
        classification = json.loads(text).get("classification")
    result = {
        "exit": code,
        "seconds": seconds,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "stderr": err.getvalue()[:2000],
        "all_hold": all_hold,
        "classification": classification,
        "caches": {name: [c.cache_info().hits, c.cache_info().misses]
                   for name, c in CACHES.items()},
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    if profile is not None:
        result["profile"] = profile.snapshot()
    return result


def _read_all(fd, deadline):
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            return None
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def run_op(op: str, tracer=None, profile=None, timeout=OP_TIMEOUT_S) -> dict:
    """Run one op (a command line without the program name) in a fresh fork.

    Returns the child's report plus ``rss_mb``; a timeout or a child that
    dies without reporting gives ``exit`` None and the reason in ``stderr``."""
    argv = op.split()
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            payload = json.dumps(_child(argv, tracer, profile)).encode()
            view = memoryview(payload)
            while view:
                view = view[os.write(w, view):]
            status = 0
        except BaseException:
            traceback.print_exc(file=sys.__stderr__)
            raise
        finally:
            os._exit(status)
    os.close(w)
    try:
        payload = _read_all(r, time.monotonic() + timeout)
    finally:
        os.close(r)
    if payload is None:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024.0
    if payload is None:
        return {"exit": None, "seconds": timeout, "stderr": "timeout after %gs" % timeout,
                "rss_mb": rss_mb}
    if not payload:
        return {"exit": None, "seconds": 0.0, "stderr": "child died, status %d" % status,
                "rss_mb": rss_mb}
    result = json.loads(payload)
    result["rss_mb"] = rss_mb
    return result
