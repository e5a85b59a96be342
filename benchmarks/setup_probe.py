"""Fresh-interpreter set-up probe: import pacsqc and run one request.

    python3 setup_probe.py [--scipy-import] [--calibrate] -- <pacsqc argv...>

Exits with the request's exit status.  The caller times the whole process
(set-up time).  With --scipy-import, the time spent in outermost imports of
scipy modules is measured through a wrapped `__import__`; that wrapper is
why this mode is kept out of set-up timing.  With --calibrate, the host's
speed is sampled while pacsqc is imported and the request runs
(calibration.py); the caller takes the passes' time back out.  Either
reports one JSON line on stdout.
"""

import builtins
import contextlib
import io
import json
import sys
import time


def _scipy_import_timer():
    real_import = builtins.__import__
    state = {"depth": 0, "seconds": 0.0}

    def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
        if level or state["depth"] or name.partition(".")[0] != "scipy":
            return real_import(name, globals, locals, fromlist, level)
        state["depth"] += 1
        start = time.perf_counter()
        try:
            return real_import(name, globals, locals, fromlist, level)
        finally:
            state["seconds"] += time.perf_counter() - start
            state["depth"] -= 1

    builtins.__import__ = timed_import
    return state


def main(argv):
    scipy_timer = speed = None
    if argv[:1] == ["--scipy-import"]:
        scipy_timer = _scipy_import_timer()
        argv = argv[1:]
    if argv[:1] == ["--calibrate"]:
        import calibration  # imports numpy, which pacsqc imports anyway

        speed = calibration.SpeedProbe(bracket_passes=0)
        argv = argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    with speed or contextlib.nullcontext():
        from pacsqc import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    report = {}
    if scipy_timer is not None:
        report["scipy_import_s"] = scipy_timer["seconds"]
    if speed is not None:
        report.update(passes=speed.passes, inside_s=speed.inside_s)
    if report:
        print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
