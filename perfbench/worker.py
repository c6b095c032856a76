"""One benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/worker.py REQUEST_JSON RESULT_PATH

REQUEST_JSON is {"commands": [[argv...], ...], "trace": bool,
"probe": bool}.  The worker imports torsionlab (timed as set-up), then
calls ``torsionlab.cli.main(argv)`` for each command in order, capturing
its stdout.  It writes one JSON document to RESULT_PATH with the set-up
time, the wall time of the commands, and each command's exit code,
stdout sha256 and the traceback of an exception, if any.  With
``"trace": true`` the layer wrappers of ``tracer.py`` are installed
after set-up and the aggregated layer metrics are added to the document.
With ``"probe": true`` the machine's speed is measured by ``probe.py``
right after set-up and, by its ticker, during the commands; the document
then holds the factors that scale set-up and command times to the
nominal speed, and the seconds the probe itself took, which are not
counted in ``wall_s``.

torsionlab must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).  Nothing is written to the real stdout.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback

SETUP_SLICES = 20  # probe slices timed right after the import


def main(request_json, result_path):
    request = json.loads(request_json)
    t0 = time.perf_counter()
    import torsionlab
    backend = torsionlab.backend()
    setup_s = time.perf_counter() - t0
    import probe  # after the import: it loads stdlib modules torsionlab also needs
    doc = {"setup_s": setup_s, "backend": backend, "probe_s": 0.0, "probe_wrong": 0}
    if request["probe"]:
        slices = [probe.run_slice() for _ in range(SETUP_SLICES)]
        durations = [elapsed for elapsed, _ in slices]
        doc["setup_scale"] = probe.scale(durations)
        doc["probe_s"] += sum(durations)
        doc["probe_wrong"] += sum(total != probe.EXPECTED for _, total in slices)

    tracer = None
    if request["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    ticker = probe.Ticker() if request["probe"] else None
    t_start = time.perf_counter()
    from torsionlab import cli
    commands = []
    with ticker or contextlib.nullcontext():
        for argv in request["commands"]:
            buf = io.StringIO()
            error = None
            code = None
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception:  # a crash is a benchmark failure, not a worker crash
                error = traceback.format_exc()
            out = buf.getvalue().encode("utf-8")
            commands.append({"argv": argv, "exit": code, "error": error,
                             "sha256": hashlib.sha256(out).hexdigest()})
    wall_s = time.perf_counter() - t_start
    if ticker is not None:
        probe_s = sum(ticker.durations)
        wall_s -= probe_s
        doc["probe_s"] += probe_s
        doc["probe_wrong"] += ticker.wrong
        # commands shorter than one tick fall back on the set-up slices
        doc["scale"] = probe.scale(ticker.durations or durations)

    doc.update(wall_s=wall_s, commands=commands)
    if tracer is not None:
        doc["layers"] = tracer.metrics()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
