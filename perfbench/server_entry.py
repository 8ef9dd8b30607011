"""Traced server entry: ``repro`` under in-memory span recorders.

Usage: ``python perfbench/server_entry.py SPANS_PATH <repro cli args>``.

Installs :class:`perfbench.spans.SpanRecorder` on every layer boundary
in :data:`perfbench.spans.TARGETS`, runs :func:`repro.cli.main` with the
remaining arguments and writes the spans to ``SPANS_PATH`` when the
process ends.  ``repro serve`` ends on SIGINT through the exit-flush
chain of :mod:`repro.obs.tracing` (which re-raises the signal), so the
dump is registered there rather than in a ``finally``.  Untraced runs
start ``python -m repro`` directly: no benchmark code runs inside the
measured server.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class _SpanDump:
    """An exit exporter that writes the recorded spans once."""

    def __init__(self, recorder, path):
        self.recorder, self.path, self.done = recorder, path, False

    def close(self):
        if not self.done:
            self.done = True
            self.recorder.dump(self.path)


if __name__ == "__main__":
    import repro.cli
    import repro.serve.front  # noqa: F401 - load every wrapped module first
    from repro.obs import tracing
    from perfbench.spans import SpanRecorder

    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    recorder.install()
    dump = _SpanDump(recorder, spans_path)
    tracing.install_exit_flush(dump)
    try:
        code = repro.cli.main(argv)
    finally:
        dump.close()
    sys.exit(code)
