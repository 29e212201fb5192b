"""Start a server module with the layer tracing installed (traced benchmark run).

``python traced_entry.py <module> <process name> <trace file> [server arguments...]``
installs the wrappers of ``trace.py``, runs ``<module>`` as ``__main__`` and,
when the server has shut down (SIGTERM makes it drain and return), writes the
process's spans to the trace file.
"""

from __future__ import annotations

import runpy
import sys

import trace as layer_trace  # this directory's trace.py: the script directory leads sys.path


def main() -> None:
    module, name, trace_out, *arguments = sys.argv[1:]
    layer_trace.install()
    sys.argv = [module, *arguments]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        layer_trace.dump(trace_out, name)


if __name__ == "__main__":
    main()
