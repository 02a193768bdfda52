"""Start the projection daemon with the benchmark's span wrappers installed.

The traced run's stand-in for ``python -m repro daemon start``: it
installs :mod:`tracing`'s wrappers, then calls
:func:`repro.daemon.server.run_daemon` with the same defaults the CLI
uses, and writes the recorded spans to ``--spans`` once the daemon has
drained after SIGTERM.

    python3 perfbench/launch_daemon.py --state-dir DIR --spans FILE \
        [--surrogate-model MODEL]
"""

from __future__ import annotations

import argparse
import sys

import tracing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--surrogate-model", default=None)
    args = parser.parse_args(argv)

    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.daemon.server import run_daemon

    code = run_daemon(
        args.state_dir,
        out=lambda line: print(line, flush=True),
        surrogate_model=args.surrogate_model,
    )
    recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
