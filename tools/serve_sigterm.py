#!/usr/bin/env python3
"""Early-SIGTERM check for lookhd_serve.

Usage:

    python3 tools/serve_sigterm.py --train build/tools/lookhd_train \\
        --serve build/tools/lookhd_serve --workdir /tmp/sigterm \\
        [--runs 50]

Trains a tiny model once, then starts lookhd_serve --runs times on
ephemeral ports. Each time it sends SIGTERM the moment the first port
line appears on stdout, and requires exit status 0: a driver that
signals as soon as it has read the ports must get a drained server,
not a killed one.

Exits 0 when every run exits 0, 1 otherwise.
"""

import argparse
import signal
import subprocess
import sys
from pathlib import Path

from serve_smoke import SmokeError, run, write_csv


def one_run(serve_bin: str, model: Path) -> int:
    """Start the server, SIGTERM it on its first port line, return
    its exit status."""
    proc = subprocess.Popen(
        [serve_bin, "--model", str(model), "--port", "0",
         "--metrics-port", "0", "--max-seconds", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        if "listening on" not in line:
            proc.kill()
            proc.wait()
            raise SmokeError(f"no port line, got {line!r}")
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train", required=True)
    parser.add_argument("--serve", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--runs", type=int, default=50)
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    csv = work / "sigterm.csv"
    model = work / "sigterm_model.bin"
    write_csv(csv)
    run([args.train, "--input", str(csv), "--output", str(model),
         "--dim", "500", "--q", "4", "--r", "3", "--epochs", "1",
         "--quiet"], "lookhd_train")

    failures = []
    for i in range(args.runs):
        status = one_run(args.serve, model)
        if status != 0:
            failures.append((i, status))
    if failures:
        print(f"serve_sigterm: {len(failures)} of {args.runs} runs "
              f"did not exit 0 (run, status): {failures}",
              file=sys.stderr)
        return 1
    print(f"serve_sigterm: {args.runs} early SIGTERMs, all exit 0")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeError as err:
        print(f"serve_sigterm: {err}", file=sys.stderr)
        sys.exit(1)
