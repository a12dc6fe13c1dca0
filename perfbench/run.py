#!/usr/bin/env python3
"""Build the perfbench load generator from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go build cache, temporary files and the binary live under
$CARGO_TARGET_DIR (default .bench_build) in the checkout. The last line
of standard output is the benchmark's JSON result; build output goes to
standard error. Exits non-zero without a result when the build or the
run fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT = 700  # the first build compiles the standard library
RUN_LIMIT = 170  # every run must end within 180 seconds


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        # The go command keeps telemetry counters under the user config
        # directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly -buildvcs=false",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Its own process group, so a timeout also stops the server process
    # it starts.
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
