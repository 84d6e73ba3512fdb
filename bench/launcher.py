"""Starts the benchmark's commands and reports each one's wall time and
peak RSS.

    python3 -S bench/launcher.py

``bench/run.py`` starts this once and sends it one command per line. At
exec, Linux keeps the peak RSS of the address space being replaced in the
new program's figure, and a child started by fork or vfork replaces its
parent's (or a copy of it). Started from the benchmark process itself, a
command's reading could not go below that process's own peak (about
23 MiB with its imports). This process, started without ``site`` and
importing only what it needs here, keeps that floor near 10 MiB, below
the smallest negir command (about 18 MiB for the import alone).

One line each way per command, fields separated by tabs:

    request: timeout s, stdout path, program, arguments...
    reply:   exit code, wall s, peak RSS KiB

The environment and working directory are this process's own. It exits
when its standard input closes.
"""

import os
import select
import signal
import sys
import time


def run(timeout: float, stdout_path: str, argv: list) -> tuple:
    out = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, devnull, 2)])
        pidfd = os.pidfd_open(pid)
        try:
            # Readable once the child has exited.
            if not select.select([pidfd], [], [], timeout)[0]:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    finally:
        os.close(out)
        os.close(devnull)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


def main() -> None:
    for line in sys.stdin:
        timeout, stdout_path, *argv = line.rstrip("\n").split("\t")
        code, wall, peak = run(max(0.001, float(timeout)), stdout_path, argv)
        print(code, repr(wall), peak, sep="\t", flush=True)


if __name__ == "__main__":
    main()
