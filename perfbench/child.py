"""Child processes of the benchmark: how they are started, and what they run.

The parent runs one child at a time, through run_python, in a hermetic
environment: PYTHONPATH=src, no inherited RSPACES_* variable (a malformed
RSPACES_ORBIT_BUDGET breaks every CLI subcommand) and one BLAS thread.

Untraced CLI queries are started through a Spawner, a small helper process
that starts each query and reaps it with wait4: Linux carries a parent's
high-water RSS into a child's ru_maxrss across fork and exec, so a query
started by the benchmark process itself would report at least the
benchmark's own peak, not its own.

Run as a script, this file is one of four children:

    child.py setup WORKLOAD SEED  time import + build + input generation,
                                  print the seconds
    child.py import               time `import rspaces.cli`, print the seconds
    child.py cli ARGS...          run rspaces.cli.main(ARGS) under the tracer;
                                  the CLI's own output is untouched and the
                                  folded trace is the last line of stderr
    child.py serve                the Spawner: for each JSON request line on
                                  stdin, run_python its args on its CPUs and
                                  answer with the Finished child as JSON
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import os
import selectors
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_PREFIX = "perfbench-trace "
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120


def hermetic_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RSPACES_")}
    env.update(ONE_THREAD)
    env["PYTHONPATH"] = "src"
    return env


@dataclasses.dataclass
class Finished:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int  # the child's own peak RSS, from wait4


def run_python(args: list[str]) -> Finished:
    """Run the current interpreter with args from the checkout root and wait for it.

    The pipes are drained with a selector and the child is reaped with
    wait4, which gives this child's ru_maxrss rather than the largest of
    every child this process has waited for.  That figure still counts this
    process's own high-water RSS at the start; see Spawner.
    """
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=hermetic_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    out: dict = {proc.stdout: [], proc.stderr: []}
    deadline = perf_counter() + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in out:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - perf_counter()
            if left <= 0:
                proc.kill()
                proc.wait()
                raise subprocess.TimeoutExpired(proc.args, CHILD_TIMEOUT_S)
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    out[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    stdout, stderr = (b"".join(out[p]).decode() for p in (proc.stdout, proc.stderr))
    return Finished(proc.returncode, stdout, stderr, usage.ru_maxrss)


class Spawner:
    """Runs children through the helper process `child.py serve`, one at a time.

    The helper imports only the standard library, so the RSS a child
    inherits from it is below any Python child's own.  A request carries the
    caller's CPU affinity, so the child runs where the caller is pinned.
    """

    def __init__(self) -> None:
        self.proc = None
        atexit.register(self.close)

    def run(self, args: list[str]) -> Finished:
        if self.proc is None or self.proc.poll() is not None:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), "serve"],
                cwd=ROOT,
                env=hermetic_env(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        request = {"args": args, "cpus": sorted(os.sched_getaffinity(0))}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"spawner exited {self.proc.wait()} on {args}")
        return Finished(**json.loads(answer))

    def close(self) -> None:
        """Stop the helper: it exits at the end of its input."""
        if self.proc is not None:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
            self.proc.stdout.close()
            self.proc = None


def _serve() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        try:
            os.sched_setaffinity(0, request["cpus"])
        except OSError:  # not allowed here: leave placement to the scheduler
            pass
        done = run_python(request["args"])
        sys.stdout.write(json.dumps(dataclasses.asdict(done)) + "\n")
        sys.stdout.flush()
    return 0


def timed_child(args: list[str]) -> float:
    """Seconds a child reports on its last stdout line."""
    proc = run_python([str(HERE / "child.py"), *args])
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def split_trace(stderr: str) -> tuple[str, dict]:
    """Separate the traced child's trace line from the CLI's own stderr."""
    head, sep, tail = stderr.rpartition(TRACE_PREFIX)
    if not sep:
        raise RuntimeError(f"traced child wrote no trace: {stderr.strip()}")
    return head, json.loads(tail)


def _run_cli(argv: list[str]) -> int:
    import rspaces.cli as cli
    import tracing

    tracer = tracing.Tracer()
    tracer.install(tracing.library_modules())
    with tracer.span("bench.cli_child"):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # report like the real CLI would: traceback and exit 1
            import traceback

            traceback.print_exc()
            code = 1
    durations = {name: t1 - t0 for _, _, name, t0, t1 in tracer.spans}
    stats, work = tracer.take()
    sys.stdout.flush()
    report = {
        "main_s": durations.get("cli.main", 0.0),
        "covered": durations["bench.cli_child"],
        "stats": stats,
        "work": work,
    }
    sys.stderr.write(TRACE_PREFIX + json.dumps(report) + "\n")
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        t0 = perf_counter()
        import workloads

        workloads.WORKLOADS[rest[0]](int(rest[1]))
        print(perf_counter() - t0)
        return 0
    if mode == "import":
        t0 = perf_counter()
        import rspaces.cli  # noqa: F401

        print(perf_counter() - t0)
        return 0
    if mode == "cli":
        return _run_cli(rest)
    if mode == "serve":
        return _serve()
    print(f"unknown child mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
