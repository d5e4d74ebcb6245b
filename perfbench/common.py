"""Paths, subprocess environment and /proc readers shared by the legs."""

from __future__ import annotations

import json
import os
import pathlib
import sys

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
CACHE_DIR = BENCH_DIR / ".cache"
WORK_DIR = BENCH_DIR / ".work"


def program_present() -> bool:
    """Whether the checkout holds the program's sources."""
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def child_env(**extra) -> dict:
    """Environment for every process the benchmark starts: the
    checkout's sources first on the path, temp files kept inside the
    checkout, unbuffered output so announcements arrive promptly."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(WORK_DIR)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONSTARTUP", None)
    env.update({k: str(v) for k, v in extra.items()})
    return env


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout, never from site-packages."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))


def _status_kb(pid, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def rss_mb(pid="self") -> float:
    """Current resident set size of ``pid`` in MiB."""
    return _status_kb(pid, "VmRSS") / 1024.0


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of ``pid`` in MiB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def child_pids(pid="self") -> list[int]:
    """Direct children of ``pid`` (all threads)."""
    pids: list[int] = []
    base = f"/proc/{pid}/task"
    try:
        tasks = os.listdir(base)
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"{base}/{task}/children", encoding="ascii") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return sorted(set(pids))


def cpu_seconds(pid) -> float:
    """User + system CPU seconds of one process (children excluded)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def share(total: int, parts: int, index: int) -> int:
    """Part ``index`` of ``total`` split as evenly as possible."""
    return total // parts + (index < total % parts)


def write_json(path, payload) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# The leg protocol: one JSON request per stdin line, one JSON reply per
# stdout line.  Legs stay up between requests so the harness can spread
# each leg's repetitions over the whole run, round by round.
# ---------------------------------------------------------------------------


def serve(ready: dict, handlers: dict) -> None:
    """Reply ``ready``, then answer ``{"cmd": ..., "args": {...}}`` lines
    until ``finish``.  Anything the program prints goes to stderr."""
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr

    def reply(payload) -> None:
        channel.write(json.dumps(payload) + "\n")
        channel.flush()

    reply(ready)
    for line in sys.stdin:
        request = json.loads(line)
        reply(handlers[request["cmd"]](**request.get("args", {})))
        if request["cmd"] == "finish":
            break
    channel.close()


class Leg:
    """Harness side of one leg process.

    The constructor only starts the process, so several legs warm up at
    once; :meth:`wait` reads the leg's ready reply.
    """

    def __init__(self, module: str, *args: str, timeout: float = 170.0):
        import subprocess

        self.name = module
        self.proc = subprocess.Popen(
            [sys.executable, "-m", f"perfbench.legs.{module}", *args],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.timeout = timeout

    def wait(self):
        """The leg's next reply (the first one is its ready message)."""
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise SystemExit(f"leg {self.name} exited with code {self.proc.returncode}")
        return json.loads(line)

    def send(self, cmd: str, **args) -> None:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "args": args}) + "\n")
        self.proc.stdin.flush()

    def call(self, cmd: str, **args):
        self.send(cmd, **args)
        return self.wait()

    def close(self) -> None:
        import subprocess

        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
