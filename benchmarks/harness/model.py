"""The fixed model: data, build, scratch space, the serve child."""

from __future__ import annotations

import contextlib
import http.client
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.build import build_compressed
from repro.data.phone import PhoneConfig, phone_matrix

from . import spec

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"


@dataclass(frozen=True)
class Scale:
    """Model size and pass-size divisor; the smoke test runs a reduced one."""

    rows: int = spec.MODEL_ROWS
    cols: int = spec.MODEL_COLS
    ops_divisor: int = 1

    def ops(self, count: int) -> int:
        return max(count // self.ops_divisor, 10)


FULL = Scale()
SMOKE = Scale(rows=2000, cols=128, ops_divisor=10)


def raw_matrix(scale: Scale) -> np.ndarray:
    """The data every run compresses (seed-independent)."""
    return phone_matrix(scale.rows, PhoneConfig(num_days=scale.cols))


@contextlib.contextmanager
def scratch_dir():
    """A private directory under ``.work/``, removed on success and failure.

    Inside the checkout rather than the system temp directory: the
    driver allows the benchmark to write nowhere else.
    """
    work = HARNESS_DIR / ".work"
    work.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=work))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def build(raw: np.ndarray, directory: Path) -> None:
    """``build_compressed`` the fixed model into ``directory``."""
    build_compressed(
        raw,
        directory,
        budget_fraction=spec.BUDGET_FRACTION,
        bytes_per_value=spec.BYTES_PER_VALUE,
        jobs=1,
    ).close()


def directory_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())


class ServeChild:
    """``python -m repro serve <dir> --workers 2`` as a child process."""

    def __init__(self, directory: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONUNBUFFERED="1")
        start = time.perf_counter()
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(directory),
                "--workers", str(spec.SERVE_WORKERS), "--port", "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            # "serving <dir> on http://127.0.0.1:<port>  (routes: ...)"
            banner = self._proc.stdout.readline()
            self.port = int(banner.split(" on http://")[1].split()[0].rsplit(":", 1)[1])
            while self.get("/healthz/ready")[0] != 200:
                time.sleep(0.01)
        except Exception:
            self._proc.kill()
            self._proc.wait()
            raise
        self.ready_s = time.perf_counter() - start

    def get(self, path: str) -> tuple[int, bytes]:
        """One GET on a fresh connection (the server closes each one)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        self._proc.send_signal(signal.SIGTERM)
        try:
            code = self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            code = self._proc.wait()
        self._proc.stdout.close()
        return code
