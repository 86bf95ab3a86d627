"""The environment a benchmark result was measured in, and the rule for
comparing two results."""

import os
import platform
import subprocess
from importlib import metadata

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root):
    # Stop git at the checkout so an unversioned copy reports None rather
    # than the commit of some enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, backend):
    """Machine, toolchain and backend facts that a timing depends on."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "backend": backend,
        "CHOICEWELFARE_BACKEND": os.environ.get("CHOICEWELFARE_BACKEND"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
    }


class IncomparableResults(Exception):
    """Two results that must not be compared."""


def require_comparable(env_a, env_b):
    """Results measured on different kernel backends time different code."""
    if env_a.get("backend") != env_b.get("backend"):
        raise IncomparableResults(
            f"backend differs: {env_a.get('backend')!r} vs {env_b.get('backend')!r}"
        )
