"""Shared resources for benchmark ``run(ctx)`` entry points.

:class:`BenchContext` hands every bench the session artifacts it needs
(workspace / dataset / changes / mpa / top10 / large_scale). Everything
is lazy and memoized: a bench that never touches the dataset never pays
for it, and every bench shares the same (read-only) artifacts.

Mutable needs go through :meth:`tmp_dir` (a fresh directory per call,
removed when the context closes) and :meth:`env` (set-and-restore
environment variables) so one bench never leaks state into the next.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path


class BenchContext:
    """Lazily-built session resources handed to every bench ``run()``."""

    def __init__(self, scale: str | None = None) -> None:
        self._scale = scale
        self._workspace = None
        self._dataset = None
        self._changes = None
        self._mpa = None
        self._top10 = None
        self._tmp_dirs: list[Path] = []

    # -- session artifacts -----------------------------------------------

    @property
    def workspace(self):
        if self._workspace is None:
            from repro.core.workspace import Workspace
            self._workspace = Workspace.default(self._scale)
            self._workspace.ensure()
        return self._workspace

    @property
    def scale(self) -> str:
        """The active scale, resolved without forcing a build."""
        if self._workspace is not None:
            return self._workspace.scale
        if self._scale is not None:
            return self._scale
        from repro.core.workspace import active_scale
        return active_scale()

    @property
    def dataset(self):
        if self._dataset is None:
            self._dataset = self.workspace.dataset()
        return self._dataset

    @property
    def changes(self):
        if self._changes is None:
            self._changes = self.workspace.changes()
        return self._changes

    @property
    def mpa(self):
        if self._mpa is None:
            from repro.core.mpa import MPA
            self._mpa = MPA(self.dataset)
        return self._mpa

    @property
    def top10(self) -> list[str]:
        """The top-10 MI practices (input to the causal benches)."""
        if self._top10 is None:
            self._top10 = [r.practice for r in self.mpa.top_practices(10)]
        return self._top10

    @property
    def large_scale(self) -> bool:
        """True at scales with paper-like statistical power."""
        return self.scale in ("medium", "paper")

    # -- isolation helpers ----------------------------------------------

    def tmp_dir(self) -> Path:
        """A fresh scratch directory, removed when the context closes."""
        path = Path(tempfile.mkdtemp(prefix="mpa-bench-"))
        self._tmp_dirs.append(path)
        return path

    @contextmanager
    def env(self, **overrides: str | None):
        """Set environment variables for a block, then restore them.

        ``None`` unsets a variable. Benches that tune ``MPA_JOBS`` etc.
        must use this instead of bare ``os.environ`` writes so the
        benches that run after them see a clean environment.
        """
        saved = {name: os.environ.get(name) for name in overrides}
        try:
            for name, value in overrides.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            yield
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    def close(self) -> None:
        """Remove every scratch directory handed out by :meth:`tmp_dir`."""
        while self._tmp_dirs:
            shutil.rmtree(self._tmp_dirs.pop(), ignore_errors=True)

    def __enter__(self) -> "BenchContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
