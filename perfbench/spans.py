"""Spans recorded around calls into deformest's public functions.

A span holds a name, start, end and the id of the span that was open when it
began. Spans stay in memory and are written out once, when the run ends.
Module attributes are wrapped from outside; nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; a disabled tracer records and wraps nothing."""

    def __init__(self, enabled: bool, targets=()):
        self.enabled = enabled
        self.targets = list(targets)  # (owner, attribute, span name) to wrap
        self.spans: list = []
        self._open: list = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def install(self):
        """Wrap each target attribute so that every call records a span."""
        if not self.enabled:
            return
        for owner, attr, name in self.targets:
            original = getattr(owner, attr)

            def traced(*args, __original=original, __name=name, **kwargs):
                with self.span(__name):
                    return __original(*args, **kwargs)

            functools.update_wrapper(traced, original)
            setattr(owner, attr, traced)
            self._patched.append((owner, attr, original))

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def remove(self):
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Neither wrap nor record inside the block."""
        enabled = self.enabled
        self.remove()
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = enabled
            self.install()

    # --- queries -------------------------------------------------------------

    def find(self, name: str, under=None) -> list:
        """Spans called ``name``; with ``under`` (a list of spans), only their descendants."""
        found = [s for s in self.spans if s["name"] == name and s["end"] is not None]
        if under is None:
            return found
        roots = {s["id"] for s in under}
        return [s for s in found if self._has_ancestor(s, roots)]

    def _has_ancestor(self, span, ids) -> bool:
        parent = span["parent"]
        while parent is not None:
            if parent in ids:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


def duration(span) -> float:
    return span["end"] - span["start"]
