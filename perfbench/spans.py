"""In-memory span tracer that wraps factorlab's functions from outside.

Each wrapped function is replaced at the name where its caller looks it up
(``factorlab.lab.gd_step``, ``factorlab.monitors.svd``, ...), so no file of
the program changes.  A span is (name, start, end, parent span, run id);
spans live in flat arrays while tracing is on and are written out once, at
the end, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

# (module under factorlab, attribute looked up there, span name).  A name is
# "<defining module>.<function>", so one function patched at several lookup
# names gives one span name.
PATCHES = [
    ("lab", "gd_step", "dynamics.gd_step"),
    ("lab", "flow_step_rk4", "dynamics.flow_step_rk4"),
    ("dynamics", "gradient", "dynamics.gradient"),
    ("lab", "loss", "dynamics.loss"),
    ("monitors", "loss", "dynamics.loss"),
    ("lab", "record", "monitors.record"),
    ("lab", "record_to_csv_row", "monitors.record_to_csv_row"),
    ("lab", "balance_errors", "monitors.balance_errors"),
    ("monitors", "balance_errors", "monitors.balance_errors"),
    ("monitors", "layer_extremes", "monitors.layer_extremes"),
    ("monitors", "skew_error", "monitors.skew_error"),
    ("monitors", "main_term_sigma_min", "monitors.main_term_sigma_min"),
    ("monitors", "track_svd", "monitors.track_svd"),
    ("monitors", "uv_terms", "monitors.uv_terms"),
    ("monitors", "svd", "linalg.svd"),
    ("dynamics", "svd", "linalg.svd"),
    ("monitors", "det_sign_or_phase", "linalg.det_sign_or_phase"),
    ("lab", "det_sign_or_phase", "linalg.det_sign_or_phase"),
    ("lab", "balanced_init", "ensembles.balanced_init"),
    ("lab", "random_init", "ensembles.random_init"),
    ("ensembles", "haar_unitary", "ensembles.haar_unitary"),
    ("lab", "prepare_problem", "lab.prepare_problem"),
    ("lab", "sweep_convergence", "lab.sweep_convergence"),
    ("cli", "run_scenario", "lab.run_scenario"),
    ("lab", "run_scenario", "lab.run_scenario"),
    # The sweep's chunk runner is private, but it is the only boundary
    # between dispatch and the batched kernel.
    ("lab", "_run_chunk", "lab.run_chunk"),
    ("cli", "main", "cli.main"),
]
# numpy.linalg factorizations, counted per monitor record.
NUMPY_FACTORIZATIONS = ("svd", "solve", "eig", "eigh", "eigvals", "eigvalsh")
_MISSING = object()


class Tracer:
    """Spans recorded around wrapped calls while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.raised = array("b")
        self.notes: dict[int, object] = {}  # span index -> value its note() took
        self.run_id = 0
        self.csv_bytes = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._nid(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.run.append(self.run_id)
        self.raised.append(0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording a span per call; ``note(result)`` is kept per span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer.finish(idx)
            if note is not None:
                tracer.notes[idx] = note(out)
            return out

        return traced

    def _traced_open(self, *args, **kwargs):
        """``open`` for the trajectory CSV: one span from open to close."""
        tracer = self
        idx = self.begin("lab.csv_write")
        fh = open(*args, **kwargs)

        class _File:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()
                tracer.finish(idx)
                return False

            def write(self, text):
                tracer.csv_bytes += len(text.encode())
                return fh.write(text)

        return _File()

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self, notes: dict | None = None) -> None:
        """Replace every traced lookup name; ``notes`` maps span names to note()."""
        import factorlab.cli
        import factorlab.dynamics
        import factorlab.ensembles
        import factorlab.lab
        import factorlab.monitors

        mods = {
            "cli": factorlab.cli,
            "dynamics": factorlab.dynamics,
            "ensembles": factorlab.ensembles,
            "lab": factorlab.lab,
            "monitors": factorlab.monitors,
        }
        notes = notes or {}
        for mod, attr, name in PATCHES:
            owner = mods[mod]
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, notes.get(name)))
        for attr in NUMPY_FACTORIZATIONS:
            self._patch(np.linalg, attr, self.wrap(getattr(np.linalg, attr), f"numpy.linalg.{attr}"))
        # run_scenario writes its CSV with the builtin open, looked up through
        # the module globals first.
        self._patch(factorlab.lab, "open", self._traced_open)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def save(self, path: Path) -> None:
        """Write every span: name table plus one column per span field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def columns(self):
        """Span columns as numpy arrays: name id, duration (s), parent, raised."""
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        return (
            np.frombuffer(self.name, dtype=np.int32),
            dur,
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.raised, dtype=np.int8),
        )

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        _, dur, parent, _ = self.columns()
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def ids(self, name: str) -> np.ndarray:
        nid = self._ids.get(name, -1)
        return np.flatnonzero(np.frombuffer(self.name, dtype=np.int32) == nid)

    def under(self, idx: np.ndarray, ancestor: str) -> np.ndarray:
        """Mask over ``idx``: spans with an ancestor named ``ancestor``."""
        nid = self._ids.get(ancestor, -1)
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        out = np.zeros(len(idx), bool)
        cur = parent[idx]
        while True:
            live = cur >= 0
            if not live.any():
                return out
            out[live] |= names[cur[live]] == nid
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)
