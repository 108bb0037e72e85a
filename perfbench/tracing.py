"""In-memory spans around the public functions of each qergodic module.

The benchmark measures every layer from outside: while a traced pass
runs, each public function the pipeline calls is replaced, at every
module attribute that binds it, by a wrapper that records a span
``[name, start, end, parent, op_id]``.  Nothing in ``src/`` changes, and
the originals are restored when the pass ends.  Spans live in a list and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import qergodic
from qergodic import chain, cli, conditioning, qed, qprocess, sim, spectral, walks

MODULES = (qergodic, chain, spectral, qed, qprocess, conditioning, sim, walks, cli)

# Public functions whose calls become spans, named "<module>.<function>".
TRACED = (
    chain.load_problem,
    chain.validate_problem,
    chain.lift_chain,
    spectral.spectral_radius,
    spectral.decompose_classes,
    spectral.perron_data,
    spectral.peripheral_system,
    qed.select_dominant,
    qed.qed_moving,
    qprocess.build_qprocess_dominant,
    qprocess.finite_horizon_qlaw,
    conditioning.mean_ratio_curve,
    conditioning.qld_cycle,
    conditioning.conditional_law_sequence,
    conditioning.write_mean_ratio_csv,
    conditioning.write_conditional_laws_csv,
    sim.estimate_conditionals,
    sim.simulate_qprocess,
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Span recorder; ``op_id`` tags every span with the operation it serves."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: str | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def operation(self, op_id: str, name: str):
        """Tag the spans of one operation, under a root span ``op.<name>``."""
        self.op_id = op_id
        try:
            with self.span(f"op.{name}"):
                yield
        finally:
            self.op_id = None

    def _wrap(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions, restore them on exit."""
        wrappers = {id(fn): (fn, self._wrap(fn)) for fn in TRACED}
        patched = []
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op_id"], "spans": self.spans},
                fh,
            )


def per_name(spans, op_ids) -> tuple[dict, dict]:
    """Inclusive and self time per span name, over the spans of some ops.

    A span's self time is its duration minus the time its direct children
    cover.  A span left open by a timed-out operation is skipped.
    """
    closed = [span[2] is not None for span in spans]
    own = [end - start if ok else 0.0 for (_, start, end, _, _), ok in zip(spans, closed)]
    for (_, start, end, parent, _), ok in zip(spans, closed):
        if ok and parent is not None:
            own[parent] -= end - start
    inclusive: dict[str, float] = {}
    exclusive: dict[str, float] = {}
    for (name, start, end, _, op_id), self_time, ok in zip(spans, own, closed):
        if ok and op_id in op_ids:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            exclusive[name] = exclusive.get(name, 0.0) + self_time
    return inclusive, exclusive
