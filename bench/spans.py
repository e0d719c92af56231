"""Span tracing of qfeedback from outside the library.

The package imports functions by value (``from .linalg import kron``), so a
wrapper only takes effect once it is rebound in every ``qfeedback`` module
namespace that holds the original object.  ``install`` does that for the
functions in ``TRACED`` and wraps two ``DensityMatrix`` methods on the class.

Each span records its name, start, end and parent.  Spans are kept in memory
in flat arrays while the run lasts; ``Tracer.aggregate`` turns them into
per-name call counts, inclusive time and self time (duration minus the time
covered by child spans), and ``Tracer.save`` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

MODULES = (
    "linalg",
    "quantum",
    "cqstate",
    "protocol",
    "directed",
    "capacity",
    "achievability",
    "config",
    "cli",
)

# (module, attribute) pairs wrapped as spans named "<module>.<attribute>".
TRACED = (
    ("linalg", "herm_eig"),
    ("linalg", "partial_trace"),
    ("linalg", "embed_operator"),
    ("linalg", "kron"),
    ("linalg", "permute_registers"),
    ("linalg", "psd_sqrt"),
    ("linalg", "pinv_sqrt"),
    ("quantum", "apply_channel"),
    ("quantum", "apply_channel_at"),
    ("quantum", "apply_kraus"),
    ("quantum", "measure"),
    ("quantum", "entropy"),
    ("quantum", "entropy_of"),
    ("quantum", "holevo_chi"),
    ("cqstate", "cq_entropy"),
    ("cqstate", "mutual_information"),
    ("cqstate", "conditional_mutual_information"),
    ("protocol", "_walk"),
    ("protocol", "_padded_povm"),
    ("protocol", "enumerate_transcripts"),
    ("protocol", "sample_transcript"),
    ("protocol", "ehs_states"),
    ("protocol", "error_probability"),
    ("protocol", "pgm_decoder"),
    ("protocol", "random_feedback_code"),
    ("directed", "directed_terms"),
    ("directed", "directed_information_total"),
    ("directed", "message_information"),
    ("directed", "verify_ddpi"),
    ("directed", "rate_report"),
    ("capacity", "coordinate_ascent"),
    ("capacity", "grid_search_chi"),
    ("capacity", "estimate_feedback_capacity"),
    ("achievability", "typical_projector"),
    ("achievability", "cond_typical_projector"),
    ("achievability", "square_root_measurement"),
    ("achievability", "base_prefix_tables"),
    ("achievability", "build_double_blocked_code"),
    ("achievability", "cumulative_disturbance_report"),
    ("config", "load_config"),
    ("cli", "main"),
)

OBJECTIVE = "capacity.objective"

# Eigendecomposition dimensions reported one by one; others are pooled.
EIG_DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64)


def qfeedback_modules():
    return [importlib.import_module("qfeedback")] + [
        importlib.import_module(f"qfeedback.{m}") for m in MODULES
    ]


def rebind(original, replacement) -> None:
    """Point every qfeedback module name bound to ``original`` at ``replacement``."""
    for mod in qfeedback_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def count_objective_evals(counter: list) -> None:
    """Count directed-information objective evaluations in ``counter[0]``.

    The optimizer's objective is a closure local to
    ``estimate_feedback_capacity``; it reaches ``coordinate_ascent`` as the
    first argument, so that is where it is wrapped.  No clock is read.
    """
    from qfeedback import capacity

    original = capacity.coordinate_ascent

    def coordinate_ascent(objective, *args, **kwargs):
        def counted(x):
            counter[0] += 1
            return objective(x)

        return original(counted, *args, **kwargs)

    rebind(original, coordinate_ascent)


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str, name_of=None, after=None):
        """Return ``fn`` wrapped in a span; ``name_of(args)`` may refine the name.

        ``after(result)`` runs once the span is closed.
        """
        ids, open_, close = self._id, self._open, self._close
        fixed = ids(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(fixed if name_of is None else ids(name_of(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if after is not None:
                after(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a set-up or a job."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def _objective_spans(self, ascent):
        """Make each call of the optimizer's objective a span of its own.

        The objective is a closure local to ``estimate_feedback_capacity``
        and reaches ``coordinate_ascent`` as its first argument.
        """

        @functools.wraps(ascent)
        def wrapper(objective, *args, **kwargs):
            return ascent(self.wrap(objective, OBJECTIVE), *args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function and the DensityMatrix hooks, for good."""
        from qfeedback import quantum

        for mod_name, attr in TRACED:
            mod = importlib.import_module(f"qfeedback.{mod_name}")
            original = getattr(mod, attr)
            wrapped = self.wrap(original, f"{mod_name}.{attr}", **self._hooks(attr))
            if attr == "coordinate_ascent":
                wrapped = self._objective_spans(wrapped)
            rebind(original, wrapped)

        cls = quantum.DensityMatrix
        cls.__post_init__ = self.wrap(cls.__post_init__, "quantum.DensityMatrix.init")
        traced_eig = self.wrap(cls.eig, "quantum.DensityMatrix.eig")

        def eig_with_hits(dm):
            self.bump("quantum.DensityMatrix.eig.calls")
            if dm._eig is not None:
                self.bump("quantum.DensityMatrix.eig.hits")
            return traced_eig(dm)

        cls.eig = eig_with_hits

    def _hooks(self, attr: str) -> dict:
        if attr == "herm_eig":
            return {"name_of": lambda args: f"linalg.herm_eig.d{np.shape(args[0])[0]}"}
        if attr == "enumerate_transcripts":

            def after(transcripts):
                self.bump("protocol.transcripts", len(transcripts))
                self.bump("protocol.pruned_mass", 1.0 - sum(t.probability for t in transcripts))

            return {"after": after}
        return {}

    # ------------------------------------------------------------------
    # Aggregation and output.

    def arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.int64),
            np.array(self.end, dtype=np.int64),
        )

    def aggregate(self, first: int, last: int) -> dict:
        """Calls, inclusive and self seconds and durations per name, for spans first..last-1."""
        ids, par, st, en = (a[first:last] for a in self.arrays())
        dur = (en - st).astype(np.float64) * 1e-9
        child = np.zeros(len(dur))
        inside = par >= first
        np.add.at(child, par[inside] - first, dur[inside])
        out = {}
        for k, name in enumerate(self.names):
            sel = ids == k
            if sel.any():
                out[name] = {
                    "calls": int(sel.sum()),
                    "incl_s": float(dur[sel].sum()),
                    "self_s": float((dur[sel] - child[sel]).sum()),
                    "durations": dur[sel],
                }
        return out

    def save(self, path) -> None:
        ids, par, st, en = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=ids, parent=par, start_ns=st, end_ns=en
        )
