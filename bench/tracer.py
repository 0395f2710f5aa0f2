"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of saguaro's modules with
wrappers that time each call.  A span's self time is its duration minus the
time of the spans it caused, so every second of a traced operation is
charged to exactly one layer (or to the operation itself).  Spans are
aggregated as they close: per name, the call count, total and self time,
and the callers; ``tietze_step`` also counts the calls that eliminated a
generator.

A name that another module imported directly (``from .rschreier import
build_transversal`` in ``cli``) is a second binding of the same function, so
it is wrapped at both names under one span name.
"""

from __future__ import annotations

import time

# Span name -> the modules whose binding of that function is wrapped.
SPANS = {
    "syntax.parse_cactus_word": ("syntax",),
    "syntax.parse_presentation": ("syntax",),
    "cactus.read_diagram": ("cactus",),
    "cactus.reduce": ("cactus",),
    "cactus.canonical": ("cactus",),
    "cactus.equal": ("cactus",),
    "cactus.is_trivial": ("cactus",),
    "cactus.order": ("cactus",),
    "racg.push_letter": ("racg",),
    "racg.reduce_letters": ("racg",),
    "racg.canonical_letters": ("racg",),
    "subgroups.is_member": ("subgroups",),
    "render.render_svg": ("render", "cli"),
    "rschreier.build_transversal": ("rschreier", "cli"),
    "rschreier.rs_generators": ("rschreier", "cli"),
    "rschreier.rs_relators": ("rschreier", "cli"),
    "rschreier.verify_pj4": ("rschreier", "cli"),
    "presentation.tietze_simplify": ("presentation", "rschreier"),
    "presentation.tietze_step": ("presentation",),
    "presentation.exponent_matrix": ("presentation",),
    "presentation.smith_diagonal": ("presentation",),
    "cli.main": ("cli",),
}

# Spans whose call count is reported: the amount of work, not only its speed.
COUNTED = (
    "cactus.read_diagram",
    "racg.push_letter",
    "racg.reduce_letters",
    "racg.canonical_letters",
    "rschreier.build_transversal",
    "rschreier.rs_generators",
    "rschreier.rs_relators",
    "presentation.tietze_step",
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self._stack: list[list] = []  # [name, start, time of child spans]
        self._saved: list[tuple[object, str, object]] = []

    def _record(self, name: str, duration: float, child: float) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                       "useful": 0, "callers": {}}
        stat["calls"] += 1
        stat["total_s"] += duration
        stat["self_s"] += duration - child
        caller = self._stack[-1][0] if self._stack else "-"
        stat["callers"][caller] = stat["callers"].get(caller, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the result is returned unchanged."""
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            self._record(name, duration, frame[2])

    def _wrap(self, name: str, fn):
        tracer = self
        useful = name == "presentation.tietze_step"

        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if useful and result is not None:
                tracer.stats[name]["useful"] += 1
            return result

        return traced

    def install(self, saguaro) -> None:
        for name, modules in SPANS.items():
            home, attr = name.split(".")
            wrapper = self._wrap(name, getattr(getattr(saguaro, home), attr))
            for module_name in modules:
                module = getattr(saguaro, module_name)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Self time of every span name, call counts where a change in the
        amount of work is the likely effect, and Tietze eliminations per step."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            stat = self.stats.get(name, {"calls": 0, "self_s": 0.0, "useful": 0})
            out[f"{name}.self_s"] = (stat["self_s"], "s")
            if name in COUNTED:
                out[f"{name}.calls"] = (stat["calls"], "count")
            if name == "presentation.tietze_step":
                ratio = stat["useful"] / stat["calls"] if stat["calls"] else 0.0
                out[f"{name}.useful_ratio"] = (ratio, "ratio")
        return out

