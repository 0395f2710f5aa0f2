"""The span table of bench/tracer.py against the package: every span names a
function bound in each module it wraps, and install followed by uninstall
puts every original function back."""

import types
from pathlib import Path

import saguaro
import saguaro.cli  # noqa: F401  (binds the cli module on the package)
from saguaro.racg import GaussWord, tau

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """Execute the tracer's source in a fresh module, writing no bytecode."""
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def bindings(spans) -> dict[tuple[str, str], object]:
    """(module, attribute) -> the object bound there, for every wrapped name."""
    out = {}
    for name, modules in spans.items():
        home, attr = name.split(".")
        for module in (home, *modules):
            out[module, attr] = getattr(getattr(saguaro, module, None), attr, None)
    return out


def test_every_span_resolves_in_each_module_it_lists():
    spans = load_tracer().SPANS
    found = bindings(spans)
    assert [f"{m}.{attr}" for (m, attr), fn in found.items() if not callable(fn)] == []
    for name, modules in spans.items():
        home, attr = name.split(".")
        # a second binding is the same function, so one span covers both
        assert all(found[m, attr] is found[home, attr] for m in modules), name


def test_install_then_uninstall_restores_every_function():
    tracer = load_tracer()
    before = bindings(tracer.SPANS)
    spans = tracer.Tracer()
    spans.install(saguaro)
    try:
        during = bindings(tracer.SPANS)
        assert all(during[key] is not fn for key, fn in before.items())
        saguaro.racg.racg_reduce(GaussWord(3, (tau(1, 2), tau(1, 2))))
        assert spans.stats["racg.reduce_letters"]["calls"] == 1
    finally:
        spans.uninstall()
    after = bindings(tracer.SPANS)
    assert all(after[key] is fn for key, fn in before.items())


def test_abelianization_runs_inside_the_smith_spans():
    tracer = load_tracer()
    spans = tracer.Tracer()
    spans.install(saguaro)
    try:
        saguaro.presentation.abelianization(saguaro.presentation.builtin("J4"))
    finally:
        spans.uninstall()
    engines = ("presentation.exponent_matrix", "presentation.smith_diagonal")
    assert [spans.stats.get(name, {}).get("calls") for name in engines] == [1, 1]
