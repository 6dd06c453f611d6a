import inspect
import sys
import tracemalloc

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls({owner: names}) wraps each named function the way the traced benchmark
    does and returns the name -> call count dict the wrappers fill.

    A module owner's function is replaced at every slatesim module that binds it, so
    a caller that bound one early (a default argument, a module-level alias) goes
    uncounted; a class owner's method or property is replaced on the class."""

    def install(spans: dict) -> dict[str, int]:
        modules = [m for key, m in sys.modules.items() if key == "slatesim" or key.startswith("slatesim.")]
        calls = {}
        for owner, names in spans.items():
            for name in names:
                original = inspect.getattr_static(owner, name)
                is_property = isinstance(original, property)
                calls[name] = 0

                def counting(*args, _name=name, _original=original.fget if is_property else original,
                             **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                if isinstance(owner, type):
                    monkeypatch.setattr(owner, name, property(counting) if is_property else counting)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, counting)
        return calls

    return install


@pytest.fixture
def peak_alloc():
    """peak_alloc(call) runs call() and returns its result and the peak bytes it had allocated
    at once, as tracemalloc counts them; numpy reports its array data blocks there too.

    Deterministic where a timing is not: the same call on the same inputs peaks the same."""

    def measure(call):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()

    return measure
