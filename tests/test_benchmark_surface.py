"""The benchmark harness (``perfbench/``) wraps library names by name, so
a name it depends on must not disappear from the library unnoticed."""

from pathlib import Path

import circle_potential
from circle_potential import CircleGrid, GridSet, circle


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    """``perfbench.trace.Tracer`` wraps every public function and the
    listed ``GridSet`` and ``CircleGrid`` methods (read from the class
    ``__dict__``, so a deleted method fails here), records spans while
    installed, and puts every original back when uninstalled. The
    harness itself is imported, not changed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.trace import CLASS_METHODS, Tracer

    methods = {(cls, meth): getattr(circle, cls).__dict__[meth]
               for (_, cls), names in CLASS_METHODS.items() for meth in names}
    run_all = circle_potential.run_all
    tracer = Tracer()
    tracer.install()
    try:
        assert circle_potential.run_all is not run_all
        GridSet.full(CircleGrid(64)).union(GridSet.empty(CircleGrid(64)))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "circle.GridSet.full" in names and "circle.GridSet.union" in names
    assert circle_potential.run_all is run_all
    for (cls, meth), raw in methods.items():
        assert getattr(circle, cls).__dict__[meth] is raw, (cls, meth)
