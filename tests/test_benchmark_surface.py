"""The benchmark harness (``perfbench/``) wraps library names by name, so
a name it depends on must not disappear from the library unnoticed."""

from pathlib import Path

import circle_potential
from circle_potential import (Arc, CircleGrid, GridSet, SolverConfig, circle, classical_capacity,
                              l2_capacity)
from circle_potential.uniqueness import CantorSpec, PowerChoice, cantor_grid_set


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


def test_benchmark_capacity_checks_read_the_minimizer(monkeypatch):
    """``perfbench.oracle``'s capacity checks read ``est.minimizer`` as an
    N-cell array. An estimate builds it only when it is read, so it is
    absent until then; the checks, imported unchanged, pass estimates of
    both methods on an arc, a Cantor set and the full circle."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.oracle import check_classical, check_l2

    grid = CircleGrid(256)
    sets = {  # one run, eight runs, every cell
        "arc": GridSet.from_arcs(grid, Arc.centered(0.4, 1.1)),
        "cantor": cantor_grid_set(CantorSpec(rule=PowerChoice(0.5), depth=3, host=Arc.centered(0.0, 3.0),
                                             offset=3, scale_to_host=True), grid),
        "full": GridSet.full(grid),
    }
    tolerance = SolverConfig().tolerance
    for name, e in sets.items():
        for est, check, param in ((classical_capacity(e, 0.5), check_classical, 0.5),
                                  (l2_capacity(e, 0.75), check_l2, 0.75)):
            assert "minimizer" not in vars(est), (name, est.method)
            check(est, e.indices, param, tolerance)
            assert vars(est)["minimizer"].shape == (256,), (name, est.method)
