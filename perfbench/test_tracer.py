"""Tests of the benchmark's own tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib
import inspect
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hslab  # noqa: E402
from tracer import MODULES, Tracer, leftover_wrappers  # noqa: E402


def _snapshot():
    """Identity of every module attribute and class attribute in hslab."""
    mods = [hslab] + [importlib.import_module("hslab." + m) for m in MODULES]
    snap = {}
    for mod in mods:
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
            if inspect.isclass(value) and value.__module__.startswith("hslab."):
                for cattr, raw in vars(value).items():
                    snap[(value.__qualname__, cattr)] = id(raw)
    return snap


def _family():
    from hslab import FamilyConfig, LineBundleTriple
    return FamilyConfig(LineBundleTriple(1, 2, 2, role="V0"),
                        LineBundleTriple(2, -1, 0, role="V1"))


def test_uninstall_restores_every_original():
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        assert leftover_wrappers()
        hslab.Scalar.of(2) * hslab.Scalar.of(3)
    assert _snapshot() == before
    assert leftover_wrappers() == []
    assert tracer.calls("scalars.Scalar.__mul__") == 1


def test_uninstall_restores_after_an_exception():
    before = _snapshot()
    try:
        with Tracer():
            hslab.Scalar.of(1, 1).inverse()
            hslab.Scalar.of(1) + hslab.Scalar.pi()
            (hslab.Scalar.of(1) + hslab.Scalar.pi()).inverse()
    except ZeroDivisionError:
        pass
    assert _snapshot() == before


def test_calls_are_counted_per_binding_site_and_self_time_excludes_children():
    from hslab.iwasawa import build_iwasawa
    from hslab.bundles import SystemParams, LineBundleTriple
    model, omega0, Omega = build_iwasawa()
    h = hslab.HermitianStructure(model, omega0)
    t0 = LineBundleTriple(1, 0, 0, role="V0")
    t1 = LineBundleTriple(0, 1, 0, role="V1")
    s = SystemParams(model=model, h=h, triple0=t0, triple1=t1,
                     F0=hslab.curvature_from_triple(model, t0),
                     F1=hslab.curvature_from_triple(model, t1),
                     alpha=hslab.Scalar.one(), Omega=Omega)
    tracer = Tracer()
    with tracer:
        hslab.iwasawa.harmonic_residual(s)
        hslab.harmonic.harmonic_residual(s)
    name = "harmonic.harmonic_residual"
    assert tracer.calls(name) == 2
    assert tracer.via_site("iwasawa", name)[0] == 1
    total = tracer.total_s(name)
    assert 0 < tracer.self_s(name) < total
    # the moment residuals are wrapped children of harmonic_residual
    assert tracer.calls("harmonic.moment_residuals") == 2
    assert tracer.total_s("harmonic.moment_residuals") <= total
    # spans of the upper layers point at their wrapped parent
    names = {span[0]: span[2] for span in tracer.spans}
    parents = {names[span[1]] for span in tracer.spans
               if span[2] == "harmonic.moment_residuals"}
    assert parents == {name}


def test_counts_repeat_for_the_same_work():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            hslab.verify_family(hslab.make_family(_family()))
        counts.append(tracer.call_counts())
    assert counts[0] == counts[1]
    assert counts[0]["algebroid.connection_DG"] >= 1
