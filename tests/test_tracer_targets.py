"""The benchmark tracer wraps library names; a rename must fail here, not in the benchmark."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest
import scipy.sparse.linalg

import wavekit
import wavekit.cli  # noqa: F401  (imports every layer the tracer wraps)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_resolves(tracer):
    for module, attr, layer in tracer.TARGETS:
        owner, name = tracer._resolve(module, attr)
        assert callable(vars(owner)[name]), f"{module}.{attr}"
        assert layer in tracer.LAYERS or layer == tracer.ORCHESTRATION


def test_factorizations_are_visible_to_the_splu_wrapper(tracer):
    # install_splu rebinds the module-level name `splu` of each module in
    # SPLU_MODULES: a module that factorizes must call splu through that
    # name, and a module that does not factorize binds nothing to wrap.
    # wavekit factors by LAPACK's band LU (counted by Stepper.factorizations)
    # and imports no scipy.sparse at all
    pkg = Path(wavekit.__file__).parent
    callers = set()
    for path in sorted(pkg.glob("*.py")):
        src = path.read_text()
        modname = f"wavekit.{path.stem}"
        assert not re.search(r"\.splu\(", src), f"{modname} calls splu through an attribute"
        assert "scipy.sparse" not in src, f"{modname} imports scipy.sparse"
        if re.search(r"\bsplu\(", src):
            callers.add(modname)
    for modname in callers:
        assert modname in tracer.SPLU_MODULES
        mod = importlib.import_module(modname)
        assert mod.splu is scipy.sparse.linalg.splu, modname
    for modname in tracer.SPLU_MODULES:
        mod = importlib.import_module(modname)
        assert getattr(mod, "splu", scipy.sparse.linalg.splu) is scipy.sparse.linalg.splu
