"""The benchmark's tracer binds orbiflip names by string; they must resolve.

perfbench/tracer.py is loaded from its file, not edited or installed, so a
rename or deletion in orbiflip that would break `perfbench/run.py --trace 1`
fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import orbiflip
import orbiflip.cli  # noqa: F401  (the tracer wraps cli.main)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    modules = {name: getattr(orbiflip, name) for name in tracer.MODULES}
    for module, attr in tracer.SPANNED + tracer.GENERATORS + tracer.COUNTED:
        assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"
    assert callable(modules["linalg"].StrandComplex.homology)


def test_read_caches_exist():
    tracer = _load_tracer()
    sheaves = orbiflip.sheaves
    for attr in tracer.PATTERN_CACHES:
        assert callable(getattr(sheaves, attr).cache_info), attr
    assert callable(orbiflip.resolution.module_resolution.cache_info)
    assert isinstance(sheaves._HYPER_MEMO, dict)


def test_pinned_module_aliases():
    # perfbench/test_perfbench.py::test_tracer_rebinds_every_alias_and_restores_them
    # reads these module bindings, so each must stay where it is.
    engine = orbiflip.exact.chain_reduce_homology
    assert orbiflip.resolution.chain_reduce_homology is engine
    assert orbiflip.sheaves.chain_reduce_homology is engine
    assert orbiflip.functors.strand is orbiflip.resolution.strand is orbiflip.linalg.strand
    assert orbiflip.cli.apply_functor is orbiflip.functors.apply
