"""The benchmark's per-layer tracer names functions of the program; it
refuses to run when one has no binding site.  Check every name here, so a
rename or deletion that would break the benchmark fails the test suite."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    names = [(layer, q) for layer, qs in spans.LAYERS.items() for q in qs]
    names.append(("modules", "StringInventory.tau"))
    missing = []
    for layer, qualname in names:
        module = importlib.import_module(f"clusterlab.{layer}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{layer}.{qualname}")
    assert not missing, f"traced names without a binding: {missing}"
