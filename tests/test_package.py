"""The package's public surface and its dependencies."""

import dataclasses
import inspect
import os
import subprocess
import sys

import sramntt
from sramntt import bitparallel, cli, ntt, perf, subarray

REMOVED = ("bp_modmul", "run_stream", "MicroOp", "microop_view", "counts_of_ops",
           "ntt_forward", "ntt_inverse", "pointwise_mul",
           "ACTIVATE2_KIND", "WRITEBACK_KIND", "DirectEmitter", "CollectEmitter",
           "apply_op", "create_subarray", "radix_inverse", "to_dict", "from_dict",
           "negacyclic", "tile_origin", "spill_map", "generated", "step_callback",
           "omega", "b_row", "snapshot", "bits_from_list", "bits_to_list",
           "select_m", "resolve_carry_save", "bp_add", "to_text",
           "bp_modadd", "bp_modsub", "_headroom_or_raise", "primitive_counts",
           "butterfly_counts", "swap_write_count", "_forward_schedule", "_inverse_schedule",
           "_scale_rows")


def test_all_names_resolve():
    assert len(set(sramntt.__all__)) == len(sramntt.__all__)
    for name in sramntt.__all__:
        assert getattr(sramntt, name) is not None, name


def test_removed_names_are_gone():
    """No module, and no class of the package (methods, properties, slots and
    dataclass fields), still has a removed name."""
    modules = [sramntt, bitparallel, cli, ntt, perf, subarray]
    classes = {cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__.startswith("sramntt")}
    for name in REMOVED:
        assert name not in sramntt.__all__
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)
        for cls in classes:
            fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
            assert not hasattr(cls, name), (cls.__name__, name)
            assert name not in {f.name for f in fields}, (cls.__name__, name)


def test_no_runtime_dependency_outside_the_standard_library():
    """Importing the package and its command line loads only stdlib modules."""
    code = ("import sys; before = set(sys.modules); import sramntt, sramntt.cli; "
            "print(*{m.split('.')[0] for m in set(sys.modules) - before})")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True,
                         env={**os.environ, "PYTHONPATH": os.path.dirname(sramntt.__path__[0])})
    foreign = set(out.stdout.split()) - set(sys.stdlib_module_names) - {"sramntt"}
    assert not foreign, foreign
