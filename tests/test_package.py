"""The package's public surface."""

import sramntt

REMOVED = ("bp_modmul", "run_stream", "MicroOp", "microop_view", "counts_of_ops",
           "ntt_forward", "ntt_inverse", "pointwise_mul",
           "ACTIVATE2_KIND", "WRITEBACK_KIND")


def test_all_names_resolve():
    assert len(set(sramntt.__all__)) == len(sramntt.__all__)
    for name in sramntt.__all__:
        assert getattr(sramntt, name) is not None, name


def test_removed_names_are_gone():
    modules = [sramntt] + [getattr(sramntt, m) for m in
                           ("bitparallel", "cli", "ntt", "perf", "subarray")]
    for name in REMOVED:
        assert name not in sramntt.__all__
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)
