"""Fixtures for the kernel certificate suites."""

from contextlib import contextmanager

import pytest

from repro.kernels import ops, profiled, reference


@pytest.fixture
def scalar_kernels(monkeypatch):
    """Context manager routing every ``kernel_ops.<name>`` call to the scalar loops.

    Consumers call the kernels through the ``repro.kernels.ops`` module
    attributes, so swapping those attributes for their
    ``repro.kernels.reference`` namesakes replays a whole consumer — grid
    index, repair engine, event queue — on the oracle.  The swap is undone
    when the ``with`` block exits.
    """

    @contextmanager
    def swapped():
        with monkeypatch.context() as patch, profiled() as prof:
            for name in ops.__all__:
                patch.setattr(ops, name, getattr(reference, name))
            yield
        # The numpy kernels are metered and the reference loops are not, so
        # any count here is a consumer call that bypassed the swap.
        assert prof.snapshot() == {}

    return swapped
