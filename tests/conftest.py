import pytest

from reidlab import numerics

# The compiled matmul kernel as the import chose it, or None where it could
# not be built, loaded or pass its self-test.
COMPILED_KERNEL = numerics._kernel if numerics.MATMUL_KERNEL == "compiled" else None


@pytest.fixture(params=["compiled", "numpy"])
def matmul_kernel(request, monkeypatch):
    """Run the test with numerics.matmul on each kernel in turn."""
    if request.param == "compiled":
        if COMPILED_KERNEL is None:
            pytest.skip("the compiled matmul kernel is not available here")
        kernel = COMPILED_KERNEL
    else:
        kernel = numerics._matmul_numpy
    monkeypatch.setattr(numerics, "_kernel", kernel)
    return request.param
