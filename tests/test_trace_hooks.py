"""The benchmark's traced run (perfbench/spans.py) wraps names that it looks up on
pentapower's modules, and each module exports the names in its __all__; a refactor
that drops or renames one must fail here."""

import importlib
from pathlib import Path

import pytest

import pentapower
from pentapower import MatrixSpec, PowerRequest, chebyshev, cli, oracle, power, spectrum


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("spans")


def test_every_hooked_name_resolves_and_is_restored(spans):
    tracer = spans.Tracer()
    spec = MatrixSpec(n=6, a=2, b=1 + 1j)
    try:
        spans.patch_kernel(tracer, power)
        spans.patch_oracle(tracer, oracle)
        spans.patch_cli(tracer, cli)
        cli.power_matrix(PowerRequest(spec=spec, r=3))
        oracle.naive_power(spec, 3)
    finally:
        tracer.unpatch()
    names = {span[0] for span in tracer.spans}
    assert {"power.power_matrix", "oracle.naive_power", "oracle.mat_mul"} <= names
    assert power.ipow is chebyshev.ipow
    assert cli.power_matrix is power.power_matrix
    assert "make_context" not in vars(cli.power_cmd)
    recorded = len(tracer.spans)
    oracle.naive_power(spec, 3)
    assert len(tracer.spans) == recorded


@pytest.mark.parametrize("module", [pentapower, chebyshev, spectrum, power, oracle], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
