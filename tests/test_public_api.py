"""The public API surface stays importable and coherent."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet_runs(self):
        """The README / module docstring quickstart must stay valid."""
        from repro import Customization, FCad, build_codec_avatar_decoder, get_device

        result = FCad(
            network=build_codec_avatar_decoder(),
            device=get_device("Z7045"),
            quant="int8",
            customization=Customization(
                batch_sizes=(1, 2, 2), priorities=(1.0, 1.0, 1.0)
            ),
        ).run(iterations=2, population=10, seed=0)
        assert "F-CAD" in result.render()

    @pytest.mark.parametrize(
        "module",
        [
            "repro.ir",
            "repro.frontend",
            "repro.profiler",
            "repro.models",
            "repro.runtime",
            "repro.quant",
            "repro.arch",
            "repro.analysis",
            "repro.construction",
            "repro.perf",
            "repro.dse",
            "repro.baselines",
            "repro.sim",
            "repro.devices",
            "repro.fcad",
            "repro.experiments",
            "repro.utils",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    def test_surrogate_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.dse.surrogate")

    @pytest.mark.parametrize(
        "name",
        [
            "CalibratedOracle",
            "ResidualCalibration",
            "SurrogateFilter",
            "calibration_from_cache",
            "harvest_entries",
        ],
    )
    def test_removed_surrogate_exports_stay_gone(self, name):
        import repro.dse

        assert name not in repro.dse.__all__
        assert not hasattr(repro.dse, name)

    def test_subpackage_all_exports_resolve(self):
        for module_name in (
            "repro.ir",
            "repro.dse",
            "repro.perf",
            "repro.sim",
            "repro.baselines",
            "repro.devices",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"
