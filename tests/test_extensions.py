"""Tests for the extension experiments: energy, ablations, sensitivity,
fidelity.

The experiments' results come from the golden quick suite (the
``quick_suite`` fixture, ``tests/golden.py``).
"""

import pytest

from repro.core.energy import EnergyReport, PowerBudget, energy_comparison
from repro.errors import ConfigError


# -- power/energy model -------------------------------------------------


def test_power_budget_components():
    budget = PowerBudget()
    busy = budget.system_power(1.0, uses_ssd=True)
    idle = budget.system_power(0.0, uses_ssd=True)
    assert busy > idle
    assert busy - idle == pytest.approx(
        budget.gpu_active_w - budget.gpu_idle_w
    )


def test_power_budget_pmem_and_isp_extra():
    base = PowerBudget().system_power(0.5, uses_ssd=True)
    with_isp = PowerBudget(isp_extra_w=4.0).system_power(
        0.5, uses_ssd=True
    )
    assert with_isp == pytest.approx(base + 4.0)
    no_ssd = PowerBudget().system_power(0.5, uses_ssd=False,
                                        uses_pmem=True)
    assert no_ssd > PowerBudget().system_power(0.5, uses_ssd=False)


def test_power_budget_validation():
    with pytest.raises(ConfigError):
        PowerBudget().system_power(1.5, uses_ssd=True)


def test_energy_report_joules():
    report = EnergyReport(design="x", elapsed_s=2.0, avg_power_w=100.0)
    assert report.energy_j == pytest.approx(200.0)


def test_energy_experiment_saves_energy(quick_outcome):
    found = quick_outcome("energy")
    assert found.result["avg_energy_saving"] > 1.5
    for d in found.result["per_dataset"].values():
        assert d["energy_saving_vs_mmap"] > 1.5
        # energy saving tracks time saving (firmware adds ~no power)
        assert d["energy_saving_vs_mmap"] == pytest.approx(
            d["time_saving_vs_mmap"], rel=0.4
        )
    assert "power" in found.rendered


def test_energy_comparison_uses_oracle_extra_power():
    class FakeResult:
        elapsed_s = 1.0
        gpu_idle_fraction = 0.5

    reports = energy_comparison(
        {"smartsage-hwsw": FakeResult(), "smartsage-oracle": FakeResult()}
    )
    assert (
        reports["smartsage-oracle"].avg_power_w
        > reports["smartsage-hwsw"].avg_power_w
    )


# -- ablations -------------------------------------------------------------


def test_ablations_ladder(quick_outcome):
    found = quick_outcome("ablations")
    s = found.result["speedups"]
    assert s["ssd-mmap (baseline)"] == pytest.approx(1.0)
    # the ladder must be ordered: baseline < SW variants < HW/SW variants
    assert s["SW without scratchpad"] > 1.0
    assert s["HW/SW (full)"] > s["SW (direct I/O + scratchpad)"]
    assert s["HW/SW (full)"] > s["HW/SW without coalescing"]
    assert "[ok] coalescing helps" in found.rendered


# -- batch-size sensitivity ---------------------------------------------


def test_batch_sensitivity_flat(quick_outcome):
    found = quick_outcome("batch-sensitivity")
    assert found.result["max_spread"] < 1.8
    assert "little effect" in found.rendered


# -- fidelity ---------------------------------------------------------------


def test_fidelity_modes_agree_single_worker(quick_outcome):
    result = quick_outcome("fidelity").result
    for design, d in result["designs"].items():
        assert d["agreement_1w"] == pytest.approx(1.0, abs=0.35), design
        assert d["contention_8w"] > 0.8, design
