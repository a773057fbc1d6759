"""Tests for the SSD write path, CLI, and cache-sensitivity ablation."""

import pytest

from repro.config import HardwareParams
from repro.errors import StorageError
from repro.storage import SSDevice


@pytest.fixture
def ssd():
    return SSDevice(HardwareParams())


# -- write path ---------------------------------------------------------


def test_write_back_faster_than_write_through(ssd):
    wb = ssd.host_write_latency(16384, write_back=True)
    wt = ssd.host_write_latency(16384, write_back=False)
    assert wb < wt
    # write-through pays at least one tPROG (660 us)
    assert wt - wb >= ssd.hw.nand.program_latency_s * 0.9


def test_write_back_ack_latency_is_transfer_bound(ssd):
    t = ssd.host_write_latency(4096, write_back=True)
    assert t < 100e-6  # no flash program on the ack path


def test_gc_amplification_slows_full_drive(ssd):
    empty = ssd.host_write_latency(
        65536, write_back=False, fill_fraction=0.0
    )
    full = ssd.host_write_latency(
        65536, write_back=False, fill_fraction=0.8
    )
    assert full > 2 * empty  # 1/(1-0.8) = 5x program amplification


def test_write_validation(ssd):
    with pytest.raises(StorageError):
        ssd.host_write_latency(0)
    with pytest.raises(StorageError):
        ssd.host_write_latency(4096, fill_fraction=1.0)


def test_nand_program_time_monotone(ssd):
    nand = ssd.nand
    assert nand.extent_program_time_qd1(0) == 0.0
    one = nand.extent_program_time_qd1(4096)
    four = nand.extent_program_time_qd1(4 * 16384)
    assert one > nand.params.program_latency_s
    assert four > one


# -- cache sensitivity ablation -------------------------------------------


def test_cache_sensitivity_shape(quick_outcome):
    found = quick_outcome("cache-sensitivity")
    result = found.result
    fracs = result["cache_fracs"]
    # bigger cache -> higher hit rate, lower cost
    assert result["hit_rates"][fracs[-1]] > result["hit_rates"][fracs[0]]
    assert result["mmap_ms"][fracs[-1]] < result["mmap_ms"][fracs[0]]
    # but mmap never beats latency-optimized direct I/O
    assert result["mmap_ms"][fracs[-1]] > result["sw_ms"]
    assert "latency, not locality" in found.rendered


# -- CLI -------------------------------------------------------------------


def test_cli_list(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig14" in out
    assert "ablations" in out


def test_cli_run_quick(capsys):
    from repro.__main__ import main

    assert main(["run", "table1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "reddit" in out


def test_cli_unknown_experiment(capsys):
    from repro.__main__ import main

    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err
