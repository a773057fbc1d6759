"""Tests for NAND, FTL, page buffer, controller, NVMe, PCIe, cores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EmbeddedParams, NANDParams, SSDParams
from repro.errors import StorageError
from repro.storage import (
    EmbeddedCores,
    FlashArray,
    FlashController,
    FlashTranslationLayer,
    NVMeCommand,
    NVMeInterface,
    NVMeOpcode,
    PageBuffer,
    PCIeFabric,
)

# -- NAND -------------------------------------------------------------------


def test_nand_pages_for():
    nand = FlashArray(NANDParams(page_bytes=16384))
    assert nand.pages_for(0) == 0
    assert nand.pages_for(1) == 1
    assert nand.pages_for(16384) == 1
    assert nand.pages_for(16385) == 2
    with pytest.raises(StorageError):
        nand.pages_for(-1)


def test_nand_page_service_has_tr_floor():
    nand = FlashArray()
    assert nand.page_service_time() > nand.params.read_latency_s
    # partial reads still pay full tR
    assert nand.page_service_time(512) > nand.params.read_latency_s


def test_nand_extent_qd1_single_tr_for_multi_page():
    """A contiguous extent pays tR once; later pages pipeline on the bus."""
    nand = FlashArray()
    one = nand.extent_read_time_qd1(4096)
    three = nand.extent_read_time_qd1(3 * 16384)
    assert three < 3 * one  # much cheaper than 3 separate reads
    assert three > one


def test_nand_batch_read_parallelism():
    nand = FlashArray(NANDParams(channel_count=8, ways_per_channel=4))
    serial = nand.batch_read_time(64, parallelism=1)
    parallel = nand.batch_read_time(64)
    assert parallel == pytest.approx(serial / 32, rel=0.01)


def test_nand_sustained_bandwidth_positive():
    nand = FlashArray()
    assert nand.sustained_read_bandwidth() > 1e9  # > 1 GB/s internally


def test_nand_geometry_validation():
    with pytest.raises(StorageError):
        FlashArray(NANDParams(page_bytes=0))


# -- FTL ---------------------------------------------------------------------


def test_ftl_translation_in_range():
    ftl = FlashTranslationLayer(total_pages=10_000, seed=1)
    lpns = np.arange(0, 10_000, 7)
    ppns = ftl.translate(lpns)
    assert ppns.min() >= 0
    assert ppns.max() < 10_000


def test_ftl_bijective():
    ftl = FlashTranslationLayer(total_pages=5000, seed=2)
    assert ftl.is_bijective_over(sample=5000)


def test_ftl_full_domain_is_permutation():
    ftl = FlashTranslationLayer(total_pages=2048, seed=3)
    ppns = ftl.translate(np.arange(2048))
    assert np.array_equal(np.sort(ppns), np.arange(2048))


def test_ftl_deterministic_per_seed():
    a = FlashTranslationLayer(1000, seed=4).translate(np.arange(100))
    b = FlashTranslationLayer(1000, seed=4).translate(np.arange(100))
    c = FlashTranslationLayer(1000, seed=5).translate(np.arange(100))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ftl_scatters_sequential_pages():
    """Wear leveling: consecutive LPNs should not stay consecutive."""
    ftl = FlashTranslationLayer(total_pages=4096, seed=6)
    ppns = ftl.translate(np.arange(64))
    diffs = np.abs(np.diff(np.sort(ppns)))
    assert np.median(np.abs(np.diff(ppns))) > 1


def test_ftl_rewrite_remaps():
    ftl = FlashTranslationLayer(total_pages=100, seed=7)
    old = ftl.translate_one(5)
    fresh = ftl.rewrite(5)
    assert fresh >= 100  # spare area
    assert ftl.translate_one(5) == fresh
    assert ftl.translate_one(6) != fresh


def test_ftl_range_checks():
    ftl = FlashTranslationLayer(total_pages=10)
    with pytest.raises(StorageError):
        ftl.translate(np.array([10]))
    with pytest.raises(StorageError):
        ftl.rewrite(-1)
    with pytest.raises(StorageError):
        FlashTranslationLayer(0)


@given(st.integers(min_value=2, max_value=5000), st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_ftl_bijectivity_property(total_pages, seed):
    ftl = FlashTranslationLayer(total_pages, seed=seed)
    n = min(total_pages, 512)
    lpns = np.arange(n)
    ppns = ftl.translate(lpns)
    assert np.unique(ppns).size == n
    assert ppns.max() < total_pages


# -- page buffer --------------------------------------------------------------


def test_page_buffer_lru():
    buf = PageBuffer(capacity_pages=2)
    assert not buf.hit_mask([1])[0]
    assert not buf.hit_mask([2])[0]
    assert buf.hit_mask([1])[0]      # 1 MRU
    assert not buf.hit_mask([3])[0]  # evicts 2
    assert not buf.hit_mask([2])[0]
    assert buf.hits == 1


def test_page_buffer_batch():
    buf = PageBuffer(capacity_pages=10)
    buf.hit_mask([1, 2, 1, 3, 2])
    assert (buf.hits, buf.misses) == (2, 3)


def test_page_buffer_hit_mask():
    buf = PageBuffer(capacity_pages=10)
    mask = buf.hit_mask(np.array([5, 5, 6, 5]))
    assert mask.tolist() == [False, True, False, True]


def test_page_buffer_validation():
    with pytest.raises(StorageError):
        PageBuffer(0)


# -- controller ---------------------------------------------------------------


def test_controller_lpns_for_extent():
    nand = FlashArray(NANDParams(page_bytes=16384))
    ctrl = FlashController(nand, SSDParams(lba_bytes=4096))
    assert ctrl.lbas_per_page == 4
    lpns = ctrl.lpns_for_extent(lba=3, n_blocks=2)  # crosses page 0 only
    assert lpns.tolist() == [0, 1]
    assert ctrl.lpns_for_extent(0, 0).size == 0
    with pytest.raises(StorageError):
        ctrl.lpns_for_extent(-1, 1)


def test_controller_plan_extent():
    nand = FlashArray()
    ctrl = FlashController(nand, SSDParams())
    plan = ctrl.plan_extent(10_000)
    assert plan.n_pages == 1
    assert plan.flash_time_qd1_s > 0
    assert plan.bytes_from_flash == 16384


def test_controller_channel_spread():
    nand = FlashArray()
    ctrl = FlashController(nand, SSDParams())
    lpns = np.arange(256, dtype=np.int64)
    assert ctrl.channel_spread(lpns) > 0.8  # near-uniform striping


# -- NVMe ---------------------------------------------------------------------


def test_nvme_command_validation():
    with pytest.raises(StorageError):
        NVMeCommand(opcode=NVMeOpcode.READ, lba=-1)
    with pytest.raises(StorageError):
        NVMeCommand(opcode=NVMeOpcode.SAMPLE_SUBGRAPH)  # no payload


def test_nvme_isp_command_flag():
    cmd = NVMeCommand(opcode=NVMeOpcode.SAMPLE_SUBGRAPH, nsconfig_bytes=128)
    assert cmd.is_isp
    read = NVMeCommand(opcode=NVMeOpcode.READ, block_count=1)
    assert not read.is_isp


def test_nvme_interface_counters():
    iface = NVMeInterface()
    iface.command_cost_s()
    iface.command_cost_s(
        NVMeCommand(opcode=NVMeOpcode.SAMPLE_SUBGRAPH, nsconfig_bytes=64)
    )
    assert iface.commands_issued == 2
    assert iface.isp_commands == 1


# -- PCIe ---------------------------------------------------------------------


def test_pcie_transfer_times_ordered():
    fabric = PCIeFabric()
    n = 1 << 20
    assert fabric.gpu_transfer_time(n) < fabric.host_transfer_time(n)
    assert fabric.p2p_transfer_time(n) > fabric.host_transfer_time(n)


# -- embedded cores --------------------------------------------------------


def test_embedded_effective_cores_reserved():
    cores = EmbeddedCores(EmbeddedParams(core_count=2, firmware_reserve_frac=0.2))
    assert cores.isp_core_count == pytest.approx(1.6)


def test_embedded_oracle_has_dedicated_cores():
    cores = EmbeddedCores(dedicated_isp_cores=True)
    assert cores.isp_core_count == 4.0


def test_embedded_isp_cost_components():
    params = EmbeddedParams(
        isp_target_setup_s=10e-6, isp_per_sample_s=1e-6, isp_page_manage_s=2e-6
    )
    cores = EmbeddedCores(params)
    cost = cores.isp_sampling_cost(n_targets=10, n_samples=100, n_pages=5)
    assert cost == pytest.approx(10 * 10e-6 + 100 * 1e-6 + 5 * 2e-6)
    assert cores.core_seconds_isp == pytest.approx(cost)


def test_embedded_elapsed_single_threaded_per_command():
    """One command's ISP work runs on one core (firmware event loop);
    cross-command parallelism is the event mode's job."""
    cores = EmbeddedCores(EmbeddedParams(core_count=2))
    assert cores.isp_elapsed(1.0) == pytest.approx(1.0)
