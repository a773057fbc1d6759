"""Headline fidelity bands: every calibration headline against the paper.

The bands hold at **quick scale** (``suite_config(quick=True)``: 3e5-edge
graphs, 48-seed batches, all five datasets) and read the ``calibration``
record of the pinned quick suite (the ``quick_suite`` fixture).  Quick
scale is not default scale: ``repro calibrate`` runs 2e6-edge graphs and
its table can sit elsewhere (oracle/PMEM is 87% here, 71% there).

Each band is written from the paper value in the figure modules'
``PAPER`` dicts by one tolerance rule per kind of headline:

``speedup``
    A speedup over ``ssd-mmap`` (average or maximum over the datasets):
    within 30% of the paper value either way.  The simulated SSD and host
    come from published parameters, not measured silicon, and quick
    graphs are ~7x smaller than default ones, so a speedup within 30%
    reproduces the paper's claim in kind and rough size.
``factor``
    An approximate reduction factor the paper states as "~N x": within a
    factor of 2 either way.
``slowdown``
    A slowdown near 1: its excess over 1 within a factor of 2 either way
    (paper 1.2x gives [1.1x, 1.4x]).  A relative band on the ratio itself
    would accept no slowdown at all.
``fraction``
    One design's performance as a fraction of another's: within 10
    percentage points, the precision at which the paper states it.

A headline outside its band is a strict expected failure whose reason is
the diagnosis so far.  Fixing the model turns it into an unexpected pass,
which fails until its marker goes.  Never widen a band to make a headline
pass.
"""

import pytest

from repro.experiments import (
    fig14_single_worker as fig14,
    fig16_multi_worker as fig16,
    fig18_end_to_end as fig18,
)


def _speedup(paper):
    return 0.7 * paper, 1.3 * paper


def _factor(paper):
    return paper / 2, paper * 2


def _slowdown(paper):
    excess = paper - 1.0
    return 1.0 + excess / 2, 1.0 + excess * 2


def _fraction(paper):
    return paper - 0.10, paper + 0.10


#: calibration metric -> (paper value, tolerance rule)
BANDS = {
    "fig14_sw_avg": (fig14.PAPER["sw_avg"], _speedup),
    "fig14_hwsw_avg": (fig14.PAPER["hwsw_avg"], _speedup),
    "fig14_hwsw_max": (fig14.PAPER["hwsw_max"], _speedup),
    "fig14_data_movement_reduction_avg": (
        fig14.PAPER["data_movement_reduction_avg"], _factor,
    ),
    "fig16_hwsw_avg": (fig16.PAPER["hwsw_avg"], _speedup),
    "fig16_hwsw_max": (fig16.PAPER["hwsw_max"], _speedup),
    "fig16_sw_avg": (fig16.PAPER["sw_avg"], _speedup),
    "fig18_hwsw_vs_mmap_avg": (fig18.PAPER["hwsw_vs_mmap_avg"], _speedup),
    "fig18_hwsw_vs_mmap_max": (fig18.PAPER["hwsw_vs_mmap_max"], _speedup),
    "fig18_sw_vs_mmap_avg": (fig18.PAPER["sw_vs_mmap_avg"], _speedup),
    "fig18_pmem_vs_dram_avg": (
        fig18.PAPER["pmem_vs_dram_slowdown"], _slowdown,
    ),
    "fig18_oracle_frac_of_dram_avg": (
        fig18.PAPER["oracle_frac_of_dram"], _fraction,
    ),
    "fig18_oracle_frac_of_pmem_avg": (
        fig18.PAPER["oracle_frac_of_pmem"], _fraction,
    ),
}

#: headlines outside their band at quick scale -> the diagnosis so far
OUT_OF_BAND = {
    "fig14_data_movement_reduction_avg": (
        "~96x against the paper's ~20x: the ratio is direct-I/O extents "
        "over ISP output (sw_bytes / hwsw_bytes); the paper may count "
        "mmap page traffic or another host path, and the definition is "
        "not settled yet"
    ),
    "fig18_pmem_vs_dram_avg": (
        "1.005x against the paper's 1.2x: dram and pmem are both "
        "GPU-bound; per batch, sampling (0.18 ms dram, 0.91 ms pmem) "
        "hides behind gnn_training's 2.37 ms, 2.0 ms of it the constant "
        "GPUParams.kernel_overhead_s"
    ),
    "fig18_oracle_frac_of_dram_avg": (
        "86% against the paper's 70%: the oracle's ISP sampling hides "
        "behind the GPU's fixed kernel_overhead_s, and lowering that "
        "cost to fit PMEM/DRAM drops oracle/DRAM far below 70%; which "
        "loop the paper ran (producers overlapped with training, or "
        "sampling on the critical path) is not settled yet"
    ),
}


@pytest.fixture(scope="module")
def headlines(quick_suite):
    (record,) = quick_suite["run-all"].outcomes["calibration"].records
    return record.metrics


def test_every_headline_has_one_band(headlines):
    assert set(BANDS) == set(headlines)
    assert set(OUT_OF_BAND) <= set(BANDS)


@pytest.mark.parametrize(
    "metric",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(strict=True, reason=OUT_OF_BAND[name]),
        )
        if name in OUT_OF_BAND
        else name
        for name in BANDS
    ],
)
def test_headline_in_band(headlines, metric):
    paper, rule = BANDS[metric]
    low, high = rule(paper)
    assert low <= headlines[metric] <= high, (
        f"{metric} = {headlines[metric]:.4g}, band [{low:.4g}, {high:.4g}] "
        f"around the paper's {paper}"
    )


@pytest.mark.parametrize(
    "rule,paper,band",
    [
        (_speedup, 10.0, (7.0, 13.0)),
        (_factor, 20.0, (10.0, 40.0)),
        (_slowdown, 1.2, (1.1, 1.4)),
        (_fraction, 0.7, (0.6, 0.8)),
    ],
)
def test_tolerance_rules(rule, paper, band):
    assert rule(paper) == pytest.approx(band)
