"""Figure 4 regenerator: BW-AWARE vs shrinking BO capacity."""

from conftest import emit
from repro.experiments import fig04_capacity


def test_fig4_capacity_sweep(regenerate):
    figure = regenerate(fig04_capacity.run)
    emit(figure)
    mean = figure.get("geomean")
    # Near-peak performance down to 70% of the footprint in BO: the
    # "30% effective extra capacity" claim.
    assert mean.y_at(1.0) >= 0.99
    assert mean.y_at(0.7) >= 0.95
    # Falloff below the 70% knee.
    assert mean.y_at(0.5) < mean.y_at(0.7)
    assert mean.y_at(0.1) < 0.6
    # Memory-insensitive workloads hold their performance (comd).
    assert figure.get("comd").y_at(0.1) > 0.9


def test_spill_goes_to_the_nearest_pool():
    """Section 2.2: a full local pool spills to the SLIT-nearest zone.

    On two pools every spill order is the same, so this runs on the
    three-pool system (HBM, then GDDR5, then DDR4 by SLIT distance)
    with HBM shrunk to 10% of the footprint: LOCAL fills HBM and puts
    every other page in GDDR5, none in DDR4.
    """
    from repro.core.experiment import run_experiment
    from repro.memory.topology import three_pool_topology

    for name in ("bfs", "xsbench", "lbm"):
        result = run_experiment(name, policy="LOCAL",
                                topology=three_pool_topology(),
                                bo_capacity_fraction=0.1,
                                trace_accesses=20_000)
        hbm, gddr, ddr = result.zone_page_counts
        assert hbm > 0 and gddr > 0 and ddr == 0, (name, hbm, gddr, ddr)
