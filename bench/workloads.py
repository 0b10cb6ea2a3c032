"""The benchmark's named design workloads.

Each workload is a ``run_cms`` call on a generated network, the fixture
below.  Only an explicit demand jitter makes seed-dependent variants of it
(see ``Workload.network``).  The network and the ``RunConfig`` are made
here, so the program under test receives only generated inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from sccopt.netgen import grid_network, random_network
from sccopt.netmodel import NetworkModel
from sccopt.pipeline import RunConfig

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_network: Callable[[], NetworkModel]
    config: dict

    def network(self, seed: int, variant: int = 0, jitter: float = 0.0) -> NetworkModel:
        """Input ``variant`` of the run with ``seed``.

        With ``jitter`` 0 (the benchmark's default) every seed and variant
        gives the fixture network, so a run's time measures the program and
        the machine, not the input.  With ``jitter`` > 0 a seed other than the
        default gives the same topology, pipes and source heads with every
        demand scaled by a factor drawn uniformly from [1 - jitter,
        1 + jitter] by (seed, variant).

        The solver's work is chaotic in its input: a relative demand change
        of 1e-9 moves rand100x4's call between 7.9 and 11.2 s, one of 1e-6
        moved its scc_smooth from 0.538 to 0.634, and 1% changes move it
        between 5.8 and 14.3 s.  A run fits only a few calls, so no median
        over variants stays within the benchmark's bounds; perturbed inputs
        are for studying that sensitivity, not for the timed metrics.
        Regenerating the topology changes HiGHS time by orders of magnitude
        and can make the relaxation infeasible; a new ``RunConfig`` seed
        alone moves rand100x4's scc_smooth between 0.42 and 0.54.
        """
        net = self.make_network()
        if seed == DEFAULT_SEED or jitter == 0.0:
            return net
        rng = np.random.default_rng([seed, variant])
        factor = rng.uniform(1.0 - jitter, 1.0 + jitter, size=net.demands.shape)
        perturbed = NetworkModel(net.links, net.nodes, net.sources,
                                 net.demands * factor, net.source_heads)
        perturbed.validate()
        return perturbed

    def run_config(self) -> RunConfig:
        return RunConfig(**self.config)


def _grid25():
    return grid_network(5, 5, demand=0.003, length=500, diameter=0.2, hw=130,
                        source_head=70, seed=7)


def _rand60():
    return random_network(60, 20, seed=1)


def _rand100x4():
    # at the default demand_scale 0.005 some neighbouring seeds (e.g. 6) give
    # an infeasible relaxation; at 0.002 seeds 5, 6 and 8 are feasible
    return random_network(100, 30, seed=5, n_t=4, demand_scale=0.002)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid25_design",
            "Acceptance config and ROADMAP baseline: Newton hydraulics and the "
            "SCP step LP do ~93% of the work, relaxation and OBBT ~5%.",
            _grid25,
            dict(n_v=1, n_f=1, n_samples=40, n_starts=4, seed=0),
        ),
        Workload(
            "rand60_obbt_design",
            "OBBT's repeated LP re-solves dominate and hydraulics is a "
            "minority; the LP layer runs medium re-solves, not tiny step LPs.",
            _rand60,
            dict(n_v=1, n_f=1, n_samples=10, n_starts=3, seed=0),
        ),
        Workload(
            "rand100x4_design",
            "Only n_t > 1 workload and the largest LP: relaxation build and "
            "solve ~25%, OBBT off, per-timestep direction enumeration.",
            _rand100x4,
            dict(n_v=1, n_f=1, n_samples=3, n_starts=1, seed=0, use_obbt=False),
        ),
    )
}
