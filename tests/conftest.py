import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sccopt import sfscp
from sccopt.netgen import grid_network, line_network, loop_network, random_network
from sccopt.hydraulics import headloss_params
from sccopt.scc import SccParams, scc_smooth_flows


@pytest.fixture
def line3():
    return line_network(3, demand=0.01, length=1000.0, diameter=0.3, hw=130.0,
                        source_head=80.0)


@pytest.fixture
def loop4():
    return loop_network(4, demand=0.012, length=1000.0, diameter=0.2,
                        source_head=60.0)


@pytest.fixture
def grid25():
    # 5x5 grid with seeded heterogeneous demands; the end-to-end fixture
    return grid_network(5, 5, demand=0.003, length=500.0, diameter=0.2,
                        hw=130.0, source_head=70.0, seed=7)


@pytest.fixture
def rand60():
    # 60-node random network whose design run is dominated by OBBT
    return random_network(60, 20, seed=1)


@pytest.fixture
def traced_timestep(monkeypatch):
    """``sfscp_timestep(sub, x0)`` that also returns the smoothed objective at
    the start and at each accepted iterate, in order.

    ``sfscp._step_lp`` receives the start and every accepted iterate except
    one that ends the SCP, which is the result's own; an accepted iterate
    gains on the one before it, so the result's flows repeat the last ones
    seen exactly when the SCP ended on a step it did not accept.
    """
    flows, step_lp = [], sfscp._step_lp

    def recording(sub, q_k, h_k, x_k):
        flows.append(q_k)
        return step_lp(sub, q_k, h_k, x_k)

    def run(sub, x0):
        flows.clear()
        res = sfscp.sfscp_timestep(sub, x0)
        if res is not None and not np.array_equal(res[2], flows[-1]):
            flows.append(res[2])
        return res, [scc_smooth_flows(q[None, :], sub.net, sub.scc_params) for q in flows]

    monkeypatch.setattr(sfscp, "_step_lp", recording)
    return run


@pytest.fixture
def params_of():
    return headloss_params


@pytest.fixture
def scc_of():
    return SccParams.from_network


SAMPLE_INP = """\
[TITLE]
three-node test net

[JUNCTIONS]
; id  elev  demand  pattern
 j1   10.0  10.0    pat1
 j2   12.0  5.0

[RESERVOIRS]
 r1   80.0

[PIPES]
; id  from  to  length  diam  roughness
 p1   r1    j1  1000    300   130
 p2   j1    j2  800     250   120

[VALVES]
 v1   j1    j2  200     TCV   2.5

[PATTERNS]
 pat1  0.5  1.0  1.5  1.2

[OPTIONS]
 UNITS     LPS
 HEADLOSS  H-W

[END]
"""


@pytest.fixture
def sample_inp_text():
    return SAMPLE_INP
