"""repro: a reproduction of "Elasticity Detection: A Building Block for
Internet Congestion Control" (Nimbus).

The package is organised as:

* :mod:`repro.simulator` — a fluid-chunk network simulator (the Mahimahi /
  Linux-datapath substitute): bottleneck link, queueing policies, transport
  endpoints, measurement, tracing.
* :mod:`repro.cc` — the congestion-control algorithm zoo the paper runs and
  competes against (Cubic, NewReno, Vegas, Copa, BBR, PCC-Vivace,
  BasicDelay, and inelastic reference senders).  Drivers name a scheme by
  one of :func:`repro.runtime.make_scheme`'s six strings (``nimbus``,
  ``basicdelay``, ``cubic``, ``vegas``, ``copa``, ``bbr``); anything else
  is built from its class.
* :mod:`repro.core` — the paper's contribution: the cross-traffic rate
  estimator, sinusoidal pulse shapes, the FFT elasticity detector, the
  Nimbus mode-switching controller, and multi-flow pulser/watcher
  coordination.
* :mod:`repro.traffic` — workload generators (Poisson/CBR, heavy-tailed WAN
  flow arrivals, DASH video, scripted time-varying mixes).
* :mod:`repro.analysis` — metrics, classification accuracy, and FCT
  summaries.
* :mod:`repro.experiments` — one driver per table/figure of the paper.

Quickstart::

    from repro import Nimbus, Flow
    from repro.runtime import make_network
    from repro.simulator import mbps_to_bytes_per_sec

    mu = mbps_to_bytes_per_sec(48)
    net = make_network(link_mbps=48, buffer_ms=100)
    net.add_flow(Flow(cc=Nimbus(mu=mu), prop_rtt=0.05, name="nimbus"))
    net.run(30.0)
    print(net.recorder.mean_throughput("nimbus"))
"""

from __future__ import annotations

from .cc import (
    BasicDelay,
    Bbr,
    Copa,
    Cubic,
    NewReno,
    Vegas,
    Vivace,
)
from .core import ElasticityDetector, Nimbus, elasticity_metric
from .simulator import (
    BottleneckLink,
    DropTail,
    Flow,
    Pie,
    Topology,
    TopologyNetwork,
    mbps_to_bytes_per_sec,
)

__version__ = "1.0.0"

__all__ = [
    "BasicDelay",
    "Bbr",
    "BottleneckLink",
    "Copa",
    "Cubic",
    "DropTail",
    "ElasticityDetector",
    "Flow",
    "NewReno",
    "Nimbus",
    "Pie",
    "Topology",
    "TopologyNetwork",
    "Vegas",
    "Vivace",
    "elasticity_metric",
    "mbps_to_bytes_per_sec",
    "__version__",
]

