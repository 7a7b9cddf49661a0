"""Set-up probe, run in a fresh interpreter: import ubrsim, build the
workload's scenario and construct its first Topology, then exit.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports ubrsim)

wl = workloads.WORKLOADS[sys.argv[1]]
scenario = wl.scenario(int(sys.argv[2]))
workloads.netsim.Topology(wl.specs(scenario)[0])
