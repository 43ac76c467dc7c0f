"""The single-flow sawtooth: Figures 2-5 in your terminal.

Reproduces the paper's Section 2 story end to end: a single long-lived
TCP flow through a bottleneck that is underbuffered (link goes idle),
exactly buffered at B = RTT x C (queue just touches zero), and
overbuffered (standing queue, pure added delay) — with the measured
utilization checked against the closed-form AIMD model.

Run:  python examples/single_flow_dynamics.py
"""

from repro.experiments.report import run_section

if __name__ == "__main__":
    print(run_section("fig2").text)
