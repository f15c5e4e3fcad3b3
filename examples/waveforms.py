#!/usr/bin/env python3
"""Waveforms of the Fig. 1 multi-cycle transport.

Why (FF1, FF2) is a 3-cycle pair, seen in simulation: the launch/capture
sequence rendered as ASCII waves.  IN is loaded into FF1 at counter state
(0,0) and appears in FF2 exactly three edges later.

Usage::

    python examples/waveforms.py
"""

from __future__ import annotations

from repro.circuit.library import fig1_circuit
from repro.logic.simulator import Simulator
from repro.logic.values import X


def ascii_wave(values: list[int]) -> str:
    """Render a bit stream as a compact two-state ASCII wave."""
    glyphs = {0: "_", 1: "#", X: "?"}
    return "".join(glyphs[v] * 3 for v in values)


def main() -> None:
    circuit = fig1_circuit()
    signals = ["IN", "EN1", "EN2", "FF1", "FF2", "FF3", "FF4"]
    inputs_per_cycle = [{"IN": 1}] + [{"IN": 0}] * 7
    sim = Simulator(circuit)
    sim.set_all_state([0, 0, 0, 0])
    sim.set_inputs(inputs_per_cycle[0])
    samples = [[sim.value(name) for name in signals]]
    for inputs in inputs_per_cycle:
        sim.set_inputs(inputs)
        sim.clock()
        samples.append([sim.value(name) for name in signals])

    print("=== Fig. 1 launch/capture waveforms (IN pulsed at cycle 0) ===")
    for index, name in enumerate(signals):
        print(f"{name:>4} {ascii_wave([sample[index] for sample in samples])}")
    print("      " + "".join(f"{c:<3d}" for c in range(len(samples))))
    print("FF1 rises at edge 1 (EN1 active at counter (0,0)); FF2 rises at"
          "\nedge 4 — three cycles later, when EN2 decodes (1,0).")


if __name__ == "__main__":
    main()
