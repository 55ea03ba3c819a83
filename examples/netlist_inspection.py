"""Inspecting and exporting the synthetic pipeline netlist.

Shows the substrate-side tooling: generate the pipeline, print its
structure summary, export structural Verilog and a VCD waveform of a
short instruction burst, and confirm both round-trip.

Run:  python examples/netlist_inspection.py [outdir]
"""

import pathlib
import sys

from repro.cpu import FunctionalSimulator, MachineState, assemble
from repro.cpu.pipeline import InstructionWindow, PipelineScheduler
from repro.logicsim import LevelizedSimulator, StimulusEncoder
from repro.logicsim.vcd import read_vcd, write_vcd
from repro.netlist import TimingLibrary, generate_pipeline
from repro.netlist.verilog import read_verilog, write_verilog


def main() -> None:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "/tmp/repro")
    outdir.mkdir(parents=True, exist_ok=True)

    pipeline = generate_pipeline()
    library = TimingLibrary()
    for key, value in pipeline.netlist.summary().items():
        print(f"{key:18s} {value}")

    # --- structural Verilog round trip -------------------------------- #
    verilog_path = outdir / "ts_pipeline.v"
    with open(verilog_path, "w") as handle:
        write_verilog(pipeline.netlist, handle)
    with open(verilog_path) as handle:
        reimported = read_verilog(handle)
    reimported.validate()
    print(
        f"\nwrote {verilog_path} "
        f"({verilog_path.stat().st_size:,} bytes); re-import OK "
        f"({len(reimported)} gates)"
    )

    # --- VCD of a short instruction burst ------------------------------ #
    program = assemble(
        """
        li r1, 0x00FF
        li r2, 0x0F0F
        add r3, r1, r2
        mul r4, r3, r2
        xor r5, r4, r1
        st r5, [r0+64]
        halt
    """,
        name="burst",
    )
    simulator = FunctionalSimulator(program)
    state = MachineState()
    records = [simulator.step(state) for _ in range(6)]
    scheduler = PipelineScheduler(program)
    encoder = StimulusEncoder(pipeline)
    logic = LevelizedSimulator(pipeline.netlist)
    activity = logic.activity(
        encoder.encode_schedule(
            scheduler.schedule(InstructionWindow(records))
        )
    )
    vcd_path = outdir / "burst.vcd"
    with open(vcd_path, "w") as handle:
        write_vcd(activity, pipeline.netlist, handle)
    with open(vcd_path) as handle:
        values, names = read_vcd(handle)
    assert (values == activity.values).all()
    print(
        f"wrote {vcd_path} ({vcd_path.stat().st_size:,} bytes, "
        f"{values.shape[0]} cycles x {values.shape[1]} signals); "
        "round trip OK"
    )
    print(
        f"activity factor over the burst: "
        f"{activity.activity_factor():.3f}"
    )

    # --- timing library as JSON ---------------------------------------- #
    lib_path = outdir / "library.json"
    library.save(lib_path)
    reloaded = TimingLibrary.load(lib_path)
    assert reloaded.to_json() == library.to_json()
    print(f"wrote {lib_path}; JSON round trip OK")

    # --- timing yield and endpoint criticality ------------------------- #
    from repro.sta import StatisticalTimingAnalysis, YieldAnalysis
    from repro.variation import ProcessVariationModel

    ssta = StatisticalTimingAnalysis(
        pipeline.netlist, library,
        ProcessVariationModel(pipeline.netlist, library),
    )
    yields = YieldAnalysis(ssta)
    curve = yields.analytic_curve(n_points=200)
    print("\ntiming yield (fraction of chips meeting the period):")
    for target in (0.5, 0.9, 0.99, 0.9987):
        period = curve.period_for_yield(target)
        print(
            f"  {100 * target:7.2f}% yield at {period:7.1f} ps "
            f"({1e6 / period:6.0f} MHz)"
        )
    crit = yields.criticality_probabilities(n_chips=200, seed_or_rng=0)
    print("endpoint criticality (which register limits the chip):")
    for name, probability in sorted(crit.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  {name:24s} {100 * probability:5.1f}%")


if __name__ == "__main__":
    main()
