//! Signal-level debugging: trace a miniature accumulator-streaming
//! pipeline and dump a VCD waveform.
//!
//! ```sh
//! cargo run --release --example waveform_trace
//! # then open target/lw_pipeline.vcd in GTKWave or any VCD viewer
//! ```
//!
//! Demonstrates the `saber_trace::vcd` writer on the §4.1
//! port-contention pattern: the accumulator stream saturates the BRAM
//! ports until a public-word load steals the read port and stalls the
//! datapath.

use std::fs;

use saber::hw::Bram;
use saber::trace::vcd::{self, VcdWriter};

const CYCLES: u64 = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mem = Bram::new(32);
    mem.preload(0, &[11, 22, 33, 44, 55, 66, 77, 88]);
    let mut wave = VcdWriter::new();
    let stall = wave.add_wire("lw_pipeline.stall", 1);
    let read_addr = wave.add_wire("lw_pipeline.read_addr", 5);
    let write_addr = wave.add_wire("lw_pipeline.write_addr", 5);
    let read_data = wave.add_wire("lw_pipeline.read_data", 16);

    // Steady accumulator streaming with a load stall in the middle.
    let mut stalled_cycles = 0u64;
    for cycle in 0..CYCLES {
        let steal = cycle == 5; // a public word load steals the read port
        wave.change(cycle, stall, u64::from(steal));
        if steal {
            mem.issue_read(31)?; // the "public polynomial" word
            wave.change(cycle, read_addr, 31);
            stalled_cycles += 1;
        } else {
            let addr = (cycle % 8) as usize;
            mem.issue_read(addr)?;
            wave.change(cycle, read_addr, addr as u64);
            mem.issue_write(16 + addr, cycle * 100)?;
            wave.change(cycle, write_addr, (16 + addr) as u64);
        }
        mem.tick();
        if let Some(data) = mem.read_data() {
            wave.change(cycle, read_data, data);
        }
    }

    let text = wave.finish(CYCLES);
    let doc = vcd::parse(&text)?;
    fs::create_dir_all("target")?;
    fs::write("target/lw_pipeline.vcd", &text)?;

    println!(
        "traced {CYCLES} cycles ({stalled_cycles} stalled) across {} signals",
        doc.signals.len()
    );
    println!(
        "stall changes (cycle, value): {:?}",
        doc.steps("lw_pipeline.stall")
    );
    println!(
        "VCD written to target/lw_pipeline.vcd ({} bytes)",
        text.len()
    );
    Ok(())
}
