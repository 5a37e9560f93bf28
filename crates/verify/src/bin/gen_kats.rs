//! Regenerates the Rust-sourced golden KAT files under
//! `crates/verify/kats/` (ring multiplication, PKE, KEM round trips,
//! cycle totals).
//!
//! The keccak vectors are deliberately **not** produced here: they come
//! from an independent implementation via
//! `tools/gen_keccak_json_kats.py`. Run both through
//! `tools/gen_golden_kats.sh`.
//!
//! Regenerating and committing changed output is an explicit statement
//! that the frozen answers were wrong (or the byte framing intentionally
//! changed) — review such diffs accordingly.

use saber_testkit::json;
use saber_verify::kat;

fn main() -> std::io::Result<()> {
    let dir = kat::kats_dir();
    std::fs::create_dir_all(&dir)?;
    for (stem, doc) in [
        ("ring_mul", kat::gen_ring()),
        ("pke", kat::gen_pke()),
        ("kem_roundtrip", kat::gen_kem()),
        ("cycle_totals", kat::gen_cycles()),
    ] {
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, json::write(&doc))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
