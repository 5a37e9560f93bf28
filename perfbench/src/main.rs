//! `saber-perfbench --workload <kem-seq|hwsim> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 only when
//! every output was correct and the run valid. Refuses to start when any
//! `SABER_*` environment variable is set, so every run measures the
//! shipped defaults.

use std::process::ExitCode;
use std::time::Duration;

use saber_perfbench::{provenance, run, RunConfig, Workload};

const USAGE: &str =
    "usage: saber-perfbench --workload <kem-seq|hwsim> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let mut cfg = RunConfig::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace,
    );
    cfg.out_dir = Some(provenance::repo_root().join("perfbench").join("out"));
    Ok(cfg)
}

fn main() -> ExitCode {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SABER_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "saber-perfbench: refusing to run with {} set; the benchmark measures shipped defaults only",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("saber-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Probe before any worker installs its own panic hook.
    let overflow_checks = provenance::overflow_checks();
    let mut outcome = run(&cfg);
    let mut header = provenance::header(&cfg, overflow_checks);
    header.append(&mut outcome.header);
    outcome.header = header;

    let header_line = outcome.header_json();
    let result_line = outcome.result_json();
    if let Some(dir) = &cfg.out_dir {
        let path = dir.join(format!(
            "result-{}-seed{}-trace{}.json",
            cfg.workload.name(),
            cfg.seed,
            u8::from(cfg.trace)
        ));
        let body = format!("{header_line}\n{result_line}\n");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("saber-perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{header_line}");
    for reason in &outcome.invalid {
        println!("{{\"invalid\": \"{}\"}}", reason.replace('"', "'"));
    }
    println!("{result_line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
