//! The run header: what was measured, where, and with what.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;

use saber_keccak::Sha3_256;

use crate::RunConfig;

/// The repository root (the parent of this crate).
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// True when arithmetic overflow panics in this build.
#[must_use]
pub fn overflow_checks() -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let trapped = std::panic::catch_unwind(|| black_box(u8::MAX) + black_box(1u8)).is_err();
    std::panic::set_hook(hook);
    trapped
}

/// `git rev-parse HEAD` of the repository, if it is a git checkout.
fn git_rev(root: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".into(), |s| s.trim().to_string())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != "out" {
                collect_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "json") || name == "Cargo.toml"
        {
            out.push(path);
        }
    }
}

/// SHA3-256 over the workspace's crate sources and manifests (relative
/// path and contents of each file, in path order): identifies the code
/// measured even where no git metadata exists.
#[must_use]
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = Sha3_256::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        h.update(rel.to_string_lossy().as_bytes());
        h.update(&std::fs::read(file).unwrap_or_default());
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// The CPU's brand string.
#[must_use]
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        #[allow(unused_unsafe)]
        // SAFETY: CPUID is available on every x86_64 CPU.
        let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002..=0x8000_0004u32 {
                #[allow(unused_unsafe)]
                // SAFETY: the extended leaf is supported (checked above).
                let r = unsafe { __cpuid(leaf) };
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    "unknown".into()
}

/// The header fields shared by every workload.
#[must_use]
pub fn header(cfg: &RunConfig, overflow_checks: bool) -> Vec<(&'static str, String)> {
    let root = repo_root();
    let service = crate::service_open::config();
    vec![
        ("workload", cfg.workload.name().into()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.duration.as_secs_f64().to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("git_rev", git_rev(&root)),
        ("source_sha3", source_digest(&root)),
        ("rustc", env!("PERFBENCH_RUSTC").into()),
        ("profile", env!("PERFBENCH_PROFILE").into()),
        ("overflow_checks", overflow_checks.to_string()),
        ("cpu_model", cpu_model()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_string(),
        ),
        (
            "default_engine",
            saber_ring::EngineKind::default().label().into(),
        ),
        ("service_scheduler", service.scheduler.label().into()),
        ("service_workers", service.workers.to_string()),
    ]
}
