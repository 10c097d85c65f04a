//! Records the compiler version for the machine fingerprint every result
//! carries.

use std::process::Command;

fn main() {
    // rte-lint: allow(L3) cargo hands every build script the compiler it uses in RUSTC
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
