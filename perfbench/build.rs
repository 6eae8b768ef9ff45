//! Stamps build provenance into the binary: the commit (read from
//! `.git` when the checkout has one), the rustc version, the build
//! profile and whether the simulator's `parallel` feature is on.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=Cargo.toml");
    let commit = git_head(Path::new("../.git")).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    // `parallel` is on unless this manifest takes cavm-sim without its
    // default features and without naming the feature.
    let parallel = std::fs::read_to_string("Cargo.toml")
        .ok()
        .and_then(|manifest| {
            manifest
                .lines()
                .find(|l| l.starts_with("cavm-sim"))
                .map(|l| !l.contains("default-features = false") || l.contains("\"parallel\""))
        })
        .unwrap_or(true);
    println!("cargo:rustc-env=PERFBENCH_PARALLEL={parallel}");
}

/// The commit `HEAD` names, resolved through loose refs and
/// `packed-refs` without running git. Each file read is watched; a
/// missing one is not, since Cargo re-runs a script whose watched file
/// does not exist on every build.
fn git_head(git: &Path) -> Option<String> {
    let read = |name: &str| {
        let text = std::fs::read_to_string(git.join(name)).ok()?;
        println!("cargo:rerun-if-changed=../.git/{name}");
        Some(text)
    };
    let head = read("HEAD")?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Some(commit) = read(reference) {
        return Some(commit.trim().to_string());
    }
    let packed = read("packed-refs")?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}
