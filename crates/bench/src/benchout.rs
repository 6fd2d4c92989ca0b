//! Shared plumbing for the `soak` and `bench_cluster` binaries: flag
//! parsing and the stable-schema `BENCH_*.json` documents they emit at the
//! repository root.
//!
//! The documents are hand-rolled JSON with a fixed key set and key order
//! (`schema` first, then run parameters, then one row per measurement), so
//! downstream tooling can diff them across commits. `validate_doc`
//! re-reads an emitted document and checks the schema tag and every
//! required key are present.

use std::path::{Path, PathBuf};

/// `--quick` flag: the short mode — fewer events, same schema and
/// scenario set.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// `--check` flag: gate a recomputed run against the checked-in document
/// instead of rewriting it.
pub fn check_flag() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// The repository root (the `BENCH_*.json` destination), resolved from the
/// crate location so the binaries work from any working directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Write `body` to `<repo root>/<file_name>`, returning the path.
pub fn write_doc(file_name: &str, body: &str) -> PathBuf {
    let path = repo_root().join(file_name);
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    path
}

/// Validate an emitted document: the schema tag and every required key
/// must appear. Returns a human-readable error naming the first miss.
pub fn validate_doc(file_name: &str, schema: &str, required_keys: &[&str]) -> Result<(), String> {
    let path = repo_root().join(file_name);
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (run the bench first to emit it)", path.display()))?;
    let tag = format!("\"schema\": \"{schema}\"");
    if !body.contains(&tag) {
        return Err(format!("{file_name}: missing or wrong schema tag (want {tag})"));
    }
    for key in required_keys {
        if !body.contains(&format!("\"{key}\":")) {
            return Err(format!("{file_name}: required key \"{key}\" absent"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_holds_the_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }

    #[test]
    fn validate_catches_missing_keys() {
        let err = validate_doc("Cargo.toml", "nope/v0", &[]).unwrap_err();
        assert!(err.contains("schema tag"));
    }
}
