//! Smoke tests keeping the workspace manifests honest: every crate directory
//! must be a workspace member with a manifest, and every crate root must
//! carry crate-level docs. These guard the bootstrap invariants that
//! `cargo build` alone does not check (an unlisted crate simply never
//! compiles).

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn subdirs(path: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(path)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", path.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// Extracts `name = "..."` from a `[package]` section.
fn package_name(manifest: &str) -> String {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[package]")
        .find_map(|l| {
            l.trim()
                .strip_prefix("name = \"")?
                .strip_suffix('"')
                .map(String::from)
        })
        .expect("manifest has a [package] name")
}

#[test]
fn every_crate_dir_is_a_workspace_member_with_a_manifest() {
    let root = repo_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    assert!(
        root_manifest.contains("members = [\"crates/*\", \"vendor/*\"]"),
        "root manifest must declare the crates/* and vendor/* member globs"
    );
    for dir in subdirs(&root.join("crates"))
        .iter()
        .chain(subdirs(&root.join("vendor")).iter())
    {
        let manifest = dir.join("Cargo.toml");
        assert!(
            manifest.is_file(),
            "{} is not a cargo package (no Cargo.toml)",
            dir.display()
        );
        assert!(
            dir.join("src/lib.rs").is_file(),
            "{} has no src/lib.rs library root",
            dir.display()
        );
    }
}

#[test]
fn every_workspace_crate_is_a_workspace_dependency() {
    let root = repo_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    for dir in subdirs(&root.join("crates")) {
        let name = package_name(&read(&dir.join("Cargo.toml")));
        let entry = format!(
            "{name} = {{ path = \"crates/{}\" }}",
            dir.file_name().unwrap().to_str().unwrap()
        );
        assert!(
            root_manifest.contains(&entry),
            "[workspace.dependencies] is missing `{entry}` for {}",
            dir.display()
        );
    }
}

#[test]
fn every_example_and_integration_test_file_is_rust_source() {
    let root = repo_root();
    for dir in ["examples", "tests"] {
        let mut count = 0;
        for entry in fs::read_dir(root.join(dir)).expect("dir exists") {
            let path = entry.unwrap().path();
            assert!(
                path.extension().is_some_and(|e| e == "rs"),
                "{} contains a non-Rust file {} that cargo auto-discovery will ignore",
                dir,
                path.display()
            );
            count += 1;
        }
        assert!(count > 0, "{dir}/ must not be empty");
    }
}

#[test]
fn every_crate_root_has_crate_docs_and_the_missing_docs_lint() {
    let root = repo_root();
    let mut roots: Vec<PathBuf> = subdirs(&root.join("crates"))
        .iter()
        .map(|d| d.join("src/lib.rs"))
        .collect();
    roots.push(root.join("src/lib.rs"));
    for lib in roots {
        let text = read(&lib);
        assert!(
            text.lines().next().is_some_and(|l| l.starts_with("//!")),
            "{} must open with `//!` crate-level docs",
            lib.display()
        );
        assert!(
            text.contains("#![warn(missing_docs)]"),
            "{} must keep #![warn(missing_docs)]",
            lib.display()
        );
    }
}
