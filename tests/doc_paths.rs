//! The docs name source files, scripts and data files in backticks; each
//! such name must resolve to a file in the repository, so a deleted or
//! renamed module cannot stay documented.
//!
//! A name resolves when some repository file's path equals it or ends
//! with `/` + it (`session.rs`, `tests/smoke.rs` and
//! `crates/solver/src/fvc.rs` all resolve). Template names containing
//! `<` are skipped, as are `target/...` names: those are outputs the
//! scripts write into the build directory, not repository files.

use std::fs;
use std::path::Path;

const EXTENSIONS: [&str; 4] = [".rs", ".md", ".sh", ".json"];

/// Every file under `dir`, as a `/`-separated path relative to `root`,
/// skipping build outputs and hidden directories.
fn repo_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                repo_files(root, &path, out);
            }
        } else {
            let rel = path.strip_prefix(root).unwrap();
            let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
            out.push(parts.join("/"));
        }
    }
}

/// The file names inside the backticked spans of `text`, outside fenced
/// code blocks.
fn documented_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let is_name_char = |c: char| c.is_ascii_alphanumeric() || "_./<>*-".contains(c);
            for token in span.split(|c: char| !is_name_char(c)) {
                if EXTENSIONS.iter().any(|ext| token.ends_with(ext)) {
                    names.push(token.to_string());
                }
            }
        }
    }
    names
}

#[test]
fn documented_file_names_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    repo_files(root, root, &mut files);
    let mut docs = vec![root.join("ARCHITECTURE.md"), root.join("README.md")];
    for entry in fs::read_dir(root.join("docs")).expect("docs directory") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    let (mut checked, mut missing) = (0, Vec::new());
    for doc in &docs {
        let text = fs::read_to_string(doc).expect("readable doc");
        for name in documented_names(&text) {
            if name.contains('<') || name.starts_with("target/") {
                continue;
            }
            checked += 1;
            let suffix = format!("/{name}");
            if !files.iter().any(|f| *f == name || f.ends_with(&suffix)) {
                missing.push(format!("{}: `{name}`", doc.display()));
            }
        }
    }
    assert!(checked > 100, "only {checked} documented names found");
    assert!(
        missing.is_empty(),
        "documented files missing:\n{}",
        missing.join("\n")
    );
}

#[test]
fn names_are_read_from_backticks_outside_fences() {
    let text = "see `crates/a/src/b.rs::f` and `x.json`, not y.md\n\
                ```\n`fenced.rs`\n```\n`<name>.md`";
    assert_eq!(
        documented_names(text),
        ["crates/a/src/b.rs", "x.json", "<name>.md"]
    );
}
