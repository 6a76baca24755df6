//! Drift gate between lint codes, the registry, and the documentation.
//!
//! Lint codes are stable public API: CI gates, `lint-expect:` headers, and
//! DESIGN.md's code table all key on the `QCAxxxx` strings. This test
//! scans every source and doc file in the workspace for code-shaped
//! tokens and fails — naming the offender — when
//!
//! * a referenced code does not exist in [`LintRegistry`] (a typo, or a
//!   code that was added without registry wiring), or
//! * a registry code is missing from DESIGN.md's table (docs drift).
//!
//! A file may also name a [`RETIRED`] code, so the history of a deleted
//! lint can say which code it was; the registry may never reuse one.

use qca_lint::{LintCode, LintRegistry};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Directories never scanned: build output, VCS metadata, vendored deps.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "compat", "node_modules"];

/// File extensions that may legitimately mention lint codes.
const EXTS: [&str; 6] = ["rs", "md", "sh", "qasm", "cnf", "toml"];

/// Codes deleted from the registry. Docs may name them; the registry may
/// never reuse them.
const RETIRED: [&str; 1] = [
    "QCA0304", // all-rules-disabled: the rule families are no longer switches
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out);
            }
        } else if path
            .extension()
            .and_then(|x| x.to_str())
            .is_some_and(|x| EXTS.contains(&x))
        {
            out.push(path);
        }
    }
}

/// Extracts every `QCA0ddd` token (exactly four digits, the first being
/// `0` — which excludes deliberate non-codes like the `QCA9999` registry
/// sentinel) from `text`.
fn extract_codes(text: &str, out: &mut BTreeSet<String>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(pos) = text[i..].find("QCA0") {
        let start = i + pos;
        let digits = &bytes[start + 3..];
        if digits.len() >= 4
            && digits[..4].iter().all(|b| b.is_ascii_digit())
            && digits.get(4).is_none_or(|b| !b.is_ascii_digit())
        {
            out.insert(text[start..start + 7].to_string());
        }
        i = start + 4;
    }
}

#[test]
fn every_referenced_code_is_registered_and_documented() {
    let root = workspace_root();
    let mut files = Vec::new();
    walk(&root, &mut files);
    assert!(
        files.len() > 20,
        "suspiciously few files scanned from {}",
        root.display()
    );

    let registry = LintRegistry::builtin();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");

    let mut unregistered: Vec<String> = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue; // binary or non-UTF-8 file
        };
        for code in unknown_codes(&registry, &text) {
            unregistered.push(format!("{}: {code}", path.display()));
        }
    }
    assert!(
        unregistered.is_empty(),
        "codes referenced but absent from LintRegistry:\n  {}",
        unregistered.join("\n  ")
    );

    let mut design_codes = BTreeSet::new();
    extract_codes(&design, &mut design_codes);
    let undocumented: Vec<&str> = registry
        .entries()
        .iter()
        .map(|e| e.code.as_str())
        .filter(|c| !design_codes.contains(*c))
        .collect();
    assert!(
        undocumented.is_empty(),
        "registry codes missing from DESIGN.md's table: {undocumented:?}"
    );
}

/// The code-shaped tokens of `text` that are neither registered nor
/// [`RETIRED`].
fn unknown_codes(registry: &LintRegistry, text: &str) -> Vec<String> {
    let mut codes = BTreeSet::new();
    extract_codes(text, &mut codes);
    codes
        .into_iter()
        .filter(|c| registry.find(c).is_none() && !RETIRED.contains(&c.as_str()))
        .collect()
}

#[test]
fn retired_codes_stay_out_of_the_registry() {
    let registry = LintRegistry::builtin();
    for code in RETIRED {
        assert!(
            LintCode::ALL.iter().all(|c| c.as_str() != code),
            "retired code {code} is back in LintCode::ALL"
        );
        assert!(registry.find(code).is_none(), "{code} is registered");
    }
}

#[test]
fn docs_may_name_retired_codes_but_not_typos() {
    let registry = LintRegistry::builtin();
    // Assembled at run time, so this file does not name the typo itself.
    let typo = ["QCA0", "399"].concat();
    let text = format!(
        "{} was deleted; QCA0101 stays; {typo} is a typo",
        RETIRED[0]
    );
    assert_eq!(unknown_codes(&registry, &text), vec![typo]);
}

#[test]
fn code_extraction_matches_code_shapes_only() {
    let mut codes = BTreeSet::new();
    extract_codes(
        "QCA0501 QCA9999 QCA05012 xQCA0404, `QCA0001`: QCA04 QCA0",
        &mut codes,
    );
    let got: Vec<&str> = codes.iter().map(|s| s.as_str()).collect();
    // QCA9999 (sentinel shape), QCA05012 (five digits), QCA04 (too short)
    // are all rejected.
    assert_eq!(got, vec!["QCA0001", "QCA0404", "QCA0501"]);
}
