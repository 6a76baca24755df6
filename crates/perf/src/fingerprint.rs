//! Machine fingerprinting.
//!
//! Every `BENCH_<pr>.json` carries the fingerprint of the machine that
//! produced it, and [`crate::compare()`] refuses to gate two reports whose
//! fingerprints are incomparable (different core count or architecture) —
//! a 1-core CI container must never be judged against an 8-core developer
//! workstation. The fingerprint also records what a *scaling* result can
//! honestly claim: a worker-pool benchmark at N workers on fewer than N
//! cores measures scheduling overhead, not parallel speedup, and the suite
//! marks such results unobservable (see
//! [`BenchResult::observable`](crate::report::BenchResult)).

use crate::json::Json;
use std::process::Command;

/// Identity of the machine and toolchain a report was produced on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Detected logical CPU cores (`available_parallelism`).
    pub cores: usize,
    /// Target architecture (`x86_64`, `aarch64`, ...).
    pub arch: String,
    /// Operating system (`linux`, `macos`, ...).
    pub os: String,
    /// `rustc -V` of the toolchain on `PATH` (`"unknown"` when absent).
    pub rustc: String,
    /// `git rev-parse HEAD` of the working tree, with a `-dirty` suffix
    /// when tracked files differ from it (`"unknown"` outside a
    /// repository).
    pub git_sha: String,
    /// Build profile of the harness itself: `release` or `debug`. Debug
    /// numbers are never comparable to release numbers.
    pub profile: String,
}

impl Fingerprint {
    /// Detects the current machine's fingerprint.
    pub fn detect() -> Fingerprint {
        Fingerprint {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
            rustc: command_line("rustc", &["-V"]),
            git_sha: revision(
                &command_line("git", &["rev-parse", "HEAD"]),
                command_stdout("git", &["status", "--porcelain", "--untracked-files=no"])
                    .as_deref(),
            ),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
        }
    }

    /// `true` when results from `self` and `other` may be compared at all:
    /// same core count, architecture, and build profile. The rustc version
    /// and git SHA are informational — they change on every toolchain bump
    /// and commit, which is exactly when comparisons are wanted.
    pub fn comparable_to(&self, other: &Fingerprint) -> bool {
        self.cores == other.cores && self.arch == other.arch && self.profile == other.profile
    }

    /// Renders the fingerprint as a JSON object value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cores", self.cores.into()),
            ("arch", self.arch.as_str().into()),
            ("os", self.os.as_str().into()),
            ("rustc", self.rustc.as_str().into()),
            ("git_sha", self.git_sha.as_str().into()),
            ("profile", self.profile.as_str().into()),
        ])
    }

    /// Reads a fingerprint back from a parsed report.
    pub fn from_json(value: &Json) -> Result<Fingerprint, String> {
        let str_field = |name: &str| -> Result<String, String> {
            value
                .get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("fingerprint.{name}: missing or not a string"))
        };
        let cores = value
            .get("cores")
            .and_then(Json::as_u64)
            .filter(|c| *c >= 1)
            .ok_or("fingerprint.cores: missing or not a positive integer")?
            as usize;
        Ok(Fingerprint {
            cores,
            arch: str_field("arch")?,
            os: str_field("os")?,
            rustc: str_field("rustc")?,
            git_sha: str_field("git_sha")?,
            profile: str_field("profile")?,
        })
    }
}

/// The revision a report measured: `head`, marked `-dirty` when `status`
/// (the output of `git status --porcelain --untracked-files=no`) lists a
/// tracked file that differs from it.
fn revision(head: &str, status: Option<&str>) -> String {
    match status {
        Some(s) if head != "unknown" && !s.trim().is_empty() => format!("{head}-dirty"),
        _ => head.to_string(),
    }
}

/// A command's stdout, or `None` when the command is missing or fails.
fn command_stdout(program: &str, args: &[&str]) -> Option<String> {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
}

/// First line of a command's stdout, or `"unknown"` when the command is
/// missing or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    command_stdout(program, args)
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint {
            cores: 4,
            arch: "x86_64".to_string(),
            os: "linux".to_string(),
            rustc: "rustc 1.95.0".to_string(),
            git_sha: "abc123".to_string(),
            profile: "release".to_string(),
        }
    }

    #[test]
    fn detect_fills_every_field() {
        let fp = Fingerprint::detect();
        assert!(fp.cores >= 1);
        assert!(!fp.arch.is_empty());
        assert!(!fp.os.is_empty());
        assert!(!fp.rustc.is_empty());
        assert!(!fp.profile.is_empty());
    }

    #[test]
    fn revision_marks_a_dirty_tree() {
        let sha = "8f9bf760cd39189b9ed5539d5123d0995ae0c764";
        assert_eq!(revision(sha, Some("")), sha);
        assert_eq!(revision(sha, None), sha);
        assert_eq!(
            revision(sha, Some(" M crates/core/src/rules.rs\n")),
            format!("{sha}-dirty")
        );
        assert_eq!(revision("unknown", Some(" M a.rs\n")), "unknown");
    }

    #[test]
    fn json_round_trip() {
        let fp = sample();
        let back = Fingerprint::from_json(&fp.to_json()).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn comparability_ignores_toolchain_but_not_cores_or_profile() {
        let a = sample();
        let mut b = sample();
        b.rustc = "rustc 1.96.0".to_string();
        b.git_sha = "def456".to_string();
        assert!(a.comparable_to(&b));
        b.cores = 1;
        assert!(!a.comparable_to(&b));
        b.cores = a.cores;
        b.profile = "debug".to_string();
        assert!(!a.comparable_to(&b));
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let mut json = sample().to_json();
        if let Json::Obj(m) = &mut json {
            m.retain(|(k, _)| k != "arch");
        }
        assert!(Fingerprint::from_json(&json).is_err());
        assert!(Fingerprint::from_json(&Json::Null).is_err());
    }
}
