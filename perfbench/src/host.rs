//! The host row attached to every result, and the process memory high-water
//! mark.

use std::fs;
use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

impl Host {
    /// Probes the host; `root` is the checkout the benchmark runs from.
    pub fn probe(root: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One `key=value` line.
    pub fn line(&self) -> String {
        format!(
            "host nproc={} cpu=\"{}\" profile={} commit={}",
            self.nproc, self.cpu, self.profile, self.commit
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Resolves `.git/HEAD` by reading files, without starting a process.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_row_names_every_field() {
        let line = Host::probe(Path::new(".")).line();
        for key in ["nproc=", "cpu=", "profile=", "commit="] {
            assert!(line.contains(key), "{line}");
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
