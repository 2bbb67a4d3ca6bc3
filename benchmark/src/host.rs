//! What the numbers were measured on, and how much memory it took.

use crate::report::obj;
use calyx_service::json::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, `rustc --version` and the git commit, for the result file. A
/// checkout that is not a git repository records the commit as `unknown`.
pub fn record() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let unknown = || "unknown".to_string();
    obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("os", Json::Str(std::env::consts::OS.to_string())),
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
    ])
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
