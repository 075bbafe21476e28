//! Where and how a run was made: commit, compiler, host ISA, core
//! count, kernel plan, and start time.

use serde::Value;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// Core count the run could use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The provenance block. The commit and dirty flag come from `git` only
/// when the working directory is a git checkout; elsewhere (e.g. an
/// exported source tree) they read `unknown`/`null`. The compiler is
/// the `rustc` on `PATH`, the one `cargo run` builds with.
pub fn collect(extra: Vec<(String, Value)>) -> Value {
    let (commit, dirty) = git_state();
    let rustc = output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let mut fields = vec![
        ("commit".to_string(), s(commit)),
        ("dirty".to_string(), dirty.map_or(Value::Null, Value::Bool)),
        ("rustc".to_string(), s(rustc)),
        ("isa".to_string(), s(magneto_tensor::Backend::isa_summary())),
        ("nproc".to_string(), Value::Int(nproc() as i128)),
        (
            "kernel_plan".to_string(),
            s(magneto_tensor::pool::global_plan().describe()),
        ),
        ("start_time".to_string(), s(utc_now())),
    ];
    fields.extend(extra);
    Value::Map(fields)
}

fn git_state() -> (String, Option<bool>) {
    if !Path::new(".git").exists() {
        return ("unknown".to_string(), None);
    }
    let git = |args: &[&str]| output("git", &[&["--no-optional-locks"], args].concat());
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|out| !out.is_empty());
    (commit, dirty)
}

/// Trimmed stdout of a command that succeeded.
fn output(program: &str, args: &[&str]) -> Option<String> {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    utc(secs)
}

fn utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    // Civil-from-days (proleptic Gregorian), H. Hinnant's algorithm.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_formatting() {
        assert_eq!(utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc(1_700_000_000), "2023-11-14T22:13:20Z");
    }
}
