//! Process facts read from `/proc`: peak resident set and CPU time.
//!
//! Linux-only by nature; elsewhere every reader returns `None` and the
//! benchmark reports the metric as unavailable instead of guessing.

/// `USER_HZ`: the tick rate `/proc/<pid>/stat` counts CPU time in. It is
/// 100 on every Linux configuration the kernel's ABI supports.
const TICKS_PER_SECOND: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set (`VmHWM`) of `pid` (or this process) in MiB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(proc_path(pid, "status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds consumed so far by `pid` (or this process).
#[must_use]
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = std::fs::read_to_string(proc_path(pid, "stat")).ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis start at field 3 (state). utime and stime are
    // fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_facts_are_readable_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds(None).is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb(Some(std::process::id())).is_some());
    }
}
