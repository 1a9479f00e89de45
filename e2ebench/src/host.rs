//! Host and build metadata recorded with every result, and the process's
//! peak resident set.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serialises")
}

/// One JSON object describing host, build and run.
pub fn metadata_json(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}, \
         \"features\": \"default (no fastmath)\", \"git_commit\": {}}}}}",
        json_str(workload),
        json_str(&cpu_model()),
        json_str(env!("E2E_RUSTC_VERSION")),
        json_str(env!("E2E_PROFILE")),
        json_str(&git_commit()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_line_is_one_json_object() {
        let line = metadata_json("a\"b\\c\n", 7, 2.5, true);
        let json = serde_json::parse_value(&line).expect("valid JSON");
        let meta = json.get("meta").expect("meta object");
        assert!(meta.get("nproc").is_some() && meta.get("git_commit").is_some());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
