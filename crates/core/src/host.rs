//! Host introspection: the current machine's Table 1 row.

use lmb_results::SystemInfo;

/// Reads the first `key: value` occurrence from /proc/cpuinfo-style text.
fn proc_field(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// The host's short name, `"{OS}/{ARCH}"`: a compile-time constant pair,
/// so callers that need only the name skip the `/proc` reads of
/// [`detect_host`].
#[must_use]
pub fn host_name() -> String {
    format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH)
}

/// Builds a [`SystemInfo`] for the current host from /proc and std
/// constants. Every field degrades gracefully on non-Linux or restricted
/// systems.
pub fn detect_host() -> SystemInfo {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = proc_field(&cpuinfo, "model name")
        .or_else(|| proc_field(&cpuinfo, "Processor"))
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let mhz = proc_field(&cpuinfo, "cpu MHz")
        .and_then(|s| s.parse::<f64>().ok())
        .map(|f| f.round() as u32)
        .unwrap_or(0);
    let cores = cpuinfo.matches("processor\t").count().max(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let os_release = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let os = if os_release.is_empty() {
        std::env::consts::OS.to_string()
    } else {
        format!("{} {}", std::env::consts::OS, os_release)
    };
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "localhost".into());

    SystemInfo {
        name: host_name(),
        vendor_model: hostname,
        multiprocessor: cores > 1,
        os,
        cpu,
        mhz,
        year: 2026,
        specint92: None,
        list_price_kusd: None,
    }
}

/// Total system memory in bytes, from /proc/meminfo (0 if unreadable).
pub fn total_memory_bytes() -> u64 {
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    proc_field(&meminfo, "MemTotal")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|n| n.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_host_fills_every_identity_field() {
        let h = detect_host();
        assert!(!h.name.is_empty());
        assert!(!h.cpu.is_empty());
        assert!(!h.os.is_empty());
        assert!(h.name.contains('/'));
        assert_eq!(h.name, host_name());
    }

    #[test]
    fn proc_field_parses_key_value() {
        let text = "model name\t: Fast CPU 3000\ncpu MHz\t\t: 2994.375\n";
        assert_eq!(proc_field(text, "model name").unwrap(), "Fast CPU 3000");
        assert_eq!(proc_field(text, "cpu MHz").unwrap(), "2994.375");
        assert_eq!(proc_field(text, "bogus"), None);
    }

    #[test]
    fn proc_field_takes_first_occurrence() {
        let text = "k: first\nk: second\n";
        assert_eq!(proc_field(text, "k").unwrap(), "first");
    }

    #[test]
    fn memory_detection_is_plausible_on_linux() {
        let mem = total_memory_bytes();
        if std::path::Path::new("/proc/meminfo").exists() {
            assert!(mem > 64 << 20, "{mem} bytes of RAM is implausible");
        }
    }
}
