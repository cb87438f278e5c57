//! Process-level measurements: peak resident memory and a records
//! digest.

use ecolife_sim::InvocationRecord;
use std::sync::atomic::{AtomicU64, Ordering};

/// Highest `VmHWM` seen at the end of any measured window (KiB).
static WINDOW_PEAK_KIB: AtomicU64 = AtomicU64::new(0);

/// Start a measured window: reset this process's peak-RSS high-water
/// mark to its current RSS (Linux `clear_refs` mode 5), so what ran
/// before (the calibration kernel, output checks) is not charged to the
/// program. Returns whether the kernel accepted the reset.
pub fn open_window() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// End a measured window, keeping its peak.
pub fn close_window() {
    WINDOW_PEAK_KIB.fetch_max(status_kib("VmHWM:"), Ordering::Relaxed);
}

/// Peak RSS over every measured window so far, in MiB.
pub fn window_peak_mib() -> f64 {
    WINDOW_PEAK_KIB.load(Ordering::Relaxed) as f64 / 1024.0
}

#[cfg(test)]
fn mib(key: &str) -> f64 {
    status_kib(key) as f64 / 1024.0
}

fn status_kib(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {key} in /proc/self/status"))
}

/// FNV-1a over every field of every record (floats by bit pattern), so
/// two runs print the same digest exactly when their records are
/// identical.
pub fn records_digest(records: &[InvocationRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.func.0 as u64);
        eat(r.t_ms);
        eat(r.exec_location.0 as u64);
        eat(r.warm as u64 | (r.rejected as u64) << 1);
        eat(r.service_ms);
        eat(r.queue_ms);
        for g in [
            r.service_carbon.operational_g,
            r.service_carbon.embodied_g,
            r.keepalive_carbon.operational_g,
            r.keepalive_carbon.embodied_g,
            r.energy_kwh,
        ] {
            eat(g.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_reset_per_window() {
        if !open_window() {
            eprintln!("clear_refs unavailable; skipping");
            return;
        }
        // A first window touches 96 MiB, then frees it.
        let big = vec![1u8; 96 << 20];
        assert!(big.iter().step_by(4096).all(|&b| b == 1));
        drop(big);
        close_window();
        let first_peak = window_peak_mib();
        assert!(
            first_peak >= 96.0,
            "peak {first_peak} missed the allocation"
        );
        // The next window starts from a reset mark: its peak must not
        // carry the first one's 96 MiB.
        assert!(open_window());
        let second_peak = mib("VmHWM:");
        assert!(
            second_peak < first_peak - 64.0,
            "peak {second_peak} MiB still includes the previous window ({first_peak} MiB)"
        );
        assert!(second_peak >= mib("VmRSS:") - 1.0);
    }
}
