//! Golden snapshots: the three-line contract a checked-in baseline pins.
//!
//! Because the chain tip transitively hashes every event, `(events,
//! tip)` pins an entire run — the snapshot stays tiny while still
//! detecting any behavioral drift. The full JSONL stream is checked in
//! beside it so a failing comparison can name the first divergent event
//! (see [`crate::first_divergence`]), not just "tip differs".

use crate::chain::ChainSummary;

/// A parsed `.golden` file.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenSnapshot {
    pub workload: String,
    pub events: u64,
    pub tip: String,
}

const HEADER: &str = "ecolife-trace golden v1";

impl GoldenSnapshot {
    pub fn new(workload: &str, summary: &ChainSummary) -> Self {
        GoldenSnapshot {
            workload: workload.to_string(),
            events: summary.events,
            tip: summary.tip.clone(),
        }
    }

    /// The file format, line by line: header, workload, event count, tip.
    pub fn render(&self) -> String {
        format!(
            "{HEADER}\nworkload: {}\nevents: {}\ntip: {}\n",
            self.workload, self.events, self.tip
        )
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(HEADER) => {}
            other => return Err(format!("bad golden header: {other:?}")),
        }
        let take = |lines: &mut std::str::Lines<'_>, key: &str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("missing '{key}:' line"))?;
            line.strip_prefix(key)
                .and_then(|l| l.strip_prefix(": "))
                .map(str::to_string)
                .ok_or_else(|| format!("expected '{key}: …', got '{line}'"))
        };
        let workload = take(&mut lines, "workload")?;
        let events = take(&mut lines, "events")?
            .parse::<u64>()
            .map_err(|e| format!("bad event count: {e}"))?;
        let tip = take(&mut lines, "tip")?;
        Ok(GoldenSnapshot {
            workload,
            events,
            tip,
        })
    }

    /// Does a freshly produced chain match this baseline?
    pub fn matches(&self, summary: &ChainSummary) -> bool {
        self.events == summary.events && self.tip == summary.tip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let snap = GoldenSnapshot {
            workload: "quickstart".into(),
            events: 1234,
            tip: "ab".repeat(32),
        };
        assert_eq!(GoldenSnapshot::parse(&snap.render()).unwrap(), snap);
    }

    #[test]
    fn bad_header_is_rejected() {
        assert!(GoldenSnapshot::parse("something else\n").is_err());
    }
}
