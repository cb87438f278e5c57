//! Replay diffing: find the first divergent sequence number between two
//! serialized streams, and pretty-print event lines for humans.
//!
//! Because the hash chain folds every line into its successors, two
//! streams that diverge anywhere diverge at every later line — the
//! *first* divergence is the behavioral difference, everything after it
//! is chain fallout. That first event is what "summary differs" never
//! told you: which decision, expiry, or revocation went wrong.

/// The first point where two streams disagree. `None` on a side means
/// that stream ended early.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    pub seq: u64,
    pub left: Option<String>,
    pub right: Option<String>,
}

/// Compare two streams line by line; `None` means byte-identical.
/// The canonical spelling for identity assertions — the bit-identity
/// suites pin "no first divergence" instead of comparing record
/// structs, so a claim of sameness also covers event emission.
pub fn first_divergence(left: &[&str], right: &[&str]) -> Option<Divergence> {
    let n = left.len().max(right.len());
    for i in 0..n {
        let l = left.get(i).copied();
        let r = right.get(i).copied();
        if l != r {
            return Some(Divergence {
                seq: i as u64,
                left: l.map(str::to_string),
                right: r.map(str::to_string),
            });
        }
    }
    None
}

/// Expand a flat event line into an indented multi-line form. Splitting
/// on `,"` is exact for the sink's controlled format (no value contains
/// that byte pair).
pub fn pretty(line: &str) -> String {
    let inner = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or(line);
    let mut out = String::from("{\n");
    for (i, part) in inner.split(",\"").enumerate() {
        out.push_str("  ");
        if i > 0 {
            out.push('"');
        }
        out.push_str(part);
        out.push('\n');
    }
    out.push('}');
    out
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "first divergence at seq {}:", self.seq)?;
        match &self.left {
            Some(l) => writeln!(f, "--- left\n{}", pretty(l))?,
            None => writeln!(f, "--- left\n<stream ended at seq {}>", self.seq)?,
        }
        match &self.right {
            Some(r) => write!(f, "+++ right\n{}", pretty(r)),
            None => write!(f, "+++ right\n<stream ended at seq {}>", self.seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_have_no_divergence() {
        assert_eq!(first_divergence(&["a", "b"], &["a", "b"]), None);
    }

    #[test]
    fn first_divergent_seq_is_reported() {
        let d = first_divergence(&["a", "b", "c"], &["a", "x", "y"]).unwrap();
        assert_eq!(d.seq, 1);
        assert_eq!(d.left.as_deref(), Some("b"));
        assert_eq!(d.right.as_deref(), Some("x"));
    }

    #[test]
    fn truncation_diverges_at_the_missing_line() {
        let d = first_divergence(&["a", "b"], &["a"]).unwrap();
        assert_eq!(d.seq, 1);
        assert_eq!(d.right, None);
    }

    #[test]
    fn pretty_splits_fields() {
        let p = pretty("{\"seq\":0,\"type\":\"RunStarted\",\"nodes\":2}");
        assert!(p.contains("\n  \"seq\":0\n"));
        assert!(p.contains("\n  \"nodes\":2\n"));
    }
}
