//! The per-layer ledger: span durations aggregated by layer, and the
//! self-check that a transaction's phases cover its measured latency.

use std::collections::HashMap;

use crate::closed_loop::Sample;
use crate::trace::{Kind, Span};

/// A running mean.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mean {
    pub sum: f64,
    pub n: u64,
}

impl Mean {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    pub fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

#[derive(Debug, Default)]
pub struct Ledger {
    pub begin: Mean,
    pub body: Mean,
    pub commit: Mean,
    /// Commit time minus the commit-manager completion call inside it.
    pub commit_self: Mean,
    pub cm_start: Mean,
    pub cm_complete: Mean,
    pub cm_server_start: Mean,
    pub cm_server_complete: Mean,
    pub store_call: Mean,
    /// Total µs in store calls and waits.
    pub store_us: f64,
    pub body_by_tag: [Mean; 5],
    pub commit_by_tag: [Mean; 5],
    /// µs the begin / body / commit / abort / retry-gap spans of each
    /// transaction (with a recorded root span) sum to, by transaction id.
    pub phases_by_txn: HashMap<u64, f64>,
}

/// How well the phases cover the latencies the window measured.
#[derive(Debug, Default, PartialEq)]
pub struct Coverage {
    /// Latency samples whose transaction has a recorded root span.
    pub txns: u64,
    /// Of those, the ones whose phases sum to within 10% of the latency.
    pub within_10pct: u64,
    pub latency_us: f64,
    pub covered_us: f64,
}

impl Coverage {
    /// Share of the summed latency the phases cover.
    pub fn ratio(&self) -> f64 {
        if self.latency_us == 0.0 {
            0.0
        } else {
            self.covered_us / self.latency_us
        }
    }

    /// Share of the transactions covered within 10%.
    pub fn within_10pct_frac(&self) -> f64 {
        self.within_10pct as f64 / self.txns.max(1) as f64
    }
}

impl Ledger {
    /// Aggregate closed spans (per-thread vectors; parent links index the
    /// same vector, 1-based).
    pub fn from_spans(threads: &[Vec<Span>]) -> Ledger {
        let mut l = Ledger::default();
        for spans in threads {
            let mut complete_in = vec![0.0; spans.len()];
            let mut phases_in = vec![0.0; spans.len()];
            for s in spans.iter().filter(|s| s.end_ns != 0) {
                let Some(p) = (s.parent as usize).checked_sub(1) else { continue };
                match s.kind {
                    Kind::CmComplete => complete_in[p] += s.dur_us(),
                    Kind::Begin | Kind::Body | Kind::Commit | Kind::Abort | Kind::RetryGap => {
                        phases_in[p] += s.dur_us()
                    }
                    _ => {}
                }
            }
            for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.end_ns != 0) {
                let d = s.dur_us();
                let tag = (s.tag as usize).min(4);
                match s.kind {
                    Kind::Txn => {
                        l.phases_by_txn.insert(s.txn, phases_in[i]);
                    }
                    Kind::Begin => l.begin.add(d),
                    Kind::Body => {
                        l.body.add(d);
                        l.body_by_tag[tag].add(d);
                    }
                    Kind::Commit => {
                        l.commit.add(d);
                        l.commit_self.add(d - complete_in[i]);
                        l.commit_by_tag[tag].add(d);
                    }
                    Kind::CmStart => l.cm_start.add(d),
                    Kind::CmComplete => l.cm_complete.add(d),
                    Kind::CmServerStart => l.cm_server_start.add(d),
                    Kind::CmServerComplete => l.cm_server_complete.add(d),
                    Kind::StoreCall => {
                        l.store_call.add(d);
                        l.store_us += d;
                    }
                    Kind::StoreWait => l.store_us += d,
                    Kind::Abort | Kind::RetryGap => {}
                }
            }
        }
        l
    }

    /// Compare each measured latency with the phases of its transaction.
    pub fn coverage(&self, samples: &[Sample]) -> Coverage {
        let mut c = Coverage::default();
        for s in samples {
            let Some(&covered) = self.phases_by_txn.get(&s.txn) else { continue };
            let latency = s.ms * 1e3;
            c.txns += 1;
            c.latency_us += latency;
            c.covered_us += covered;
            if (covered - latency).abs() <= 0.1 * latency {
                c.within_10pct += 1;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { kind, tag: 0, start_ns, end_ns, parent, txn: 1, thread: 1 }
    }

    #[test]
    fn self_time_and_coverage() {
        let spans = vec![
            span(Kind::Txn, 0, 10_000, 0),
            span(Kind::Begin, 0, 1_000, 1),
            span(Kind::Body, 1_000, 5_000, 1),
            span(Kind::Commit, 5_000, 9_500, 1),
            span(Kind::CmComplete, 8_000, 9_000, 4),
        ];
        let l = Ledger::from_spans(&[spans]);
        assert_eq!(l.commit.get(), 4.5);
        assert_eq!(l.commit_self.get(), 3.5);
        // Phases cover 9.5 µs. Measured 10 µs: within 10%; measured 12 µs:
        // not. A sample without a recorded root span is left out.
        let sample = |txn, ms| Sample { ms, txn };
        let c = l.coverage(&[sample(1, 0.010), sample(2, 0.010)]);
        assert_eq!((c.txns, c.within_10pct), (1, 1));
        assert!((c.ratio() - 0.95).abs() < 1e-9);
        let c = l.coverage(&[sample(1, 0.012)]);
        assert_eq!((c.txns, c.within_10pct), (1, 0));
    }
}
