//! Per-batch results of the streaming engine: [`StreamOutcome`],
//! [`StreamItem`], [`SubmitOutcome`] and [`EngineClosed`].

use dquag_validate::{ValidateError, Verdict};
use std::fmt;
use std::time::Duration;

/// What the engine reports for one submitted batch.
///
/// A batch always produces exactly one outcome, in submission order. The
/// engine never stalls the stream on a slow batch: when a per-batch deadline
/// is configured and missed, the outcome is [`DeadlineExceeded`] and any
/// late verdict is discarded.
///
/// [`DeadlineExceeded`]: StreamOutcome::DeadlineExceeded
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOutcome {
    /// Validation finished within budget.
    Verdict(Verdict),
    /// The batch missed its validation budget (measured from submission).
    DeadlineExceeded {
        /// The configured budget the batch was given.
        budget: Duration,
        /// How long the batch had actually been waiting when it was given up
        /// on (or when its late verdict finally landed).
        waited: Duration,
    },
    /// The backend returned an error for this batch (wrong schema, …).
    Failed(ValidateError),
}

impl StreamOutcome {
    /// The verdict, when validation completed in time.
    pub fn verdict(&self) -> Option<&Verdict> {
        match self {
            StreamOutcome::Verdict(v) => Some(v),
            _ => None,
        }
    }

    /// Consume the outcome into its verdict, when there is one.
    pub fn into_verdict(self) -> Option<Verdict> {
        match self {
            StreamOutcome::Verdict(v) => Some(v),
            _ => None,
        }
    }

    /// True when the batch missed its deadline.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(self, StreamOutcome::DeadlineExceeded { .. })
    }

    /// True when the backend errored on the batch.
    pub fn is_failed(&self) -> bool {
        matches!(self, StreamOutcome::Failed(_))
    }
}

impl From<Verdict> for StreamOutcome {
    fn from(verdict: Verdict) -> Self {
        StreamOutcome::Verdict(verdict)
    }
}

impl From<ValidateError> for StreamOutcome {
    fn from(error: ValidateError) -> Self {
        StreamOutcome::Failed(error)
    }
}

impl fmt::Display for StreamOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamOutcome::Verdict(v) => write!(f, "{v}"),
            StreamOutcome::DeadlineExceeded { budget, waited } => write!(
                f,
                "DEADLINE EXCEEDED (budget {:.0} ms, waited {:.0} ms)",
                budget.as_secs_f64() * 1e3,
                waited.as_secs_f64() * 1e3,
            ),
            StreamOutcome::Failed(e) => write!(f, "FAILED: {e}"),
        }
    }
}

/// One emitted element of the verdict stream.
#[derive(Debug, Clone)]
pub struct StreamItem {
    /// Submission sequence number (the engine emits in ascending order,
    /// gap-free over accepted batches).
    pub seq: u64,
    /// Rows of the submitted batch.
    pub n_rows: usize,
    /// Submission-to-emission latency.
    pub latency: Duration,
    /// The batch's outcome.
    pub outcome: StreamOutcome,
}

impl fmt::Display for StreamItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} [{} rows, {:.1} ms] {}",
            self.seq,
            self.n_rows,
            self.latency.as_secs_f64() * 1e3,
            self.outcome,
        )
    }
}

/// What happened to one `submit` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The batch was accepted under this sequence number; its outcome will
    /// appear on the verdict stream.
    Enqueued(u64),
    /// The queue was full and the policy is `DropNewest`: the batch was
    /// discarded (recorded in the stats) and will produce no outcome.
    Dropped,
    /// The queue was full and the policy is `Reject`: the caller keeps the
    /// problem (retry, shed load, …). No outcome will appear.
    Rejected,
    /// A `submit_cancellable` under the `Block` policy was cancelled while
    /// it waited for a queue slot. No outcome will appear.
    TimedOut,
}

impl SubmitOutcome {
    /// The assigned sequence number, when the batch was accepted.
    pub fn seq(&self) -> Option<u64> {
        match self {
            SubmitOutcome::Enqueued(seq) => Some(*seq),
            _ => None,
        }
    }

    /// True when the batch was accepted into the queue.
    pub fn is_enqueued(&self) -> bool {
        matches!(self, SubmitOutcome::Enqueued(_))
    }
}

/// The log spelling of a submission result (`ACK <seq>` / `DROPPED` /
/// `REJECTED` / `TIMEOUT`). The HTTP listener's `503` reply to a refused
/// `POST /ingest` carries the lowercase form as its `status`
/// (`{"status": "rejected"}`), so logs and replies read the same.
impl fmt::Display for SubmitOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitOutcome::Enqueued(seq) => write!(f, "ACK {seq}"),
            SubmitOutcome::Dropped => f.write_str("DROPPED"),
            SubmitOutcome::Rejected => f.write_str("REJECTED"),
            SubmitOutcome::TimedOut => f.write_str("TIMEOUT"),
        }
    }
}

/// Submitting to (or receiving from) an engine whose ingestion side has been
/// closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineClosed;

impl fmt::Display for EngineClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the stream engine's ingestion side is closed")
    }
}

impl std::error::Error for EngineClosed {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_round_trips_through_outcome() {
        let verdict = Verdict::dataset_level("Gate", true, 1.5, 10, vec!["v".into()]);
        let outcome: StreamOutcome = verdict.clone().into();
        assert_eq!(outcome.verdict(), Some(&verdict));
        assert_eq!(outcome.clone().into_verdict(), Some(verdict));
        assert!(!outcome.is_deadline_exceeded());
        assert!(!outcome.is_failed());
    }

    #[test]
    fn non_verdict_outcomes_carry_no_verdict() {
        let deadline = StreamOutcome::DeadlineExceeded {
            budget: Duration::from_millis(50),
            waited: Duration::from_millis(80),
        };
        assert!(deadline.is_deadline_exceeded());
        assert_eq!(deadline.verdict(), None);
        assert!(deadline.to_string().contains("DEADLINE"));

        let failed: StreamOutcome = ValidateError::InvalidBatch("empty".into()).into();
        assert!(failed.is_failed());
        assert!(failed.to_string().contains("FAILED"));
    }

    #[test]
    fn submit_outcome_accessors() {
        assert_eq!(SubmitOutcome::Enqueued(7).seq(), Some(7));
        assert!(SubmitOutcome::Enqueued(7).is_enqueued());
        assert_eq!(SubmitOutcome::Dropped.seq(), None);
        assert!(!SubmitOutcome::Rejected.is_enqueued());
        assert!(EngineClosed.to_string().contains("closed"));
    }

    #[test]
    fn submit_outcome_display_is_the_wire_spelling() {
        assert_eq!(SubmitOutcome::Enqueued(42).to_string(), "ACK 42");
        assert_eq!(SubmitOutcome::Dropped.to_string(), "DROPPED");
        assert_eq!(SubmitOutcome::Rejected.to_string(), "REJECTED");
        assert_eq!(SubmitOutcome::TimedOut.to_string(), "TIMEOUT");
    }
}
