//! Operation and failure counting. A failure is a transport error, an error
//! outcome, or a wrong answer; every checked operation lands in exactly one
//! of "ok" and one failure kind.

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The request or its reply never made it (socket, frame, protocol).
    Transport,
    /// The program answered with an error outcome.
    ErrorOutcome,
    /// The program answered, and the answer did not check out.
    WrongAnswer,
}

impl Failure {
    const ALL: [Failure; 3] = [
        Failure::Transport,
        Failure::ErrorOutcome,
        Failure::WrongAnswer,
    ];

    /// Stable name, for passing a result between processes.
    pub fn name(self) -> &'static str {
        match self {
            Failure::Transport => "transport",
            Failure::ErrorOutcome => "error_outcome",
            Failure::WrongAnswer => "wrong_answer",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Failure> {
        Self::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Failure details printed before the rest are only counted.
const SHOWN: u64 = 5;

/// Attempted/failed counters for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    attempted: u64,
    transport: u64,
    error_outcome: u64,
    wrong_answer: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn record(&mut self, result: Result<(), (Failure, String)>) {
        self.attempted += 1;
        let Err((kind, detail)) = result else {
            return;
        };
        if self.failed() < SHOWN {
            eprintln!(
                "perfbench: op {} failed ({kind:?}): {detail}",
                self.attempted
            );
        }
        match kind {
            Failure::Transport => self.transport += 1,
            Failure::ErrorOutcome => self.error_outcome += 1,
            Failure::WrongAnswer => self.wrong_answer += 1,
        }
    }

    /// Operations checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed, any kind.
    pub fn failed(&self) -> u64 {
        self.transport + self.error_outcome + self.wrong_answer
    }

    /// `transport/error outcome/wrong answer` counts, for the report.
    pub fn breakdown(&self) -> String {
        format!(
            "transport {}, error outcome {}, wrong answer {}",
            self.transport, self.error_outcome, self.wrong_answer
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_is_attempted_and_failures_split_by_kind() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err((Failure::Transport, "reset".into())));
        t.record(Ok(()));
        t.record(Err((Failure::WrongAnswer, "not maximal".into())));
        t.record(Err((Failure::ErrorOutcome, "unknown epoch".into())));
        t.record(Err((Failure::WrongAnswer, "digest".into())));
        assert_eq!(t.attempted(), 6);
        assert_eq!(t.failed(), 4);
        assert_eq!(
            t.breakdown(),
            "transport 1, error outcome 1, wrong answer 2"
        );
    }

    #[test]
    fn failure_names_round_trip() {
        for f in Failure::ALL {
            assert_eq!(Failure::from_name(f.name()), Some(f));
        }
        assert_eq!(Failure::from_name("ok"), None);
    }

    #[test]
    fn a_clean_run_reports_zero_failures() {
        let mut t = Tally::default();
        for _ in 0..1000 {
            t.record(Ok(()));
        }
        assert_eq!((t.attempted(), t.failed()), (1000, 0));
    }
}
